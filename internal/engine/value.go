// Package engine is the exec() substrate the paper assumes (§3.3): an
// in-memory SQL executor that runs the ASTs produced by generated
// interfaces. It supports scans, filters, grouping and aggregation,
// HAVING, ORDER BY, TOP/LIMIT, DISTINCT, FROM-subqueries and table-
// valued functions (including a synthetic SDSS fGetNearbyObjEq), which
// covers every query shape in the paper's three logs.
package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValueKind enumerates runtime value types.
type ValueKind int

const (
	KindNull ValueKind = iota
	KindNumber
	KindString
	KindBool
)

// Value is a runtime SQL value.
type Value struct {
	Kind ValueKind
	Num  float64
	Str  string
	Bool bool
}

// Null, Num, Str and Bool are Value constructors.
func Null() Value          { return Value{Kind: KindNull} }
func Num(f float64) Value  { return Value{Kind: KindNumber, Num: f} }
func Str(s string) Value   { return Value{Kind: KindString, Str: s} }
func Boolean(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Truthy interprets the value as a predicate result (NULL is false).
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindBool:
		return v.Bool
	case KindNumber:
		return v.Num != 0
	case KindString:
		return v.Str != ""
	}
	return false
}

// AsNumber coerces to a float64 where possible.
func (v Value) AsNumber() (float64, bool) {
	switch v.Kind {
	case KindNumber:
		return v.Num, true
	case KindBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	case KindString:
		f, err := strconv.ParseFloat(v.Str, 64)
		return f, err == nil
	}
	return 0, false
}

// String renders the value for result tables.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindNumber:
		if v.Num == math.Trunc(v.Num) && math.Abs(v.Num) < 1e15 {
			return strconv.FormatInt(int64(v.Num), 10)
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindString:
		return v.Str
	case KindBool:
		if v.Bool {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Compare orders two values: NULLs first, then numbers, strings, bools.
// Cross-kind comparisons coerce to number when both sides allow it,
// otherwise compare the string forms.
func Compare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if af, ok := a.AsNumber(); ok {
		if bf, ok2 := b.AsNumber(); ok2 {
			return cmpFloat(af, bf)
		}
	}
	return strings.Compare(a.String(), b.String())
}

// cmpFloat orders two numbers. NaN compares equal to everything (both
// < and > fail), a quirk every comparison inherits.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpHolds reports whether a Compare/cmpFloat result satisfies the
// comparison operator op ("=", "<>" or "!=", "<", "<=", ">", ">=").
func cmpHolds(op string, cmp int) bool {
	switch op {
	case "=":
		return cmp == 0
	case "<>", "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	}
	return cmp >= 0
}

// compareOp applies a comparison or LIKE operator — the one definition
// both executors evaluate predicates through. A comparison with a NULL
// side is false (never NULL, so NOT over it is true); LIKE renders
// NULL as the string "NULL". ok=false means op is not a comparison.
func compareOp(op string, l, r Value) (res, ok bool) {
	switch op {
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		return !l.IsNull() && !r.IsNull() && cmpHolds(op, Compare(l, r)), true
	case "like", "not like":
		return Like(l.String(), r.String()) == (op == "like"), true
	}
	return false, false
}

// between is [NOT] BETWEEN: false whenever any operand is NULL, before
// NOT applies.
func between(v, lo, hi Value, not bool) bool {
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return false
	}
	return (Compare(v, lo) >= 0 && Compare(v, hi) <= 0) != not
}

// Equal reports SQL equality (NULL never equals anything, including
// NULL; callers that need grouping semantics use Key instead).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Key returns a grouping key where NULLs compare equal to each other.
func (v Value) Key() string {
	if v.IsNull() {
		return "\x00null"
	}
	return fmt.Sprintf("%d:%s", v.Kind, v.String())
}

// Like implements SQL LIKE with % and _ wildcards (case-insensitive,
// matching common engine defaults for text analysis workloads).
func Like(s, pattern string) bool {
	return likeMatch(strings.ToLower(s), strings.ToLower(pattern))
}

func likeMatch(s, p string) bool {
	// Dynamic programming over positions; patterns are short.
	m, n := len(s), len(p)
	dp := make([]bool, m+1)
	dp[0] = true
	for j := 0; j < n; j++ {
		c := p[j]
		if c == '%' {
			// dp'[i] = any dp[k] for k <= i
			seen := false
			for i := 0; i <= m; i++ {
				if dp[i] {
					seen = true
				}
				dp[i] = seen
			}
			continue
		}
		prev := dp[0]
		dp[0] = false
		for i := 1; i <= m; i++ {
			cur := dp[i]
			dp[i] = prev && (c == '_' || s[i-1] == c)
			prev = cur
		}
	}
	return dp[m]
}
