package api

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
)

// PlanKey builds AppendPlanKey's key with plain strings: the reference
// the pooled byte builder is checked against (FuzzPlanKey,
// TestAppendPlanKeyMatchesPlanKey).
func PlanKey(bindings []WidgetBinding) string {
	if len(bindings) == 0 {
		return ""
	}
	parts := make([]string, 0, len(bindings))
	for i := range bindings {
		b := &bindings[i]
		var sb strings.Builder
		writeField(&sb, b.Path)
		switch {
		case b.Absent:
			sb.WriteByte('a')
		case b.Number != nil:
			sb.WriteByte('n')
			writeField(&sb, strconv.FormatFloat(*b.Number, 'g', -1, 64))
		case b.Text != nil:
			sb.WriteByte('t')
			writeField(&sb, *b.Text)
		case b.Value != nil:
			sb.WriteByte('v')
			writeField(&sb, strconv.FormatUint(uint64(ast.HashOf(b.Value)), 16))
			writeField(&sb, ast.SQL(b.Value))
		default:
			// Malformed binding (nothing set): make the key unique so it
			// misses and Bind reports the error.
			sb.WriteByte('?')
		}
		parts = append(parts, sb.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// writeField appends one length-prefixed field.
func writeField(sb *strings.Builder, s string) {
	sb.WriteString(strconv.Itoa(len(s)))
	sb.WriteByte(':')
	sb.WriteString(s)
}
