package ast

// Node type names used by the SQL grammar. The parser produces exactly
// these; the diff and widget layers dispatch on them. The Select node
// has a fixed child layout (see the Slot* constants) so that clause
// positions — and therefore diff paths — are stable across queries that
// omit optional clauses.
const (
	TypeSelect      = "Select"      // root; fixed children: Project, From, Where, GroupBy, Having, OrderBy, Limit
	TypeProject     = "Project"     // collection of ProjClause
	TypeProjClause  = "ProjClause"  // one output expression, attr "alias" optional
	TypeFrom        = "From"        // collection of FromClause
	TypeFromClause  = "FromClause"  // one relation, attr "alias" optional
	TypeWhere       = "Where"       // zero children (absent) or one boolean expression
	TypeGroupBy     = "GroupBy"     // collection of grouping expressions
	TypeHaving      = "Having"      // zero or one boolean expression
	TypeOrderBy     = "OrderBy"     // collection of OrderClause
	TypeOrderClause = "OrderClause" // attr "dir" in {asc,desc}
	TypeLimit       = "Limit"       // zero children (absent) or one NumExpr; attr "kind" in {top,limit}

	TypeSubQuery = "SubQuery" // one Select child (derived table or IN-subquery)
	TypeTabExpr  = "TabExpr"  // terminal, value = table name (possibly qualified)
	TypeTabFunc  = "TabFunc"  // table-valued function: FuncName child + args
	TypeJoin     = "JoinExpr" // attr "kind" in {inner,left}; children: left FromClause, right FromClause, ON expression

	TypeBiExpr     = "BiExpr"      // attr "op"; two children
	TypeUniExpr    = "UniExpr"     // attr "op" (NOT, -); one child
	TypeFuncExpr   = "FuncExpr"    // FuncName child followed by argument expressions; attr "distinct" optional
	TypeFuncName   = "FuncName"    // terminal, value = function name (lower-cased)
	TypeCaseExpr   = "CaseExpr"    // optional operand child then WhenClause* then ElseClause?
	TypeWhenClause = "WhenClause"  // two children: condition/match and result
	TypeElseClause = "ElseClause"  // one child
	TypeCastExpr   = "CastExpr"    // one child; attr "as" optional target type
	TypeInExpr     = "InExpr"      // attr "not" optional; first child operand, then list items or SubQuery
	TypeBetween    = "BetweenExpr" // three children: operand, low, high; attr "not" optional
	TypeParen      = "ParenExpr"   // one child, preserved so unparse round-trips

	// DML statement nodes. These are produced only by
	// sqlparser.ParseStatement — the mining pipeline (Parse)
	// stays SELECT-only, so no Slot layout, widget kind or collection
	// annotation applies to them.
	TypeUpdate  = "Update"  // children: TabExpr, Set, Where (empty clause when absent)
	TypeDelete  = "Delete"  // children: TabExpr, Where (empty clause when absent)
	TypeSet     = "Set"     // collection of SetItem
	TypeSetItem = "SetItem" // attr "col" = target column; one value expression child

	TypeColExpr  = "ColExpr"  // terminal, value = column name, attr "table" optional qualifier
	TypeStrExpr  = "StrExpr"  // terminal string literal
	TypeNumExpr  = "NumExpr"  // terminal numeric literal (decimal or 0x hex), attr "fmt" = "hex" for hex
	TypeStarExpr = "StarExpr" // terminal "*", attr "table" optional
	TypeNullExpr = "NullExpr" // terminal NULL
	TypeBoolExpr = "BoolExpr" // terminal TRUE/FALSE
)

// Fixed child slots of a Select node. Optional clauses are always
// present as empty clause nodes so paths stay stable (the paper's
// example paths, e.g. Table 1's "2/0/0/1" into WHERE, assume Project=0).
const (
	SlotProject = 0
	SlotFrom    = 1
	SlotWhere   = 2
	SlotGroupBy = 3
	SlotHaving  = 4
	SlotOrderBy = 5
	SlotLimit   = 6
	NumSlots    = 7
)

// Kind is the primitive kind a widget domain is typed with (§4.3): the
// implementation distinguishes strings, numbers, and trees. Numbers can
// be cast to strings, and any kind can be cast to a tree.
type Kind int

const (
	KindTree Kind = iota
	KindString
	KindNumber
)

// String returns the short name used in the paper's Table 1 ("str",
// "num", "tree").
func (k Kind) String() string {
	switch k {
	case KindString:
		return "str"
	case KindNumber:
		return "num"
	default:
		return "tree"
	}
}

// CastableTo reports whether a domain of kind k can be used by a widget
// that requires kind want: numbers cast to strings, anything to trees.
func (k Kind) CastableTo(want Kind) bool {
	switch want {
	case KindTree:
		return true
	case KindString:
		return k == KindString || k == KindNumber
	case KindNumber:
		return k == KindNumber
	}
	return false
}

// terminalKinds is the grammar annotation mapping terminal node types
// to primitive kinds (§4.1 "Assumptions"). Column, table and function
// names are treated as string literals, matching Table 1 where
// ColExpr(sales)→ColExpr(costs) has type "str".
var terminalKinds = map[string]Kind{
	TypeStrExpr:  KindString,
	TypeColExpr:  KindString,
	TypeTabExpr:  KindString,
	TypeFuncName: KindString,
	TypeStarExpr: KindString,
	TypeNullExpr: KindString,
	TypeBoolExpr: KindString,
	TypeNumExpr:  KindNumber,
}

// KindOf returns the primitive kind of a subtree: the annotated kind for
// terminal node types, KindTree for everything else (including nil,
// which represents an added/removed subtree).
func KindOf(n *Node) Kind {
	if n == nil {
		return KindTree
	}
	if k, ok := terminalKinds[n.Type]; ok {
		return k
	}
	return KindTree
}

// collectionTypes is the grammar annotation listing node types that
// represent collections of sub-expressions (§4.1), e.g. Project is a
// collection of ProjClause nodes. Widgets such as checkbox lists model
// these.
var collectionTypes = map[string]bool{
	TypeProject: true,
	TypeFrom:    true,
	TypeGroupBy: true,
	TypeOrderBy: true,
}

// IsCollection reports whether the node type represents a collection of
// sub-expressions.
func IsCollection(typ string) bool { return collectionTypes[typ] }

// NewSelect returns a Select node with all seven clause slots present
// (empty clause nodes for absent clauses).
func NewSelect() *Node {
	return New(TypeSelect,
		New(TypeProject),
		New(TypeFrom),
		New(TypeWhere),
		New(TypeGroupBy),
		New(TypeHaving),
		New(TypeOrderBy),
		New(TypeLimit),
	)
}

// IsEmptyClause reports whether a clause node is present but empty
// (e.g. a query with no WHERE has an empty Where node in slot 2).
func IsEmptyClause(n *Node) bool {
	return n != nil && len(n.Children) == 0 && len(n.Attrs) == 0
}
