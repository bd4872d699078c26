package ast

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleTree() *Node {
	return New(TypeSelect,
		New(TypeProject,
			New(TypeProjClause, Leaf(TypeColExpr, "cty")),
			New(TypeProjClause, Leaf(TypeColExpr, "sales")),
		),
		New(TypeFrom, New(TypeFromClause, Leaf(TypeTabExpr, "T"))),
		New(TypeWhere,
			NewAttr(TypeBiExpr, "op", "=",
				Leaf(TypeColExpr, "cty"),
				Leaf(TypeStrExpr, "USA"))),
		New(TypeGroupBy),
		New(TypeHaving),
		New(TypeOrderBy),
		New(TypeLimit),
	)
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	a := sampleTree()
	b := a.Clone()
	if !Equal(a, b) {
		t.Fatalf("clone not equal: %s vs %s", a, b)
	}
	b.Children[0].Children[0].Children[0].Attrs["value"] = "other"
	if Equal(a, b) {
		t.Fatal("mutating clone affected original (shallow copy)")
	}
	if a.Children[0].Children[0].Children[0].Value() != "cty" {
		t.Fatal("original mutated through clone")
	}
}

func TestEqualNilHandling(t *testing.T) {
	if !Equal(nil, nil) {
		t.Fatal("nil != nil")
	}
	if Equal(nil, sampleTree()) || Equal(sampleTree(), nil) {
		t.Fatal("nil equal to non-nil")
	}
}

func TestLabelEqual(t *testing.T) {
	a := NewAttr(TypeBiExpr, "op", "=", Leaf(TypeColExpr, "x"))
	b := NewAttr(TypeBiExpr, "op", "=", Leaf(TypeColExpr, "y"))
	c := NewAttr(TypeBiExpr, "op", ">", Leaf(TypeColExpr, "x"))
	if !LabelEqual(a, b) {
		t.Fatal("labels with same type+attrs should match regardless of children")
	}
	if LabelEqual(a, c) {
		t.Fatal("different op attr should break label equality")
	}
}

func TestSize(t *testing.T) {
	if got := sampleTree().Size(); got != 17 {
		t.Fatalf("Size = %d, want 17", got)
	}
	var nilNode *Node
	if nilNode.Size() != 0 {
		t.Fatal("nil node size should be zero")
	}
}

func TestAtAndWalkAgree(t *testing.T) {
	tr := sampleTree()
	count := 0
	tr.Walk(func(n *Node, p Path) bool {
		count++
		if got := tr.At(p); got != n {
			t.Fatalf("At(%s) = %v, want node %v", p, got, n)
		}
		return true
	})
	if count != tr.Size() {
		t.Fatalf("walk visited %d nodes, size is %d", count, tr.Size())
	}
}

func TestWalkPrune(t *testing.T) {
	tr := sampleTree()
	count := 0
	tr.Walk(func(n *Node, p Path) bool {
		count++
		return n.Type != TypeProject // prune the projection subtree
	})
	// Pruning Project skips its 4 descendants.
	if count != tr.Size()-4 {
		t.Fatalf("pruned walk visited %d, want %d", count, tr.Size()-4)
	}
}

func TestReplaceAt(t *testing.T) {
	tr := sampleTree()
	p := Path{SlotWhere, 0, 1} // the StrExpr(USA)
	if got := tr.At(p); got.Value() != "USA" {
		t.Fatalf("precondition: At(%s).Value = %q", p, got.Value())
	}
	repl := Leaf(TypeStrExpr, "EUR")
	out := tr.ReplaceAt(p, repl)
	if out == nil {
		t.Fatal("ReplaceAt returned nil")
	}
	if got := out.At(p).Value(); got != "EUR" {
		t.Fatalf("replacement not applied: %q", got)
	}
	if got := tr.At(p).Value(); got != "USA" {
		t.Fatal("ReplaceAt mutated the original tree")
	}
	// Everything off the replaced path is structurally unchanged.
	if !Equal(out.Child(SlotProject), tr.Child(SlotProject)) {
		t.Fatal("unrelated subtree changed")
	}
}

func TestReplaceAtRoot(t *testing.T) {
	tr := sampleTree()
	repl := Leaf(TypeStrExpr, "x")
	out := tr.ReplaceAt(Path{}, repl)
	if !Equal(out, repl) {
		t.Fatalf("root replacement failed: %s", out)
	}
}

func TestReplaceAtInvalidPath(t *testing.T) {
	tr := sampleTree()
	if out := tr.ReplaceAt(Path{99}, Leaf(TypeStrExpr, "x")); out != nil {
		t.Fatalf("invalid path should return nil, got %s", out)
	}
	if out := tr.ReplaceAt(Path{0, 0, 0, 5, 1}, Leaf(TypeStrExpr, "x")); out != nil {
		t.Fatalf("deep invalid path should return nil, got %s", out)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sampleTree()
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Node
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !Equal(tr, &back) {
		t.Fatalf("JSON round trip changed tree:\n%s\n%s", tr, &back)
	}
}

func TestStringRendering(t *testing.T) {
	n := NewAttr(TypeBiExpr, "op", "=",
		Leaf(TypeColExpr, "cty"), Leaf(TypeStrExpr, "USA"))
	want := "(BiExpr{op:=} (ColExpr{value:cty}) (StrExpr{value:USA}))"
	if got := n.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// TestIsKeyword: every reserved word is recognised in any letter case
// (IsKeyword lower-cases into a fixed buffer sized to the longest one),
// and nothing longer or merely similar is.
func TestIsKeyword(t *testing.T) {
	for k := range keywords {
		if !IsKeyword(k) || !IsKeyword(strings.ToUpper(k)) {
			t.Errorf("IsKeyword(%q) = false", k)
		}
	}
	for _, w := range []string{"", "selects", "sel", "distinctly", "tbl"} {
		if IsKeyword(w) {
			t.Errorf("IsKeyword(%q) = true", w)
		}
	}
}
