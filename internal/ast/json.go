package ast

import (
	"encoding/json"
	"fmt"
)

// jsonNode is the stable wire representation of a Node.
type jsonNode struct {
	Type     string            `json:"type"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*jsonNode       `json:"children,omitempty"`
}

func toJSONNode(n *Node) *jsonNode {
	if n == nil {
		return nil
	}
	j := &jsonNode{Type: n.Type, Attrs: n.Attrs}
	for _, c := range n.Children {
		j.Children = append(j.Children, toJSONNode(c))
	}
	return j
}

func fromJSONNode(j *jsonNode) (*Node, error) {
	if j == nil {
		return nil, nil
	}
	if j.Type == "" {
		return nil, fmt.Errorf("ast: node with empty type in JSON")
	}
	n := &Node{Type: j.Type, Attrs: j.Attrs}
	for _, c := range j.Children {
		cn, err := fromJSONNode(c)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
	}
	return n, nil
}

// MarshalJSON encodes the subtree as nested {type, attrs, children}
// objects, the format the HTML compiler embeds in generated pages.
func (n *Node) MarshalJSON() ([]byte, error) {
	return json.Marshal(toJSONNode(n))
}

// UnmarshalJSON decodes the nested-object format.
func (n *Node) UnmarshalJSON(data []byte) error {
	var j jsonNode
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	d, err := fromJSONNode(&j)
	if err != nil {
		return err
	}
	n.Type, n.Attrs, n.Children = d.Type, d.Attrs, d.Children
	n.hash.Store(0)
	return nil
}
