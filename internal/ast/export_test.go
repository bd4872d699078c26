package ast

import (
	"fmt"
	"strconv"
	"strings"
)

// ParsePath parses the "0/1/0" rendering. The empty string and "/" both
// name the root.
func ParsePath(s string) (Path, error) {
	s = strings.Trim(s, "/")
	if s == "" {
		return Path{}, nil
	}
	parts := strings.Split(s, "/")
	p := make(Path, len(parts))
	for i, part := range parts {
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("ast: invalid path segment %q in %q", part, s)
		}
		p[i] = v
	}
	return p, nil
}

// Parent returns the path with the last segment removed; the root's
// parent is the root itself.
func (p Path) Parent() Path {
	if len(p) == 0 {
		return p
	}
	return p[:len(p)-1].Clone()
}
