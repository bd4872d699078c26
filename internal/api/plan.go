package api

import (
	"bytes"
	"strconv"
	"sync"

	"repro/internal/ast"
	"repro/internal/engine"
)

// Plan is a bound, rendered, hashed query — everything the query
// handler derives from a widget-state shape before execution. Caching
// plans means a cold *result* cache state (or a cache-disabled server)
// still skips the per-request AST binding walk: the widget-state shape
// is looked up as a string key, no tree copies, no SQL re-rendering,
// no re-hashing.
type Plan struct {
	Query *ast.Node
	SQL   string
	Hash  ast.Hash
	// Col is the columnar compilation of Query when its shape is one
	// the vectorized kernels support (nil otherwise). Compiled once per
	// plan, so the per-request execution choice is a nil check.
	Col *engine.ColPlan
}

// PlanCache is a concurrency-safe LRU of Plans keyed by the canonical
// widget-state shape (AppendPlanKey). Like the result cache it lives inside
// one epoch snapshot, so an interface swap starts with an empty plan
// cache and stale bindings can never leak across epochs.
type PlanCache struct {
	mu  sync.Mutex
	lru lru[string, *Plan]
}

// NewPlanCache returns an LRU holding at most capacity plans (<= 0
// disables caching).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{lru: newLRU[string, *Plan](capacity)}
}

// GetBytes is Get for a key assembled in a reusable byte buffer
// (AppendPlanKey). The string conversion inside the map index is
// recognized by the compiler and does not allocate, so a plan-cache
// hit costs zero heap — the point of building the key as bytes. That
// holds for an index on a concrete map[string] type, which is why the
// lookup is here and not in a generic lru method.
func (c *PlanCache) GetBytes(key []byte) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.lru.items[string(key)]; ok {
		return c.lru.hit(el), true
	}
	c.lru.misses++
	return nil, false
}

// Put stores a plan, evicting the least recently used entry when full.
func (c *PlanCache) Put(key string, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.put(key, p)
}

// Stats returns a snapshot of the hit/miss counters and occupancy.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.stats()
}

// planKeyScratch is the reusable state one AppendPlanKey call needs:
// the key buffer itself, a per-binding rendering area for multi-binding
// requests (which must sort before joining), and a small number buffer
// so float rendering never escapes to the heap. Pooled so the steady
// state of the hot query path allocates nothing.
type planKeyScratch struct {
	buf   []byte
	parts [][]byte
	num   []byte
}

var planKeyPool = sync.Pool{New: func() any { return &planKeyScratch{num: make([]byte, 0, 32)} }}

// AppendPlanKey renders a widget-binding set's canonical key into
// sc.buf: bindings sorted by path, each with a tag for which of the
// four binding forms it uses and a canonical rendering of the value.
// Requests that bind the same widgets to the same values produce the
// same key regardless of binding order, so they share one cached plan.
// The key builder never touches the query AST — that is the work being
// skipped. Every user-controlled field (path, text, value SQL) is
// length-prefixed, making the encoding injective: no crafted text can
// make one binding set collide with another's key and hit a plan the
// client's own bindings would not have validated to.
//
// The single-binding case (the common dashboard interaction: one
// widget changed) needs no sort and no join; multi-binding requests
// render each part into reused scratch slices, insertion-sort them
// (binding counts are widget counts — single digits) and join with '|'.
func (sc *planKeyScratch) AppendPlanKey(bindings []WidgetBinding) {
	sc.buf = sc.buf[:0]
	switch len(bindings) {
	case 0:
		return
	case 1:
		sc.buf = sc.appendBinding(sc.buf, &bindings[0])
		return
	}
	if cap(sc.parts) < len(bindings) {
		sc.parts = make([][]byte, len(bindings))
	}
	parts := sc.parts[:len(bindings)]
	for i := range bindings {
		parts[i] = sc.appendBinding(parts[i][:0], &bindings[i])
	}
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && bytes.Compare(parts[j], parts[j-1]) < 0; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	for i, p := range parts {
		if i > 0 {
			sc.buf = append(sc.buf, '|')
		}
		sc.buf = append(sc.buf, p...)
	}
}

// appendBinding renders one binding's part of the key.
func (sc *planKeyScratch) appendBinding(dst []byte, b *WidgetBinding) []byte {
	dst = appendFieldStr(dst, b.Path)
	switch {
	case b.Absent:
		dst = append(dst, 'a')
	case b.Number != nil:
		dst = append(dst, 'n')
		sc.num = strconv.AppendFloat(sc.num[:0], *b.Number, 'g', -1, 64)
		dst = appendFieldBytes(dst, sc.num)
	case b.Text != nil:
		dst = append(dst, 't')
		dst = appendFieldStr(dst, *b.Text)
	case b.Value != nil:
		dst = append(dst, 'v')
		sc.num = strconv.AppendUint(sc.num[:0], uint64(ast.HashOf(b.Value)), 16)
		dst = appendFieldBytes(dst, sc.num)
		dst = appendFieldStr(dst, ast.SQL(b.Value))
	default:
		dst = append(dst, '?')
	}
	return dst
}

func appendFieldStr(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

func appendFieldBytes(dst []byte, s []byte) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}
