package api

import (
	"sync"

	"repro/internal/ast"
	"repro/internal/engine"
)

// Cache is a concurrency-safe LRU of query results keyed by the
// canonical structural hash of the bound query AST (ast.HashOf). Widget
// interactions are bursty and highly repetitive — many clients sit on
// the same dashboard and flip the same options — so a small result
// cache absorbs most of the execution load (result caching in the
// spirit of query answering under updates: recompute only what the
// interaction actually changed).
//
// Hash collisions are guarded by comparing the canonical SQL rendering
// of the query; a colliding entry is treated as a miss and overwritten.
type Cache struct {
	mu  sync.Mutex
	lru lru[ast.Hash, cacheEntry]
}

// CachedResult is what the result cache hands the query path: the
// result relation plus its full JSON-scalar projection, computed once
// when the entry is stored. Serving a page is then a subslice of Rows
// — no per-request value conversion, no per-request allocation. Both
// fields are shared across requests and must be treated as immutable.
type CachedResult struct {
	Res  *engine.Table
	Rows [][]any // rowsJSON(Res, 0, len(Res.Rows)), index-aligned
}

type cacheEntry struct {
	sql string // canonical rendering, verified on hit
	res *CachedResult
}

// NewCache returns an LRU holding at most capacity results. A capacity
// of 0 or less disables caching (every lookup misses, nothing is kept).
func NewCache(capacity int) *Cache {
	return &Cache{lru: newLRU[ast.Hash, cacheEntry](capacity)}
}

// Get returns the cached result for the query hash, verifying the
// canonical SQL to rule out hash collisions. The returned result is
// shared and must be treated as immutable by callers.
func (c *Cache) Get(key ast.Hash, sql string) (*CachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.lru.items[key]; ok && c.lru.value(el).sql == sql {
		return c.lru.hit(el).res, true
	}
	c.lru.misses++
	return nil, false
}

// Put wraps a fresh result with its JSON projection, stores it
// (evicting the least recently used entry when the cache is full) and
// returns the wrapped entry so the miss path serves from the same
// projection a later hit would. With caching disabled the wrapping
// still happens — the current request needs it — it just isn't kept.
// The caller must not mutate res after handing it over.
func (c *Cache) Put(key ast.Hash, sql string, res *engine.Table) *CachedResult {
	cr := &CachedResult{Res: res, Rows: rowsJSON(res, 0, len(res.Rows))}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.put(key, cacheEntry{sql: sql, res: cr})
	return cr
}

// CacheStats is a point-in-time snapshot of cache effectiveness,
// exposed by the /debug endpoint and echoed in query responses.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
}

// Stats returns a snapshot of the hit/miss counters and occupancy.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.stats()
}
