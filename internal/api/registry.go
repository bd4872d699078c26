// Package api is the transport-agnostic service layer of the serving
// system: it owns the registry of hosted interfaces, the binding /
// execution / caching logic, and a typed operation surface (Service)
// with structured errors and pagination. Transports stay thin —
// internal/server maps HTTP requests onto Service operations and
// encodes the results; pi/client speaks the same contract from the
// consumer side; future transports (gRPC, shard routers) plug into the
// same seam.
//
// Concurrency model: a Registry is safe for concurrent use. Each
// Hosted interface's mutable serving state (interface, dataset, result
// cache, plan cache, compiled page) lives behind one atomically
// swapped, internally immutable epoch snapshot: request handlers load
// the snapshot once and work against consistent state for the whole
// request, while ingestion swaps in a re-mined interface under a
// bumped epoch without blocking readers. Swapping replaces the caches
// wholesale, so a post-swap request can never observe a pre-swap
// cached result — the epoch-based invalidation discipline of answering
// queries under updates (Berkholz et al.).
package api

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
)

// epochState is one epoch's immutable serving snapshot: the interface
// and dataset plus the caches that are only valid for them. The two
// caches and the lazily compiled page are internally synchronized; the
// rest is read-only after construction.
type epochState struct {
	epoch uint64
	iface *core.Interface
	db    engine.Catalog
	cache *Cache     // result LRU keyed by canonical AST hash
	plans *PlanCache // bound-query plans keyed by widget-state shape

	pageMu sync.RWMutex
	page   string // lazily compiled served page ("" until first GET)
}

// Hosted is one mined interface registered for serving. Identity (ID,
// Title) is fixed at registration; the served interface itself advances
// through epoch snapshots as live ingestion re-mines it.
type Hosted struct {
	ID    string
	Title string

	cacheSize int
	queries   atomic.Uint64 // total POST /query requests served

	// mx holds the interface's preallocated metric handles (nil only in
	// the tests' metrics-off baseline). statsMu guards the
	// cache hit/miss totals carried over from retired epochs, so the
	// cumulative counters /v1/metrics and /v1/debug expose survive hot
	// swaps even though each epoch starts with fresh caches.
	mx        *hostedMetrics
	statsMu   sync.Mutex
	cacheBase CacheStats
	planBase  CacheStats

	swapMu sync.Mutex // serializes Swap; readers never take it
	state  atomic.Pointer[epochState]
}

// newHosted builds a hosted interface at the given starting epoch
// (1 for a fresh host; a restored interface resumes at its saved
// epoch).
func newHosted(id, title string, iface *core.Interface, db engine.Catalog, cacheSize int, epoch uint64) *Hosted {
	h := &Hosted{ID: id, Title: title, cacheSize: cacheSize}
	h.state.Store(h.newEpoch(epoch, iface, db))
	return h
}

func (h *Hosted) newEpoch(epoch uint64, iface *core.Interface, db engine.Catalog) *epochState {
	return &epochState{
		epoch: epoch,
		iface: iface,
		db:    db,
		cache: NewCache(h.cacheSize),
		plans: NewPlanCache(h.cacheSize),
	}
}

// load returns the current epoch snapshot. Handlers call it once per
// request and use only the snapshot afterwards.
func (h *Hosted) load() *epochState { return h.state.Load() }

// Iface returns the currently served interface (immutable; a Swap
// replaces rather than mutates it, so holders stay consistent).
func (h *Hosted) Iface() *core.Interface { return h.load().iface }

// Epoch returns the current epoch counter (starts at 1, bumped by every
// Swap).
func (h *Hosted) Epoch() uint64 { return h.load().epoch }

// Queries returns the number of query requests this interface served.
func (h *Hosted) Queries() uint64 { return h.queries.Load() }

// CacheTotals returns the cumulative result- and plan-cache hit/miss
// counters across every epoch this interface has served (each Swap
// retires the per-epoch caches but folds their counters into the
// base). Size/Capacity reflect the current epoch. Both /v1/debug and
// the pi_query_*_cache_total metric series read through here, so the
// two surfaces cannot drift.
func (h *Hosted) CacheTotals() (res, plans CacheStats) {
	h.statsMu.Lock()
	res, plans = h.cacheBase, h.planBase
	h.statsMu.Unlock()
	st := h.load()
	cs, ps := st.cache.Stats(), st.plans.Stats()
	res.Hits += cs.Hits
	res.Misses += cs.Misses
	res.Size, res.Capacity = cs.Size, cs.Capacity
	plans.Hits += ps.Hits
	plans.Misses += ps.Misses
	plans.Size, plans.Capacity = ps.Size, ps.Capacity
	return res, plans
}

// Swap replaces the served interface under a bumped epoch: widget
// domains widen (or change arbitrarily), the result and plan caches
// start empty, and the compiled page is recompiled on next request — a
// dashboard that keeps its URL while its log grows. A nil db keeps the
// current dataset; a non-nil one (typically a fresh store snapshot
// after row appends) replaces it, so data updates ride the same
// epoch-bump cache discipline as interface updates. In-flight requests
// finish against the snapshot they loaded; new requests see the new
// epoch. Returns the new epoch.
func (h *Hosted) Swap(iface *core.Interface, db engine.Catalog) (uint64, error) {
	if iface == nil {
		return 0, fmt.Errorf("api: swap on %q needs a non-nil interface", h.ID)
	}
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	cur := h.load()
	if db == nil {
		db = cur.db
	}
	next := h.newEpoch(cur.epoch+1, iface, db)
	// Fold the retiring epoch's cache counters into the cumulative
	// base before the swap; late hits recorded against the old caches
	// after this point are the one tolerated undercount.
	cs, ps := cur.cache.Stats(), cur.plans.Stats()
	h.statsMu.Lock()
	h.cacheBase.Hits += cs.Hits
	h.cacheBase.Misses += cs.Misses
	h.planBase.Hits += ps.Hits
	h.planBase.Misses += ps.Misses
	h.statsMu.Unlock()
	h.state.Store(next)
	return next.epoch, nil
}

// Registry is a concurrency-safe collection of hosted interfaces keyed
// by ID. Reads (the per-request path) take a shared lock; registration
// takes the exclusive lock.
type Registry struct {
	mu        sync.RWMutex
	ifaces    map[string]*Hosted
	cacheSize int
}

// DefaultCacheSize is the per-interface result LRU capacity used when
// the registry was built with NewRegistry.
const DefaultCacheSize = 256

// NewRegistry returns an empty registry whose hosted interfaces get a
// result cache of DefaultCacheSize entries.
func NewRegistry() *Registry { return NewRegistryWithCache(DefaultCacheSize) }

// NewRegistryWithCache returns an empty registry with a custom
// per-interface result-cache capacity (0 disables result caching).
func NewRegistryWithCache(cacheSize int) *Registry {
	return &Registry{ifaces: make(map[string]*Hosted), cacheSize: cacheSize}
}

// Add hosts an interface under the given ID. IDs become one URL path
// segment (/interfaces/{id}/query), so they are restricted to letters,
// digits, '_', '-' and '.'. The database is shared, not copied: callers
// must stop mutating it before serving begins. Adding a duplicate or
// invalid ID or a nil interface/db is an error.
func (r *Registry) Add(id, title string, iface *core.Interface, db engine.Catalog) (*Hosted, error) {
	return r.AddAt(id, title, iface, db, 1)
}

// AddAt is Add with an explicit starting epoch — the restore path
// brings an interface back at (or after) the epoch it was saved at, so
// clients comparing epochs across the restart never observe time
// running backwards.
func (r *Registry) AddAt(id, title string, iface *core.Interface, db engine.Catalog, epoch uint64) (*Hosted, error) {
	if !validID(id) {
		return nil, fmt.Errorf("api: invalid interface id %q (want [A-Za-z0-9._-]+)", id)
	}
	if iface == nil || db == nil {
		return nil, fmt.Errorf("api: interface %q needs a non-nil interface and db", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.ifaces[id]; dup {
		return nil, fmt.Errorf("api: duplicate interface id %q", id)
	}
	if epoch == 0 {
		epoch = 1
	}
	h := newHosted(id, title, iface, db, r.cacheSize, epoch)
	h.mx = newHostedMetrics(h)
	r.ifaces[id] = h
	return h, nil
}

// validID reports whether the ID is non-empty and safe to embed as one
// URL path segment.
func validID(id string) bool {
	if id == "" {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			return false
		}
	}
	return true
}

// Remove unhosts the interface with the given ID and reports whether
// it was hosted. In-flight requests that already resolved the *Hosted
// finish against the epoch snapshot they loaded; new lookups miss.
// Removal is the registry half of deleting or relinquishing an
// interface — callers that attached live feeds or durable snapshots
// detach those through their own seams.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ifaces[id]; !ok {
		return false
	}
	delete(r.ifaces, id)
	return true
}

// Get returns the hosted interface with the given ID.
func (r *Registry) Get(id string) (*Hosted, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.ifaces[id]
	return h, ok
}

// List returns the hosted interfaces sorted by ID.
func (r *Registry) List() []*Hosted {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Hosted, 0, len(r.ifaces))
	for _, h := range r.ifaces {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
