package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/replica"
	"repro/pi/client"
)

// RouterOptions configure a Router.
type RouterOptions struct {
	// Token is the bearer token the router presents to shards — both on
	// proxied v1 operations and on the shard-admin surface
	// (replication, failover, migration). Shards in a routed fleet share
	// one admin token.
	Token string
	// Timeout bounds one proxied operation (default 30s). Migrations
	// use their own caller-supplied contexts.
	Timeout time.Duration
	// Pins override hash placement: interface ID -> shard address.
	// Rebalance moves pinned interfaces to their pin, never elsewhere.
	Pins map[string]string
	// Replicas is the replication factor — total copies per interface,
	// owner included. 0 or 1 disables replication; N > 1 makes every
	// refresh drive each owner toward N-1 warm followers on the
	// rendezvous-ranked shards after it.
	Replicas int
	// ReadFanout spreads read-only operations (query, page, epoch)
	// round-robin across the owner and its in-sync followers. A
	// follower failure falls back to the owner, so fan-out never
	// degrades correctness, only load distribution.
	ReadFanout bool
	// Failover promotes the most-caught-up in-sync follower when the
	// owner stops answering, instead of surfacing shard_unavailable
	// until the owner returns.
	Failover bool
}

// shardConn is one shard the router fronts: the SDK client for
// proxied v1 operations and the replica client for the replication
// control plane (follower sets, failover, migration).
type shardConn struct {
	addr string
	c    *client.Client
	rep  *replica.Client

	// ingestion is the shard's ingestion capability as of the last
	// Refresh (guarded by the router's mu). It backs the cheap
	// IngestReady pre-check; the proxied IngestLog stays the authority.
	// Starts true (fail open) until a refresh reports otherwise.
	ingestion bool

	// Probe backoff (guarded by the router's mu). A shard that failed
	// its last contact is down; Refresh skips re-probing it until
	// nextProbe so a dead shard costs one timed-out health call per
	// backoff window, not one per refresh tick.
	down      bool
	failures  int
	nextProbe time.Time

	// mx holds this shard's resolved metric handles. Set once in
	// addShard, immutable afterwards — safe to use without rt.mu.
	mx *shardMetrics
}

// Router owns the interface→shard placement map and implements
// api.Servicer over a fleet: per-interface operations proxy to the
// owning shard through pi/client, fleet-wide operations (list, health,
// debug, snapshot) fan out and merge. A structured moved error from a
// shard repairs the map in place (the router follows it, flips the
// placement and retries), a transport failure surfaces as
// shard_unavailable — so the HTTP transport mounted on top cannot tell
// the difference between one process and a routed cluster, which is
// the point of the Servicer seam.
type Router struct {
	opts  RouterOptions
	start time.Time

	mu     sync.RWMutex
	shards map[string]*shardConn
	order  []string               // sorted shard addrs, for deterministic hashing and fan-out
	place  map[string]string      // interface ID -> owning shard addr
	pins   map[string]string      // normalized RouterOptions.Pins
	reps   map[string]*replicaSet // interface ID -> follower state (owner's view)

	// foMu serializes owner changes per interface. The first caller to
	// observe a dead owner runs the failover, concurrent callers wait
	// for its outcome instead of racing a second promote; a migration
	// holds the same slot, which also keeps the refresh loop from
	// trimming its not-yet-promoted target out of the follower set.
	foMu       sync.Mutex
	foInflight map[string]chan struct{}

	// slow is the router-side slow-query ring (nil = disabled). Set
	// once via SetSlowRing before serving.
	slow *obs.SlowRing
}

// SetSlowRing attaches the slow-query ring the router records routed
// queries into (Source "router"). Call before serving traffic.
func (rt *Router) SetSlowRing(r *obs.SlowRing) { rt.slow = r }

var _ api.Servicer = (*Router)(nil)

// NewRouter builds a router over the given shard addresses. Call
// Refresh to discover what each shard hosts before serving; placements
// also repair themselves as shards return moved errors.
func NewRouter(addrs []string, opts RouterOptions) (*Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard address")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	rt := &Router{
		opts:       opts,
		start:      time.Now(),
		shards:     make(map[string]*shardConn, len(addrs)),
		place:      map[string]string{},
		pins:       map[string]string{},
		reps:       map[string]*replicaSet{},
		foInflight: map[string]chan struct{}{},
	}
	for _, a := range addrs {
		if _, err := rt.addShard(a); err != nil {
			return nil, err
		}
	}
	for id, a := range opts.Pins {
		addr, err := NormalizeAddr(a)
		if err != nil {
			return nil, fmt.Errorf("shard: pin %q: %w", id, err)
		}
		if _, ok := rt.shards[addr]; !ok {
			return nil, fmt.Errorf("shard: pin %q targets %s, which is not a configured shard", id, addr)
		}
		rt.pins[id] = addr
	}
	return rt, nil
}

// addShard registers a shard connection (idempotent). Caller must not
// hold rt.mu.
func (rt *Router) addShard(addr string) (*shardConn, error) {
	norm, err := NormalizeAddr(addr)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if conn, ok := rt.shards[norm]; ok {
		return conn, nil
	}
	// The router handles moved errors itself (to learn the new
	// placement) and maps transport failures onto shard_unavailable, so
	// the SDK's own following/retrying is kept minimal. The inner hop
	// skips gzip (both processes are on the same network segment in any
	// sane topology, and compressing twice per routed query costs more
	// than the bytes save) and keeps a generous idle-connection pool so
	// concurrent proxying does not reconnect per request.
	c, err := client.New(norm,
		client.WithToken(rt.opts.Token),
		client.WithFollowMoved(false),
		client.WithRetries(1),
		client.WithBackoff(50*time.Millisecond),
		client.WithHTTPClient(&http.Client{
			Timeout: rt.opts.Timeout,
			Transport: &http.Transport{
				DisableCompression:  true,
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		}),
	)
	if err != nil {
		return nil, fmt.Errorf("shard: router: %w", err)
	}
	conn := &shardConn{
		addr: norm,
		c:    c,
		// Control-plane calls can wait on a seed (a whole interface on the
		// wire), so their budget is generous compared to query proxying.
		rep:       replica.NewClient(norm, rt.opts.Token, &http.Client{Timeout: 2 * time.Minute}),
		ingestion: true,
	}
	conn.mx = newShardMetrics(norm)
	// Lazy load gauge: the placement walk happens at scrape time, not
	// on any serving path. Re-registering after a restart just swaps
	// the closure in.
	mxShardIfaces.Func(func() float64 { return rt.ownedCount(norm) }, norm)
	rt.shards[norm] = conn
	rt.order = append(rt.order, norm)
	sort.Strings(rt.order)
	return conn, nil
}

// Placement returns a copy of the current interface→shard map.
func (rt *Router) Placement() map[string]string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string]string, len(rt.place))
	for id, addr := range rt.place {
		out[id] = addr
	}
	return out
}

// callCtx is the per-proxied-operation budget, derived from the
// caller's context when there is one (that is how a trace id minted at
// the router edge rides the proxied hop — pi/client forwards it as the
// Pi-Trace-Id header) and from Background on internal control-plane
// calls.
func (rt *Router) callCtx(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	return context.WithTimeout(parent, rt.opts.Timeout)
}

// Refresh re-discovers placement by asking every shard what it hosts.
// Placement follows OWNER claims only: a follower replica listing an
// interface never captures its placement (writes routed there would
// just bounce with not_owner). New interfaces are adopted, placements
// a shard no longer backs are dropped — except when the shard is
// unreachable, in which case its placements are kept so queries fail
// with shard_unavailable (a transient, retryable condition) rather
// than not_found (a lie). When two shards both claim ownership, the
// higher replication term wins (a promotion happened; the ex-owner is
// demoted in the background); at equal terms the currently placed —
// then lexicographically first — shard wins deterministically without
// demoting anyone, since neither claim is provably stale.
//
// Dead shards are not re-probed every tick: a shard that failed its
// last contact waits out a jittered exponential backoff (probeBackoff*)
// before the next health call, and its row reports the skip. After the
// sweep, Refresh drives replication: every owned interface is told its
// desired follower set (which also retries failed seeds), making the
// refresh loop the fleet's replication reconciler. Returns one health
// row per shard from the poll it already performed, so callers
// reporting fleet state after a refresh need not re-poll.
func (rt *Router) Refresh(ctx context.Context) []api.ShardHealth {
	rt.mu.RLock()
	conns := make([]*shardConn, 0, len(rt.order))
	skip := make(map[string]time.Time)
	now := time.Now()
	for _, addr := range rt.order {
		conn := rt.shards[addr]
		conns = append(conns, conn)
		if conn.down && now.Before(conn.nextProbe) {
			skip[addr] = conn.nextProbe
		}
	}
	oldPlace := make(map[string]string, len(rt.place))
	for id, addr := range rt.place {
		oldPlace[id] = addr
	}
	rt.mu.RUnlock()

	// One health call per shard yields what it hosts, each copy's
	// replication role and whether the shard ingests (backing the
	// IngestReady pre-check).
	type result struct {
		addr      string
		rows      []api.HealthInterface
		ingestion bool
		skipped   bool
		err       error
	}
	results := make([]result, len(conns))
	var wg sync.WaitGroup
	for i, conn := range conns {
		if until, ok := skip[conn.addr]; ok {
			results[i] = result{addr: conn.addr, skipped: true,
				err: fmt.Errorf("down; next probe in %s", time.Until(until).Round(time.Millisecond))}
			continue
		}
		wg.Add(1)
		go func(i int, conn *shardConn) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, rt.opts.Timeout)
			defer cancel()
			h, err := conn.c.Health(cctx)
			res := result{addr: conn.addr, err: err}
			if err == nil {
				res.ingestion = h.Ingestion
				res.rows = h.Interfaces
			}
			results[i] = res
		}(i, conn)
	}
	wg.Wait()

	// Owner claims from live shards first: a reachable shard's claim
	// always beats a remembered placement on an unreachable one,
	// whatever the address order — otherwise a stale entry for a dead
	// shard could pin an interface to shard_unavailable while a live
	// shard actually hosts it.
	next := map[string]string{}
	claims := map[string]ownerClaim{}
	var demotions []demotion
	for _, res := range results {
		if res.err != nil {
			continue
		}
		for _, row := range res.rows {
			if row.Replication != nil && row.Replication.Role == api.RoleFollower {
				continue // follower copies never capture placement
			}
			c := ownerClaim{addr: res.addr, info: row.Replication}
			if prev, taken := claims[row.ID]; taken {
				win, lose, fence := resolveOwners(row.ID, prev, c, oldPlace[row.ID])
				claims[row.ID] = win
				if fence {
					demotions = append(demotions, demotion{
						id: row.ID, loser: lose.addr, to: win.addr, term: win.info.Term,
					})
				}
				continue
			}
			claims[row.ID] = c
		}
	}
	for id, c := range claims {
		next[id] = c.addr
	}
	for _, res := range results {
		if res.err == nil {
			continue
		}
		// Unreachable: keep whatever we believed this shard owned, for
		// interfaces no live shard claims.
		for id, addr := range oldPlace {
			if addr == res.addr {
				if _, taken := next[id]; !taken {
					next[id] = addr
				}
			}
		}
	}

	rt.mu.Lock()
	rt.place = next
	nextReps := make(map[string]*replicaSet, len(claims))
	for id, c := range claims {
		nextReps[id] = newReplicaSet(c.info, rt.reps[id])
	}
	for id := range next {
		if _, live := claims[id]; !live {
			// Placement carried over from an unreachable owner: keep its
			// last known replica view, failover needs it.
			if rs, ok := rt.reps[id]; ok {
				nextReps[id] = rs
			}
		}
	}
	rt.reps = nextReps
	for _, res := range results {
		conn, ok := rt.shards[res.addr]
		if !ok || res.skipped {
			continue
		}
		if res.err == nil {
			conn.ingestion = res.ingestion
			conn.down = false
			conn.failures = 0
			conn.nextProbe = time.Time{}
			conn.mx.down.Set(0)
		} else {
			rt.bumpBackoffLocked(conn)
		}
	}
	rt.mu.Unlock()

	// Fence ex-owners that lost a term race, off the refresh path.
	for _, d := range demotions {
		go rt.demoteStale(d)
	}
	rt.ensureReplication(ctx, claims)

	// Interfaces whose placement carried over from an unreachable shard
	// have a dead owner: promote their best surviving follower now
	// rather than waiting for the next proxied operation to trip over
	// the corpse.
	if rt.opts.Failover {
		var fwg sync.WaitGroup
		for id, addr := range next {
			if _, live := claims[id]; live {
				continue
			}
			fwg.Add(1)
			go func(id, addr string) {
				defer fwg.Done()
				rt.failover(id, addr)
			}(id, addr)
		}
		fwg.Wait()
	}

	rows := make([]api.ShardHealth, 0, len(results))
	for _, res := range results {
		row := api.ShardHealth{Addr: res.addr, Status: "ok", Interfaces: len(res.rows)}
		if res.err != nil {
			row.Status = "unreachable"
			row.Error = res.err.Error()
		}
		rows = append(rows, row)
	}
	return rows
}

// owner resolves the shard that owns the interface.
func (rt *Router) owner(id string) (*shardConn, *api.Error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	addr, ok := rt.place[id]
	if !ok {
		return nil, api.Errf(api.CodeNotFound, http.StatusNotFound,
			"no shard hosts interface %q", id)
	}
	conn, ok := rt.shards[addr]
	if !ok {
		return nil, api.Errf(api.CodeShardUnavailable, http.StatusBadGateway,
			"interface %q is placed on unknown shard %s", id, addr)
	}
	return conn, nil
}

// follow flips the placement after a shard reported a move. Unknown
// target shards are added on the fly — a migration can legitimately
// land an interface on a shard this router was not configured with.
func (rt *Router) follow(id, addr string) {
	conn, err := rt.addShard(addr)
	if err != nil {
		return
	}
	rt.mu.Lock()
	rt.place[id] = conn.addr
	rt.mu.Unlock()
}

// drop forgets a placement, but only while it still points at the
// shard the caller observed failing (a concurrent follow wins).
func (rt *Router) drop(id, addr string) {
	rt.mu.Lock()
	if rt.place[id] == addr {
		delete(rt.place, id)
	}
	rt.mu.Unlock()
}

// routed is the router's one call path for a per-interface operation.
// A read first tries the round-robin pick among in-sync followers when
// fan-out is on (readTarget), falling back to the owner on ANY
// follower failure — fan-out spreads load, it never trades away an
// answer the owner could have given. On the owner it follows moved
// errors (repairing the placement map) a bounded number of times,
// drops a placement the owner answers not_found for, and translates
// transport failures into structured shard_unavailable errors — after
// promoting a follower when failover is on, in which case a read is
// re-run on the new owner and a write is not.
func routed[T any](rt *Router, ctx context.Context, id string, read bool, fn func(ctx context.Context, c *client.Client) (T, error)) (T, error) {
	var zero T
	call := func(conn *shardConn) (T, error) {
		cctx, cancel := rt.callCtx(ctx)
		start := time.Now()
		v, err := fn(cctx, conn.c)
		cancel()
		conn.mx.proxied.Inc()
		conn.mx.dur.Observe(time.Since(start))
		return v, err
	}
	if read {
		if conn := rt.readTarget(id); conn != nil {
			v, err := call(conn)
			if err == nil {
				return v, nil
			}
			// Only transport failures count as proxy errors: a structured
			// api.Error means the follower answered (lagging, moved, ...).
			var ae *api.Error
			if !errors.As(err, &ae) {
				conn.mx.errs.Inc()
			}
			rt.markFollowerFailed(id, conn.addr)
		}
	}
	for hop := 0; hop < maxPlacementHops; hop++ {
		conn, apiErr := rt.owner(id)
		if apiErr != nil {
			return zero, apiErr
		}
		v, err := call(conn)
		if err == nil {
			return v, nil
		}
		var ae *api.Error
		if errors.As(err, &ae) {
			switch {
			case (ae.Code == api.CodeMoved || ae.Code == api.CodeNotOwner || ae.Code == api.CodeReplicaLagging) && ae.Addr != "":
				// moved: the interface changed shards. not_owner and
				// replica_lagging: the placement map lags a promotion —
				// the shard we believed owned the interface is (or
				// became) a follower, and names the owner it knows.
				mxMovedFollows.Inc()
				rt.follow(id, ae.Addr)
				continue
			case ae.Code == api.CodeNotFound:
				// The shard genuinely does not host it (restart without
				// its data dir, tombstone lost): stop routing there.
				rt.drop(id, conn.addr)
			}
			return zero, ae
		}
		// Transport failure: the owner is gone. Back its probe off, and
		// when failover is on, try to promote the most-caught-up in-sync
		// follower in its place.
		conn.mx.errs.Inc()
		rt.noteShardDown(conn.addr)
		if rt.opts.Failover {
			if newAddr, ok := rt.failover(id, conn.addr); ok {
				if read {
					continue // re-run the read against the promoted owner
				}
				// Writes are NOT retried across a promotion: the dead
				// owner may have applied (and replicated) the write before
				// the response was lost, and replaying it through the new
				// owner would double-apply. The placement already points
				// at the promoted follower, so the caller's retry lands
				// there directly.
				return zero, api.Errf(api.CodeShardUnavailable, http.StatusBadGateway,
					"shard %s (owner of %q) became unreachable mid-write; follower on %s was promoted — retry against the new owner",
					conn.addr, id, newAddr)
			}
		}
		return zero, api.Errf(api.CodeShardUnavailable, http.StatusBadGateway,
			"shard %s (owner of %q) is unreachable: %v", conn.addr, id, err)
	}
	return zero, api.Errf(api.CodeShardUnavailable, http.StatusBadGateway,
		"placement for %q did not converge after %d moves", id, maxPlacementHops)
}

// maxPlacementHops bounds moved-following during one routed call.
const maxPlacementHops = 3

// --- api.Servicer: per-interface operations are one routed call each.
// Reads (epoch, page, query) may fan out to followers; everything
// else, GetInterface included, goes to the owner only.

func (rt *Router) GetInterface(id string) (*api.InterfaceDetail, error) {
	return routed(rt, context.Background(), id, false, func(ctx context.Context, c *client.Client) (*api.InterfaceDetail, error) {
		return c.GetInterface(ctx, id)
	})
}

func (rt *Router) Epoch(id string) (*api.EpochResponse, error) {
	return routed(rt, context.Background(), id, true, func(ctx context.Context, c *client.Client) (*api.EpochResponse, error) {
		e, err := c.Epoch(ctx, id)
		return &api.EpochResponse{Epoch: e}, err
	})
}

func (rt *Router) Page(id string) (string, error) {
	return routed(rt, context.Background(), id, true, func(ctx context.Context, c *client.Client) (string, error) {
		return c.Page(ctx, id)
	})
}

// Query proxies with the request — limit, cursor and all — passed
// through verbatim, so epoch-bound cursors keep their exact semantics
// across the router: replicas serve at the same epoch as the owner
// (epochs advance in lockstep through the replication stream), so a
// cursor minted anywhere in the replica set pages consistently
// everywhere in it, and after a migration or promotion the bumped
// epoch expires it.
func (rt *Router) Query(id string, req api.QueryRequest) (*api.QueryResponse, error) {
	var out api.QueryResponse
	if err := rt.QueryIntoCtx(context.Background(), id, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryIntoCtx is the context-carrying query path the HTTP transport
// calls: the caller's context carries the edge-minted trace id, so
// the proxied hop forwards it to the shard (pi/client sets the
// Pi-Trace-Id header from the context) and the router's own slow-query
// ring records it. The whole routed call is attributed to ProxyMS —
// the router does no binding or execution of its own; the shard-side
// ring carries the stage split.
func (rt *Router) QueryIntoCtx(ctx context.Context, id string, req api.QueryRequest, resp *api.QueryResponse) error {
	var start time.Time
	if rt.slow.Armed() {
		start = time.Now()
	}
	r, err := routed(rt, ctx, id, true, func(cctx context.Context, c *client.Client) (*api.QueryResponse, error) {
		return c.Query(cctx, id, req)
	})
	if err == nil {
		*resp = *r
	}
	if !start.IsZero() {
		total := time.Since(start)
		if rt.slow.Should(total) {
			e := obs.SlowEntry{
				TraceID:   obs.TraceID(ctx),
				Interface: id,
				Source:    "router",
				Time:      time.Now(),
				TotalMS:   float64(total) / 1e6,
				ProxyMS:   float64(total) / 1e6,
			}
			if err != nil {
				e.Error = err.Error()
			} else {
				e.SQL = resp.SQL
				e.Epoch = resp.Epoch
				e.Plan = resp.Plan
				e.Cache = resp.Cache
			}
			rt.slow.Record(e)
		}
	}
	return err
}

// IngestReady pre-checks without a network round trip: placement must
// resolve and the owning shard must have reported ingestion enabled at
// the last refresh. Possibly stale by one refresh interval — the
// proxied IngestLog remains the authority — but it preserves the
// contract's point: a transport can reject before decoding a large
// body.
func (rt *Router) IngestReady(id string) error {
	conn, apiErr := rt.owner(id)
	if apiErr != nil {
		return apiErr
	}
	rt.mu.RLock()
	ready := conn.ingestion
	rt.mu.RUnlock()
	if !ready {
		return api.Errf(api.CodeIngestDisabled, http.StatusNotImplemented,
			"live ingestion is not enabled on the shard hosting %q", id)
	}
	return nil
}

func (rt *Router) IngestLog(id string, entries []qlog.Entry, flush bool) (*api.IngestAck, error) {
	wire := make([]api.LogEntry, len(entries))
	for i, e := range entries {
		wire[i] = api.LogEntry{SQL: e.SQL, Client: e.Client}
	}
	return routed(rt, context.Background(), id, false, func(ctx context.Context, c *client.Client) (*api.IngestAck, error) {
		return c.IngestLog(ctx, id, wire, flush)
	})
}

func (rt *Router) AppendRows(id string, req api.RowsRequest, flush bool) (*api.RowsAck, error) {
	return routed(rt, context.Background(), id, false, func(ctx context.Context, c *client.Client) (*api.RowsAck, error) {
		return c.AppendRows(ctx, id, req.Table, req.Rows, flush)
	})
}

func (rt *Router) MutateRows(id string, req api.MutateRequest) (*api.MutateAck, error) {
	return routed(rt, context.Background(), id, false, func(ctx context.Context, c *client.Client) (*api.MutateAck, error) {
		return c.MutateRows(ctx, id, req.SQL, req.IfEpoch)
	})
}

func (rt *Router) DeleteInterface(id string) (*api.DeleteAck, error) {
	ack, err := routed(rt, context.Background(), id, false, func(ctx context.Context, c *client.Client) (*api.DeleteAck, error) {
		return c.DeleteInterface(ctx, id)
	})
	if err == nil {
		rt.mu.Lock()
		delete(rt.place, id)
		rt.mu.Unlock()
	}
	return ack, err
}

// --- api.Servicer: fleet-wide operations fan out and merge.

// unavailable passes a shard's structured error through and turns a
// transport failure into shard_unavailable, prefixed with what failed.
func unavailable(err error, format string, args ...any) error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	return api.Errf(api.CodeShardUnavailable, http.StatusBadGateway, format+": %v", append(args, err)...)
}

// fanOut runs fn once per shard concurrently and returns the results
// in shard order.
func fanOut[T any](rt *Router, fn func(ctx context.Context, conn *shardConn) (T, error)) []fanResult[T] {
	mxFanouts.Inc()
	rt.mu.RLock()
	conns := make([]*shardConn, 0, len(rt.order))
	for _, addr := range rt.order {
		conns = append(conns, rt.shards[addr])
	}
	rt.mu.RUnlock()
	out := make([]fanResult[T], len(conns))
	var wg sync.WaitGroup
	for i, conn := range conns {
		wg.Add(1)
		go func(i int, conn *shardConn) {
			defer wg.Done()
			ctx, cancel := rt.callCtx(nil)
			defer cancel()
			v, err := fn(ctx, conn)
			out[i] = fanResult[T]{addr: conn.addr, v: v, err: err}
		}(i, conn)
	}
	wg.Wait()
	return out
}

type fanResult[T any] struct {
	addr string
	v    T
	err  error
}

// ListInterfaces merges every reachable shard's listing, sorted by ID.
// Interfaces on unreachable shards are omitted — the health operation
// is where degradation is reported.
func (rt *Router) ListInterfaces() []api.InterfaceSummary {
	results := fanOut(rt, func(ctx context.Context, conn *shardConn) ([]api.InterfaceSummary, error) {
		return conn.c.ListInterfaces(ctx)
	})
	seen := map[string]bool{}
	out := []api.InterfaceSummary{}
	for _, res := range results {
		if res.err != nil {
			continue
		}
		for _, s := range res.v {
			if !seen[s.ID] {
				seen[s.ID] = true
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Health merges every shard's health and adds a per-shard roll-up;
// any unreachable shard degrades the fleet status. With replication
// on, one interface is hosted by several shards — the owner's row
// wins the merge (it carries the authoritative follower list), so the
// fleet view lists each interface once.
func (rt *Router) Health() *api.Health {
	results := fanOut(rt, func(ctx context.Context, conn *shardConn) (*api.Health, error) {
		return conn.c.Health(ctx)
	})
	health := &api.Health{
		Status:        "ok",
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(rt.start).Seconds(),
		Interfaces:    []api.HealthInterface{},
	}
	byID := map[string]api.HealthInterface{}
	for _, res := range results {
		row := api.ShardHealth{Addr: res.addr, Status: "ok"}
		if res.err != nil {
			row.Status = "unreachable"
			row.Error = res.err.Error()
			health.Status = "degraded"
		} else {
			row.Interfaces = len(res.v.Interfaces)
			for _, ir := range res.v.Interfaces {
				prev, seen := byID[ir.ID]
				if !seen || (isOwnerRow(ir) && !isOwnerRow(prev)) {
					byID[ir.ID] = ir
				}
			}
			health.Ingestion = health.Ingestion || res.v.Ingestion
			health.Persistence = health.Persistence || res.v.Persistence
			health.Replication = health.Replication || res.v.Replication
		}
		health.Shards = append(health.Shards, row)
	}
	for _, ir := range byID {
		health.Interfaces = append(health.Interfaces, ir)
	}
	sort.Slice(health.Interfaces, func(i, j int) bool {
		return health.Interfaces[i].ID < health.Interfaces[j].ID
	})
	return health
}

// isOwnerRow reports whether a health row describes an owner copy
// (unreplicated rows count as owners).
func isOwnerRow(r api.HealthInterface) bool {
	return r.Replication == nil || r.Replication.Role == api.RoleOwner
}

// Debug merges every reachable shard's counters.
func (rt *Router) Debug() *api.DebugInfo {
	results := fanOut(rt, func(ctx context.Context, conn *shardConn) (*api.DebugInfo, error) {
		return conn.c.Debug(ctx)
	})
	info := &api.DebugInfo{Interfaces: []api.DebugInterface{}}
	for _, res := range results {
		if res.err != nil {
			continue
		}
		info.Interfaces = append(info.Interfaces, res.v.Interfaces...)
	}
	sort.Slice(info.Interfaces, func(i, j int) bool {
		return info.Interfaces[i].ID < info.Interfaces[j].ID
	})
	return info
}

// Snapshot asks every shard to persist; all must succeed for the
// fleet-wide snapshot to report success.
func (rt *Router) Snapshot() (*api.SnapshotResult, error) {
	start := time.Now()
	results := fanOut(rt, func(ctx context.Context, conn *shardConn) (*api.SnapshotResult, error) {
		return conn.c.Snapshot(ctx)
	})
	merged := &api.SnapshotResult{Interfaces: []api.SnapshotInterface{}}
	var dirs []string
	for _, res := range results {
		if res.err != nil {
			return nil, unavailable(res.err, "snapshot on shard %s", res.addr)
		}
		merged.Interfaces = append(merged.Interfaces, res.v.Interfaces...)
		dirs = append(dirs, res.addr+":"+res.v.Dir)
	}
	sort.Slice(merged.Interfaces, func(i, j int) bool {
		return merged.Interfaces[i].ID < merged.Interfaces[j].ID
	})
	merged.Dir = strings.Join(dirs, ", ")
	merged.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return merged, nil
}

// --- placement policy.

// Want returns the shard that should own the interface: the explicit
// pin when one exists, otherwise rendezvous (highest-random-weight)
// hashing over the shard list — stable under membership changes, so
// adding or removing one shard only re-homes the interfaces that hash
// to it, not the whole fleet.
func (rt *Router) Want(id string) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if p, ok := rt.pins[id]; ok {
		return p
	}
	var best string
	var bestScore uint64
	for _, addr := range rt.order {
		score := rendezvousScore(addr, id)
		if best == "" || score > bestScore {
			best, bestScore = addr, score
		}
	}
	return best
}

func rendezvousScore(addr, id string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, addr)
	_, _ = h.Write([]byte{0})
	_, _ = io.WriteString(h, id)
	return h.Sum64()
}
