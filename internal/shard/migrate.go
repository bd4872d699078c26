package shard

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/replica"
)

// MigrateResult reports one completed migration.
type MigrateResult struct {
	ID        string  `json:"id"`
	From      string  `json:"from"`
	To        string  `json:"to"`
	Epoch     uint64  `json:"epoch"` // epoch the target serves at after the fence bump (source + 1)
	ElapsedMS float64 `json:"elapsedMs"`
}

// Migrate moves one interface to the shard at target, live, as a
// planned failover over the replication stream:
//
//  1. the target becomes a follower of the owner (unless it already is
//     one): seeded from a snapshot frame, then fed every publish until
//     the owner reports it in sync — writes keep landing meanwhile;
//  2. the owner hands off (replica.Manager.Handoff): under its feed
//     lock — every acked write already in the stream — it promotes the
//     target at term+1 and, only once that succeeded, seals its feed,
//     leaves a moved tombstone and drops its copy. The promotion bumps
//     the epoch, so cursors minted by the source expire instead of
//     paging a result set the new owner may have moved past;
//  3. the router flips its placement map.
//
// Requests never fail during the move: until the handoff the source
// serves them; after it the source answers structured moved errors,
// which this router (and the SDK, for clients talking to shards
// directly) follows to the new owner. A handoff whose outcome is
// unknown (lost response) is reported as a failure and changes no
// placement: if it did commit, the source's moved answers repair the
// map on the next request; if only the promote committed, term fencing
// demotes the source on its next publish or refresh.
func (rt *Router) Migrate(ctx context.Context, id, target string) (*MigrateResult, error) {
	start := time.Now()
	toAddr, err := NormalizeAddr(target)
	if err != nil {
		return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest, "migrate %q: %v", id, err)
	}
	rt.mu.RLock()
	_, ok := rt.shards[toAddr]
	rt.mu.RUnlock()
	if !ok {
		return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"migrate %q: target %s is not a configured shard", id, toAddr)
	}
	// One owner change per interface at a time; a failover or another
	// migration in flight finishes first, then this one re-reads the
	// placement it left.
	release, busy := rt.claimOwnerChange(id)
	for release == nil {
		select {
		case <-busy:
		case <-ctx.Done():
			return nil, unavailable(ctx.Err(), "migrate %q: wait for the owner change in flight on %s", id, toAddr)
		}
		release, busy = rt.claimOwnerChange(id)
	}
	defer release()

	src, apiErr := rt.owner(id)
	if apiErr != nil {
		return nil, apiErr
	}
	res := &MigrateResult{ID: id, From: src.addr, To: toAddr}
	if src.addr != toAddr {
		if err := awaitFollower(ctx, src.rep, id, toAddr); err != nil {
			return nil, unavailable(err, "migrate %q: sync target on %s", id, src.addr)
		}
		st, err := src.rep.Handoff(ctx, id, toAddr)
		if err != nil {
			return nil, unavailable(err, "migrate %q: handoff on %s", id, src.addr)
		}
		rt.ownerChanged(id, toAddr, st)
		res.Epoch = st.Epoch
	}
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

// awaitFollower makes the shard at to an in-sync follower of id's
// owner: if it is not one already it joins the owner's follower set
// (which seeds it), then the owner's view is polled until it reports
// the follower synced. A seed that failed ends the wait with its error
// and restores the follower set; ctx bounds the whole wait.
func awaitFollower(ctx context.Context, owner *replica.Client, id, to string) error {
	st, err := owner.Status(ctx, id)
	if err != nil {
		return err
	}
	if followerAt(st, to).Synced {
		return nil
	}
	had := make([]string, 0, len(st.Info.Followers)+1)
	for _, f := range st.Info.Followers {
		if f.Addr != to {
			had = append(had, f.Addr)
		}
	}
	st, err = owner.Targets(ctx, id, append(had, to))
	for err == nil {
		switch f := followerAt(st, to); {
		case f.Synced:
			return nil
		case f.Error != "":
			err = fmt.Errorf("seeding %s failed: %s", to, f.Error)
		default:
			select {
			case <-ctx.Done():
				err = fmt.Errorf("%s is still not in sync: %w", to, ctx.Err())
			case <-time.After(10 * time.Millisecond):
				st, err = owner.Status(ctx, id)
			}
		}
	}
	// Best effort (ctx may be spent; the client's own timeout bounds the
	// call): without it a fleet that does not reconcile follower sets
	// (-replicas <= 1) would list the failed target forever.
	_, _ = owner.Targets(context.WithoutCancel(ctx), id, had)
	return err
}

// followerAt returns the owner's view of its follower at addr (zero
// when it has none there).
func followerAt(st *replica.StatusResponse, addr string) api.ReplicaFollower {
	for _, f := range st.Info.Followers {
		if f.Addr == addr {
			return f
		}
	}
	return api.ReplicaFollower{}
}

// RebalanceResult reports what a rebalance pass moved.
type RebalanceResult struct {
	Moved   []MigrateResult `json:"moved"`
	Skipped int             `json:"skipped"` // interfaces already home
}

// Rebalance migrates every interface whose current owner differs from
// its Want placement (pin, or rendezvous hash). Migrations run
// sequentially — rebalancing is a background operation and one
// transfer at a time keeps the fleet predictable. The first failure
// stops the pass and is returned alongside the moves that completed.
func (rt *Router) Rebalance(ctx context.Context) (*RebalanceResult, error) {
	place := rt.Placement()
	ids := make([]string, 0, len(place))
	for id := range place {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	res := &RebalanceResult{Moved: []MigrateResult{}}
	for _, id := range ids {
		want := rt.Want(id)
		if want == "" || want == place[id] {
			res.Skipped++
			continue
		}
		m, err := rt.Migrate(ctx, id, want)
		if err != nil {
			return res, fmt.Errorf("rebalance stopped at %q: %w", id, err)
		}
		res.Moved = append(res.Moved, *m)
	}
	return res, nil
}
