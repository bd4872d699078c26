package shard

import (
	"context"
	"net/http"
	"sort"

	"repro/internal/api"
	"repro/internal/server"
)

// RouterStatus is the router-admin view of the fleet: per-shard
// liveness plus the placement map and pins.
type RouterStatus struct {
	Shards     []api.ShardHealth `json:"shards"`
	Placement  map[string]string `json:"placement"`
	Pins       map[string]string `json:"pins,omitempty"`
	Interfaces int               `json:"interfaces"`
}

// Status polls every shard and reports fleet state.
func (rt *Router) Status() *RouterStatus {
	h := rt.Health()
	st := &RouterStatus{
		Shards:    h.Shards,
		Placement: rt.Placement(),
	}
	st.Interfaces = len(st.Placement)
	rt.mu.RLock()
	if len(rt.pins) > 0 {
		st.Pins = make(map[string]string, len(rt.pins))
		for id, addr := range rt.pins {
			st.Pins[id] = addr
		}
	}
	rt.mu.RUnlock()
	return st
}

// maxAdminBody caps the router-admin request bodies (migrate,
// failover): an interface id and a shard address.
const maxAdminBody = 1 << 16

// migrateRequest is the body of POST /v1/router/migrate.
type migrateRequest struct {
	ID string `json:"id"`
	To string `json:"to"`
}

// ReplicationStatus is the router-admin view of the fleet's replica
// sets: policy knobs plus, per interface, who owns it at which term
// and where its followers stand.
type ReplicationStatus struct {
	Replicas   int                         `json:"replicas"`
	ReadFanout bool                        `json:"readFanout"`
	Failover   bool                        `json:"failover"`
	Interfaces map[string]ReplicaPlacement `json:"interfaces"`
}

// ReplicaPlacement is one interface's replica set as the router last
// observed it.
type ReplicaPlacement struct {
	Owner     string                `json:"owner"`
	Term      uint64                `json:"term"`
	Followers []api.ReplicaFollower `json:"followers,omitempty"`
}

// Replication reports the router's cached replica-set view (from the
// last refresh, repaired by failovers since).
func (rt *Router) Replication() *ReplicationStatus {
	st := &ReplicationStatus{
		Replicas:   rt.opts.Replicas,
		ReadFanout: rt.opts.ReadFanout,
		Failover:   rt.opts.Failover,
		Interfaces: map[string]ReplicaPlacement{},
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	for id, owner := range rt.place {
		p := ReplicaPlacement{Owner: owner}
		if rs := rt.reps[id]; rs != nil {
			p.Term = rs.term
			addrs := make([]string, 0, len(rs.followers))
			for addr := range rs.followers {
				addrs = append(addrs, addr)
			}
			sort.Strings(addrs)
			for _, addr := range addrs {
				f := rs.followers[addr]
				p.Followers = append(p.Followers, api.ReplicaFollower{
					Addr: addr, Synced: f.synced, Seq: f.seq,
				})
			}
		}
		st.Interfaces[id] = p
	}
	return st
}

// failoverRequest is the body of POST /v1/router/failover.
type failoverRequest struct {
	ID string `json:"id"`
}

// FailoverResult reports one forced (or automatic) promotion.
type FailoverResult struct {
	ID    string `json:"id"`
	Owner string `json:"owner"` // promoted shard
}

// AdminHandler returns the router-admin surface, meant to be mounted
// at /v1/router/ beside the proxied v1 API (server.WithAdmin):
//
//	GET  /v1/router/shards      — shard liveness + placement map + pins
//	POST /v1/router/refresh     — re-discover placement from the shards
//	POST /v1/router/migrate     — {"id": ..., "to": ...}: move one interface live
//	POST /v1/router/rebalance   — move every interface to its pinned/hashed home
//	GET  /v1/router/replication — per-interface replica sets (owner, term, followers)
//	POST /v1/router/failover    — {"id": ...}: force-promote the best follower
//
// Every route is guarded by the auth config's default token.
func (rt *Router) AdminHandler(auth server.AuthConfig) http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, op func(w http.ResponseWriter, r *http.Request) (any, error)) {
		mux.HandleFunc(pattern, auth.Guard(api.Handle(http.StatusOK, op)))
	}
	route("GET /v1/router/shards", func(w http.ResponseWriter, r *http.Request) (any, error) {
		return rt.Status(), nil
	})
	route("POST /v1/router/refresh", func(w http.ResponseWriter, r *http.Request) (any, error) {
		// An explicit refresh overrides probe backoff (the operator is
		// telling us something changed — typically a restarted shard),
		// and it just polled every shard, so report what it saw instead
		// of sweeping the fleet a second time.
		shards := rt.ForceRefresh(r.Context())
		st := &RouterStatus{Shards: shards, Placement: rt.Placement()}
		st.Interfaces = len(st.Placement)
		return st, nil
	})
	route("POST /v1/router/migrate", func(w http.ResponseWriter, r *http.Request) (any, error) {
		var req migrateRequest
		if err := api.DecodeJSON(w, r, maxAdminBody, &req); err != nil {
			return nil, err
		}
		if req.ID == "" || req.To == "" {
			return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
				`migrate needs a JSON body {"id": ..., "to": ...}`)
		}
		// Migration seeds a full snapshot and waits for the target to
		// sync; give it its own budget rather than the proxy timeout.
		ctx, cancel := context.WithTimeout(r.Context(), 2*rt.opts.Timeout)
		defer cancel()
		return rt.Migrate(ctx, req.ID, req.To)
	})
	route("POST /v1/router/rebalance", func(w http.ResponseWriter, r *http.Request) (any, error) {
		return rt.Rebalance(r.Context())
	})
	route("GET /v1/router/replication", func(w http.ResponseWriter, r *http.Request) (any, error) {
		return rt.Replication(), nil
	})
	route("POST /v1/router/failover", func(w http.ResponseWriter, r *http.Request) (any, error) {
		var req failoverRequest
		if err := api.DecodeJSON(w, r, maxAdminBody, &req); err != nil {
			return nil, err
		}
		if req.ID == "" {
			return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
				`failover needs a JSON body {"id": ...}`)
		}
		addr, err := rt.FailoverInterface(req.ID)
		if err != nil {
			return nil, err
		}
		return &FailoverResult{ID: req.ID, Owner: addr}, nil
	})
	return mux
}
