package shard

import (
	"net/http"

	"repro/internal/api"
	"repro/internal/server"
)

// AdminHandler returns the shard-admin surface, meant to be mounted at
// /v1/shard/ beside the v1 API (server.WithAdmin):
//
//	GET /v1/shard/load — serving load report
//
// plus the replication surface (follow/apply/promote/demote/handoff/
// unfollow/targets/status), which rides the same mux and guard — see
// internal/replica for the wire contract. Every route is guarded by
// the auth config's default token (server.AuthConfig.Guard).
func (n *Node) AdminHandler(auth server.AuthConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shard/load", auth.Guard(api.Handle(http.StatusOK,
		func(w http.ResponseWriter, r *http.Request) (any, error) { return n.Load(), nil })))
	n.mgr.Register(mux, auth.Guard)
	return mux
}
