package shard

import (
	"encoding/json"
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
// the auth config's default token — admin operations move whole
// interfaces between processes and must never be open just because
// individual interfaces are.
func (n *Node) AdminHandler(auth server.AuthConfig) http.Handler {
	mux := http.NewServeMux()
	guard := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if apiErr := auth.Check("", r); apiErr != nil {
				writeAdminError(w, apiErr)
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("GET /v1/shard/load", guard(func(w http.ResponseWriter, r *http.Request) {
		writeAdminJSON(w, http.StatusOK, n.Load())
	}))
	n.mgr.Register(mux, guard)
	return mux
}

func writeAdminJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeAdminError(w http.ResponseWriter, err error) {
	e := api.FromErr(err)
	writeAdminJSON(w, e.Status, e)
}
