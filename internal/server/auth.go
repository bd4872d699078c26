package server

import (
	"crypto/subtle"
	"net/http"
	"strings"

	"repro/internal/api"
)

// AuthConfig is bearer-token access control for the mutating
// endpoints (POST query, POST log). Metadata GETs (list, detail, page,
// epoch, healthz, debug) stay open — discovering an interface is
// harmless; executing queries against it and mutating it through log
// ingestion are not. An empty Token leaves every interface open.
type AuthConfig struct {
	Token string
}

// Check validates the request's bearer token: nil when no token is
// configured or the token matches, unauthorized (401) when no token
// was presented, forbidden (403) when the wrong one was. id only names
// the interface in the error text ("" for server-wide endpoints).
// Exported for admin surfaces (internal/shard) that enforce the same
// config on their own routes.
func (a AuthConfig) Check(id string, r *http.Request) *api.Error {
	if a.Token == "" {
		return nil
	}
	got, ok := bearerToken(r)
	if !ok {
		return api.Errf(api.CodeUnauthorized, http.StatusUnauthorized,
			"interface %q requires a bearer token", id)
	}
	if subtle.ConstantTimeCompare([]byte(got), []byte(a.Token)) != 1 {
		return api.Errf(api.CodeForbidden, http.StatusForbidden,
			"token is not valid for interface %q", id)
	}
	return nil
}

// Guard wraps an admin handler with Check against the default token:
// admin operations move whole interfaces between processes, so they
// are never open just because individual interfaces are.
func (a AuthConfig) Guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if apiErr := a.Check("", r); apiErr != nil {
			api.WriteError(w, apiErr)
			return
		}
		h(w, r)
	}
}

// bearerToken extracts the token from "Authorization: Bearer <tok>".
func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return strings.TrimSpace(h[len(prefix):]), true
}

// protected enforces the auth config in front of a handler for routes
// that carry an {id} path value.
func (s *Server) protected(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if apiErr := s.auth.Check(r.PathValue("id"), r); apiErr != nil {
			writeError(w, r, apiErr)
			return
		}
		next(w, r)
	}
}
