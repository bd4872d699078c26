package server

import (
	"crypto/subtle"
	"fmt"
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
// the interface in the error text ("" for server-wide and admin
// endpoints).
func (a AuthConfig) Check(id string, r *http.Request) *api.Error {
	if a.Token == "" {
		return nil
	}
	what := "this endpoint"
	if id != "" {
		what = fmt.Sprintf("interface %q", id)
	}
	got, ok := bearerToken(r)
	if !ok {
		return api.Errf(api.CodeUnauthorized, http.StatusUnauthorized,
			"%s requires a bearer token", what)
	}
	if subtle.ConstantTimeCompare([]byte(got), []byte(a.Token)) != 1 {
		return api.Errf(api.CodeForbidden, http.StatusForbidden,
			"token is not valid for %s", what)
	}
	return nil
}

// Guard enforces Check in front of a handler: the v1 routes that
// execute or mutate, and every route of the shard-admin and
// router-admin surfaces (admin operations move whole interfaces
// between processes, so they are never open just because metadata
// is). The error text names the route's {id} path value, if any.
func (a AuthConfig) Guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := a.Check(r.PathValue("id"), r); err != nil {
			api.WriteError(w, r, err)
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
