package replica

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/api"
)

// TestControlBodiesDecodedStrictly: the JSON control bodies (promote,
// demote, targets) are capped at maxControlBody and decoded strictly,
// like v1 bodies: an oversized body answers 413 payload_too_large and
// an unknown field 400 bad_request, and neither changes the copy.
func TestControlBodiesDecodedStrictly(t *testing.T) {
	huge := `{"term":3,"targets":[{"addr":"` + strings.Repeat("x", 2<<20) + `"}]}`
	cases := []struct {
		name, op, body string
		status         int
		code           string
	}{
		{"promote over the cap", "promote", huge, http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge},
		{"promote with an unknown field", "promote", `{"term":3,"force":true}`, http.StatusBadRequest, api.CodeBadRequest},
		{"demote with an unknown field", "demote", `{"to":"http://owner-b","term":3,"now":1}`, http.StatusBadRequest, api.CodeBadRequest},
		{"targets with an unknown field", "targets", `{"targets":[],"replicas":1}`, http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := newPeer(t, true)
			q.become(api.RoleFollower, 2, ownerA, false)
			resp, err := http.Post(q.url+ifacePath(iface, tc.op), "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e api.Error
			_ = json.NewDecoder(resp.Body).Decode(&e)
			if resp.StatusCode != tc.status || e.Code != tc.code {
				t.Fatalf("status %d code %q (%s), want %d %s", resp.StatusCode, e.Code, e.Message, tc.status, tc.code)
			}
			if i := q.info(); i.Role != api.RoleFollower || i.Term != 2 || i.Owner != ownerA {
				t.Fatalf("a refused %s changed the copy: %+v", tc.op, i)
			}
		})
	}
}
