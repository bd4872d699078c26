package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"sync"

	"repro/internal/obs"
)

// The one HTTP request/response seam. Every JSON surface — the v1
// transport (internal/server), the shard- and router-admin surfaces
// (internal/shard) and the replication wire (internal/replica) —
// decodes its bodies with DecodeJSON and answers through WriteJSON and
// WriteError, so a status, an envelope or a header is decided once.

// jsonEnc is a pooled (buffer, encoder) pair: json.NewEncoder per
// response was one of the last steady-state allocations on the hot
// query path. Encoding into the buffer first also means a response
// that fails to marshal never reaches the wire half-written.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &jsonEnc{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// maxPooledEncBuf caps the buffer size re-pooled after a response: one
// huge page must not turn the pool into a permanent high-water-mark
// memory hold.
const maxPooledEncBuf = 1 << 20

// WriteJSON writes v as a JSON response with the given status; a value
// that fails to marshal answers 500 with no body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	e := encPool.Get().(*jsonEnc)
	e.buf.Reset()
	err := e.enc.Encode(v)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
	} else {
		w.WriteHeader(status)
		_, _ = w.Write(e.buf.Bytes())
	}
	if e.buf.Cap() <= maxPooledEncBuf {
		encPool.Put(e)
	}
}

// WriteError encodes any error as the v1 envelope {"code", "error"}
// with the status the service layer chose, stamping the request's
// trace id onto the envelope (WithTrace clones, so shared error values
// are never mutated) and the Bearer challenge onto a 401.
func WriteError(w http.ResponseWriter, r *http.Request, err error) {
	e := FromErr(err).WithTrace(obs.TraceID(r.Context()))
	if e.Code == CodeUnauthorized {
		w.Header().Set("WWW-Authenticate", `Bearer realm="pi"`)
	}
	WriteJSON(w, e.Status, e)
}

// DecodeJSON decodes a JSON body of at most maxBytes into v, strictly
// (an unknown field is an error). A failure is an *Error: see
// BodyError.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return BodyError(err)
	}
	return nil
}

// BodyError maps a failure reading or decoding a request body read
// through http.MaxBytesReader onto the error contract:
// payload_too_large when the body ran past its cap, bad_request
// otherwise.
func BodyError(err error) *Error {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return Errf(CodePayloadTooLarge, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", maxErr.Limit)
	}
	return errBadRequest("bad request body: %v", err)
}

// Handle adapts one operation to an HTTP handler: the value op returns
// is written with the given status, its error as the envelope.
func Handle(status int, op func(w http.ResponseWriter, r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := op(w, r)
		if err != nil {
			WriteError(w, r, err)
			return
		}
		WriteJSON(w, status, v)
	}
}
