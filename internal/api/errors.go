package api

import (
	"errors"
	"fmt"
	"net/http"
)

// Error is the service layer's structured error model: a stable
// machine-readable Code (the contract clients switch on), the HTTP
// status a REST transport should map it to, and a human-readable
// Message. Every Service operation returns either nil or an *Error, so
// transports never have to guess a status from error text.
type Error struct {
	Code    string `json:"code"`
	Status  int    `json:"-"`
	Message string `json:"error"`
	// Addr is set on CodeMoved: the base URL of the shard that now
	// hosts the interface, so clients (and the router) can re-issue the
	// request there instead of treating the move as a failure.
	Addr string `json:"addr,omitempty"`
	// TraceID is stamped onto the envelope by the HTTP transport so a
	// failed request can be matched against request logs and the
	// slow-query ring across hops. It is presentation-only: error
	// identity (Code, Message) never depends on it.
	TraceID string `json:"traceId,omitempty"`
}

// WithTrace returns the error with the trace id stamped on. Service
// errors are sometimes shared values (sentinels, pooled paths), so the
// receiver is cloned rather than mutated; a nil receiver or empty id
// passes through unchanged.
func (e *Error) WithTrace(id string) *Error {
	if e == nil || id == "" || e.TraceID == id {
		return e
	}
	c := *e
	c.TraceID = id
	return &c
}

// The v1 error codes. These are part of the versioned contract: codes
// may be added, but existing codes keep their meaning.
const (
	// CodeBadRequest — the request body or parameters could not be
	// decoded (malformed JSON, unknown fields, bad cursor syntax). 400.
	CodeBadRequest = "bad_request"
	// CodeUnauthorized — the operation needs a bearer token and none was
	// presented. 401.
	CodeUnauthorized = "unauthorized"
	// CodeForbidden — a token was presented but it is not the one
	// configured for this interface. 403.
	CodeForbidden = "forbidden"
	// CodeNotFound — no interface is hosted under the requested ID. 404.
	CodeNotFound = "not_found"
	// CodeCursorExpired — the pagination cursor was minted at an earlier
	// epoch of the interface; the underlying result set is gone. Restart
	// from the first page. 410.
	CodeCursorExpired = "cursor_expired"
	// CodePayloadTooLarge — the request body exceeded the endpoint's
	// size cap. 413.
	CodePayloadTooLarge = "payload_too_large"
	// CodeBindRejected — the widget bindings are invalid against the
	// mined interface (unknown path, out-of-domain value, ambiguous
	// binding). 422.
	CodeBindRejected = "bind_rejected"
	// CodeExecFailed — the bindings were valid but the bound query
	// cannot run against the dataset (e.g. a column the sample lacks) —
	// a client-state problem, not a server fault. 422.
	CodeExecFailed = "exec_failed"
	// CodeIngestDisabled — the log endpoint was called on a server
	// running without an ingestor. 501.
	CodeIngestDisabled = "ingest_disabled"
	// CodeIngestFailed — the entries were accepted for decoding but
	// re-mining rejected them. 422.
	CodeIngestFailed = "ingest_failed"
	// CodeRowsRejected — submitted rows name an unknown table, mismatch
	// its column count, or carry values the engine cannot represent
	// (nested arrays/objects). 422.
	CodeRowsRejected = "rows_rejected"

	// CodeMutationConflict — a conditional mutation (ifEpoch set) found
	// the store at a different data epoch: the snapshot the client
	// planned against has been superseded by a concurrent write. The
	// client re-reads and retries.
	CodeMutationConflict = "mutation_conflict"
	// CodePersistenceDisabled — the snapshot endpoint was called on a
	// server running without a data dir. 501.
	CodePersistenceDisabled = "persistence_disabled"
	// CodeSnapshotFailed — writing the durable snapshot failed
	// (disk full, permission, ...). 500.
	CodeSnapshotFailed = "snapshot_failed"
	// CodeRestoreFailed — restoring from the data dir at construction
	// failed (corrupt or unreadable snapshot file). 500.
	CodeRestoreFailed = "restore_failed"
	// CodeMoved — the interface is no longer hosted on this shard: it
	// migrated to the shard whose base URL is in the error's Addr field.
	// The request was NOT processed, so re-issuing it against Addr is
	// always safe (including non-idempotent ingestion). 421.
	CodeMoved = "moved"
	// CodeShardUnavailable — the shard that owns the interface could not
	// be reached (process down, network partition). Transient from the
	// router's point of view; clients may retry. 502.
	CodeShardUnavailable = "shard_unavailable"
	// CodeNotOwner — the shard hosts only a follower replica of the
	// interface (or was fenced off by a newer replication term); writes
	// must go to the owner whose base URL is in the error's Addr field.
	// The request was NOT processed, so re-issuing it against Addr is
	// always safe (including non-idempotent ingestion). 421.
	CodeNotOwner = "not_owner"
	// CodeReplicaLagging — the follower replica that received the
	// request has detected a gap in its apply stream and is awaiting a
	// re-seed; its data may be arbitrarily stale. Addr (when set) names
	// the owner, which can answer instead. Also what an owner answers
	// when asked to hand off to a follower that is not in sync. 503.
	CodeReplicaLagging = "replica_lagging"
	// CodeReplicaOutOfSync — a replication apply arrived out of
	// sequence (the follower missed at least one event); the owner must
	// re-seed the follower with a fresh snapshot frame before streaming
	// resumes. 409.
	CodeReplicaOutOfSync = "replica_out_of_sync"
	// CodeTermMismatch — a replication control operation (promote,
	// demote) was conditioned on a fencing term that has since advanced;
	// the caller re-reads replica status and retries. 409.
	CodeTermMismatch = "term_mismatch"
	// CodeWALFailed — the write-ahead log could not record a publish
	// (disk full, torn log directory, ...). The write is visible locally
	// but was NOT acknowledged as durable; clients should treat the
	// submission as failed and retry. 500.
	CodeWALFailed = "wal_failed"
	// CodeInternal — an unexpected server-side failure. 500.
	CodeInternal = "internal"
)

// Error implements the error interface.
func (e *Error) Error() string { return e.Message }

// Errf builds an *Error with a formatted message.
func Errf(code string, status int, format string, args ...any) *Error {
	return &Error{Code: code, Status: status, Message: fmt.Sprintf(format, args...)}
}

// Convenience constructors for the common codes.
func errNotFound(id string) *Error {
	return Errf(CodeNotFound, http.StatusNotFound, "unknown interface %q", id)
}

func errBadRequest(format string, args ...any) *Error {
	return Errf(CodeBadRequest, http.StatusBadRequest, format, args...)
}

func errInternal(err error) *Error {
	return Errf(CodeInternal, http.StatusInternalServerError, "%v", err)
}

// ErrMoved builds the structured relocation error a shard returns for
// an interface it handed off to the shard at addr.
func ErrMoved(id, addr string) *Error {
	e := Errf(CodeMoved, http.StatusMisdirectedRequest,
		"interface %q moved to %s", id, addr)
	e.Addr = addr
	return e
}

// errOr preserves a structured *Error riding inside err (the
// replication hook threads not_owner through the ingestion ack path),
// falling back to the given code/status for plain errors.
func errOr(err error, code string, status int) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	return Errf(code, status, "%v", err)
}

// ErrNotOwner builds the structured write-redirect error a follower
// replica returns for an interface whose owner is the shard at addr.
// An empty addr means the follower does not (yet) know its owner.
func ErrNotOwner(id, addr string) *Error {
	e := Errf(CodeNotOwner, http.StatusMisdirectedRequest,
		"interface %q is a follower replica here; owner is %s", id, addr)
	e.Addr = addr
	return e
}

// ErrReplicaLagging builds the structured stale-replica error a
// follower returns while it awaits a re-seed from the owner at addr.
func ErrReplicaLagging(id, addr string) *Error {
	e := Errf(CodeReplicaLagging, http.StatusServiceUnavailable,
		"follower replica of %q is lagging (awaiting re-seed)", id)
	e.Addr = addr
	return e
}

// FromErr coerces any error into the structured model: an *Error passes
// through (including one wrapped with fmt.Errorf %w); anything else
// becomes CodeInternal.
func FromErr(err error) *Error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	return errInternal(err)
}
