package trace

import (
	"context"
	"net/http"

	"repro/internal/api"
	"repro/internal/qlog"
)

// Handler times every request h serves as a span named name.
func Handler(rec *Recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		i := rec.Begin(name)
		h.ServeHTTP(cw, r)
		rec.EndBytes(i, cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// Inner is what the timing servicer wraps: *api.Service, *shard.Node
// and *shard.Router all are one. api.CtxQuerier is the only optional
// capability internal/server type-asserts for, so forwarding it keeps
// the decorated servicer on the same code path as the bare one.
type Inner interface {
	api.Servicer
	api.CtxQuerier
}

// Servicer times the data-path operations of inner (query, ingest,
// append, mutate) as spans named name; everything else passes through.
func Servicer(rec *Recorder, name string, inner Inner) Inner {
	return &timedServicer{Inner: inner, rec: rec, name: name}
}

type timedServicer struct {
	Inner
	rec  *Recorder
	name string
}

func (t *timedServicer) Query(id string, req api.QueryRequest) (*api.QueryResponse, error) {
	defer t.rec.End(t.rec.Begin(t.name))
	return t.Inner.Query(id, req)
}

func (t *timedServicer) QueryIntoCtx(ctx context.Context, id string, req api.QueryRequest, resp *api.QueryResponse) error {
	defer t.rec.End(t.rec.Begin(t.name))
	return t.Inner.QueryIntoCtx(ctx, id, req, resp)
}

func (t *timedServicer) IngestLog(id string, entries []qlog.Entry, flush bool) (*api.IngestAck, error) {
	defer t.rec.End(t.rec.Begin(t.name))
	return t.Inner.IngestLog(id, entries, flush)
}

func (t *timedServicer) AppendRows(id string, req api.RowsRequest, flush bool) (*api.RowsAck, error) {
	defer t.rec.End(t.rec.Begin(t.name))
	return t.Inner.AppendRows(id, req, flush)
}

func (t *timedServicer) MutateRows(id string, req api.MutateRequest) (*api.MutateAck, error) {
	defer t.rec.End(t.rec.Begin(t.name))
	return t.Inner.MutateRows(id, req)
}
