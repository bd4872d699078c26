package trace

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"repro/bench/gen"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wal"
)

// This file hosts the program's serving processes inside the harness,
// behind real loopback listeners, assembled the way cmd/pi-serve and
// cmd/pi-router assemble them — with a timing Handler around the HTTP
// stack and a timing Servicer between the transport and the service.
// It is the traced twin of the child processes the untraced run spawns.

// ServeOptions are the pi-serve flags the benchmark uses.
type ServeOptions struct {
	Label     string   // span-name suffix: spans are "server:<Label>", "servicer:<Label>", "admin:<Label>"
	Workloads []string // -workloads
	N, Rows   int      // -n, -rows
	Seed      int64    // -seed
	Batch     int      // -batch
	Token     string   // -token
	Shard     bool     // -shard-addr <own URL>
	DataDir   string   // -data-dir, with -wal -wal-sync 0 when set
}

// Proc is one in-process server.
type Proc struct {
	URL   string
	Node  *shard.Node // nil unless ServeOptions.Shard
	close []func()
}

// Close stops the listener and background work.
func (p *Proc) Close() {
	for i := len(p.close) - 1; i >= 0; i-- {
		p.close[i]()
	}
}

// quietLog keeps the request-log middleware in the chain (the real
// processes format one line per request) without a terminal to write to.
func quietLog() *log.Logger { return log.New(io.Discard, "", log.LstdFlags) }

// attachFuncs mirrors cmd/pi-serve's attachWorkloadFuncs.
func attachFuncs(id string, st *store.Store) {
	if gal, ok := st.Snapshot().Table("Galaxy"); ok {
		st.AddFunc("dbo.fGetNearbyObjEq", engine.FGetNearbyObjEq(gal))
	}
}

// StartServe is cmd/pi-serve's main with spans around its seams.
func StartServe(rec *Recorder, o ServeOptions) (*Proc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proc{URL: "http://" + l.Addr().String()}
	p.close = append(p.close, func() { l.Close() })
	fail := func(err error) (*Proc, error) {
		p.Close()
		return nil, err
	}

	reg := api.NewRegistryWithCache(api.DefaultCacheSize)
	ing := ingest.New(reg, ingest.Options{BatchSize: o.Batch, FlushInterval: 2 * time.Second})
	var svc *api.Service
	var persister *ingest.Persister
	if o.DataDir != "" {
		walMgr := wal.NewManager(o.DataDir, wal.Options{}) // -wal-sync 0: fsync before every ack
		p.close = append(p.close, func() { walMgr.Close() })
		persister = ingest.NewPersister(o.DataDir, ing, ingest.PersistOptions{Funcs: attachFuncs, WAL: walMgr})
		if svc, _, err = api.NewPersistentService(reg, persister); err != nil {
			return fail(fmt.Errorf("trace: restore from %s: %w", o.DataDir, err))
		}
	} else {
		svc = api.NewService(reg)
	}
	for _, name := range o.Workloads {
		if _, ok := reg.Get(name); ok {
			continue
		}
		logq, db, err := gen.ServeWorkload(name, o.N, o.Rows, o.Seed)
		if err != nil {
			return fail(err)
		}
		if _, err := ing.Host(name, name, logq, db, core.DefaultLiveOptions()); err != nil {
			return fail(fmt.Errorf("trace: host %s: %w", name, err))
		}
	}
	if persister != nil {
		if _, err := svc.Snapshot(); err != nil {
			return fail(fmt.Errorf("trace: initial snapshot: %w", err))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.close = append(p.close, cancel)
	svc.SetIngestor(ing)
	go ing.Run(ctx)

	ring := obs.NewSlowRing(256, 250*time.Millisecond, 0)
	svc.SetSlowRing(ring)
	opts := []server.Option{
		server.WithLogger(quietLog()),
		server.WithLogFormat(server.LogText),
		server.WithMetrics(obs.Default),
		server.WithSlowRing(ring),
	}
	auth := server.AuthConfig{Token: o.Token}
	if o.Token != "" {
		opts = append(opts, server.WithAuth(auth))
	}
	var inner Inner = svc
	if o.Shard {
		node, err := shard.NewNode(svc, ing, shard.NodeOptions{
			Addr: p.URL, Funcs: attachFuncs, Persister: persister, Token: o.Token,
		})
		if err != nil {
			return fail(err)
		}
		p.Node = node
		inner = node
		opts = append(opts, server.WithAdmin("/v1/shard/",
			Handler(rec, "admin:"+o.Label, node.AdminHandler(auth))))
	}
	serveOn(p, l, rec, "server:"+o.Label, server.New(Servicer(rec, "servicer:"+o.Label, inner), opts...))
	return p, nil
}

// StartRouter is cmd/pi-router's main with spans around its seams. The
// router refreshes its placement only when the caller says so: a
// background refresh would interleave with the op being traced.
func StartRouter(rec *Recorder, shards []string, replicas int, token string) (*Proc, *shard.Router, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	p := &Proc{URL: "http://" + l.Addr().String()}
	p.close = append(p.close, func() { l.Close() })
	rt, err := shard.NewRouter(shards, shard.RouterOptions{Token: token, Timeout: 30 * time.Second, Replicas: replicas})
	if err != nil {
		p.Close()
		return nil, nil, err
	}
	ring := obs.NewSlowRing(256, 250*time.Millisecond, 0)
	rt.SetSlowRing(ring)
	auth := server.AuthConfig{Token: token}
	opts := []server.Option{
		server.WithLogger(quietLog()),
		server.WithLogFormat(server.LogText),
		server.WithMetrics(obs.Default),
		server.WithSlowRing(ring),
		server.WithAdmin("/v1/router/", rt.AdminHandler(auth)),
	}
	if token != "" {
		opts = append(opts, server.WithAuth(auth))
	}
	serveOn(p, l, rec, "server:router", server.New(Servicer(rec, "servicer:router", rt), opts...))
	return p, rt, nil
}

// serveOn serves srv on l with the production timeouts, the whole
// middleware stack inside one span per request.
func serveOn(p *Proc, l net.Listener, rec *Recorder, span string, srv *server.Server) {
	hs := srv.HTTPServer("")
	hs.Handler = Handler(rec, span, hs.Handler)
	done := make(chan struct{})
	go func() {
		_ = hs.Serve(l) // returns ErrServerClosed on Close
		close(done)
	}()
	p.close = append(p.close, func() {
		hs.Close()
		<-done
	})
}
