// Command pi-serve mines interfaces from the paper's workloads and
// serves them over the versioned HTTP API: the generated pages become
// live dashboards whose widget interactions execute against the
// in-memory engine, and the dashboards keep improving as new query-log
// entries stream in.
//
// Usage:
//
//	pi-serve [-addr :8080] [-workloads olap,adhoc,sdss] [-n 150] [-rows 2000]
//	         [-seed 7] [-tail id=path[,id=path...]]
//	         [-token T | -token-file F] [-data-dir DIR] [-snapshot-every 30s]
//	         [-shard-addr http://HOST:PORT]
//	         [-pprof-addr ADDR] [-log-format text|json]
//	         [-slow-threshold 250ms] [-slow-sample N]
//	pi-serve -check [-addr :8080] [-token T | -token-file F]
//
// Endpoints:
//
//	GET  /v1/interfaces             list hosted interfaces
//	GET  /v1/interfaces/{id}        one interface's widgets and initial query
//	GET  /v1/interfaces/{id}/page   the live HTML dashboard (reloads on epoch bump)
//	GET  /v1/interfaces/{id}/epoch  the interface's current epoch
//	POST /v1/interfaces/{id}/query  bind widget state, execute, return rows (auth)
//	POST /v1/interfaces/{id}/log    ingest new query-log entries; acks after the re-mine (auth)
//	POST /v1/interfaces/{id}/rows   append dataset rows to one table; acks after the publish (auth)
//	DELETE /v1/interfaces/{id}      unhost an interface (auth)
//	POST /v1/snapshot               persist every interface to the data dir (auth)
//	GET  /v1/healthz                build info, uptime, epochs, cache hit rates
//	GET  /v1/debug                  cache and traffic counters
//
// With -shard-addr the process runs as a shard: the same v1 surface
// plus the /v1/shard admin surface (load, and the replication control
// plane: follow, apply, promote, demote, handoff, unfollow, targets,
// replica status) that cmd/pi-router replicates interfaces and
// migrates them through; requests for an interface
// this shard handed off answer with a structured "moved" error the
// SDK follows, and requests that need the owner of a replicated
// interface answer "not_owner" pointing at it. A shard may boot with
// -workloads "" and host nothing until the router seeds it. See
// README "Sharding" and "Replication & failover".
//
// With -token (or -token-file) the query and log endpoints require
// "Authorization: Bearer <token>"; metadata GETs stay open. Served
// pages pick the token up from their URL fragment: open
// /v1/interfaces/olap/page#token=<token>.
//
// With -data-dir the server is durable: on boot it restores every
// interface saved under the dir (same-or-later epoch, identical
// dataset row counts, no access to the original logs needed) and only
// mines workloads that have no snapshot. Every acked write (log
// batches, row appends, mutations, epoch bumps) is journaled to a
// per-interface write-ahead log before the ack returns, and a restart
// replays the logged tail on top of the interface's base snapshot, so
// a SIGKILL loses nothing that was acknowledged. POST /v1/snapshot,
// every -snapshot-every interval (when set) and graceful shutdown
// checkpoint: a new base is written, and the log truncated, only once
// the log has outgrown a fixed fraction of the base. Every ack is
// fsynced before it returns, so an acked write survives SIGKILL and
// power loss alike; -wal-sync accepts only 0 (any other value fails
// the boot) and -wal is accepted and ignored (the log is always on). A
// data dir in an older on-disk format fails the boot; `pi upgrade DIR`
// converts it. See README "Durability" and API.md "Compatibility".
// -batch is accepted and ignored too: every write publishes before its
// ack, so there is no batch to size.
//
// -check flips the binary into client mode: it probes a running
// pi-serve at -addr through the pi/client SDK (health, list, a query
// round-trip, and — when a token is set — an auth rejection check) and
// exits non-zero on any failure. `make api-smoke` builds on it.
//
// Example:
//
//	pi-serve -token secret &
//	pi-serve -check -token secret
//	curl -s localhost:8080/v1/interfaces
//	curl -s -X POST localhost:8080/v1/interfaces/olap/query \
//	     -H 'Authorization: Bearer secret' \
//	     -d '{"widgets":[],"limit":5}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/qlog"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/pi/client"
)

// config is pi-serve's flag set: the flags it shares with pi-router
// plus its own.
type config struct {
	*server.Flags
	workloads, tails, dataDir, shardAddr string
	n, rows                              int
	seed                                 int64
	snapEvery, walSync                   time.Duration
	check                                bool
}

// newConfig declares pi-serve's flags on fs.
func newConfig(fs *flag.FlagSet) *config {
	c := &config{Flags: server.NewFlags(fs, ":8080")}
	fs.StringVar(&c.workloads, "workloads", "olap,adhoc,sdss", "comma-separated workloads to mine and host")
	fs.IntVar(&c.n, "n", 150, "queries per mined log")
	fs.IntVar(&c.rows, "rows", 2000, "rows per synthetic dataset table")
	fs.Int64Var(&c.seed, "seed", 7, "workload generator seed")
	fs.Int("batch", 8, "deprecated and ignored: every ingested write re-mines and publishes before its ack")
	fs.StringVar(&c.tails, "tail", "", "comma-separated id=path log files (or globs like 'logs/*.log') to tail into hosted interfaces")
	fs.StringVar(&c.dataDir, "data-dir", "", "directory for durable state: per interface a base snapshot, a manifest and a write-ahead log every ack is journaled to before it returns (enables restore-on-boot and POST /v1/snapshot)")
	fs.DurationVar(&c.snapEvery, "snapshot-every", 0, "periodic background snapshot interval (0 = only on demand/shutdown; needs -data-dir)")
	fs.Bool("wal", false, "deprecated and ignored: under -data-dir the write-ahead log is always on")
	fs.DurationVar(&c.walSync, "wal-sync", 0, "deprecated: must be 0; every acked write is fsynced before its ack returns")
	fs.StringVar(&c.shardAddr, "shard-addr", "", "advertised base URL for shard mode, e.g. http://10.0.0.5:8081 (enables the /v1/shard admin surface)")
	fs.BoolVar(&c.check, "check", false, "probe a running pi-serve at -addr via the Go SDK and exit")
	return c
}

// validate refuses flag values pi-serve cannot honour.
func (c *config) validate() error {
	if c.walSync != 0 {
		return fmt.Errorf("-wal-sync %s: the interval fsync mode is removed; every ack is fsynced before it returns, so only -wal-sync 0 is accepted", c.walSync)
	}
	if c.snapEvery > 0 && c.dataDir == "" {
		return errors.New("-snapshot-every needs -data-dir")
	}
	return nil
}

func main() {
	c := newConfig(flag.CommandLine)
	flag.Parse()

	tok, err := c.Token()
	if err != nil {
		fatal(err)
	}

	if c.check {
		if err := runCheck(c.Addr, tok); err != nil {
			fatal(err)
		}
		return
	}
	if err := c.validate(); err != nil {
		fatal(err)
	}

	ring := c.Start()
	reg := api.NewRegistry()
	ing := ingest.New(reg, ingest.Options{})

	// With a data dir, the service restores saved interfaces before
	// anything is mined; workloads that came back from disk are not
	// re-hosted (that is the whole point: the accumulated log and the
	// appended rows survive, the original workload generator is not
	// consulted).
	var svc *api.Service
	var persister *ingest.Persister
	if c.dataDir != "" {
		persister = ingest.NewPersister(c.dataDir, ing, ingest.PersistOptions{Funcs: attachWorkloadFuncs})
		var restored *api.RestoreResult
		var rerr error
		svc, restored, rerr = api.NewPersistentService(reg, persister)
		if rerr != nil {
			fatal(fmt.Errorf("restore from %s: %w", c.dataDir, rerr))
		}
		for _, row := range restored.Interfaces {
			log.Printf("restored %-6s epoch %d, %d log entries, %d dataset rows from %s",
				row.ID, row.Epoch, row.LogEntries, row.Rows, c.dataDir)
		}
	} else {
		svc = api.NewService(reg)
	}

	for _, name := range strings.Split(c.workloads, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := reg.Get(name); ok {
			continue // restored from the data dir
		}
		logq, db, title, err := buildWorkload(name, c.n, c.rows, c.seed)
		if err != nil {
			fatal(err)
		}
		h, err := ing.Host(name, title, logq, db, core.DefaultOptions())
		if err != nil {
			fatal(fmt.Errorf("host %s: %w", name, err))
		}
		iface := h.Iface()
		log.Printf("hosted %-6s %d queries -> %d widgets (cost %.0f) at /v1/interfaces/%s/page",
			h.ID, logq.Len(), len(iface.Widgets), iface.Cost(), h.ID)
	}
	// A shard may legitimately boot empty (-workloads ''): a fresh
	// process joining a fleet hosts nothing until the router migrates
	// an interface onto it or seeds it as a follower replica.
	if len(reg.List()) == 0 && c.shardAddr == "" {
		fatal(fmt.Errorf("no workloads hosted"))
	}

	// Every interface must have a base snapshot on disk before its first
	// acked write is journaled: a log with no base to replay onto is
	// unrecoverable, so freshly mined workloads are persisted once up
	// front, before the listener opens.
	if persister != nil {
		if res, err := svc.Snapshot(); err != nil {
			fatal(fmt.Errorf("initial snapshot: %w", err))
		} else if len(res.Interfaces) > 0 {
			log.Printf("wal: initial snapshot of %d interface(s) to %s",
				len(res.Interfaces), res.Dir)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if persister != nil && c.snapEvery > 0 {
		go func() {
			t := time.NewTicker(c.snapEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if res, err := svc.Snapshot(); err != nil {
						log.Printf("periodic snapshot: %v", err)
					} else {
						log.Printf("snapshot: %d interface(s) persisted to %s in %.1fms",
							len(res.Interfaces), res.Dir, res.ElapsedMS)
					}
				}
			}
		}()
	}
	svc.SetIngestor(ing)
	for _, spec := range strings.Split(c.tails, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		id, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -tail spec %q (want id=path)", spec))
		}
		go func(id, path string) {
			log.Printf("tailing %s into /v1/interfaces/%s", path, id)
			if err := ing.Tail(ctx, id, path, time.Second); err != nil && ctx.Err() == nil {
				log.Printf("tail %s: %v", path, err)
			}
		}(id, path)
	}

	svc.SetSlowRing(ring)
	// In shard mode the server fronts a shard.Node instead of the bare
	// service: identical v1 surface, plus moved tombstones and the
	// /v1/shard admin surface a router migrates interfaces through.
	var servicer api.Servicer = svc
	var admin []server.Option
	if c.shardAddr != "" {
		node, err := shard.NewNode(svc, ing, shard.NodeOptions{
			Addr:      c.shardAddr,
			Funcs:     attachWorkloadFuncs,
			Persister: persister,
			Token:     tok,
		})
		if err != nil {
			fatal(err)
		}
		servicer = node
		admin = append(admin, server.WithAdmin("/v1/shard/", node.AdminHandler(server.AuthConfig{Token: tok})))
		log.Printf("shard mode: advertising %s, admin surface at /v1/shard/ (auth %v)", c.shardAddr, tok != "")
	}

	log.Printf("serving %d interface(s) on %s (auth %v)", len(reg.List()), c.Addr, tok != "")
	if err := c.Serve(ctx, servicer, tok, admin...); err != nil {
		fatal(err)
	}
	// A final checkpoint, then the log's close.
	if persister != nil {
		if res, err := svc.Snapshot(); err != nil {
			log.Printf("final snapshot: %v", err)
		} else {
			log.Printf("final snapshot: %d interface(s) persisted to %s", len(res.Interfaces), res.Dir)
		}
		if err := persister.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
}

// attachWorkloadFuncs re-binds table-valued functions a snapshot file
// cannot carry: the synthetic SDSS spatial UDF re-attaches to the
// restored Galaxy table.
func attachWorkloadFuncs(id string, st *store.Store) {
	if gal, ok := st.Snapshot().Table("Galaxy"); ok {
		st.AddFunc("dbo.fGetNearbyObjEq", engine.FGetNearbyObjEq(gal))
	}
}

// runCheck drives a running server through the pi/client SDK: health,
// interface listing, a query round-trip against the first interface,
// and — with auth configured — a rejected unauthenticated query.
func runCheck(addr, tok string) error {
	base := addr
	if strings.HasPrefix(base, ":") {
		base = "127.0.0.1" + base
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c, err := client.New(base, client.WithToken(tok))
	if err != nil {
		return err
	}
	h, err := c.Health(ctx)
	if err != nil {
		return fmt.Errorf("health: %w", err)
	}
	fmt.Printf("health: %s (%s, up %.0fs, ingestion %v, %d interfaces)\n",
		h.Status, h.GoVersion, h.UptimeSeconds, h.Ingestion, len(h.Interfaces))
	list, err := c.ListInterfaces(ctx)
	if err != nil {
		return fmt.Errorf("list interfaces: %w", err)
	}
	if len(list) == 0 {
		return fmt.Errorf("server hosts no interfaces")
	}
	id := list[0].ID
	detail, err := c.GetInterface(ctx, id)
	if err != nil {
		return fmt.Errorf("get %s: %w", id, err)
	}
	resp, err := c.Query(ctx, id, api.QueryRequest{Limit: 5})
	if err != nil {
		return fmt.Errorf("query %s: %w", id, err)
	}
	fmt.Printf("query %s: %d/%d rows at epoch %d (%d widgets, truncated %v)\n",
		id, len(resp.Rows), resp.RowCount, resp.Epoch, len(detail.Widgets), resp.Truncated)

	if tok != "" {
		anon, err := client.New(base, client.WithRetries(0))
		if err != nil {
			return err
		}
		_, err = anon.Query(ctx, id, api.QueryRequest{Limit: 1})
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnauthorized {
			return fmt.Errorf("unauthenticated query was not rejected with unauthorized: %v", err)
		}
		fmt.Printf("auth: unauthenticated query correctly rejected (%s)\n", apiErr.Code)
	}
	fmt.Println("check: ok")
	return nil
}

// buildWorkload returns the query log and the dataset for one named
// workload.
func buildWorkload(name string, n, rows int, seed int64) (*qlog.Log, *engine.DB, string, error) {
	switch name {
	case "olap":
		return workload.OLAPLog(n, seed), engine.OnTimeDB(rows), "OnTime OLAP dashboard", nil
	case "adhoc":
		return workload.AdhocLog(n, seed), engine.OnTimeDB(rows), "OnTime ad-hoc study", nil
	case "sdss":
		return workload.SDSSClient(workload.Lookup, seed, n), engine.SDSSDB(rows), "SDSS spectro explorer", nil
	}
	return nil, nil, "", fmt.Errorf("unknown workload %q (want olap, adhoc or sdss)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pi-serve:", err)
	os.Exit(1)
}
