// Command pi-router fronts a fleet of pi-serve shards with the same v1
// API one server exposes: it owns the interface→shard placement map,
// proxies every per-interface operation to the owning shard, fans out
// the fleet-wide ones (list, health, debug, snapshot), and migrates
// interfaces between shards live over their /v1/shard admin surfaces.
// Clients — curl, the Go SDK, served dashboard pages — cannot tell the
// router from a single server; that is the point of the api.Servicer
// seam.
//
// Usage:
//
//	pi-router -shards http://HOST:PORT,http://HOST:PORT,...
//	          [-addr :8100] [-token T | -token-file F]
//	          [-pin id=addr[,id=addr...]] [-refresh-every 15s]
//	          [-replicas N] [-read-fanout] [-failover]
//	          [-pprof-addr ADDR] [-log-format text|json]
//	          [-slow-threshold 250ms] [-slow-sample N]
//
// Endpoints: the full /v1 interface surface (proxied), plus the
// router-admin surface:
//
//	GET  /v1/router/shards      shard liveness + placement map + pins
//	POST /v1/router/refresh     re-discover placement from the shards
//	POST /v1/router/migrate     {"id": ..., "to": ...}: move one interface live
//	POST /v1/router/rebalance   move every interface to its pinned/hashed home
//	GET  /v1/router/replication per-interface replica sets (owner, term, followers)
//	POST /v1/router/failover    {"id": ...}: force-promote the best follower
//
// The -token is used both ways: clients must present it on mutating
// endpoints (like pi-serve), and the router presents it to the shards
// — a routed fleet shares one token.
//
// Placement starts from discovery (each shard is asked what it hosts),
// repairs itself when shards answer with structured moved errors, and
// is re-polled every -refresh-every. Default placement for rebalancing
// is rendezvous hashing; -pin overrides it per interface.
//
// With -replicas N (N > 1) every refresh drives each owner toward N-1
// warm follower replicas on the next rendezvous-ranked shards: the
// owner seeds them with a snapshot and streams every acked write
// before acking (see README "Replication & failover"). -read-fanout
// spreads queries, pages and epoch reads round-robin across in-sync
// replicas; -failover promotes the most-caught-up follower when an
// owner dies, so the fleet heals itself instead of answering
// shard_unavailable until an operator intervenes.
//
// Example (two shards and a router on one machine):
//
//	pi-serve -addr :8101 -workloads olap  -token s -shard-addr http://127.0.0.1:8101 &
//	pi-serve -addr :8102 -workloads adhoc -token s -shard-addr http://127.0.0.1:8102 &
//	pi-router -addr :8100 -shards 127.0.0.1:8101,127.0.0.1:8102 -token s &
//	curl -s localhost:8100/v1/interfaces          # both shards' interfaces
//	curl -s -X POST localhost:8100/v1/router/migrate \
//	     -H 'Authorization: Bearer s' \
//	     -d '{"id":"olap","to":"127.0.0.1:8102"}'  # live migration
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

// config is pi-router's flag set: the flags it shares with pi-serve
// plus its own.
type config struct {
	*server.Flags
	shards, pins         string
	refreshEvery         time.Duration
	replicas             int
	readFanout, failover bool
}

// newConfig declares pi-router's flags on fs.
func newConfig(fs *flag.FlagSet) *config {
	c := &config{Flags: server.NewFlags(fs, ":8100")}
	fs.StringVar(&c.shards, "shards", "", "comma-separated shard base URLs (required)")
	fs.StringVar(&c.pins, "pin", "", "comma-separated id=addr placement pins")
	fs.DurationVar(&c.refreshEvery, "refresh-every", 15*time.Second, "placement re-discovery interval (0 disables)")
	fs.IntVar(&c.replicas, "replicas", 1, "copies per interface incl. the owner (>1 keeps warm followers on other shards)")
	fs.BoolVar(&c.readFanout, "read-fanout", false, "spread read-only operations across in-sync replicas")
	fs.BoolVar(&c.failover, "failover", false, "auto-promote the best follower when an owner shard dies")
	return c
}

func main() {
	c := newConfig(flag.CommandLine)
	flag.Parse()

	tok, err := c.Token()
	if err != nil {
		fatal(err)
	}
	ring := c.Start()

	var addrs []string
	for _, a := range strings.Split(c.shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fatal(fmt.Errorf("-shards is required (comma-separated shard base URLs)"))
	}

	pinMap := map[string]string{}
	for _, spec := range strings.Split(c.pins, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		id, target, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -pin spec %q (want id=addr)", spec))
		}
		pinMap[id] = target
	}

	rt, err := shard.NewRouter(addrs, shard.RouterOptions{
		Token:      tok,
		Pins:       pinMap,
		Replicas:   c.replicas,
		ReadFanout: c.readFanout,
		Failover:   c.failover,
	})
	if err != nil {
		fatal(err)
	}
	if c.replicas > 1 {
		log.Printf("replication: %d copies per interface (read fan-out %v, failover %v)",
			c.replicas, c.readFanout, c.failover)
	}
	rt.SetSlowRing(ring)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	shardRows := rt.Refresh(ctx)
	for _, s := range shardRows {
		log.Printf("shard %s: %s (%d interfaces)", s.Addr, s.Status, s.Interfaces)
	}
	log.Printf("routing %d interface(s) across %d shard(s)", len(rt.Placement()), len(shardRows))

	if c.refreshEvery > 0 {
		go func() {
			t := time.NewTicker(c.refreshEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					rt.Refresh(ctx)
				}
			}
		}()
	}

	log.Printf("pi-router serving on %s over shards %s (auth %v)", c.Addr, strings.Join(addrs, ", "), tok != "")
	admin := server.WithAdmin("/v1/router/", rt.AdminHandler(server.AuthConfig{Token: tok}))
	if err := c.Serve(ctx, rt, tok, admin); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pi-router:", err)
	os.Exit(1)
}
