package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro/bench/sut"
	"repro/internal/api"
	"repro/pi/client"
)

// bootTimeout bounds one process's way to ready.
const bootTimeout = 60 * time.Second

// probe is the client the harness uses for readiness polls, scrapes and
// post-checks — never for timed ops.
var probeHTTP = &http.Client{Timeout: 10 * time.Second}

func probeClient(base, token string) (*client.Client, error) {
	return client.New(base, client.WithToken(token), client.WithRetries(0), client.WithHTTPClient(probeHTTP))
}

// server is one real pi-serve or pi-router child and how to reach it.
type server struct {
	proc *sut.Proc
	addr string // host:port
	url  string
	args []string // for restarting it on the same address
	bin  string
}

// startServer launches bin on a free loopback port with -addr prepended
// to args. mkArgs receives the chosen URL (shards advertise their own).
func (e *env) startServer(name, bin string, mkArgs func(url string) []string) (*server, error) {
	addr, err := sut.FreeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, url: "http://" + addr, bin: filepath.Join(e.bin, bin)}
	s.args = append([]string{"-addr", addr}, mkArgs(s.url)...)
	s.proc, err = e.group.Start(name, s.bin, s.args...)
	return s, err
}

// restart launches the same command line again (after a kill).
func (e *env) restart(s *server, name string) (err error) {
	s.proc, err = e.group.Start(name, s.bin, s.args...)
	return err
}

// waitHealthy polls /v1/healthz every 2 ms until ok(health) holds.
func (e *env) waitHealthy(s *server, ok func(*api.Health) bool) error {
	c, err := probeClient(s.url, "")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(e.ctx, bootTimeout)
	defer cancel()
	err = sut.Poll(ctx, s.proc, func() bool {
		h, err := c.Health(ctx)
		return err == nil && (ok == nil || ok(h))
	})
	if err != nil {
		return fmt.Errorf("%s at %s: %w", s.proc.Name, s.url, err)
	}
	return nil
}

// healthRow returns one interface's row of a health report.
func healthRow(h *api.Health, id string) *api.HealthInterface {
	for i := range h.Interfaces {
		if h.Interfaces[i].ID == id {
			return &h.Interfaces[i]
		}
	}
	return nil
}

// scrape reads /v1/metrics of a server.
func (e *env) scrape(s *server) (map[string]float64, error) {
	return sut.Scrape(e.ctx, probeHTTP, s.url+"/v1/metrics")
}

// delta returns after[k] - before[k].
func delta(before, after map[string]float64, k string) float64 { return after[k] - before[k] }
