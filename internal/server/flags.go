package server

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

const slowRingCap = 256 // slow-query ring capacity (newest entries win)

// Flags are the flags pi-serve and pi-router share, and the process
// setup both drive from them: token, pprof, process gauges, slow-query
// ring, request log, listen and graceful shutdown.
type Flags struct {
	Addr                                   string
	token, tokenFile, pprofAddr, logFormat string
	slowThreshold                          time.Duration
	slowSample                             int
	ring                                   *obs.SlowRing
}

// NewFlags declares the shared flags on fs, -addr defaulting to addr.
func NewFlags(fs *flag.FlagSet, addr string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Addr, "addr", addr, "listen address (pi-serve -check: the server to probe)")
	fs.StringVar(&f.token, "token", "", "bearer token required on query and mutating endpoints (empty = open); pi-router also presents it to its shards")
	fs.StringVar(&f.tokenFile, "token-file", "", "file holding the bearer token (mutually exclusive with -token)")
	fs.StringVar(&f.pprofAddr, "pprof-addr", "", "private listen address for net/http/pprof, e.g. localhost:6060 (empty = disabled; keep it off public interfaces)")
	fs.StringVar(&f.logFormat, "log-format", LogText, "request-log line shape: text or json (one JSON object per line)")
	fs.DurationVar(&f.slowThreshold, "slow-threshold", 250*time.Millisecond, "queries at or above this duration are recorded in GET /v1/debug/slow")
	fs.IntVar(&f.slowSample, "slow-sample", 0, "also record every Nth query regardless of duration (0 = threshold only)")
	return f
}

// Token returns -token, or the trimmed content of -token-file, which
// must exist, be non-empty and not come with -token.
func (f *Flags) Token() (string, error) {
	if f.tokenFile == "" {
		return f.token, nil
	}
	if f.token != "" {
		return "", fmt.Errorf("-token and -token-file are mutually exclusive")
	}
	b, err := os.ReadFile(f.tokenFile)
	if err != nil {
		return "", fmt.Errorf("read -token-file: %w", err)
	}
	tok := strings.TrimSpace(string(b))
	if tok == "" {
		return "", fmt.Errorf("-token-file %s is empty", f.tokenFile)
	}
	return tok, nil
}

// Start starts the pprof listener (when -pprof-addr is set) and the
// process gauges, and returns the slow-query ring for the servicer to
// record into. pprof gets its own mux on its own address: profiles
// expose heap contents, so they never ride the API's listener or
// http.DefaultServeMux. A pprof listener failure is only logged.
func (f *Flags) Start() *obs.SlowRing {
	if f.pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", f.pprofAddr)
			log.Printf("pprof listener on %s: %v", f.pprofAddr, http.ListenAndServe(f.pprofAddr, mux))
		}()
	}
	obs.Default.RegisterProcess()
	f.ring = obs.NewSlowRing(slowRingCap, f.slowThreshold, f.slowSample)
	return f.ring
}

// Serve serves svc on -addr with the request log, GET /v1/metrics, the
// ring from Start, bearer-token auth when tok is set, and opts (an
// admin surface) until the listener fails or ctx ends; then it drains
// in-flight requests for up to 10 s and returns Shutdown's error.
func (f *Flags) Serve(ctx context.Context, svc api.Servicer, tok string, opts ...Option) error {
	reqLog := log.Default()
	if f.logFormat == LogJSON {
		reqLog = log.New(os.Stderr, "", 0) // JSON lines carry no date/time prefix
	}
	opts = append(opts, WithLogger(reqLog), WithLogFormat(f.logFormat), WithMetrics(obs.Default),
		WithSlowRing(f.ring), WithAuth(AuthConfig{Token: tok}))
	hs := New(svc, opts...).HTTPServer(f.Addr)
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		log.Printf("signal received, shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- hs.Shutdown(sctx)
	}()
	if err := hs.ListenAndServe(); err != http.ErrServerClosed {
		return err
	}
	return <-done
}
