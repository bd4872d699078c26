package server

import (
	"context"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api"
)

func TestResolveToken(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good", "  sesame\n")
	empty := write("empty", " \n")
	cases := []struct {
		name, token, file, want string
		wantErr                 bool
	}{
		{name: "token only", token: "inline", want: "inline"},
		{name: "file only, trimmed", file: good, want: "sesame"},
		{name: "both", token: "inline", file: good, wantErr: true},
		{name: "empty file", file: empty, wantErr: true},
		{name: "missing file", file: filepath.Join(dir, "absent"), wantErr: true},
	}
	for _, c := range cases {
		f := &Flags{token: c.token, tokenFile: c.file}
		got, err := f.Token()
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("%s: Token() = %q, %v; want %q, error %v", c.name, got, err, c.want, c.wantErr)
		}
	}
}

// TestServe: Serve answers on -addr with the slow ring from Start
// mounted, returns nil once its context ends, and returns the listener
// error when the address is taken.
func TestServe(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	busy := l.Addr().String()
	svc := api.NewService(api.NewRegistry())

	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	f := NewFlags(fs, busy)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.Serve(context.Background(), svc, ""); err == nil {
		t.Fatal("Serve on a taken address returned nil")
	}

	l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Serve(ctx, svc, "") }()
	var resp *http.Response
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err = http.Get("http://" + busy + "/v1/debug/slow"); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/slow = %d", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve after cancel = %v, want nil", err)
	}
}
