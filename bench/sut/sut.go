// Package sut runs the system under test — the real pi, pi-serve and
// pi-router binaries — as child processes the harness can account for
// and is certain to reap: every child gets its own process group, its
// stderr goes to a file under the run's state directory, CPU and peak
// RSS are read from /proc so they are the program's and not the
// harness's, and Group.KillAll leaves no orphan behind.
package sut

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Group owns every child process of one benchmark run.
type Group struct {
	dir string // stderr files live here

	mu    sync.Mutex
	procs []*Proc  // children not yet known to have ended
	logs  []string // stderr file of every child ever started
}

// NewGroup returns a group whose children log under dir.
func NewGroup(dir string) *Group { return &Group{dir: dir} }

// Proc is one running (or finished) child.
type Proc struct {
	Name   string
	Stderr string // path of the captured stderr
	cmd    *exec.Cmd
	done   chan struct{}
	err    error
}

// Start launches bin with args in its own process group.
func (g *Group) Start(name, bin string, args ...string) (*Proc, error) {
	g.mu.Lock()
	logPath := filepath.Join(g.dir, fmt.Sprintf("%03d-%s.stderr", len(g.logs)+1, name))
	g.logs = append(g.logs, logPath)
	g.mu.Unlock()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("sut: start %s: %w", name, err)
	}
	p := &Proc{Name: name, Stderr: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	// Children that have ended are forgotten here: a run starts dozens
	// (one pi per mine_batch op), and a reaped child's pid may be reused.
	g.mu.Lock()
	live := g.procs[:0]
	for _, q := range g.procs {
		if gone, _ := q.Exited(); !gone {
			live = append(live, q)
		}
	}
	g.procs = append(live, p)
	g.mu.Unlock()
	return p, nil
}

// KillAll SIGKILLs every live child's process group and waits for each.
// It is safe to call more than once and from a signal handler goroutine.
func (g *Group) KillAll() {
	g.mu.Lock()
	procs := append([]*Proc(nil), g.procs...)
	g.mu.Unlock()
	for _, p := range procs {
		p.Kill()
	}
}

// Logs returns the tail of every child's stderr, for failure reports.
func (g *Group) Logs(tailBytes int64) string {
	g.mu.Lock()
	logs := append([]string(nil), g.logs...)
	g.mu.Unlock()
	var b strings.Builder
	for _, path := range logs {
		raw, err := os.ReadFile(path)
		if err != nil || len(raw) == 0 {
			continue
		}
		if int64(len(raw)) > tailBytes {
			raw = raw[int64(len(raw))-tailBytes:]
		}
		fmt.Fprintf(&b, "--- %s ---\n%s\n", filepath.Base(path), raw)
	}
	return b.String()
}

// Pid returns the child's process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Kill SIGKILLs the child's process group and waits until it is gone.
// A child that has already been reaped is left alone: its pid, and so
// its group id, may belong to another process by now.
func (p *Proc) Kill() {
	select {
	case <-p.done:
		return
	default:
	}
	// The group id equals the child's pid (Setpgid with Pgid 0).
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // ESRCH if it ended since the check
	<-p.done
}

// Exited reports whether the child has ended, and how.
func (p *Proc) Exited() (bool, error) {
	select {
	case <-p.done:
		return true, p.err
	default:
		return false, nil
	}
}

// Wait blocks until the child ends and returns its user+system CPU
// time (rusage) and its peak RSS in bytes.
//
// The peak is VmHWM, polled every 5 ms while the child runs, not
// ru_maxrss: Go starts children with clone(CLONE_VM) and the kernel
// folds the old address space's high-water mark into the child's
// ru_maxrss at exec, so ru_maxrss is never below the harness's own
// RSS — hundreds of MiB once it holds every workload's inputs. VmHWM
// belongs to the address space exec created. The last reading can
// trail the true peak by one polling interval of growth.
func (p *Proc) Wait() (cpu time.Duration, peakRSS int64, err error) {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for running := true; running; {
		select {
		case <-p.done:
			running = false
		case <-t.C:
			if b, err := p.PeakRSS(); err == nil {
				peakRSS = max(peakRSS, b)
			}
		}
	}
	if p.err != nil {
		return 0, 0, fmt.Errorf("sut: %s: %w", p.Name, p.err)
	}
	st := p.cmd.ProcessState
	return st.UserTime() + st.SystemTime(), peakRSS, nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// It is 100 on every Linux ABI Go supports.
const clockTick = 100

// CPU returns the user+system CPU time the live child has consumed so
// far, over all its threads.
func (p *Proc) CPU() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.Pid()))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("sut: malformed stat for %s", p.Name)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("sut: short stat for %s", p.Name)
	}
	// After ")": state is f[0]; utime and stime are fields 14 and 15 of
	// the full line, i.e. f[11] and f[12].
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stm, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("sut: unparsable stat for %s", p.Name)
	}
	return time.Duration(ut+stm) * time.Second / clockTick, nil
}

// PeakRSS returns the live child's peak resident set (VmHWM) in bytes.
func (p *Proc) PeakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.Pid()))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("sut: VmHWM of %s: %w", p.Name, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("sut: no VmHWM for %s", p.Name)
}

// FreeAddr picks a loopback address with a port that is free now.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// pollEvery is the readiness polling interval: set-up time is a gated
// metric, so it must not be quantised by a coarse sleep.
const pollEvery = 2 * time.Millisecond

// Poll calls ready every 2 ms until it returns true, the child p (if
// not nil) exits, or ctx ends.
func Poll(ctx context.Context, p *Proc, ready func() bool) error {
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		if ready() {
			return nil
		}
		if p != nil {
			if gone, err := p.Exited(); gone {
				return fmt.Errorf("sut: %s exited before it was ready: %v", p.Name, err)
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("sut: not ready: %w", ctx.Err())
		case <-t.C:
		}
	}
}

// Scrape fetches a Prometheus text exposition and returns every sample
// keyed by its full series name, labels included.
func Scrape(ctx context.Context, hc *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sut: scrape %s: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
