package ingest

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/qlog"
)

// Tail follows growing query-log files (tail -f style) and submits
// every statement appended after the call to the interface's feed.
// pathOrGlob is either one file path or a glob pattern
// (filepath.Match syntax, e.g. "logs/*.log"): with a pattern, every
// matching file is tailed, and files created after the call are picked
// up on the next poll — their whole content is new by definition, so
// they are read from the beginning, while files that already existed
// start at their current end, exactly like the single-file case.
//
// Statements are assembled per file with the qlog statement scanner,
// so multi-line ';'-terminated SQL and "--" comments are handled. A
// statement still open at the end of a poll (mid-write) is held, not
// submitted half-finished; only after two consecutive polls with no
// new bytes in that file is the held state force-completed — a writer
// that pauses longer than 2x the interval in the middle of an
// unterminated multi-line statement can still get it split, so slow
// writers should ';'-terminate (the terminator completes a statement
// regardless of timing). Truncation or rotation (a file shrinks)
// restarts that file from the beginning. A file that disappears from
// the glob drops its held state. Tail blocks until ctx is done; run it
// in a goroutine.
//
// The poll interval doubles as the liveness budget: each poll submits
// what it read as one publication, so entries appear in the served
// interface one interval after a complete statement is written.
func (ing *Ingester) Tail(ctx context.Context, id, pathOrGlob string, interval time.Duration) error {
	if _, err := ing.feed(id); err != nil {
		return err
	}
	if interval <= 0 {
		interval = time.Second
	}
	tl := &tailer{ing: ing, id: id, pattern: pathOrGlob, files: map[string]*fileTail{}}
	if err := tl.init(); err != nil {
		return fmt.Errorf("ingest: tail %q: %w", pathOrGlob, err)
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			tl.pollAll()
		}
	}
}

// tailer tracks every file a Tail call follows.
type tailer struct {
	ing     *Ingester
	id      string
	pattern string
	isGlob  bool
	files   map[string]*fileTail
}

// fileTail is the per-file tail state: byte offset, the trailing bytes
// of an incomplete final line, the statement scanner holding a
// possibly multi-line statement, and the quiescence counter that
// force-completes held state.
type fileTail struct {
	offset  int64
	partial []byte
	sc      *qlog.StatementScanner
	quiet   int
}

// hasGlobMeta reports whether the pattern contains filepath.Match
// metacharacters.
func hasGlobMeta(p string) bool { return strings.ContainsAny(p, "*?[") }

// init seeds the file set: files that exist now start at their end
// (their contents are the batch log the interface was mined from); a
// single missing path starts at 0 and is read in full when it appears.
func (tl *tailer) init() error {
	tl.isGlob = hasGlobMeta(tl.pattern)
	if !tl.isGlob {
		off, err := initialOffset(tl.pattern)
		if err != nil {
			return err
		}
		tl.files[tl.pattern] = &fileTail{offset: off, sc: qlog.NewStatementScanner()}
		return nil
	}
	if _, err := filepath.Match(tl.pattern, ""); err != nil {
		return err // malformed pattern: fail now, not on every poll
	}
	matches, err := filepath.Glob(tl.pattern)
	if err != nil {
		return err
	}
	for _, path := range matches {
		off, err := initialOffset(path)
		if err != nil {
			// Fail like the single-file path: skipping here would make
			// the next poll treat the file as newly created and ingest
			// its whole pre-existing content as fresh entries.
			return err
		}
		tl.files[path] = &fileTail{offset: off, sc: qlog.NewStatementScanner()}
	}
	return nil
}

// pollAll refreshes the glob (picking up files created after start at
// offset 0 and dropping files that vanished) and polls every tracked
// file.
func (tl *tailer) pollAll() {
	if tl.isGlob {
		matches, err := filepath.Glob(tl.pattern)
		if err == nil {
			seen := make(map[string]bool, len(matches))
			for _, path := range matches {
				seen[path] = true
				if _, ok := tl.files[path]; !ok {
					// Created after start: everything in it is new.
					tl.files[path] = &fileTail{sc: qlog.NewStatementScanner()}
				}
			}
			for path := range tl.files {
				if !seen[path] {
					delete(tl.files, path)
				}
			}
		}
	}
	for path, ft := range tl.files {
		tl.pollFile(path, ft)
	}
}

// pollFile reads one file's appended bytes and handles quiescence.
func (tl *tailer) pollFile(path string, ft *fileTail) {
	newOffset, newPartial, err := tl.ing.poll(tl.id, path, ft.offset, ft.partial, ft.sc)
	if err != nil {
		// Transient (file rotated away, fs hiccup): keep tailing.
		return
	}
	if newOffset != ft.offset {
		ft.quiet = 0
	} else if ft.quiet++; ft.quiet >= 2 {
		// Quiescent for two polls: what we hold is complete — a final
		// line without a trailing newline (the partial) and a statement
		// the scanner still keeps open (one-statement-per-line logs never
		// ';'-terminate their last line). Feed and flush both.
		if len(newPartial) > 0 {
			ft.sc.Line(string(newPartial))
			newPartial = nil
		}
		ft.sc.Flush()
		if entries := ft.sc.Drain(); len(entries) > 0 {
			_, _ = tl.ing.Submit(tl.id, entries)
		}
	}
	ft.offset, ft.partial = newOffset, newPartial
}

// initialOffset returns the file's current size — tailing starts at
// the end, like tail -f; the file's existing contents are the batch
// log the interface was mined from. A missing file starts at 0 and is
// picked up when it appears.
func initialOffset(path string) (int64, error) {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// poll reads bytes appended since offset, feeds complete lines through
// the statement scanner and submits finished statements.
func (ing *Ingester) poll(id, path string, offset int64, partial []byte, sc *qlog.StatementScanner) (int64, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return offset, partial, nil // not yet created (or rotated out)
		}
		return offset, partial, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return offset, partial, err
	}
	if st.Size() < offset {
		// Truncated or rotated: drop partial state, restart at 0.
		offset, partial = 0, nil
		sc.Flush()
		sc.Drain()
	}
	if st.Size() == offset {
		return offset, partial, nil
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return offset, partial, err
	}
	chunk, err := io.ReadAll(f)
	if err != nil {
		return offset, partial, err
	}
	offset += int64(len(chunk))

	buf := append(partial, chunk...)
	var entries []qlog.Entry
	start := 0
	for i := 0; i < len(buf); i++ {
		if buf[i] != '\n' {
			continue
		}
		sc.Line(string(buf[start:i]))
		entries = append(entries, sc.Drain()...)
		start = i + 1
	}
	partial = append([]byte(nil), buf[start:]...)
	if len(entries) > 0 {
		if _, err := ing.Submit(id, entries); err != nil {
			return offset, partial, err
		}
	}
	return offset, partial, nil
}
