package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// watchdog bounds a run. Each client registers the operation it is in;
// when one operation outlives opLimit, or the whole run outlives its
// deadline, the watchdog saves a goroutine dump beside the results,
// reports every unfinished operation as failed and exits nonzero.
type watchdog struct {
	outDir   string
	opLimit  time.Duration
	deadline time.Time
	onStall  func(unfinished int) // prints the failed result line
	exit     func(code int)       // os.Exit; tests substitute a signal

	mu       sync.Mutex
	inflight map[string]inflightOp
	stop     chan struct{}
	done     chan struct{}
}

type inflightOp struct {
	what  string
	since time.Time
}

func newWatchdog(outDir string, opLimit, total time.Duration) *watchdog {
	return &watchdog{
		outDir:   outDir,
		opLimit:  opLimit,
		deadline: time.Now().Add(total),
		exit:     os.Exit,
		inflight: map[string]inflightOp{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// begin marks client as running what; end clears it.
func (w *watchdog) begin(client, what string) {
	w.mu.Lock()
	w.inflight[client] = inflightOp{what, time.Now()}
	w.mu.Unlock()
}

func (w *watchdog) end(client string) {
	w.mu.Lock()
	delete(w.inflight, client)
	w.mu.Unlock()
}

func (w *watchdog) start() {
	go func() {
		defer close(w.done)
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case now := <-t.C:
				if reason := w.expired(now); reason != "" {
					w.fire(reason)
					return
				}
			}
		}
	}()
}

// close stops the watchdog and waits for its goroutine.
func (w *watchdog) close() {
	close(w.stop)
	<-w.done
}

func (w *watchdog) expired(now time.Time) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if now.After(w.deadline) {
		return "run deadline passed"
	}
	for client, op := range w.inflight {
		if now.Sub(op.since) > w.opLimit {
			return fmt.Sprintf("%s stuck in %s for %s", client, op.what, now.Sub(op.since).Round(time.Millisecond))
		}
	}
	return ""
}

// fire dumps every goroutine, names a known lock inversion when the dump
// shows it, and exits with status 3.
func (w *watchdog) fire(reason string) {
	var dump bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&dump, 2)
	path := filepath.Join(w.outDir, fmt.Sprintf("stall-%d.txt", time.Now().UnixNano()))
	if err := os.WriteFile(path, dump.Bytes(), 0o644); err != nil {
		path = "(not saved: " + err.Error() + ")"
	}
	w.mu.Lock()
	unfinished := len(w.inflight)
	var ops []string
	for client, op := range w.inflight {
		ops = append(ops, client+": "+op.what)
	}
	w.mu.Unlock()
	fmt.Fprintf(os.Stderr, "hivebench: STALL: %s; %d unfinished operation(s) counted as failed: %s\n",
		reason, unfinished, strings.Join(ops, "; "))
	fmt.Fprintf(os.Stderr, "hivebench: goroutine dump: %s\n", path)
	if s := dump.String(); strings.Contains(s, "dfs.(*FS).List") && strings.Contains(s, "dfs.(*FileWriter).Write") {
		fmt.Fprintln(os.Stderr, "hivebench: the dump shows dfs.(*FS).List (holding fs.mu) against "+
			"dfs.(*FileWriter).Write (holding f.mu): the known dfs lock-order inversion")
	}
	if w.onStall != nil {
		w.onStall(unfinished)
	}
	w.exit(3)
}
