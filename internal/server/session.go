// session.go: one client's stateful handle on the server. A session owns a
// private configuration snapshot (engine, optimizer toggles) and a resource
// pool binding; its queries go through workload-manager admission and run
// on the shared driver under the session's configuration, labeled with the
// session id as the LLAP tenant so daemon workers are shared fairly.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/llap"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sysdb"
)

// Session is one client's handle. Safe for concurrent use; one session may
// even run several queries at once (each is admitted separately).
type Session struct {
	id  string
	srv *Server

	mu      sync.Mutex
	conf    core.Config
	pool    string
	closed  bool
	streams map[*Stream]struct{} // open streaming-insert handles

	queries   atomic.Int64 // completed successfully
	preempted atomic.Int64 // preemptions absorbed (each later requeued)
}

// ID returns the session id ("s1", "s2", ...).
func (s *Session) ID() string { return s.id }

// Pool returns the session's resource pool.
func (s *Session) Pool() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool
}

// SetPool rebinds the session to another pool (the REPL's \pool command).
func (s *Session) SetPool(name string) error {
	if _, ok := s.srv.wm.Pool(name); !ok {
		return fmt.Errorf("%w: %q", ErrNoPool, name)
	}
	s.mu.Lock()
	s.pool = name
	s.mu.Unlock()
	return nil
}

// Config returns a copy of the session's configuration.
func (s *Session) Config() core.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conf
}

// SetConfig replaces the session's configuration. Queries already running
// keep the snapshot they started with; the driver and other sessions are
// unaffected.
func (s *Session) SetConfig(conf core.Config) {
	s.mu.Lock()
	s.conf = conf
	s.mu.Unlock()
}

// Queries returns how many queries the session completed successfully.
func (s *Session) Queries() int64 { return s.queries.Load() }

// Preemptions returns how many times the session's queries were preempted
// (each preemption was followed by a requeue).
func (s *Session) Preemptions() int64 { return s.preempted.Load() }

// Run executes one query under the session's configuration, going through
// workload-manager admission first. A preempted query transparently
// re-enters admission (up to the pool's MaxRequeues; the final attempt
// runs unpreemptable), so callers only ever see real results or real
// errors — never ErrPreempted.
func (s *Session) Run(ctx context.Context, query string) (*core.Result, error) {
	res, _, _, err := s.run(ctx, query, false)
	return res, err
}

// RunProfiled is Run returning the optimized plan and per-operator profile
// as well (the REPL's \profile path).
func (s *Session) RunProfiled(ctx context.Context, query string) (*core.Result, *plan.Plan, *obs.PlanProfile, error) {
	return s.run(ctx, query, true)
}

func (s *Session) run(ctx context.Context, query string, profiled bool) (*core.Result, *plan.Plan, *obs.PlanProfile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, nil, ErrClosed
	}
	conf := s.conf
	poolName := s.pool
	s.mu.Unlock()

	d := s.srv.driver
	pc, ok := s.srv.wm.Pool(poolName)
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: %q", ErrNoPool, poolName)
	}
	// Label the query's history records with who ran it; Classify turns a
	// workload-manager preemption — indistinguishable from a plain
	// cancellation inside the driver — into state "preempted" (each
	// preempted attempt is its own record; the requeued attempt finishes
	// as "ok").
	meta := sysdb.Meta{
		Session: s.id,
		Pool:    poolName,
		Tenant:  s.id,
		Classify: func(err, cause error) string {
			if errors.Is(cause, ErrPreempted) {
				return "preempted"
			}
			return ""
		},
	}
	// Plan once, before admission: a query that cannot plan never takes a
	// slot, and every attempt (requeues included) reuses the Prepared.
	prep, err := d.Prepare(sysdb.WithMeta(ctx, meta), conf, query)
	if err != nil {
		return nil, nil, nil, err
	}
	for attempt := 0; ; attempt++ {
		preemptable := pc.Preemptable && attempt < pc.MaxRequeues
		t, err := s.srv.wm.Acquire(ctx, poolName, prep.ScanBytes, preemptable)
		if err != nil {
			return nil, nil, nil, err
		}
		qctx, cancel := context.WithCancelCause(llap.WithTenant(ctx, s.id))
		t.SetCancel(cancel)
		meta.QueueWait = t.Wait()
		meta.Preemptions = s.preempted.Load()
		qctx = sysdb.WithMeta(qctx, meta)
		res, p, prof, err := d.Execute(qctx, prep, profiled)
		t.Release()
		wasPreempted := errors.Is(context.Cause(qctx), ErrPreempted)
		cancel(nil)
		if err == nil {
			s.queries.Add(1)
			return res, p, prof, nil
		}
		if wasPreempted && ctx.Err() == nil {
			s.preempted.Add(1)
			continue // cancel-and-requeue: back through admission
		}
		return nil, nil, nil, err
	}
}

// Close ends the session. Queries already admitted finish; new Runs reject
// with ErrClosed. Open streaming inserts are abandoned: their uncommitted
// tail transactions abort, exactly as if the client had crashed, so no
// partially-streamed batch ever becomes visible.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	streams := make([]*Stream, 0, len(s.streams))
	for st := range s.streams {
		streams = append(streams, st)
	}
	s.streams = nil
	s.mu.Unlock()
	for _, st := range streams {
		st.abandon()
	}
	s.srv.dropSession(s.id)
}

func (s *Session) dropStream(st *Stream) {
	s.mu.Lock()
	delete(s.streams, st)
	s.mu.Unlock()
}
