// Package server is the multi-tenant front end over one core.Driver — the
// HiveServer2 + workload-management layer of the paper's outlook, in
// process. It has three parts: sessions (session.go), each with a private
// configuration snapshot and a default resource pool; a query gateway
// (server.go) dispatching per-session queries through the shared driver
// concurrently; and this file's workload manager — named resource pools
// with executor-slot budgets, bounded admission queues with queue
// timeouts, memory-based admission keyed on estimated scan footprint, and
// preemption (cancel-and-requeue) of batch queries when an interactive
// pool is starved of global capacity.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Admission-control errors.
var (
	// ErrPreempted is the cancellation cause installed on a running query
	// the manager preempts to make room for a starved interactive pool.
	// Sessions detect it via context.Cause and requeue the query.
	ErrPreempted = errors.New("server: preempted by workload manager")
	// ErrQueueFull rejects a query whose pool's admission queue is at
	// capacity.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrQueueTimeout rejects a query that waited longer than the pool's
	// queue timeout without being granted a slot.
	ErrQueueTimeout = errors.New("server: admission queue timeout")
	// ErrMemoryExceeded rejects a query whose estimated scan footprint
	// exceeds its pool's entire memory budget: it could never be admitted.
	ErrMemoryExceeded = errors.New("server: query exceeds pool memory budget")
	// ErrNoPool rejects work naming an unconfigured resource pool.
	ErrNoPool = errors.New("server: no such resource pool")
	// ErrClosed rejects work on a closed manager, server or session.
	ErrClosed = errors.New("server: closed")
)

// PoolConfig sizes one named resource pool.
type PoolConfig struct {
	Name string
	// Slots caps the pool's concurrently running queries. Default 4.
	Slots int
	// QueueDepth bounds queries waiting for admission beyond the running
	// ones; Acquire rejects with ErrQueueFull past it. Default 16.
	QueueDepth int
	// QueueTimeout bounds how long a query waits for admission; rejected
	// with ErrQueueTimeout after it. 0 waits until the caller's context
	// expires.
	QueueTimeout time.Duration
	// MemoryBytes is the pool's admission memory budget: the summed
	// estimated scan footprints of admitted queries stay within it. 0 is
	// unlimited. A single query estimated over the whole budget is
	// rejected outright with ErrMemoryExceeded.
	MemoryBytes int64
	// Interactive marks a latency-sensitive pool: when its head-of-queue
	// query is blocked only by the global slot budget, the manager
	// preempts the longest-running preemptable query to make room.
	Interactive bool
	// Preemptable marks a batch pool whose running queries may be
	// cancelled and requeued to unblock a starved interactive pool.
	Preemptable bool
	// MaxRequeues is how many times a preempted query re-enters admission
	// before its final attempt runs unpreemptable. Default 2.
	MaxRequeues int
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Slots == 0 {
		c.Slots = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.MaxRequeues == 0 {
		c.MaxRequeues = 2
	}
	return c
}

// ManagerConfig sizes the workload manager.
type ManagerConfig struct {
	// TotalSlots is the global executor-slot budget shared by every pool:
	// a query needs a free slot in its pool and a free global slot to
	// run. Default: the sum of pool slots, i.e. no constraint beyond the
	// per-pool ones. Setting it lower models pools oversubscribing shared
	// executors — the situation preemption exists for.
	TotalSlots int
	Pools      []PoolConfig
}

// Manager is the workload manager: admission control over named resource
// pools. Safe for concurrent use.
type Manager struct {
	mu         sync.Mutex
	pools      map[string]*pool
	order      []*pool // dispatch order: interactive pools first
	first      string  // first configured pool; the default for sessions
	totalSlots int
	running    int
	closed     bool
}

type pool struct {
	cfg     PoolConfig
	queue   []*Ticket
	running map[*Ticket]struct{}
	memUsed int64
	// Lifetime counters, under Manager.mu.
	admitted, rejected, timedOut, preempted int64
	// Registry mirrors; nil (and nil-safe) without a registry.
	gRunning, gQueued                *obs.Gauge
	cAdmitted, cRejected, cPreempted *obs.Counter
	cTimedOut                        *obs.Counter
	hWait, hRun                      *obs.Histogram
}

// Ticket is one admitted (or queued) query's claim on pool resources.
type Ticket struct {
	m           *Manager
	pool        *pool
	mem         int64
	preemptable bool
	grant       chan error // buffered 1: nil on admission, error on rejection
	enqueued    time.Time
	start       time.Time               // admission time; zero while queued
	granted     bool                    // under Manager.mu
	released    bool                    // under Manager.mu
	preempted   bool                    // under Manager.mu
	cancel      context.CancelCauseFunc // under Manager.mu
}

// NewManager builds the pools. With a non-nil registry, each pool registers
// gauges, counters and latency histograms under "wm.<pool>."; tear them
// down with reg.RemovePrefix("wm.") when discarding the manager.
func NewManager(cfg ManagerConfig, reg *obs.Registry) *Manager {
	m := &Manager{pools: map[string]*pool{}}
	for _, pc := range cfg.Pools {
		pc = pc.withDefaults()
		if _, dup := m.pools[pc.Name]; dup {
			panic(fmt.Sprintf("server: duplicate pool %q", pc.Name))
		}
		p := &pool{cfg: pc, running: map[*Ticket]struct{}{}}
		if reg != nil {
			prefix := "wm." + pc.Name + "."
			p.gRunning = reg.Gauge(prefix + "Running")
			p.gQueued = reg.Gauge(prefix + "Queued")
			p.cAdmitted = reg.Counter(prefix + "Admitted")
			p.cRejected = reg.Counter(prefix + "Rejected")
			p.cTimedOut = reg.Counter(prefix + "TimedOut")
			p.cPreempted = reg.Counter(prefix + "Preempted")
			p.hWait = reg.Histogram(prefix + "WaitNanos")
			p.hRun = reg.Histogram(prefix + "QueryNanos")
		}
		if m.first == "" {
			m.first = pc.Name
		}
		m.pools[pc.Name] = p
		m.order = append(m.order, p)
		m.totalSlots += pc.Slots
	}
	if cfg.TotalSlots > 0 {
		m.totalSlots = cfg.TotalSlots
	}
	sort.SliceStable(m.order, func(i, j int) bool {
		return m.order[i].cfg.Interactive && !m.order[j].cfg.Interactive
	})
	return m
}

// DefaultPool names the first configured pool — the pool sessions start in.
func (m *Manager) DefaultPool() string { return m.first }

// Pool returns a pool's effective (default-filled) configuration.
func (m *Manager) Pool(name string) (PoolConfig, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pools[name]
	if !ok {
		return PoolConfig{}, false
	}
	return p.cfg, true
}

// Acquire admits one query into the named pool, waiting in the pool's
// bounded queue when no slot (or memory) is free. mem is the query's
// estimated memory footprint (core.Prepared.ScanBytes). preemptable marks
// the resulting ticket as a legal preemption victim; it only takes effect
// in pools configured Preemptable. The returned Ticket must be Released.
func (m *Manager) Acquire(ctx context.Context, poolName string, mem int64, preemptable bool) (*Ticket, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	p, ok := m.pools[poolName]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoPool, poolName)
	}
	if p.cfg.MemoryBytes > 0 && mem > p.cfg.MemoryBytes {
		p.rejected++
		p.cRejected.Inc()
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: estimated %d bytes, pool %q budget %d",
			ErrMemoryExceeded, mem, poolName, p.cfg.MemoryBytes)
	}
	t := &Ticket{
		m: m, pool: p, mem: mem,
		preemptable: preemptable && p.cfg.Preemptable,
		grant:       make(chan error, 1),
		enqueued:    time.Now(),
	}
	if m.canRunLocked(p, mem) {
		m.grantLocked(p, t)
		m.mu.Unlock()
		<-t.grant
		return t, nil
	}
	if len(p.queue) >= p.cfg.QueueDepth {
		p.rejected++
		p.cRejected.Inc()
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: pool %q depth %d", ErrQueueFull, poolName, p.cfg.QueueDepth)
	}
	p.queue = append(p.queue, t)
	p.gQueued.Set(int64(len(p.queue)))
	if p.cfg.Interactive {
		m.preemptForLocked(p)
	}
	m.mu.Unlock()

	var timeout <-chan time.Time
	if p.cfg.QueueTimeout > 0 {
		timer := time.NewTimer(p.cfg.QueueTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case err := <-t.grant:
		if err != nil {
			return nil, err
		}
		return t, nil
	case <-ctx.Done():
		return nil, m.abandon(t, ctx.Err(), false)
	case <-timeout:
		return nil, m.abandon(t, fmt.Errorf("%w: pool %q after %v",
			ErrQueueTimeout, poolName, p.cfg.QueueTimeout), true)
	}
}

// abandon removes a waiting ticket after a timeout or caller cancellation,
// returning cause. When the grant raced in first, the slot goes straight
// back and freed capacity is re-dispatched.
func (m *Manager) abandon(t *Ticket, cause error, timedOut bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := t.pool
	if t.granted {
		m.releaseLocked(t)
		m.dispatchLocked()
		return cause
	}
	for i, q := range p.queue {
		if q == t {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			break
		}
	}
	p.gQueued.Set(int64(len(p.queue)))
	p.rejected++
	p.cRejected.Inc()
	if timedOut {
		p.timedOut++
		p.cTimedOut.Inc()
	}
	return cause
}

// canRunLocked reports whether the pool can admit a query of footprint mem
// right now: a pool slot, a global slot, and memory budget headroom.
func (m *Manager) canRunLocked(p *pool, mem int64) bool {
	if len(p.running) >= p.cfg.Slots || m.running >= m.totalSlots {
		return false
	}
	if p.cfg.MemoryBytes > 0 && p.memUsed+mem > p.cfg.MemoryBytes {
		return false
	}
	return true
}

func (m *Manager) grantLocked(p *pool, t *Ticket) {
	p.running[t] = struct{}{}
	p.memUsed += t.mem
	m.running++
	t.granted = true
	t.start = time.Now()
	p.admitted++
	p.cAdmitted.Inc()
	p.gRunning.Set(int64(len(p.running)))
	p.hWait.ObserveDuration(t.start.Sub(t.enqueued))
	t.grant <- nil
}

func (m *Manager) releaseLocked(t *Ticket) {
	t.released = true
	t.cancel = nil
	p := t.pool
	delete(p.running, t)
	p.memUsed -= t.mem
	m.running--
	p.gRunning.Set(int64(len(p.running)))
	p.hRun.ObserveDuration(time.Since(t.start))
}

// dispatchLocked grants every queued ticket that can now run, interactive
// pools first, FIFO within a pool, until no further grant is possible.
func (m *Manager) dispatchLocked() {
	for progressed := true; progressed; {
		progressed = false
		for _, p := range m.order {
			for len(p.queue) > 0 && m.canRunLocked(p, p.queue[0].mem) {
				t := p.queue[0]
				p.queue = p.queue[1:]
				p.gQueued.Set(int64(len(p.queue)))
				m.grantLocked(p, t)
				progressed = true
			}
		}
	}
}

// preemptForLocked fires when interactive pool p has a head-of-queue query
// that could run but for the global slot budget: the longest-running
// preemptable query in another pool is cancelled with cause ErrPreempted.
// Its session observes the cause and requeues it — work deferred, not
// lost — and the slot it frees is dispatched interactive-first.
func (m *Manager) preemptForLocked(p *pool) {
	if len(p.queue) == 0 || m.running < m.totalSlots {
		return
	}
	head := p.queue[0]
	if len(p.running) >= p.cfg.Slots {
		return // blocked on its own pool slots; preemption can't help
	}
	if p.cfg.MemoryBytes > 0 && p.memUsed+head.mem > p.cfg.MemoryBytes {
		return // blocked on its own memory budget; preemption can't help
	}
	var victim *Ticket
	for _, vp := range m.order {
		if vp == p || !vp.cfg.Preemptable {
			continue
		}
		for t := range vp.running {
			if !t.preemptable || t.preempted || t.cancel == nil {
				continue
			}
			if victim == nil || t.start.Before(victim.start) {
				victim = t
			}
		}
	}
	if victim == nil {
		return
	}
	victim.preempted = true
	victim.pool.preempted++
	victim.pool.cPreempted.Inc()
	victim.cancel(ErrPreempted)
}

// SetCancel installs the running query's cancel function so the manager
// can preempt it: call it with the context.CancelCauseFunc wrapping the
// query's context, between Acquire and running the query.
func (t *Ticket) SetCancel(cancel context.CancelCauseFunc) {
	t.m.mu.Lock()
	t.cancel = cancel
	t.m.mu.Unlock()
}

// Preempted reports whether the manager preempted this ticket.
func (t *Ticket) Preempted() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.preempted
}

// Wait returns how long the ticket sat in the admission queue before its
// grant — the queue_ms column of the query-history record.
func (t *Ticket) Wait() time.Duration {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if t.start.IsZero() {
		return time.Since(t.enqueued)
	}
	return t.start.Sub(t.enqueued)
}

// Alive reports whether the manager accepts Acquires (the admin plane's
// readiness probe).
func (m *Manager) Alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed
}

// Release returns the ticket's slot and memory to its pool and dispatches
// queued work that now fits. Idempotent.
func (t *Ticket) Release() {
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.released || !t.granted {
		return
	}
	m.releaseLocked(t)
	m.dispatchLocked()
}

// Close rejects all queued tickets with ErrClosed and refuses further
// Acquires. Running queries are unaffected; their Release is still valid.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, p := range m.pools {
		for _, t := range p.queue {
			p.rejected++
			p.cRejected.Inc()
			t.grant <- ErrClosed
		}
		p.queue = nil
		p.gQueued.Set(0)
	}
}

// PoolStat is one pool's point-in-time state for displays and tests.
type PoolStat struct {
	Name        string
	Interactive bool
	Slots       int
	Running     int
	Queued      int
	MemUsed     int64
	MemBudget   int64
	Admitted    int64
	Rejected    int64
	TimedOut    int64
	Preempted   int64
}

// Stats reports every pool in dispatch order (interactive first).
func (m *Manager) Stats() []PoolStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PoolStat, 0, len(m.order))
	for _, p := range m.order {
		out = append(out, PoolStat{
			Name:        p.cfg.Name,
			Interactive: p.cfg.Interactive,
			Slots:       p.cfg.Slots,
			Running:     len(p.running),
			Queued:      len(p.queue),
			MemUsed:     p.memUsed,
			MemBudget:   p.cfg.MemoryBytes,
			Admitted:    p.admitted,
			Rejected:    p.rejected,
			TimedOut:    p.timedOut,
			Preempted:   p.preempted,
		})
	}
	return out
}
