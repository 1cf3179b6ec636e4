package llap

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/orc"
)

// Config sizes a daemon.
type Config struct {
	// Workers is the number of persistent executor goroutines (LLAP's
	// fixed-size executor pool). Default 4.
	Workers int
	// QueueDepth is the admission-queue capacity: tasks waiting beyond the
	// ones executors are running. Submit rejects when it is full (LLAP's AM
	// admission control); Execute waits. Default 64.
	QueueDepth int
	// CacheBytes is the chunk-cache byte budget. Default 64 MiB;
	// negative disables the data cache.
	CacheBytes int64
	// MetaEntries bounds the metadata cache. Default 1024; negative
	// disables the metadata cache.
	MetaEntries int
	// BuildEntries bounds the map-join build-side cache (built hash
	// tables keyed by table snapshot + join keys). Default 64; negative
	// disables it.
	BuildEntries int
	// CacheFaultHook, when set, injects chunk-cache lookup faults (see
	// internal/faultinject): a lookup for which it returns true is treated
	// as a miss, so the reader degrades to a direct DFS read instead of
	// failing the query.
	CacheFaultHook func(orc.ChunkKey) bool
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MetaEntries == 0 {
		c.MetaEntries = 1024
	}
	if c.BuildEntries == 0 {
		c.BuildEntries = 64
	}
	return c
}

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity.
var ErrQueueFull = errors.New("llap: admission queue full")

// ErrClosed is returned when submitting to a closed daemon.
var ErrClosed = errors.New("llap: daemon closed")

// tenantKey carries a tenant label through a context.
type tenantKey struct{}

// WithTenant labels a context with the tenant (session, resource pool) on
// whose behalf work is submitted. The daemon schedules fairly across
// tenants: a tenant flooding the queue cannot starve the others, because
// workers pick the next task from the tenant with the fewest running
// tasks. An unlabeled context is the "" tenant.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom extracts the tenant label, or "" when absent.
func TenantFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// DaemonStats aggregates executor-pool accounting.
type DaemonStats struct {
	Submitted     atomic.Int64
	Rejected      atomic.Int64
	Executed      atomic.Int64
	MaxConcurrent atomic.Int64 // high-water mark of simultaneously running tasks
}

// DaemonSnapshot is an immutable copy of DaemonStats.
type DaemonSnapshot struct {
	Submitted     int64
	Rejected      int64
	Executed      int64
	MaxConcurrent int64 `obs:",gauge"` // high-water mark, not a delta
}

// Daemon is a persistent executor pool with an admission queue and the
// shared caches. Unlike the per-query task slots of the MapReduce and Tez
// modes, its workers outlive queries: a query running in ModeLLAP pays no
// worker start cost and shares cache contents with every query before it.
//
// The pool is shared fairly across tenants (see WithTenant): each tenant
// gets its own FIFO queue, and a free worker serves the nonempty queue of
// the tenant with the fewest tasks currently running (round-robin among
// ties). One session's burst therefore queues behind its own earlier
// tasks, not in front of everyone else's.
type Daemon struct {
	cfg     Config
	chunks  *Cache
	meta    *MetaCache
	builds  *BuildCache
	caches  orc.Caches
	space   chan struct{} // queue-capacity tokens; one held per queued task
	wg      sync.WaitGroup
	running atomic.Int64
	stats   DaemonStats

	mu        sync.Mutex
	cond      *sync.Cond         // signaled when a task is queued or the daemon closes
	queues    map[string][]*task // per-tenant FIFO admission queues
	rr        []string           // tenants with queued tasks, in round-robin order
	runningBy map[string]int     // running tasks per tenant
	queued    int                // total queued tasks across tenants
	closed    bool
}

type task struct {
	tenant string
	fn     func() error
	done   chan error
}

// NewDaemon starts the worker pool.
func NewDaemon(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:       cfg,
		space:     make(chan struct{}, cfg.QueueDepth),
		queues:    map[string][]*task{},
		runningBy: map[string]int{},
	}
	d.cond = sync.NewCond(&d.mu)
	if cfg.CacheBytes > 0 {
		d.chunks = NewCache(cfg.CacheBytes)
		d.chunks.SetFaultHook(cfg.CacheFaultHook)
		d.caches.Chunks = d.chunks
	}
	if cfg.MetaEntries > 0 {
		d.meta = NewMetaCache(cfg.MetaEntries)
		d.caches.Meta = d.meta
	}
	if cfg.BuildEntries > 0 {
		d.builds = NewBuildCache(cfg.BuildEntries)
	}
	for i := 0; i < cfg.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d
}

// Config returns the effective (default-filled) configuration.
func (d *Daemon) Config() Config { return d.cfg }

// Caches returns the cache hooks to hand to ORC readers. Fields are nil for
// disabled caches.
func (d *Daemon) Caches() *orc.Caches { return &d.caches }

// ChunkCache returns the data cache, or nil when disabled.
func (d *Daemon) ChunkCache() *Cache { return d.chunks }

// MetaCache returns the metadata cache, or nil when disabled.
func (d *Daemon) MetaCache() *MetaCache { return d.meta }

// Builds returns the map-join build-side cache, or nil when disabled.
func (d *Daemon) Builds() *BuildCache { return d.builds }

// Stats exposes the live pool counters so they can be registered into an
// obs.Registry; use Snapshot for an immutable copy.
func (d *Daemon) Stats() *DaemonStats { return &d.stats }

// Alive reports whether the daemon is accepting work (the admin plane's
// readiness probe: a closed daemon fails /readyz).
func (d *Daemon) Alive() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.closed
}

// InvalidateTable drops everything every cache tier holds for one table —
// map-join builds keyed by the table name, chunk-cache entries and
// metadata-cache entries keyed by files under the table's warehouse path.
// This is the single write-tracking entry point: a committed transaction
// (or a bulk load) invalidates all tiers through one call, exactly once,
// instead of each tier growing its own per-table hook.
//
// Lock order: the chunk, build and meta cache locks are leaf locks. Each
// cache takes only its own mutex, and none is held while another lock is
// taken — InvalidateTable visits the tiers one after another, and the
// chunk cache's fault hook runs before its mutex is acquired — so
// invalidation can race lookups, inserts and pins in any order without
// deadlock (TestInvalidateRacesCacheTiers checks it under -race).
func (d *Daemon) InvalidateTable(name, path string) {
	d.builds.InvalidateTable(name)
	d.chunks.InvalidatePath(path)
	d.meta.InvalidatePath(path)
}

func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for d.queued == 0 && !d.closed {
			d.cond.Wait()
		}
		if d.queued == 0 {
			// closed and drained
			d.mu.Unlock()
			return
		}
		t := d.pickLocked()
		d.runningBy[t.tenant]++
		d.queued--
		d.mu.Unlock()
		<-d.space // the task left the queue; free its capacity token

		n := d.running.Add(1)
		for {
			max := d.stats.MaxConcurrent.Load()
			if n <= max || d.stats.MaxConcurrent.CompareAndSwap(max, n) {
				break
			}
		}
		err := t.fn()
		d.running.Add(-1)
		d.stats.Executed.Add(1)

		d.mu.Lock()
		if d.runningBy[t.tenant]--; d.runningBy[t.tenant] == 0 {
			delete(d.runningBy, t.tenant)
		}
		d.mu.Unlock()
		t.done <- err
	}
}

// pickLocked dequeues the next task under fair sharing: the head of the
// nonempty queue whose tenant has the fewest running tasks, round-robin
// among ties (the winner's tenant rotates to the back). Caller holds d.mu
// with d.queued > 0.
func (d *Daemon) pickLocked() *task {
	best := 0
	for i := 1; i < len(d.rr); i++ {
		if d.runningBy[d.rr[i]] < d.runningBy[d.rr[best]] {
			best = i
		}
	}
	tenant := d.rr[best]
	q := d.queues[tenant]
	t := q[0]
	if len(q) == 1 {
		delete(d.queues, tenant)
		d.rr = append(d.rr[:best], d.rr[best+1:]...)
	} else {
		d.queues[tenant] = q[1:]
		// Rotate the served tenant to the back so ties break round-robin.
		d.rr = append(append(d.rr[:best], d.rr[best+1:]...), tenant)
	}
	return t
}

// enqueue places a task on its tenant's admission queue. When block is
// false and the queue is full, it returns ErrQueueFull without waiting. A
// blocking caller whose ctx is cancelled while waiting for admission gives
// up with ctx.Err() instead of holding its spot.
func (d *Daemon) enqueue(ctx context.Context, t *task, block bool) error {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		d.stats.Rejected.Add(1)
		return ErrClosed
	}
	if block {
		select {
		case d.space <- struct{}{}:
		case <-ctx.Done():
			d.stats.Rejected.Add(1)
			return ctx.Err()
		}
	} else {
		select {
		case d.space <- struct{}{}:
		default:
			d.stats.Rejected.Add(1)
			return ErrQueueFull
		}
	}
	d.mu.Lock()
	if d.closed {
		// Lost the race with Close; give the token back.
		d.mu.Unlock()
		<-d.space
		d.stats.Rejected.Add(1)
		return ErrClosed
	}
	q := d.queues[t.tenant]
	if len(q) == 0 {
		d.rr = append(d.rr, t.tenant)
	}
	d.queues[t.tenant] = append(q, t)
	d.queued++
	d.cond.Signal()
	d.mu.Unlock()
	d.stats.Submitted.Add(1)
	return nil
}

// QueueLengths reports the queued tasks per tenant (empty tenants absent);
// introspection for tests and the server's \pools display.
func (d *Daemon) QueueLengths() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int, len(d.queues))
	for tenant, q := range d.queues {
		out[tenant] = len(q)
	}
	return out
}

// Execute runs fn on a pool worker and waits for it, queueing (and, when
// the queue is full, waiting for admission) as needed.
func (d *Daemon) Execute(fn func() error) error {
	return d.ExecuteCtx(context.Background(), fn)
}

// ExecuteCtx is Execute with cancellation: a cancelled caller stops waiting
// — whether it is queued for admission on a full queue or its task is
// already running — and returns ctx.Err(). An admitted task the caller
// abandoned still runs to completion on its worker (the pool owns it), but
// nobody waits for it; its buffered done channel absorbs the result.
func (d *Daemon) ExecuteCtx(ctx context.Context, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := &task{tenant: TenantFrom(ctx), fn: fn, done: make(chan error, 1)}
	if err := d.enqueue(ctx, t, true); err != nil {
		return err
	}
	select {
	case err := <-t.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit enqueues fn without waiting for execution. It returns a wait
// function resolving to fn's error, or ErrQueueFull when admission control
// rejects the task.
func (d *Daemon) Submit(fn func() error) (wait func() error, err error) {
	t := &task{fn: fn, done: make(chan error, 1)}
	if err := d.enqueue(context.Background(), t, false); err != nil {
		return nil, err
	}
	return func() error { return <-t.done }, nil
}

// Close stops the workers after draining queued tasks. Further submissions
// fail with ErrClosed.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
}

// Snapshot copies the executor-pool counters.
func (d *Daemon) Snapshot() DaemonSnapshot {
	var out DaemonSnapshot
	obs.ReadStruct(&out, &d.stats)
	return out
}
