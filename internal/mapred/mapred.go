// Package mapred is an in-process MapReduce engine standing in for Hadoop
// MapReduce (paper §2). It preserves the execution-model properties the
// paper's advancements interact with:
//
//   - map tasks are scheduled one per input split and push one record at a
//     time into the consumer (the push-based model the Correlation
//     Optimizer must coordinate with, §5.2.2);
//   - a sort-merge shuffle partitions, sorts and groups serialized
//     key/value records between the phases, so every extra MapReduce job
//     pays real serialization, sorting and materialization costs;
//   - every job pays a configurable launch overhead, making unnecessary
//     Map-only jobs measurably expensive (§5.1, Figure 11);
//   - per-task execution time is accumulated into cumulative CPU counters,
//     the quantity Figure 12(b) reports;
//   - tasks fail and are retried: each attempt writes to a private output
//     buffer that is atomically committed to the shuffle only when the
//     attempt wins its task (Hadoop's task-attempt/output-commit model),
//     failing nodes are blacklisted, straggling attempts get speculative
//     duplicates (first committer wins), and a cancelled job stops its
//     in-flight tasks instead of letting them run to completion.
package mapred

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// taskSpanName labels a task-attempt span: "map 3 a1" / "reduce 0 a0".
func taskSpanName(tc *TaskContext) string {
	kind := "map"
	if tc.Reduce {
		kind = "reduce"
	}
	return fmt.Sprintf("%s %d a%d", kind, tc.TaskID, tc.Attempt)
}

// ShuffleRecord is one record emitted by a map task toward the shuffle.
// Key bytes determine partitioning, sorting and grouping; Tag identifies
// the emitting ReduceSink so the reduce side can tell input sources apart
// (paper §5.2.2's tags).
type ShuffleRecord struct {
	Key   []byte
	Tag   int
	Value []byte
}

// Collector receives map-task output.
type Collector interface {
	// Collect routes a record to the reducer partition.
	Collect(partition int, rec ShuffleRecord) error
}

// Group is one reduce-side key group: all records sharing a key, sorted by
// tag (and stably by arrival within a tag).
type Group struct {
	Key     []byte
	Records []ShuffleRecord
}

// TaskContext identifies the running task attempt and exposes its node for
// locality-aware reads and its context for cancellation.
type TaskContext struct {
	JobName string
	TaskID  int
	Node    int
	Reduce  bool
	// Attempt numbers this execution of the task: 0 for the first try,
	// then one per retry or speculative duplicate. Attempt-private output
	// (temp files, buffers) must be keyed by it so concurrent attempts of
	// one task never collide.
	Attempt int
	// Speculative marks a duplicate attempt launched against a straggler.
	// Fault hooks are not consulted for speculative attempts (they model a
	// rescue launched on a healthy node), which also keeps injected-fault
	// identities independent of speculation timing.
	Speculative bool
	// Ctx is cancelled when the attempt should stop: the query was
	// cancelled or timed out, a sibling task failed terminally, or another
	// attempt of this task already committed. Long-running task bodies
	// must observe it.
	Ctx context.Context

	// faultAttempt is the failure ordinal handed to FaultPolicy: how many
	// attempts of this task failed before this one launched. Unlike
	// Attempt it is not inflated by speculative duplicates, so fault
	// identities stay deterministic under speculation.
	faultAttempt int
}

// FaultPolicy injects failures into task attempts (see
// internal/faultinject). Implementations must be safe for concurrent use
// and deterministic given (job, task, attempt) for reproducible runs. The
// attempt number passed in is the task's failure ordinal (how many earlier
// attempts failed), and speculative duplicates are never consulted, so the
// set of decisions a run asks for does not depend on goroutine timing.
type FaultPolicy interface {
	// TaskError, when non-nil, crashes the attempt after its work ran but
	// before commit — exercising the output-commit protocol.
	TaskError(job string, task, attempt, node int) error
	// TaskDelay is slept (cancellably) before the attempt's work,
	// simulating a straggling node.
	TaskDelay(job string, task, attempt, node int) time.Duration
}

// Job describes one MapReduce job. Reduces may be zero (a Map-only job,
// §5.1) in which case MapFunc output must go through side effects (e.g. a
// FileSink writing DFS files) and Collect must not be called.
type Job struct {
	Name string
	// Splits carry opaque per-map-task input descriptors; one map task
	// runs per split.
	Splits []any
	// NumReduces is the reducer count; zero means map-only.
	NumReduces int
	// MapFunc processes one split, emitting shuffle records via out (nil
	// for map-only jobs). It may run several times for one split (retries,
	// speculation); records reach the shuffle only when an attempt
	// commits, so a failed attempt's partial output is never seen.
	MapFunc func(tc *TaskContext, split any, out Collector) error
	// ReduceFunc consumes key groups in key order; nil for map-only jobs.
	ReduceFunc func(tc *TaskContext, groups func() (*Group, bool)) error
	// CommitTask, when set, is called exactly once per task, for the
	// winning attempt, after its shuffle output was committed: the place
	// to publish attempt-private side effects (temp files, buffered rows).
	CommitTask func(tc *TaskContext) error
	// AbortTask, when set, is called for every attempt that does not
	// commit — failed, cancelled, or a speculative loser — to discard its
	// attempt-private side effects.
	AbortTask func(tc *TaskContext)
	// ChainedLaunch marks a stage that reuses the containers of a prior
	// stage in the same DAG (Tez-style execution): no per-job launch
	// overhead is charged.
	ChainedLaunch bool
	// Runner, when set, executes each task attempt on an external
	// persistent executor pool (LLAP-style daemons) instead of the
	// engine's per-query task slots: no per-task launch overhead is
	// charged and the engine's slot bound does not apply — the pool
	// enforces its own concurrency limit and admission queue. The context
	// is the attempt's; a cancelled attempt must not keep its caller
	// waiting for admission.
	Runner func(ctx context.Context, fn func() error) error
	// Counters, when set, additionally receives every counter charge this
	// job generates (the engine's cumulative counters are always charged).
	// A driver running concurrent queries hands each query's jobs one
	// private Counters so per-query stats don't absorb other queries'
	// work. BlacklistedNodes is the exception: node health is an
	// engine-global property, so it is never charged to a job scope.
	Counters *Counters
}

// Counters aggregates engine activity across jobs; all fields are
// cumulative.
type Counters struct {
	Jobs           atomic.Int64
	MapTasks       atomic.Int64 // committed map tasks (attempts are counted by the fault counters)
	ReduceTasks    atomic.Int64 // committed reduce tasks
	ShuffleRecords atomic.Int64
	ShuffleBytes   atomic.Int64
	MapCPU         atomic.Int64 // nanoseconds summed over all map attempts
	ReduceCPU      atomic.Int64 // nanoseconds summed over all reduce attempts
	LaunchOverhead atomic.Int64 // nanoseconds of simulated job/task launch cost
	// Fault-tolerance counters.
	FailedTasks      atomic.Int64 // attempts that ended in error
	RetriedTasks     atomic.Int64 // retry attempts launched after a failure
	SpeculativeTasks atomic.Int64 // duplicate attempts launched for stragglers
	WastedCPU        atomic.Int64 // nanoseconds burned by non-committing attempts
	Backoff          atomic.Int64 // accounted (not slept) retry backoff nanoseconds
	BlacklistedNodes atomic.Int64 // nodes excluded after repeated failures
}

// CountersSnapshot is an immutable copy of Counters.
type CountersSnapshot struct {
	Jobs             int64
	MapTasks         int64
	ReduceTasks      int64
	ShuffleRecords   int64
	ShuffleBytes     int64
	MapCPU           time.Duration
	ReduceCPU        time.Duration
	LaunchOverhead   time.Duration
	FailedTasks      int64
	RetriedTasks     int64
	SpeculativeTasks int64
	WastedCPU        time.Duration
	Backoff          time.Duration
	BlacklistedNodes int64
}

// Snapshot copies the counters (obs.ReadStruct maps nanosecond counters
// onto the snapshot's Duration fields by name).
func (c *Counters) Snapshot() CountersSnapshot {
	var out CountersSnapshot
	obs.ReadStruct(&out, c)
	return out
}

// Diff subtracts an earlier snapshot.
func (s CountersSnapshot) Diff(earlier CountersSnapshot) CountersSnapshot {
	return obs.DiffStruct(s, earlier)
}

// CumulativeCPU is the total task time, the Figure 12(b) metric.
func (s CountersSnapshot) CumulativeCPU() time.Duration { return s.MapCPU + s.ReduceCPU }

// Config tunes the engine.
type Config struct {
	// Slots bounds concurrently running tasks (the paper's cluster ran
	// 3 tasks per node on 10 nodes). Default 4.
	Slots int
	// NumNodes is the simulated cluster width used to spread tasks for
	// locality accounting. Default 10.
	NumNodes int
	// JobLaunchOverhead is the accounted per-job startup cost
	// (JVM/scheduler latency on a real cluster). It is added to counters,
	// not slept. Default 0.
	JobLaunchOverhead time.Duration
	// TaskLaunchOverhead is the accounted per-task-attempt startup cost.
	TaskLaunchOverhead time.Duration
	// MaxAttempts bounds executions per task (Hadoop's
	// mapred.map.max.attempts). Default 1: the first failure is terminal,
	// matching a retry-free engine; set 4 to survive injected faults.
	MaxAttempts int
	// RetryBackoff is the accounted (not slept) delay before a retry,
	// doubling per consecutive failure of the task (exponential backoff).
	// Default 0.
	RetryBackoff time.Duration
	// NodeFailureLimit is how many attempt failures a node hosts before
	// it is blacklisted and excluded from scheduling. Default 3; negative
	// disables blacklisting.
	NodeFailureLimit int
	// SpeculativeSlowdown enables speculative execution when > 0: once a
	// phase is SpeculativeQuorum done, any attempt running longer than
	// SpeculativeSlowdown × the median committed-task duration gets a
	// duplicate attempt on another node; the first committer wins and the
	// loser's work is charged to WastedCPU.
	SpeculativeSlowdown float64
	// SpeculativeQuorum is the fraction of a phase's tasks that must have
	// committed before speculation starts. Default 0.75.
	SpeculativeQuorum float64
	// Faults, when set, injects task failures and straggler delays.
	Faults FaultPolicy
}

// Engine runs jobs.
type Engine struct {
	cfg      Config
	counters Counters
	taskHist atomic.Pointer[obs.Histogram] // optional attempt-duration histogram

	mu           sync.Mutex
	nodeFailures map[int]int
	blacklist    map[int]bool
}

// SetTaskHistogram installs an optional histogram observing every task
// attempt's duration in nanoseconds (power-of-two latency buckets). A nil
// histogram is a no-op. Safe to call while queries run (the field is an
// atomic pointer: registries attach mid-session).
func (e *Engine) SetTaskHistogram(h *obs.Histogram) { e.taskHist.Store(h) }

// NewEngine creates an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Slots <= 0 {
		cfg.Slots = 4
	}
	if cfg.NumNodes <= 0 {
		cfg.NumNodes = 10
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 1
	}
	if cfg.NodeFailureLimit == 0 {
		cfg.NodeFailureLimit = 3
	}
	if cfg.SpeculativeQuorum <= 0 || cfg.SpeculativeQuorum > 1 {
		cfg.SpeculativeQuorum = 0.75
	}
	return &Engine{
		cfg:          cfg,
		nodeFailures: map[int]int{},
		blacklist:    map[int]bool{},
	}
}

// Counters exposes the engine's cumulative counters.
func (e *Engine) Counters() *Counters { return &e.counters }

// charge applies one counter mutation to the engine's cumulative counters
// and, when the job carries a per-job scope, to that scope too.
func (e *Engine) charge(job *Job, f func(*Counters)) {
	f(&e.counters)
	if job.Counters != nil {
		f(job.Counters)
	}
}

// Blacklisted returns the currently blacklisted nodes, sorted.
func (e *Engine) Blacklisted() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []int
	for n := range e.blacklist {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// noteNodeFailure charges an attempt failure to its node, blacklisting the
// node once it crosses the limit.
func (e *Engine) noteNodeFailure(node int) {
	if e.cfg.NodeFailureLimit < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nodeFailures[node]++
	if e.nodeFailures[node] == e.cfg.NodeFailureLimit && !e.blacklist[node] {
		e.blacklist[node] = true
		e.counters.BlacklistedNodes.Add(1)
	}
}

// pickNode spreads attempts round-robin over healthy (non-blacklisted)
// nodes; later attempts of a task shift to a different node. With every
// node blacklisted it falls back to the full cluster.
func (e *Engine) pickNode(task, attempt int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.blacklist) == 0 {
		return (task + attempt) % e.cfg.NumNodes
	}
	var healthy []int
	for n := 0; n < e.cfg.NumNodes; n++ {
		if !e.blacklist[n] {
			healthy = append(healthy, n)
		}
	}
	if len(healthy) == 0 {
		return (task + attempt) % e.cfg.NumNodes
	}
	return healthy[(task+attempt)%len(healthy)]
}

// partitionedBuffer collects committed map output for one reducer
// partition: the committed attempts' record chunks, in arrival order.
type partitionedBuffer struct {
	mu     sync.Mutex
	chunks [][]ShuffleRecord
}

// Record chunk sizes. A partition's records grow by append, as any slice,
// until the open chunk holds minChunk; from then on a full chunk is kept
// and a new one twice its size (up to maxChunk) is started, so a large
// output is never copied between Collect and the reduce-side sort, and a
// small one costs what a plain slice does.
const (
	minChunk = 256
	maxChunk = 8192
)

// attemptCollector is the output-commit protocol's private buffer: one map
// attempt's shuffle records, invisible to reducers until commit. A failed
// or losing attempt is simply dropped, so retries never duplicate records
// and a mid-map failure never leaves partial output in the shuffle.
type attemptCollector struct {
	parts []*partitionedBuffer
	bufs  []recordChunks // per partition
	recs  int64
	bytes int64
}

// recordChunks is one partition's output of one attempt: full chunks, then
// the open one.
type recordChunks struct {
	full [][]ShuffleRecord
	open []ShuffleRecord
}

func newAttemptCollector(parts []*partitionedBuffer) *attemptCollector {
	return &attemptCollector{parts: parts, bufs: make([]recordChunks, len(parts))}
}

func (c *attemptCollector) Collect(partition int, rec ShuffleRecord) error {
	if len(c.parts) == 0 {
		return fmt.Errorf("mapred: Collect called in a map-only job")
	}
	if partition < 0 || partition >= len(c.parts) {
		return fmt.Errorf("mapred: partition %d out of range [0,%d)", partition, len(c.parts))
	}
	buf := &c.bufs[partition]
	if len(buf.open) == cap(buf.open) && cap(buf.open) >= minChunk {
		buf.full = append(buf.full, buf.open)
		buf.open = make([]ShuffleRecord, 0, min(2*cap(buf.open), maxChunk))
	}
	buf.open = append(buf.open, rec)
	c.recs++
	c.bytes += int64(len(rec.Key) + len(rec.Value) + 8)
	return nil
}

// commit atomically publishes the attempt's records to the shared shuffle
// partitions; shuffle counters are charged here, so they only ever count
// committed output.
func (c *attemptCollector) commit(e *Engine, job *Job) {
	for p, buf := range c.bufs {
		if len(buf.open) == 0 {
			continue
		}
		part := c.parts[p]
		part.mu.Lock()
		part.chunks = append(append(part.chunks, buf.full...), buf.open)
		part.mu.Unlock()
	}
	e.charge(job, func(cs *Counters) {
		cs.ShuffleRecords.Add(c.recs)
		cs.ShuffleBytes.Add(c.bytes)
	})
}

// Partition is the default hash partitioner over key bytes.
func Partition(key []byte, numReduces int) int {
	var h uint32 = 2166136261
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return int(h % uint32(numReduces))
}

// Run executes one job to completion with a background context.
func (e *Engine) Run(job *Job) error { return e.RunContext(context.Background(), job) }

// RunContext executes one job to completion: all map tasks, then (as the
// paper's setup configures Hadoop, §7.1: "the Reduce phase starts after
// the entire Map phase has finished") the shuffle sort and all reduce
// tasks. Cancelling ctx stops in-flight tasks promptly and returns
// ctx.Err().
func (e *Engine) RunContext(ctx context.Context, job *Job) (err error) {
	ctx, sp := obs.StartSpan(ctx, job.Name, obs.CatJob)
	if sp != nil {
		sp.SetAttr("splits", len(job.Splits))
		sp.SetAttr("reduces", job.NumReduces)
		defer func() { sp.FinishErr(err) }()
	}
	e.charge(job, func(cs *Counters) {
		cs.Jobs.Add(1)
		if !job.ChainedLaunch {
			cs.LaunchOverhead.Add(int64(e.cfg.JobLaunchOverhead))
		}
	})
	if job.NumReduces > 0 && job.ReduceFunc == nil {
		return fmt.Errorf("mapred: job %s has reducers but no ReduceFunc", job.Name)
	}
	if job.NumReduces == 0 && job.ReduceFunc != nil {
		return fmt.Errorf("mapred: map-only job %s has a ReduceFunc", job.Name)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	parts := make([]*partitionedBuffer, job.NumReduces)
	for i := range parts {
		parts[i] = &partitionedBuffer{}
	}

	// Map phase: each attempt collects into a private buffer committed on
	// win.
	mapAttempt := func(tc *TaskContext) (func() error, error) {
		out := newAttemptCollector(parts)
		if err := job.MapFunc(tc, job.Splits[tc.TaskID], out); err != nil {
			return nil, err
		}
		return func() error {
			out.commit(e, job)
			if job.CommitTask != nil {
				return job.CommitTask(tc)
			}
			return nil
		}, nil
	}
	if err := e.runPhase(ctx, job, len(job.Splits), false, mapAttempt); err != nil {
		return fmt.Errorf("mapred: job %s map phase: %w", job.Name, err)
	}
	if job.NumReduces == 0 {
		return nil
	}

	// Reduce phase: each attempt sorts a private copy of its partition by
	// (key, tag), groups by key, and pushes groups to the reducer — a
	// speculative twin must not race the winner on shared record slices.
	reduceAttempt := func(tc *TaskContext) (func() error, error) {
		if err := e.reduceTask(tc, job, parts[tc.TaskID]); err != nil {
			return nil, err
		}
		return func() error {
			if job.CommitTask != nil {
				return job.CommitTask(tc)
			}
			return nil
		}, nil
	}
	if err := e.runPhase(ctx, job, job.NumReduces, true, reduceAttempt); err != nil {
		return fmt.Errorf("mapred: job %s reduce phase: %w", job.Name, err)
	}
	return nil
}

func (e *Engine) reduceTask(tc *TaskContext, job *Job, part *partitionedBuffer) error {
	// The map phase is over, so the committed records no longer change;
	// each attempt reads them and sorts a private copy.
	part.mu.Lock()
	committed := part.chunks
	part.mu.Unlock()
	recs := sortShuffle(committed)
	pos := 0
	next := func() (*Group, bool) {
		if pos >= len(recs) {
			return nil, false
		}
		start := pos
		key := recs[start].Key
		for pos < len(recs) && bytes.Equal(recs[pos].Key, key) {
			pos++
		}
		return &Group{Key: key, Records: recs[start:pos]}, true
	}
	return job.ReduceFunc(tc, next)
}

// recordPos locates a record in a partition's chunks; (chunk, i) order is
// arrival order.
type recordPos struct{ chunk, i int32 }

// sortShuffle gathers the records of chunks into one slice ordered by
// (key, tag), records with equal key and tag keeping their arrival order.
// It sorts record positions with the arrival as the last tie-break, which
// makes the order total: an unstable sort then yields exactly the stable
// result, and each record is copied once.
func sortShuffle(chunks [][]ShuffleRecord) []ShuffleRecord {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	order := make([]recordPos, 0, n)
	for c, ch := range chunks {
		for i := range ch {
			order = append(order, recordPos{int32(c), int32(i)})
		}
	}
	slices.SortFunc(order, func(a, b recordPos) int {
		ra, rb := &chunks[a.chunk][a.i], &chunks[b.chunk][b.i]
		if c := bytes.Compare(ra.Key, rb.Key); c != 0 {
			return c
		}
		if ra.Tag != rb.Tag {
			return cmp.Compare(ra.Tag, rb.Tag)
		}
		if a.chunk != b.chunk {
			return cmp.Compare(a.chunk, b.chunk)
		}
		return cmp.Compare(a.i, b.i)
	})
	out := make([]ShuffleRecord, n)
	for i, p := range order {
		out[i] = chunks[p.chunk][p.i]
	}
	return out
}

// attemptOutcome is one finished attempt, reported to the phase scheduler.
type attemptOutcome struct {
	task    int
	attempt int
	node    int
	tc      *TaskContext
	dur     time.Duration
	err     error
	commit  func() error
}

// taskState tracks one task's attempts; mutated only by the phase
// scheduler goroutine.
type taskState struct {
	attempts   int // launched so far
	running    int // live right now
	committed  bool
	resolved   bool // committed, or terminally failed/cancelled
	speculated bool
	lastStart  time.Time // start of the most recently launched attempt
	cancels    map[int]context.CancelFunc
	errs       []error
}

// runPhase schedules one phase's tasks with retries, blacklisting,
// speculative duplicates and cancellation. attempt runs one task attempt
// and returns its commit step; the scheduler guarantees at most one commit
// per task (first committer wins) and an AbortTask for every other
// attempt. The phase fails with the errors.Join of every terminally failed
// task; the first terminal failure cancels in-flight siblings.
func (e *Engine) runPhase(ctx context.Context, job *Job, n int, reduce bool,
	attempt func(tc *TaskContext) (func() error, error)) error {
	if n == 0 {
		return nil
	}
	maxAttempts := e.cfg.MaxAttempts
	phaseCtx, cancelPhase := context.WithCancel(ctx)
	defer cancelPhase()

	// Buffered so attempt goroutines never block on reporting: at most
	// maxAttempts retries plus one speculative duplicate per task.
	results := make(chan attemptOutcome, n*(maxAttempts+1))
	slots := make(chan struct{}, e.cfg.Slots)
	state := make([]*taskState, n)
	for i := range state {
		state[i] = &taskState{cancels: map[int]context.CancelFunc{}}
	}
	outstanding := 0
	resolved := 0
	var taskErrs []error
	var committedDurs []time.Duration

	// doAttempt runs the attempt body: straggler delay, work, injected
	// crash. It is the part that executes on a slot or pool worker.
	doAttempt := func(tc *TaskContext) (commit func() error, dur time.Duration, err error) {
		// Task-attempt span: tc.Ctx derives from the query context, so a
		// tracer installed by the driver propagates here automatically.
		// The replaced tc.Ctx makes operator spans nest under the attempt.
		sctx, sp := obs.StartSpan(tc.Ctx, taskSpanName(tc), obs.CatTask)
		if sp != nil {
			tc.Ctx = sctx
			sp.SetAttr("job", tc.JobName)
			sp.SetAttr("attempt", tc.Attempt)
			sp.SetAttr("node", tc.Node)
			if tc.Speculative {
				sp.SetAttr("speculative", true)
			}
		}
		start := time.Now()
		defer func() {
			dur = time.Since(start)
			e.charge(job, func(cs *Counters) {
				if reduce {
					cs.ReduceCPU.Add(int64(dur))
				} else {
					cs.MapCPU.Add(int64(dur))
				}
			})
			e.taskHist.Load().ObserveDuration(dur)
			sp.FinishErr(err)
		}()
		// A panicking attempt is a failed attempt, not a dead engine: real
		// task runtimes contain child-JVM crashes the same way. The retry
		// machinery treats it like any other task error (and a retried
		// deterministic panic still fails the phase after MaxAttempts).
		defer func() {
			if r := recover(); r != nil {
				commit = nil
				err = fmt.Errorf("mapred: task panic: %v", r)
			}
		}()
		if e.cfg.Faults != nil && !tc.Speculative {
			if d := e.cfg.Faults.TaskDelay(job.Name, tc.TaskID, tc.faultAttempt, tc.Node); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-tc.Ctx.Done():
					t.Stop()
					return nil, 0, tc.Ctx.Err()
				}
			}
		}
		commit, err = attempt(tc)
		if err == nil {
			if cerr := tc.Ctx.Err(); cerr != nil {
				return nil, 0, cerr
			}
			if e.cfg.Faults != nil && !tc.Speculative {
				if ferr := e.cfg.Faults.TaskError(job.Name, tc.TaskID, tc.faultAttempt, tc.Node); ferr != nil {
					return nil, 0, ferr
				}
			}
		}
		return commit, 0, err
	}

	launch := func(task int, speculative bool) {
		st := state[task]
		attemptNo := st.attempts
		node := e.pickNode(task, attemptNo)
		actx, cancel := context.WithCancel(phaseCtx)
		st.attempts++
		st.running++
		st.cancels[attemptNo] = cancel
		st.lastStart = time.Now()
		outstanding++
		tc := &TaskContext{
			JobName: job.Name, TaskID: task, Node: node,
			Reduce: reduce, Attempt: attemptNo, Speculative: speculative,
			Ctx: actx, faultAttempt: len(st.errs),
		}
		if job.Runner != nil {
			go func() {
				// fn hands its results over a buffered channel, never via
				// shared captures: when the pool abandons the attempt
				// (cancelled while queued or mid-run) the worker may still
				// execute fn after Runner returned, and its send then parks
				// harmlessly in the buffer instead of racing.
				type runnerRet struct {
					commit func() error
					dur    time.Duration
				}
				ret := make(chan runnerRet, 1)
				rerr := job.Runner(actx, func() error {
					c, d, err := doAttempt(tc)
					ret <- runnerRet{commit: c, dur: d}
					return err
				})
				var commit func() error
				var dur time.Duration
				select {
				case r := <-ret:
					commit, dur = r.commit, r.dur
				default:
				}
				results <- attemptOutcome{task: task, attempt: attemptNo, node: node, tc: tc, dur: dur, err: rerr, commit: commit}
			}()
			return
		}
		e.charge(job, func(cs *Counters) { cs.LaunchOverhead.Add(int64(e.cfg.TaskLaunchOverhead)) })
		go func() {
			select {
			case slots <- struct{}{}:
			case <-actx.Done():
				results <- attemptOutcome{task: task, attempt: attemptNo, node: node, tc: tc, err: actx.Err()}
				return
			}
			defer func() { <-slots }()
			commit, dur, err := doAttempt(tc)
			results <- attemptOutcome{task: task, attempt: attemptNo, node: node, tc: tc, dur: dur, err: err, commit: commit}
		}()
	}

	abort := func(tc *TaskContext) {
		if job.AbortTask != nil {
			job.AbortTask(tc)
		}
	}

	// handle consumes one attempt outcome; it runs only on the scheduler
	// goroutine, so task state needs no locking.
	handle := func(o attemptOutcome) {
		outstanding--
		st := state[o.task]
		st.running--
		if c, ok := st.cancels[o.attempt]; ok {
			c()
			delete(st.cancels, o.attempt)
		}
		if o.err == nil && !st.committed && !st.resolved {
			// First committer wins; cancel sibling attempts of this task.
			st.committed = true
			st.resolved = true
			resolved++
			for _, c := range st.cancels {
				c()
			}
			if cerr := o.commit(); cerr != nil {
				// A failed commit is terminal: retrying it could publish
				// output twice.
				taskErrs = append(taskErrs, fmt.Errorf("task %d commit: %w", o.task, cerr))
				cancelPhase()
				return
			}
			e.charge(job, func(cs *Counters) {
				if reduce {
					cs.ReduceTasks.Add(1)
				} else {
					cs.MapTasks.Add(1)
				}
			})
			committedDurs = append(committedDurs, o.dur)
			return
		}
		if o.err == nil {
			// Speculative loser finishing after the winner (or after the
			// task failed terminally): discard its work.
			e.charge(job, func(cs *Counters) { cs.WastedCPU.Add(int64(o.dur)) })
			abort(o.tc)
			return
		}
		// Failed attempt.
		abort(o.tc)
		e.charge(job, func(cs *Counters) { cs.WastedCPU.Add(int64(o.dur)) })
		if st.resolved {
			return // loser of a decided task
		}
		if phaseCtx.Err() != nil && (errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded)) {
			// Cancelled sibling, not an error source: resolve silently
			// (unless other attempts of the task are still draining).
			if st.running == 0 {
				st.resolved = true
				resolved++
			}
			return
		}
		e.charge(job, func(cs *Counters) { cs.FailedTasks.Add(1) })
		e.noteNodeFailure(o.node)
		st.errs = append(st.errs, o.err)
		if st.attempts < maxAttempts && phaseCtx.Err() == nil {
			e.charge(job, func(cs *Counters) {
				if e.cfg.RetryBackoff > 0 {
					cs.Backoff.Add(int64(e.cfg.RetryBackoff) << (len(st.errs) - 1))
				}
				cs.RetriedTasks.Add(1)
			})
			launch(o.task, false)
			return
		}
		if st.running > 0 {
			return // a speculative twin may still win
		}
		st.resolved = true
		resolved++
		taskErrs = append(taskErrs, fmt.Errorf("task %d after %d attempt(s): %w", o.task, st.attempts, errors.Join(st.errs...)))
		cancelPhase()
	}

	// speculate launches duplicates for stragglers once the phase is
	// mostly done.
	speculate := func() {
		done := len(committedDurs)
		if done == 0 || float64(done) < e.cfg.SpeculativeQuorum*float64(n) {
			return
		}
		durs := append([]time.Duration(nil), committedDurs...)
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		median := durs[len(durs)/2]
		threshold := time.Duration(e.cfg.SpeculativeSlowdown * float64(median))
		if threshold < time.Millisecond {
			threshold = time.Millisecond
		}
		for task, st := range state {
			if st.resolved || st.speculated || st.running != 1 || st.attempts >= maxAttempts+1 {
				continue
			}
			if time.Since(st.lastStart) < threshold {
				continue
			}
			st.speculated = true
			e.charge(job, func(cs *Counters) { cs.SpeculativeTasks.Add(1) })
			launch(task, true)
		}
	}

	for i := 0; i < n; i++ {
		launch(i, false)
	}
	var specTick <-chan time.Time
	if e.cfg.SpeculativeSlowdown > 0 && n > 1 {
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		specTick = ticker.C
	}
	for resolved < n {
		select {
		case o := <-results:
			handle(o)
		case <-specTick:
			speculate()
		}
	}
	// Stop losers and drain every outstanding attempt so no goroutine
	// outlives the phase and every non-winning attempt is aborted.
	cancelPhase()
	for outstanding > 0 {
		handle(<-results)
	}
	if len(taskErrs) > 0 {
		return errors.Join(taskErrs...)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}
