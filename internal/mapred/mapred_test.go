package mapred

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWordCount runs the canonical MapReduce program end to end.
func TestWordCount(t *testing.T) {
	docs := []any{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog jumps",
	}
	var mu sync.Mutex
	counts := map[string]int{}
	job := &Job{
		Name:       "wordcount",
		Splits:     docs,
		NumReduces: 3,
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			for _, w := range strings.Fields(split.(string)) {
				key := []byte(w)
				if err := out.Collect(Partition(key, 3), ShuffleRecord{Key: key, Value: []byte{1}}); err != nil {
					return err
				}
			}
			return nil
		},
		ReduceFunc: func(tc *TaskContext, groups func() (*Group, bool)) error {
			for {
				g, ok := groups()
				if !ok {
					return nil
				}
				mu.Lock()
				counts[string(g.Key)] += len(g.Records)
				mu.Unlock()
			}
		},
	}
	e := NewEngine(Config{Slots: 2})
	if err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2, "jumps": 1}
	for w, n := range want {
		if counts[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, counts[w], n)
		}
	}
	s := e.Counters().Snapshot()
	if s.Jobs != 1 || s.MapTasks != 3 || s.ReduceTasks != 3 {
		t.Errorf("counters = %+v", s)
	}
	if s.ShuffleRecords != 11 {
		t.Errorf("shuffle records = %d, want 11", s.ShuffleRecords)
	}
}

// TestGroupOrdering verifies reducers see groups in key order and records
// within a group sorted by tag — the invariants Hive's reduce-side join and
// the Correlation Optimizer's Demux rely on.
func TestGroupOrdering(t *testing.T) {
	var keys []string
	var tagOrders [][]int
	job := &Job{
		Name:       "ordering",
		Splits:     []any{0, 1},
		NumReduces: 1,
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			i := split.(int)
			// Two mappers emit interleaved tags for the same keys.
			for _, k := range []string{"b", "a", "c"} {
				rec := ShuffleRecord{Key: []byte(k), Tag: 1 - i, Value: []byte{byte(i)}}
				if err := out.Collect(0, rec); err != nil {
					return err
				}
			}
			return nil
		},
		ReduceFunc: func(tc *TaskContext, groups func() (*Group, bool)) error {
			for {
				g, ok := groups()
				if !ok {
					return nil
				}
				keys = append(keys, string(g.Key))
				var tags []int
				for _, r := range g.Records {
					tags = append(tags, r.Tag)
				}
				tagOrders = append(tagOrders, tags)
			}
		},
	}
	e := NewEngine(Config{Slots: 1})
	if err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if strings.Join(keys, "") != "abc" {
		t.Errorf("group key order = %v", keys)
	}
	for i, tags := range tagOrders {
		if len(tags) != 2 || tags[0] != 0 || tags[1] != 1 {
			t.Errorf("group %d tags = %v, want [0 1]", i, tags)
		}
	}
}

func TestMapOnlyJob(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	job := &Job{
		Name:   "maponly",
		Splits: []any{1, 2, 3, 4},
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			mu.Lock()
			seen = append(seen, split.(int))
			mu.Unlock()
			return nil
		},
	}
	e := NewEngine(Config{})
	if err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Errorf("map-only job ran %d tasks", len(seen))
	}
	if e.Counters().Snapshot().ReduceTasks != 0 {
		t.Error("map-only job ran reducers")
	}
}

func TestMapOnlyCollectRejected(t *testing.T) {
	job := &Job{
		Name:   "bad",
		Splits: []any{1},
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			return out.Collect(0, ShuffleRecord{Key: []byte("k")})
		},
	}
	if err := NewEngine(Config{}).Run(job); err == nil {
		t.Fatal("Collect in map-only job succeeded")
	}
}

func TestJobValidation(t *testing.T) {
	e := NewEngine(Config{})
	if err := e.Run(&Job{Name: "r-no-f", NumReduces: 1, MapFunc: func(*TaskContext, any, Collector) error { return nil }}); err == nil {
		t.Error("job with reducers but no ReduceFunc accepted")
	}
	if err := e.Run(&Job{Name: "f-no-r", ReduceFunc: func(*TaskContext, func() (*Group, bool)) error { return nil }, MapFunc: func(*TaskContext, any, Collector) error { return nil }}); err == nil {
		t.Error("map-only job with ReduceFunc accepted")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	job := &Job{
		Name:   "failing",
		Splits: []any{1, 2, 3},
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			if split.(int) == 2 {
				return fmt.Errorf("boom")
			}
			return nil
		},
	}
	err := NewEngine(Config{}).Run(job)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestPartitioningIsDeterministicAndComplete(t *testing.T) {
	for n := 1; n <= 7; n++ {
		hit := make([]bool, n)
		for i := 0; i < 1000; i++ {
			key := binary.AppendVarint(nil, int64(i))
			p := Partition(key, n)
			if p < 0 || p >= n {
				t.Fatalf("partition %d out of range", p)
			}
			if p != Partition(key, n) {
				t.Fatal("partition not deterministic")
			}
			hit[p] = true
		}
		for p, ok := range hit {
			if !ok {
				t.Errorf("n=%d: partition %d never used", n, p)
			}
		}
	}
}

func TestLaunchOverheadAccounting(t *testing.T) {
	e := NewEngine(Config{JobLaunchOverhead: 100 * time.Millisecond, TaskLaunchOverhead: 10 * time.Millisecond})
	job := &Job{
		Name:    "overhead",
		Splits:  []any{1, 2},
		MapFunc: func(*TaskContext, any, Collector) error { return nil },
	}
	start := time.Now()
	if err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if real := time.Since(start); real > 50*time.Millisecond {
		t.Errorf("overhead slept for real (%v); it must only be accounted", real)
	}
	s := e.Counters().Snapshot()
	want := 100*time.Millisecond + 2*10*time.Millisecond
	if s.LaunchOverhead != want {
		t.Errorf("LaunchOverhead = %v, want %v", s.LaunchOverhead, want)
	}
}

func TestShuffleSortIsStableWithinTag(t *testing.T) {
	var got []byte
	job := &Job{
		Name:       "stable",
		Splits:     []any{0},
		NumReduces: 1,
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			for i := 0; i < 10; i++ {
				rec := ShuffleRecord{Key: []byte("k"), Tag: 0, Value: []byte{byte(i)}}
				if err := out.Collect(0, rec); err != nil {
					return err
				}
			}
			return nil
		},
		ReduceFunc: func(tc *TaskContext, groups func() (*Group, bool)) error {
			for {
				g, ok := groups()
				if !ok {
					return nil
				}
				for _, r := range g.Records {
					got = append(got, r.Value[0])
				}
			}
		},
	}
	if err := NewEngine(Config{Slots: 1}).Run(job); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Errorf("within-tag order not preserved: %v", got)
	}
}

// flakyPolicy is a scripted FaultPolicy for tests: fail decides which
// attempts crash, delay which attempts straggle.
type flakyPolicy struct {
	fail  func(task, attempt int) bool
	delay func(task, attempt int) time.Duration
}

func (p *flakyPolicy) TaskError(job string, task, attempt, node int) error {
	if p.fail != nil && p.fail(task, attempt) {
		return fmt.Errorf("injected failure task %d attempt %d", task, attempt)
	}
	return nil
}

func (p *flakyPolicy) TaskDelay(job string, task, attempt, node int) time.Duration {
	if p.delay != nil {
		return p.delay(task, attempt)
	}
	return 0
}

// TestRetryCommitsOnce: with injected first-attempt failures and retries
// enabled, the job completes with correct output, no duplicated shuffle
// records (the failed attempts' output is discarded, not half-committed),
// and the fault counters account for the retries.
func TestRetryCommitsOnce(t *testing.T) {
	docs := []any{"a b", "b c", "c d"}
	var mu sync.Mutex
	counts := map[string]int{}
	job := &Job{
		Name:       "retry",
		Splits:     docs,
		NumReduces: 2,
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			for _, w := range strings.Fields(split.(string)) {
				key := []byte(w)
				if err := out.Collect(Partition(key, 2), ShuffleRecord{Key: key, Value: []byte{1}}); err != nil {
					return err
				}
			}
			return nil
		},
		ReduceFunc: func(tc *TaskContext, groups func() (*Group, bool)) error {
			for {
				g, ok := groups()
				if !ok {
					return nil
				}
				// Idempotent write: a retried reduce attempt re-pushes the
				// same groups (real sinks are attempt-private and published
				// by CommitTask; a shared map must tolerate the re-run).
				mu.Lock()
				counts[string(g.Key)] = len(g.Records)
				mu.Unlock()
			}
		},
	}
	e := NewEngine(Config{
		Slots:       2,
		MaxAttempts: 3,
		Faults:      &flakyPolicy{fail: func(task, attempt int) bool { return attempt == 0 }},
	})
	if err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	for w, n := range map[string]int{"a": 1, "b": 2, "c": 2, "d": 1} {
		if counts[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, counts[w], n)
		}
	}
	s := e.Counters().Snapshot()
	if s.ShuffleRecords != 6 {
		t.Errorf("ShuffleRecords = %d, want 6 (failed attempts must not commit)", s.ShuffleRecords)
	}
	// Every map and reduce task failed its first attempt: 3 + 2 retries.
	if s.FailedTasks != 5 || s.RetriedTasks != 5 {
		t.Errorf("FailedTasks = %d, RetriedTasks = %d, want 5 and 5", s.FailedTasks, s.RetriedTasks)
	}
	if s.MapTasks != 3 || s.ReduceTasks != 2 {
		t.Errorf("committed tasks = %d map, %d reduce; want 3 and 2", s.MapTasks, s.ReduceTasks)
	}
	if s.WastedCPU <= 0 {
		t.Error("failed attempts charged no WastedCPU")
	}
}

// TestRetryBackoffAccounted: backoff is charged to the counters,
// exponentially, without sleeping.
func TestRetryBackoffAccounted(t *testing.T) {
	e := NewEngine(Config{
		MaxAttempts:  3,
		RetryBackoff: 100 * time.Millisecond,
		Faults:       &flakyPolicy{fail: func(task, attempt int) bool { return task == 0 && attempt < 2 }},
	})
	job := &Job{
		Name:    "backoff",
		Splits:  []any{0},
		MapFunc: func(*TaskContext, any, Collector) error { return nil },
	}
	start := time.Now()
	if err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if real := time.Since(start); real > 50*time.Millisecond {
		t.Errorf("backoff slept for real (%v); it must only be accounted", real)
	}
	// Two failures: 100ms + 200ms.
	if got := e.Counters().Snapshot().Backoff; got != 300*time.Millisecond {
		t.Errorf("Backoff = %v, want 300ms", got)
	}
}

// TestRetryExhaustionJoinsAttemptErrors: a task that fails every attempt
// surfaces all its attempts' errors (errors.Join), including the last one.
func TestRetryExhaustionJoinsAttemptErrors(t *testing.T) {
	job := &Job{
		Name:   "doomed",
		Splits: []any{0},
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			return fmt.Errorf("attempt %d exploded", tc.Attempt)
		},
	}
	e := NewEngine(Config{MaxAttempts: 3})
	err := e.Run(job)
	if err == nil {
		t.Fatal("job with an always-failing task succeeded")
	}
	for a := 0; a < 3; a++ {
		if want := fmt.Sprintf("attempt %d exploded", a); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not surface %q", err, want)
		}
	}
	if s := e.Counters().Snapshot(); s.FailedTasks != 3 || s.RetriedTasks != 2 {
		t.Errorf("FailedTasks = %d, RetriedTasks = %d, want 3 and 2", s.FailedTasks, s.RetriedTasks)
	}
}

// TestMultipleFailuresJoined: when several tasks fail terminally before
// cancellation lands, the phase error joins all of them, not just the
// first.
func TestMultipleFailuresJoined(t *testing.T) {
	var started sync.WaitGroup
	started.Add(2)
	release := make(chan struct{})
	job := &Job{
		Name:   "multi",
		Splits: []any{0, 1},
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			// Both tasks fail after both have started, so neither is
			// cancelled before it can report its own error.
			started.Done()
			started.Wait()
			close := func() {}
			_ = close
			<-release
			return fmt.Errorf("task %d says boom", tc.TaskID)
		},
	}
	go func() { started.Wait(); release <- struct{}{}; release <- struct{}{} }()
	err := NewEngine(Config{Slots: 2}).Run(job)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "task 0 says boom") || !strings.Contains(err.Error(), "task 1 says boom") {
		t.Errorf("error %q does not join both task failures", err)
	}
}

// TestFirstErrorCancelsSiblings: a terminal task failure cancels in-flight
// sibling attempts instead of letting them run to completion.
func TestFirstErrorCancelsSiblings(t *testing.T) {
	sawCancel := make(chan struct{})
	siblingUp := make(chan struct{})
	job := &Job{
		Name:   "cancel-siblings",
		Splits: []any{0, 1},
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			if tc.TaskID == 0 {
				// Wait until the sibling is in flight, so its attempt must be
				// cancelled rather than never launched.
				<-siblingUp
				return fmt.Errorf("boom")
			}
			close(siblingUp)
			select {
			case <-tc.Ctx.Done():
				close(sawCancel)
				return tc.Ctx.Err()
			case <-time.After(5 * time.Second):
				return fmt.Errorf("sibling was never cancelled")
			}
		},
	}
	err := NewEngine(Config{Slots: 2}).Run(job)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	select {
	case <-sawCancel:
	default:
		t.Error("sibling did not observe cancellation")
	}
}

// TestRunContextCancellation: cancelling the caller's context stops
// in-flight tasks and surfaces context.Canceled.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	running := make(chan struct{})
	var once sync.Once
	job := &Job{
		Name:   "cancelled",
		Splits: []any{0, 1, 2},
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			once.Do(func() { close(running) })
			<-tc.Ctx.Done()
			return tc.Ctx.Err()
		},
	}
	go func() { <-running; cancel() }()
	err := NewEngine(Config{Slots: 4}).RunContext(ctx, job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextTimeout: a deadline propagates as DeadlineExceeded.
func TestRunContextTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	job := &Job{
		Name:   "timeout",
		Splits: []any{0},
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			<-tc.Ctx.Done()
			return tc.Ctx.Err()
		},
	}
	err := NewEngine(Config{}).RunContext(ctx, job)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSpeculativeExecution: a straggling first attempt gets a duplicate
// once the rest of the phase is done; the duplicate (which does not
// straggle) wins and the job finishes well before the straggler would.
func TestSpeculativeExecution(t *testing.T) {
	var mu sync.Mutex
	committed := map[int][]int{} // task → committed attempts
	job := &Job{
		Name:    "speculate",
		Splits:  []any{0, 1, 2, 3, 4, 5, 6, 7},
		MapFunc: func(tc *TaskContext, split any, out Collector) error { return nil },
		CommitTask: func(tc *TaskContext) error {
			mu.Lock()
			committed[tc.TaskID] = append(committed[tc.TaskID], tc.Attempt)
			mu.Unlock()
			return nil
		},
	}
	e := NewEngine(Config{
		Slots:               8,
		MaxAttempts:         2,
		SpeculativeSlowdown: 2,
		Faults: &flakyPolicy{delay: func(task, attempt int) time.Duration {
			if task == 0 && attempt == 0 {
				return 10 * time.Second // would blow the test timeout if awaited
			}
			return 0
		}},
	})
	start := time.Now()
	if err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("speculation did not rescue the straggler (took %v)", elapsed)
	}
	s := e.Counters().Snapshot()
	if s.SpeculativeTasks < 1 {
		t.Error("no speculative attempt launched")
	}
	mu.Lock()
	defer mu.Unlock()
	for task, attempts := range committed {
		if len(attempts) != 1 {
			t.Errorf("task %d committed %d times: %v", task, len(attempts), attempts)
		}
	}
	if len(committed) != 8 {
		t.Errorf("%d tasks committed, want 8", len(committed))
	}
}

// TestNodeBlacklisting: a single-node "cluster" whose node keeps hosting
// failures gets blacklisted once it crosses the limit.
func TestNodeBlacklisting(t *testing.T) {
	e := NewEngine(Config{
		NumNodes:         1,
		MaxAttempts:      4,
		NodeFailureLimit: 2,
		Faults:           &flakyPolicy{fail: func(task, attempt int) bool { return attempt < 2 }},
	})
	job := &Job{
		Name:    "blacklist",
		Splits:  []any{0},
		MapFunc: func(*TaskContext, any, Collector) error { return nil },
	}
	if err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().Snapshot().BlacklistedNodes; got != 1 {
		t.Errorf("BlacklistedNodes = %d, want 1", got)
	}
	if bl := e.Blacklisted(); len(bl) != 1 || bl[0] != 0 {
		t.Errorf("Blacklisted() = %v, want [0]", bl)
	}
}

// TestAbortTaskCalledForLosers: every non-committing attempt gets an
// AbortTask callback, and the winner gets CommitTask exactly once.
func TestAbortTaskCalledForLosers(t *testing.T) {
	var mu sync.Mutex
	commits, aborts := 0, 0
	job := &Job{
		Name:   "abort",
		Splits: []any{0},
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			if tc.Attempt == 0 {
				return fmt.Errorf("first attempt fails")
			}
			return nil
		},
		CommitTask: func(tc *TaskContext) error {
			mu.Lock()
			commits++
			mu.Unlock()
			return nil
		},
		AbortTask: func(tc *TaskContext) {
			mu.Lock()
			aborts++
			mu.Unlock()
		},
	}
	if err := NewEngine(Config{MaxAttempts: 2}).Run(job); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if commits != 1 || aborts != 1 {
		t.Errorf("commits = %d, aborts = %d; want 1 and 1", commits, aborts)
	}
}

// TestRunnerContextCancellation: the external-pool Runner receives the
// attempt's context so a cancelled attempt does not wait for admission.
func TestRunnerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := &Job{
		Name:    "runner-ctx",
		Splits:  []any{0},
		MapFunc: func(*TaskContext, any, Collector) error { return nil },
		Runner: func(rctx context.Context, fn func() error) error {
			// A full admission queue: only cancellation releases us.
			<-rctx.Done()
			return rctx.Err()
		},
	}
	err := NewEngine(Config{}).RunContext(ctx, job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// shuffleRecords builds n records over keys 0..n/8 and three tags in a
// scrambled arrival order; each value holds its arrival index.
func shuffleRecords(n int) []ShuffleRecord {
	recs := make([]ShuffleRecord, n)
	for i := range recs {
		k := (i * 7919) % (n/8 + 1)
		recs[i] = ShuffleRecord{
			Key:   []byte(fmt.Sprintf("k%06d", k)),
			Tag:   (i * 31) % 3,
			Value: []byte(fmt.Sprintf("%d", i)),
		}
	}
	return recs
}

// TestShuffleSortKeepsArrivalWithinKeyTag checks the reduce-side sort
// orders records by (key, tag) and keeps records with equal key and tag in
// arrival order, as a stable sort would.
func TestShuffleSortKeepsArrivalWithinKeyTag(t *testing.T) {
	recs := shuffleRecords(2000)
	want := append([]ShuffleRecord(nil), recs...)
	sort.SliceStable(want, func(a, b int) bool {
		if c := bytes.Compare(want[a].Key, want[b].Key); c != 0 {
			return c < 0
		}
		return want[a].Tag < want[b].Tag
	})
	var got []ShuffleRecord
	job := &Job{
		Name:       "arrival",
		Splits:     []any{0},
		NumReduces: 1,
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			for _, r := range recs {
				if err := out.Collect(0, r); err != nil {
					return err
				}
			}
			return nil
		},
		ReduceFunc: func(tc *TaskContext, groups func() (*Group, bool)) error {
			for g, ok := groups(); ok; g, ok = groups() {
				got = append(got, g.Records...)
			}
			return nil
		},
	}
	if err := NewEngine(Config{Slots: 1}).Run(job); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reduced %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || got[i].Tag != want[i].Tag || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("record %d = (%s, %d, %s), want (%s, %d, %s)", i,
				got[i].Key, got[i].Tag, got[i].Value, want[i].Key, want[i].Tag, want[i].Value)
		}
	}
}

// BenchmarkShuffleSort runs one job whose single map task ships 30k
// records (about one TPC-DS q95 shuffle) to one reducer that walks the
// groups: the reduce-side sort and grouping dominate.
func BenchmarkShuffleSort(b *testing.B) {
	recs := shuffleRecords(30000)
	e := NewEngine(Config{Slots: 1})
	job := &Job{
		Name:       "sort",
		Splits:     []any{0},
		NumReduces: 1,
		MapFunc: func(tc *TaskContext, split any, out Collector) error {
			for _, r := range recs {
				if err := out.Collect(0, r); err != nil {
					return err
				}
			}
			return nil
		},
		ReduceFunc: func(tc *TaskContext, groups func() (*Group, bool)) error {
			for _, ok := groups(); ok; _, ok = groups() {
			}
			return nil
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(job); err != nil {
			b.Fatal(err)
		}
	}
}
