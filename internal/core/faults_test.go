package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/faultinject"
	"repro/internal/fileformat"
	"repro/internal/llap"
	"repro/internal/mapred"
	"repro/internal/optimizer"
	"repro/internal/orc"
	"repro/internal/types"
)

// faultDriver builds a driver over the llap_test table with a fault policy
// wired through every layer: task crashes in the engine, read faults in
// the DFS, lookup faults in the LLAP cache.
func faultDriver(t *testing.T, mode EngineMode, fcfg faultinject.Config) (*Driver, *faultinject.Policy) {
	t.Helper()
	policy := faultinject.New(fcfg)
	fs := dfs.New(dfs.WithBlockSize(1 << 20))
	fs.SetFaultPolicy(policy)
	ecfg := mapred.Config{Slots: 4, MaxAttempts: 4, RetryBackoff: 10 * time.Millisecond, Faults: policy}
	if fcfg.StragglerProb > 0 {
		ecfg.SpeculativeSlowdown = 2
	}
	engine := mapred.NewEngine(ecfg)
	d := NewDriver(fs, engine, Config{
		Engine: mode,
		Opt:    optimizer.AllOn(),
		LLAP: llap.Config{
			Workers:    4,
			CacheBytes: 32 << 20,
			CacheFaultHook: func(k orc.ChunkKey) bool {
				return policy.CacheFault(fmt.Sprintf("%s#%d#%d#%d", k.Path, k.Stripe, k.Column, k.Stream))
			},
		},
	})
	t.Cleanup(d.Close)

	schema := types.NewSchema(
		types.Col("k", types.Primitive(types.Long)),
		types.Col("v", types.Primitive(types.Long)),
	)
	loader, err := d.CreateTable("t", schema, fileformat.ORC, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := loader.Write(types.Row{int64(i % 13), int64(i % 7)}); err != nil {
			t.Fatal(err)
		}
		if i == 2499 {
			if err := loader.NextFile(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	return d, policy
}

var faultQueries = []string{
	"SELECT k, sum(v) AS s FROM t GROUP BY k ORDER BY k",
	"SELECT count(*) FROM t WHERE k BETWEEN 3 AND 9",
	"SELECT sum(v) FROM t WHERE v > 2",
}

// TestFaultMatrixAcrossEngines: with a seeded policy injecting task
// crashes, transient read faults and a corrupt block, every engine mode
// still returns exactly the clean-run results, and the stats show retries
// actually happened.
func TestFaultMatrixAcrossEngines(t *testing.T) {
	fcfg := faultinject.Config{
		Seed:          1234,
		TaskFailProb:  0.4,
		ReadFaultProb: 0.2,
	}
	for _, mode := range []EngineMode{ModeMapReduce, ModeTez, ModeLLAP} {
		t.Run(mode.String(), func(t *testing.T) {
			clean, _ := faultDriver(t, mode, faultinject.Config{})
			faulty, policy := faultDriver(t, mode, fcfg)
			// One corrupt replica on top of the seeded policy: the checksum
			// must catch it and the read must fail over, not return bad data.
			files := faulty.FS().List("/warehouse/t")
			if len(files) == 0 {
				t.Fatal("no table files")
			}
			if err := faulty.FS().CorruptBlock(files[0].Name, 0); err != nil {
				t.Fatal(err)
			}
			sawRetry := false
			for _, q := range faultQueries {
				want := runQ(t, clean, q)
				got, err := faulty.Run(q)
				if err != nil {
					t.Fatalf("Run(%q) under faults: %v", q, err)
				}
				if !reflect.DeepEqual(fmt.Sprint(want.Rows), fmt.Sprint(got.Rows)) {
					t.Errorf("query %q: rows diverged under faults\nclean: %v\nfaulty: %v", q, want.Rows, got.Rows)
				}
				if got.Stats.RetriedTasks > 0 {
					sawRetry = true
					if got.Stats.RetryBackoff <= 0 {
						t.Error("retries happened but no backoff was accounted")
					}
				}
			}
			if !sawRetry {
				t.Error("no query retried any task; fault injection not reaching the engine")
			}
			if policy.Snapshot().TaskFailures == 0 {
				t.Error("policy injected no task failures at TaskFailProb 0.4")
			}
			if faulty.FS().Stats().Snapshot().CorruptReads == 0 {
				t.Error("corrupt block was never detected")
			}
		})
	}
}

// TestFaultRunIsDeterministic: two drivers with the same seed produce the
// same injection counts.
func TestFaultRunIsDeterministic(t *testing.T) {
	fcfg := faultinject.Config{Seed: 77, TaskFailProb: 0.5}
	a, pa := faultDriver(t, ModeMapReduce, fcfg)
	b, pb := faultDriver(t, ModeMapReduce, fcfg)
	for _, q := range faultQueries {
		runQ(t, a, q)
		runQ(t, b, q)
	}
	if sa, sb := pa.Snapshot(), pb.Snapshot(); sa != sb {
		t.Errorf("same seed, different injections: %+v vs %+v", sa, sb)
	}
}

// TestRetryExhaustionSurfacesError: when a task keeps failing past
// MaxAttempts, the query fails and the error reports the attempts.
func TestRetryExhaustionSurfacesError(t *testing.T) {
	// The policy fails the first 2 attempts per task at prob 1, but the
	// engine only allows 2 attempts — so some task always exhausts.
	policy := faultinject.New(faultinject.Config{Seed: 5, TaskFailProb: 1, MaxFailuresPerTask: 2})
	fs := dfs.New(dfs.WithBlockSize(1 << 20))
	engine := mapred.NewEngine(mapred.Config{Slots: 4, MaxAttempts: 2, Faults: policy})
	d := NewDriver(fs, engine, Config{Opt: optimizer.AllOn()})
	schema := types.NewSchema(types.Col("k", types.Primitive(types.Long)))
	loader, err := d.CreateTable("t", schema, fileformat.ORC, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := loader.Write(types.Row{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = d.Run("SELECT count(*) FROM t")
	if err == nil {
		t.Fatal("query succeeded although every task fails MaxAttempts times")
	}
	if !strings.Contains(err.Error(), "attempt") || !strings.Contains(err.Error(), "crashed") {
		t.Errorf("error does not surface the attempts' failures: %v", err)
	}
}

// TestQueryTimeoutNoGoroutineLeak: a query with a 1ms deadline against
// straggler-delayed tasks returns context.DeadlineExceeded, and no task
// goroutines outlive it.
func TestQueryTimeoutNoGoroutineLeak(t *testing.T) {
	for _, mode := range []EngineMode{ModeMapReduce, ModeTez, ModeLLAP} {
		t.Run(mode.String(), func(t *testing.T) {
			d, _ := faultDriver(t, mode, faultinject.Config{
				Seed:           9,
				StragglerProb:  1,
				StragglerDelay: 200 * time.Millisecond,
			})
			// Warm up: starts the LLAP daemon's persistent workers (they
			// legitimately outlive queries) and settles lazy init.
			runQ(t, d, "SELECT count(*) FROM t")
			runtime.GC()
			baseline := runtime.NumGoroutine()

			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			_, err := d.RunWith(ctx, d.Config(), "SELECT k, sum(v) FROM t GROUP BY k")
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			// In-flight attempts drain promptly after cancellation; give the
			// runtime a moment to reap them.
			deadline := time.Now().Add(2 * time.Second)
			for {
				runtime.GC()
				if n := runtime.NumGoroutine(); n <= baseline+2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}

			// The driver still works after a cancelled query.
			runQ(t, d, "SELECT count(*) FROM t")
		})
	}
}

// TestCancelledQueryLeavesNoTempFiles: cancellation aborts in-flight
// attempts, whose temp part files must be cleaned up.
func TestCancelledQueryLeavesNoTempFiles(t *testing.T) {
	d, _ := faultDriver(t, ModeMapReduce, faultinject.Config{
		Seed:           3,
		StragglerProb:  1,
		StragglerDelay: 100 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := d.RunWith(ctx, d.Config(), "SELECT k, sum(v) FROM t GROUP BY k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Give aborts a moment to finish, then look for leftover query temps.
	time.Sleep(50 * time.Millisecond)
	if files := d.FS().List("/tmp"); len(files) != 0 {
		t.Errorf("cancelled query left temp files: %v", files)
	}
}
