// concurrent_test.go: the multi-tenant contract of the shared driver —
// many queries in flight at once, across engines, with per-query stats
// that stay exact. Run with -race; these tests exist to give the race
// detector interleavings to chew on as much as to assert results.
package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fileformat"
	"repro/internal/optimizer"
)

var concurrentQueries = []string{
	"SELECT item_id, SUM(qty) FROM sales GROUP BY item_id",
	"SELECT COUNT(*) FROM sales WHERE qty > 2",
	"SELECT region, SUM(s.qty) FROM sales s JOIN custs c ON s.cust_id = c.id GROUP BY region",
	"SELECT category, COUNT(*) FROM sales s JOIN items i ON s.item_id = i.id GROUP BY category",
}

// TestConcurrentQueriesSharedDriver runs the query set serially for
// reference, then from 12 goroutines concurrently — mixed engines via
// RunWith so MapReduce, Tez and LLAP queries interleave on one driver —
// and demands identical row sets from every run.
func TestConcurrentQueriesSharedDriver(t *testing.T) {
	d := newTestDriver(t, fileformat.ORC, Config{Opt: optimizer.AllOn()})
	defer d.Close()

	reference := make([]string, len(concurrentQueries))
	for i, q := range concurrentQueries {
		res, err := d.Run(q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		sortRows(res.Rows)
		reference[i] = fmt.Sprint(res.Rows)
	}

	engines := []EngineMode{ModeMapReduce, ModeTez, ModeLLAP}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		conf := d.Config()
		conf.Engine = engines[g%len(engines)]
		wg.Add(1)
		go func(conf Config) {
			defer wg.Done()
			for i, q := range concurrentQueries {
				res, err := d.RunWith(context.Background(), conf, q)
				if err != nil {
					t.Errorf("engine %v %q: %v", conf.Engine, q, err)
					return
				}
				sortRows(res.Rows)
				if got := fmt.Sprint(res.Rows); got != reference[i] {
					t.Errorf("engine %v %q:\n got %s\nwant %s", conf.Engine, q, got, reference[i])
				}
			}
		}(conf)
	}
	wg.Wait()
}

// TestConcurrentStatsExact: per-query ExecStats come from private counter
// scopes, so a query's numbers under concurrency are byte-identical to its
// serial run (MapReduce mode: no shared cache state to perturb them).
func TestConcurrentStatsExact(t *testing.T) {
	d := newTestDriver(t, fileformat.ORC, Config{})
	defer d.Close()

	type want struct {
		jobs, bytes, shuffleRecords int64
	}
	serial := make([]want, len(concurrentQueries))
	for i, q := range concurrentQueries {
		res, err := d.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = want{res.Stats.Jobs, res.Stats.DFSBytesRead, res.Stats.ShuffleRecords}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range concurrentQueries {
				res, err := d.RunWith(context.Background(), d.Config(), q)
				if err != nil {
					t.Errorf("%q: %v", q, err)
					return
				}
				got := want{res.Stats.Jobs, res.Stats.DFSBytesRead, res.Stats.ShuffleRecords}
				if got != serial[i] {
					t.Errorf("%q stats under concurrency = %+v, serial = %+v", q, got, serial[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentRegistryAndConfig hammers the lazily built registry and
// the config swap from many goroutines while queries run: the Registry()
// double-build race and SetConfig-vs-running-query race this PR fixed.
func TestConcurrentRegistryAndConfig(t *testing.T) {
	d := newTestDriver(t, fileformat.ORC, Config{})
	defer d.Close()

	var wg sync.WaitGroup
	regs := make([]any, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				regs[g] = d.Registry()
			case 1:
				conf := d.Config()
				conf.Engine = ModeLLAP
				if _, err := d.RunWith(context.Background(), conf, "SELECT COUNT(*) FROM sales"); err != nil {
					t.Error(err)
				}
				regs[g] = d.Registry()
			case 2:
				conf := d.Config()
				conf.Opt = optimizer.AllOn()
				d.SetConfig(conf)
			default:
				if _, err := d.Run("SELECT COUNT(*) FROM items"); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	var first any
	for _, r := range regs {
		if r == nil {
			continue
		}
		if first == nil {
			first = r
		} else if r != first {
			t.Fatal("Registry() returned two different registries")
		}
	}
	// LLAP ran, so the daemon's stats must be registered exactly once and
	// a snapshot must see the pool counters.
	snap := d.Registry().Snapshot()
	if _, ok := snap.Values["llap.pool.Executed"]; !ok {
		t.Fatal("llap.pool stats not registered after LLAP query")
	}
}

// TestConcurrentMapJoinSharedBuilds: concurrent LLAP map-join queries share
// the build-side cache; every result must still match the serial answer.
func TestConcurrentMapJoinSharedBuilds(t *testing.T) {
	conf := Config{Opt: optimizer.AllOn(), Engine: ModeLLAP}
	d := newTestDriver(t, fileformat.ORC, conf)
	defer d.Close()

	q := "SELECT region, SUM(s.qty) FROM sales s JOIN custs c ON s.cust_id = c.id GROUP BY region"
	ref, err := d.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	sortRows(ref.Rows)

	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := d.Run(q)
			if err != nil {
				t.Error(err)
				return
			}
			sortRows(res.Rows)
			if !reflect.DeepEqual(res.Rows, ref.Rows) {
				t.Errorf("map-join rows diverged:\n got %v\nwant %v", res.Rows, ref.Rows)
			}
		}()
	}
	wg.Wait()
	if bc := d.LLAP().Builds(); bc != nil {
		if bc.Stats().Hits.Load() == 0 {
			t.Error("build cache saw no hits across 10 concurrent map-join queries")
		}
	}
}
