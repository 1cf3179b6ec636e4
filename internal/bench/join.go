// join.go drives E13: the vectorized map-join experiment. TPC-DS query
// 27 — a five-table star join — runs under the row-mode engine, the
// vectorized engine (cold builds), and LLAP with a warm build cache
// (second run onward: every small-table hash table served from the
// daemon). Reported per configuration: wall-clock, cumulative CPU, hash
// builds/reuses/cache hits and probe batches, plus the row-vs-vectorized
// and row-vs-warm speedups.
package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/fileformat"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/workload"
)

// JoinRow is one configuration's measurement.
type JoinRow struct {
	Config        string
	Elapsed       time.Duration
	CumulativeCPU time.Duration
	// Builds counts small-table hash tables built from a scan; Reused
	// counts tasks that picked up another task's table; Cached counts
	// tables served from the LLAP daemon's build cache.
	Builds, Reused, Cached int64
	// Batches is the number of probe batches the vectorized map-join
	// consumed (0 under the row engine).
	Batches int64
	Rows    int
}

// JoinReport bundles E13's outputs.
type JoinReport struct {
	Runs []JoinRow
	// VecSpeedup is row-engine elapsed over vectorized cold elapsed;
	// WarmSpeedup is row-engine elapsed over LLAP warm elapsed;
	// ProbeSpeedup compares the two warm-LLAP runs (row vs vectorized
	// probe with builds cached on both sides — the probe loop isolated).
	VecSpeedup   float64
	WarmSpeedup  float64
	ProbeSpeedup float64
	// Consistent reports whether every configuration returned the row
	// engine's rows.
	Consistent bool
	Mismatches []string
}

// q27Tables is the subset of the TPC-DS dataset query 27 touches: the
// store_sales fact table and its four dimensions.
func q27Tables() []TableSpec {
	return []TableSpec{
		{"store_sales", workload.StoreSalesSchema(), workload.GenStoreSales},
		{"customer_demographics", workload.CustomerDemographicsSchema(), workload.GenCustomerDemographics},
		{"date_dim", workload.DateDimSchema(), workload.GenDateDim},
		{"store", workload.StoreSchema(), workload.GenStore},
		{"item", workload.ItemSchema(), workload.GenItem},
	}
}

// joinEnvCfg normalizes the experiment configuration: ORC storage, every
// optimization on, dimensions under the map-join threshold, and no
// simulated disk or launch overhead — the experiment isolates the join's
// CPU cost, which accounted I/O time would dilute equally on both sides.
func joinEnvCfg(cfg EnvConfig) EnvConfig {
	out := cfg
	out.Format = fileformat.ORC
	out.Opt = allOnWithThreshold()
	out.DiskBandwidth = -1
	out.LaunchOverhead = 0
	return out
}

// joinStats sums the hash-build counters and probe batches over every
// MapJoin node of a profiled plan.
func joinStats(p *plan.Plan, prof *obs.PlanProfile) (builds, reused, cached, batches int64) {
	for _, n := range p.Find(func(n plan.Node) bool { _, ok := n.(*plan.MapJoin); return ok }) {
		if st := prof.Lookup(n.Base().ID); st != nil {
			builds += st.HashBuilds.Load()
			reused += st.HashReused.Load()
			cached += st.HashCached.Load()
			batches += st.Batches.Load()
		}
	}
	return
}

// joinMeasure runs the query once profiled and converts it to a JoinRow.
func joinMeasure(env *Env, name, query string) (JoinRow, []interface{}, error) {
	res, p, prof, err := env.Driver.RunProfiledWith(context.Background(), env.Driver.Config(), query)
	if err != nil {
		return JoinRow{}, nil, fmt.Errorf("bench: join %s: %w", name, err)
	}
	builds, reused, cached, batches := joinStats(p, prof)
	return JoinRow{
		Config:        name,
		Elapsed:       res.Stats.Elapsed,
		CumulativeCPU: res.Stats.CumulativeCPU,
		Builds:        builds,
		Reused:        reused,
		Cached:        cached,
		Batches:       batches,
		Rows:          len(res.Rows),
	}, flattenRows(res), nil
}

// joinBest re-runs a measurement and keeps the fastest run (counters are
// per-query, so any run's counters are representative).
func joinBest(env *Env, name, query string, runs int) (JoinRow, []interface{}, error) {
	best, rows, err := joinMeasure(env, name, query)
	if err != nil {
		return JoinRow{}, nil, err
	}
	for i := 1; i < runs; i++ {
		r, _, err := joinMeasure(env, name, query)
		if err != nil {
			return JoinRow{}, nil, err
		}
		if r.Elapsed < best.Elapsed {
			best = r
		}
	}
	return best, rows, nil
}

// RunJoin measures the star join under the three configurations and
// cross-checks their results.
func RunJoin(cfg EnvConfig, runs int) (*JoinReport, error) {
	if runs <= 0 {
		runs = 3
	}
	base := joinEnvCfg(cfg)
	query := workload.TPCDSQ27()
	rep := &JoinReport{Consistent: true}

	// Row-mode reference: Tez-style engine, vectorization off.
	rowCfg := base
	rowCfg.Tez = true
	rowCfg.Opt.Vectorize = false
	rowEnv, _, err := NewEnv(rowCfg, q27Tables())
	if err != nil {
		return nil, err
	}
	rowRun, want, err := joinBest(rowEnv, "row (tez)", query, runs)
	rowEnv.Driver.Close()
	if err != nil {
		return nil, err
	}
	rep.Runs = append(rep.Runs, rowRun)

	// Vectorized cold: same engine, vectorized probe, builds every query.
	vecCfg := base
	vecCfg.Tez = true
	vecEnv, _, err := NewEnv(vecCfg, q27Tables())
	if err != nil {
		return nil, err
	}
	vecRun, vecRows, err := joinBest(vecEnv, "vectorized (tez)", query, runs)
	vecEnv.Driver.Close()
	if err != nil {
		return nil, err
	}
	rep.Runs = append(rep.Runs, vecRun)

	// LLAP row-mode: the daemon's build cache works for the row engine
	// too, so its warm runs isolate the row-mode probe cost.
	llapRowCfg := base
	llapRowCfg.LLAP = true
	llapRowCfg.Opt.Vectorize = false
	llapRowEnv, _, err := NewEnv(llapRowCfg, q27Tables())
	if err != nil {
		return nil, err
	}
	if _, _, err := joinMeasure(llapRowEnv, "llap warm (row)", query); err != nil {
		llapRowEnv.Driver.Close()
		return nil, err
	}
	warmRowRun, warmRowRows, err := joinBest(llapRowEnv, "llap warm (row)", query, runs)
	llapRowEnv.Driver.Close()
	if err != nil {
		return nil, err
	}
	rep.Runs = append(rep.Runs, warmRowRun)

	// LLAP vectorized: the first query builds and populates the daemon's
	// build cache; warm runs probe daemon-cached tables without building.
	llapCfg := base
	llapCfg.LLAP = true
	llapEnv, _, err := NewEnv(llapCfg, q27Tables())
	if err != nil {
		return nil, err
	}
	coldRun, coldRows, err := joinMeasure(llapEnv, "llap cold", query)
	if err != nil {
		llapEnv.Driver.Close()
		return nil, err
	}
	rep.Runs = append(rep.Runs, coldRun)
	warmRun, warmRows, err := joinBest(llapEnv, "llap warm", query, runs)
	llapEnv.Driver.Close()
	if err != nil {
		return nil, err
	}
	rep.Runs = append(rep.Runs, warmRun)

	if vecRun.Elapsed > 0 {
		rep.VecSpeedup = float64(rowRun.Elapsed) / float64(vecRun.Elapsed)
	}
	if warmRun.Elapsed > 0 {
		rep.WarmSpeedup = float64(rowRun.Elapsed) / float64(warmRun.Elapsed)
		rep.ProbeSpeedup = float64(warmRowRun.Elapsed) / float64(warmRun.Elapsed)
	}
	for _, o := range []struct {
		name string
		rows []interface{}
	}{{"vectorized", vecRows}, {"llap warm (row)", warmRowRows},
		{"llap cold", coldRows}, {"llap warm", warmRows}} {
		if msg := compareResults(want, o.rows); msg != "" {
			rep.Consistent = false
			rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("%s vs row: %s", o.name, msg))
		}
	}
	return rep, nil
}

// PrintJoin renders the experiment.
func PrintJoin(w io.Writer, rep *JoinReport) {
	fmt.Fprintln(w, "E13: vectorized map-join — TPC-DS q27 star join (5 tables)")
	fmt.Fprintf(w, "%-18s %12s %12s %7s %7s %7s %8s %6s\n",
		"config", "elapsed(ms)", "cpu(ms)", "builds", "reused", "cached", "batches", "rows")
	for _, r := range rep.Runs {
		fmt.Fprintf(w, "%-18s %12d %12d %7d %7d %7d %8d %6d\n",
			r.Config, r.Elapsed.Milliseconds(), r.CumulativeCPU.Milliseconds(),
			r.Builds, r.Reused, r.Cached, r.Batches, r.Rows)
	}
	fmt.Fprintf(w, "vectorized cold: %.2fx over row engine; warm LLAP: %.2fx over cold row\n",
		rep.VecSpeedup, rep.WarmSpeedup)
	fmt.Fprintf(w, "probe loop isolated (warm row vs warm vectorized, builds cached on both): %.2fx\n",
		rep.ProbeSpeedup)
	if rep.Consistent {
		fmt.Fprintln(w, "Results identical across row / vectorized / llap cold / llap warm.")
	} else {
		fmt.Fprintln(w, "RESULT MISMATCHES:")
		for _, m := range rep.Mismatches {
			fmt.Fprintln(w, "  "+m)
		}
	}
}

// allOnWithThreshold is AllOn with the benchmark map-join threshold that
// keeps q27's dimensions eligible while store_sales stays streamed.
func allOnWithThreshold() optimizer.Options {
	o := optimizer.AllOn()
	o.MapJoinThreshold = fig11MapJoinThreshold
	return o
}
