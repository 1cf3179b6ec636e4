// obs.go drives the observability experiment (E12): TPC-H query 6 against
// the LLAP daemon layer, cold then warm, with span tracing and per-operator
// profiling on. The point is attribution, not speed: the warm run's byte
// savings must be visible *at the scan operator* (DFS bytes shift to cache
// bytes on the same plan node), the per-operator byte totals must reconcile
// exactly with the query's top-level ExecStats, and the unified metrics
// registry must show the same story as a counter diff. A final faulted run
// exercises span coverage down to retried and speculative task attempts.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
)

// ObsRow is one profiled run's scan-level attribution.
type ObsRow struct {
	Run        string // "cold" / "warm" / "faulted"
	Elapsed    time.Duration
	ScanDFS    int64 // DFS bytes charged to scan operators by the profile
	ScanCache  int64 // cache-served decompressed bytes charged to scans
	TotalBytes int64 // ExecStats.TotalBytesRead
	// Reconciled is ScanDFS+ScanCache == TotalBytesRead; exact for
	// fault-free runs (read-fault retries can re-read DFS ranges).
	Reconciled bool
	Rows       int
}

// ObsReport bundles the experiment's outputs.
type ObsReport struct {
	Query string
	Runs  []ObsRow
	// AnnotatedPlan is the warm run's EXPLAIN ANALYZE tree: the cache hit
	// shows up as dfs=0 cache=N on the scan line.
	AnnotatedPlan []string
	// RegistryDiff is the unified-registry delta over the warm run.
	RegistryDiff string
	// Span census over the whole trace (cold + warm + faulted).
	SpanCounts  map[string]int // by category
	TaskSpans   int
	RetrySpans  int    // task spans with attempt > 0
	SpecSpans   int    // task spans flagged speculative
	TraceWrites string // path the trace was written to, "" if none
}

// profiledRun executes one traced, profiled query under a named phase span
// and folds its scan-operator attribution.
func profiledRun(env *Env, ctx0 context.Context, name, sql string) (ObsRow, []string, error) {
	ctx, sp := obs.StartSpan(ctx0, name, obs.CatPhase)
	res, p, prof, err := env.Driver.RunProfiledWith(ctx, env.Driver.Config(), sql)
	sp.FinishErr(err)
	if err != nil {
		return ObsRow{}, nil, fmt.Errorf("bench: obs %s: %w", name, err)
	}
	row := ObsRow{Run: name, Elapsed: res.Stats.Elapsed, TotalBytes: res.Stats.TotalBytesRead, Rows: len(res.Rows)}
	p.Walk(func(n plan.Node) {
		if _, ok := n.(*plan.TableScan); !ok {
			return
		}
		if st := prof.Lookup(n.Base().ID); st != nil {
			row.ScanDFS += st.IO.DFSBytes.Load()
			row.ScanCache += st.IO.CacheBytes.Load()
		}
	})
	row.Reconciled = row.ScanDFS+row.ScanCache == row.TotalBytes
	return row, core.RenderAnalyzedPlan(p, prof, res), nil
}

// RunObs runs the experiment; tracePath, when non-empty, receives the
// combined Chrome trace_event file (open in chrome://tracing or Perfetto).
func RunObs(cfg EnvConfig, seed int64, tracePath string) (*ObsReport, error) {
	base := llapEnvCfg(cfg)
	base.LLAP = true
	if base.RowsPerFile > 4000 {
		base.RowsPerFile = 4000 // several files -> several task-attempt spans
	}
	sql := llapQueries(base)[1] // tpch-q6: one scan, vectorizable
	rep := &ObsReport{Query: sql.name, SpanCounts: map[string]int{}}

	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)

	env, _, err := NewEnv(base, sql.tables)
	if err != nil {
		return nil, err
	}
	reg := env.Driver.Registry()

	cold, _, err := profiledRun(env, ctx, "cold", sql.sql)
	if err != nil {
		return nil, err
	}
	rep.Runs = append(rep.Runs, cold)

	env.Driver.Registry() // daemon exists now: adopt the LLAP counters
	before := reg.Snapshot()
	warm, planLines, err := profiledRun(env, ctx, "warm", sql.sql)
	if err != nil {
		return nil, err
	}
	rep.Runs = append(rep.Runs, warm)
	rep.AnnotatedPlan = planLines
	rep.RegistryDiff = reg.Snapshot().Diff(before).String()
	env.Driver.Close()

	// Faulted run: same query, fresh environment, seeded fault policy. Its
	// value here is span coverage — the trace must contain the retried and
	// speculative attempts, attributed per attempt.
	faultyCfg := base
	faultyCfg.Faults = DefaultFaultConfig(seed)
	// Stragglers at half the tasks: the trace should show a speculative
	// attempt racing (and losing to, or beating) a delayed original.
	faultyCfg.Faults.StragglerProb = 0.5
	fenv, _, err := NewEnv(faultyCfg, sql.tables)
	if err != nil {
		return nil, err
	}
	faulted, _, err := profiledRun(fenv, ctx, "faulted", sql.sql)
	if err != nil {
		return nil, err
	}
	rep.Runs = append(rep.Runs, faulted)
	fenv.Driver.Close()

	for _, sd := range tracer.Spans() {
		rep.SpanCounts[sd.Cat]++
		if sd.Cat != obs.CatTask {
			continue
		}
		rep.TaskSpans++
		for _, a := range sd.Attrs {
			switch a.Key {
			case "attempt":
				if n, ok := a.Val.(int); ok && n > 0 {
					rep.RetrySpans++
				}
			case "speculative":
				if b, ok := a.Val.(bool); ok && b {
					rep.SpecSpans++
				}
			}
		}
	}
	if tracePath != "" {
		if err := tracer.WriteFile(tracePath); err != nil {
			return nil, err
		}
		rep.TraceWrites = tracePath
	}
	return rep, nil
}

// PrintObs renders the experiment.
func PrintObs(w io.Writer, rep *ObsReport) {
	fmt.Fprintf(w, "E12: query observability (%s on the LLAP daemon; spans + per-operator profiles + registry diff)\n", rep.Query)
	fmt.Fprintf(w, "%-8s %12s %14s %14s %14s %10s\n",
		"run", "elapsed(ms)", "scan dfs(B)", "scan cache(B)", "total(B)", "reconciled")
	for _, r := range rep.Runs {
		fmt.Fprintf(w, "%-8s %12d %14d %14d %14d %10v\n",
			r.Run, r.Elapsed.Milliseconds(), r.ScanDFS, r.ScanCache, r.TotalBytes, r.Reconciled)
	}
	fmt.Fprintln(w, "\nwarm-run EXPLAIN ANALYZE (the scan line shows the cache doing the work):")
	for _, l := range rep.AnnotatedPlan {
		fmt.Fprintln(w, "  "+l)
	}
	fmt.Fprintln(w, "\nwarm-run registry diff (counters delta, gauges current):")
	fmt.Fprint(w, indent(rep.RegistryDiff, "  "))
	fmt.Fprintf(w, "\ntrace: %d spans", totalSpans(rep.SpanCounts))
	for _, cat := range []string{obs.CatQuery, obs.CatPhase, obs.CatJob, obs.CatTask, obs.CatOp} {
		fmt.Fprintf(w, " %s=%d", cat, rep.SpanCounts[cat])
	}
	fmt.Fprintf(w, "\n  task attempts: %d total, %d retries, %d speculative (from the faulted run)\n",
		rep.TaskSpans, rep.RetrySpans, rep.SpecSpans)
	if rep.TraceWrites != "" {
		fmt.Fprintf(w, "  written to %s — open in chrome://tracing or https://ui.perfetto.dev\n", rep.TraceWrites)
	}
}

func indent(s, pad string) string {
	if s == "" {
		return ""
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pad + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func totalSpans(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
