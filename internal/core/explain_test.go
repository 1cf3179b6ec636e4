package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fileformat"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// planText flattens a single-column EXPLAIN result for substring checks.
func planText(t *testing.T, res *Result) string {
	t.Helper()
	if len(res.Schema.Cols) != 1 || res.Schema.Cols[0].Name != "plan" {
		t.Fatalf("EXPLAIN schema = %+v, want one 'plan' column", res.Schema.Cols)
	}
	var b strings.Builder
	for _, row := range res.Rows {
		s, ok := row[0].(string)
		if !ok {
			t.Fatalf("EXPLAIN row %v is not a string", row)
		}
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.String()
}

// line returns the first plan line containing every marker.
func line(text string, markers ...string) string {
	for _, l := range strings.Split(text, "\n") {
		ok := true
		for _, m := range markers {
			if !strings.Contains(l, m) {
				ok = false
				break
			}
		}
		if ok {
			return l
		}
	}
	return ""
}

func TestExplainDoesNotExecute(t *testing.T) {
	d := newTestDriver(t, fileformat.Sequence, Config{})
	jobsBefore := d.Engine().Counters().Snapshot().Jobs
	res, err := d.Run("EXPLAIN SELECT item_id, count(*) FROM sales WHERE qty < 3 GROUP BY item_id")
	if err != nil {
		t.Fatal(err)
	}
	text := planText(t, res)
	for _, want := range []string{"TS-", "FIL-", "GBY-", "FS-"} {
		if !strings.Contains(text, want) {
			t.Errorf("plan missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "rows=") {
		t.Errorf("plain EXPLAIN carries runtime annotations:\n%s", text)
	}
	if jobs := d.Engine().Counters().Snapshot().Jobs; jobs != jobsBefore {
		t.Errorf("EXPLAIN launched %d job(s)", jobs-jobsBefore)
	}
}

// TestExplainAnalyzeRowCounts checks the annotated tree against the
// hand-computed plan on the fixed test table (1000 sales rows, item_id =
// i%10, qty = i%5): the scan emits all 1000 rows, the filter receives
// 1000, and qty < 3 passes 600 into the partial group-by. item_id
// determines qty (i%10 fixes i%5), so exactly 6 of the 10 groups survive
// — the sink must receive 6 rows — on every engine mode.
func TestExplainAnalyzeRowCounts(t *testing.T) {
	for _, mode := range []EngineMode{ModeMapReduce, ModeTez, ModeLLAP} {
		t.Run(mode.String(), func(t *testing.T) {
			format := fileformat.Sequence
			if mode == ModeLLAP {
				format = fileformat.ORC // the daemon caches ORC chunks
			}
			d := newTestDriver(t, format, Config{Engine: mode})
			t.Cleanup(d.Close)
			res, err := d.Run("EXPLAIN ANALYZE SELECT item_id, count(*) FROM sales WHERE qty < 3 GROUP BY item_id")
			if err != nil {
				t.Fatal(err)
			}
			text := planText(t, res)
			checks := []struct {
				markers []string
				want    string
			}{
				{[]string{"TS-", "sales"}, "rows=1000"},
				{[]string{"FIL-"}, "rows=1000"},
				{[]string{"GBY-", "partial"}, "rows=600"},
				{[]string{"FS-"}, "rows=6"},
			}
			for _, c := range checks {
				l := line(text, c.markers...)
				if l == "" {
					t.Errorf("no plan line matching %v:\n%s", c.markers, text)
					continue
				}
				if !strings.Contains(l, c.want) {
					t.Errorf("line %q: want %s", strings.TrimSpace(l), c.want)
				}
			}
			if l := line(text, "elapsed:"); l == "" {
				t.Errorf("missing totals footer:\n%s", text)
			}
			if l := line(text, "bytes: total="); l == "" {
				t.Errorf("missing byte totals footer:\n%s", text)
			}
		})
	}
}

// TestProfiledBytesReconcile runs vectorized ORC scans cold and warm on the
// LLAP daemon: the per-scan DFS + cache byte attribution must equal the
// query's TotalBytesRead exactly, with the warm run fully cache-served.
func TestProfiledBytesReconcile(t *testing.T) {
	d := newTestDriver(t, fileformat.ORC, Config{Engine: ModeLLAP, Opt: optimizer.AllOn()})
	t.Cleanup(d.Close)
	sum := func(p *plan.Plan, prof *obs.PlanProfile) (dfsB, cacheB int64) {
		p.Walk(func(n plan.Node) {
			if _, ok := n.(*plan.TableScan); !ok {
				return
			}
			if st := prof.Lookup(n.Base().ID); st != nil {
				dfsB += st.IO.DFSBytes.Load()
				cacheB += st.IO.CacheBytes.Load()
			}
		})
		return
	}
	const q = "SELECT sum(price) FROM sales WHERE qty < 3"
	res, p, prof, err := d.RunProfiledWith(context.Background(), d.Config(), q)
	if err != nil {
		t.Fatal(err)
	}
	dfsB, cacheB := sum(p, prof)
	if dfsB+cacheB != res.Stats.TotalBytesRead {
		t.Errorf("cold: scan bytes %d dfs + %d cache != total %d", dfsB, cacheB, res.Stats.TotalBytesRead)
	}
	if dfsB == 0 {
		t.Error("cold run read nothing from the DFS")
	}

	res, p, prof, err = d.RunProfiledWith(context.Background(), d.Config(), q)
	if err != nil {
		t.Fatal(err)
	}
	dfsB, cacheB = sum(p, prof)
	if dfsB+cacheB != res.Stats.TotalBytesRead {
		t.Errorf("warm: scan bytes %d dfs + %d cache != total %d", dfsB, cacheB, res.Stats.TotalBytesRead)
	}
	if cacheB == 0 {
		t.Error("warm run not served from the cache")
	}
	if dfsB != 0 {
		t.Errorf("warm run still read %d DFS bytes", dfsB)
	}
}

// TestTraceSpansCoverQuery asserts the span tree a traced query produces:
// phases under the query span, jobs under the query, task attempts under
// jobs, and retroactive operator spans — and that a traced run needs no
// EXPLAIN ANALYZE to get operator granularity.
func TestTraceSpansCoverQuery(t *testing.T) {
	d := newTestDriver(t, fileformat.Sequence, Config{})
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := d.RunWith(ctx, d.Config(), "SELECT item_id, count(*) FROM sales WHERE qty < 3 GROUP BY item_id"); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byID := map[int64]obs.SpanData{}
	byCat := map[string][]obs.SpanData{}
	for _, s := range spans {
		byID[s.ID] = s
		byCat[s.Cat] = append(byCat[s.Cat], s)
		if s.Truncated {
			t.Errorf("span %q exported truncated from a completed query", s.Name)
		}
	}
	if n := len(byCat[obs.CatQuery]); n != 1 {
		t.Fatalf("query spans = %d, want 1", n)
	}
	q := byCat[obs.CatQuery][0]
	phases := map[string]bool{}
	for _, s := range byCat[obs.CatPhase] {
		phases[s.Name] = true
		if s.Parent != q.ID {
			t.Errorf("phase %q parented under %d, want the query span", s.Name, s.Parent)
		}
	}
	for _, want := range []string{"parse", "plan", "optimize", "compile"} {
		if !phases[want] {
			t.Errorf("missing %q phase span", want)
		}
	}
	if len(byCat[obs.CatJob]) == 0 {
		t.Fatal("no job spans")
	}
	for _, s := range byCat[obs.CatJob] {
		if s.Parent != q.ID {
			t.Errorf("job %q parented under %d, want the query span", s.Name, s.Parent)
		}
	}
	if len(byCat[obs.CatTask]) == 0 {
		t.Fatal("no task-attempt spans")
	}
	for _, s := range byCat[obs.CatTask] {
		if byID[s.Parent].Cat != obs.CatJob {
			t.Errorf("task %q parented under %q, want a job span", s.Name, byID[s.Parent].Cat)
		}
	}
	if len(byCat[obs.CatOp]) == 0 {
		t.Fatal("no operator spans: traced runs must profile operators")
	}
	for _, s := range byCat[obs.CatOp] {
		if s.Parent != q.ID {
			t.Errorf("operator %q parented under %d, want the query span", s.Name, s.Parent)
		}
	}
}

// TestTraceRecordsRetriedAttempts injects task crashes and checks the
// trace contains the extra attempts, distinguishable by their attempt
// attribute — profiles must still only count committed work.
func TestTraceRecordsRetriedAttempts(t *testing.T) {
	d, _ := faultDriver(t, ModeMapReduce, faultinject.Config{Seed: 7, TaskFailProb: 0.5})
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	res, p, prof, err := d.RunProfiledWith(ctx, d.Config(), "SELECT k, count(*) FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RetriedTasks == 0 {
		t.Fatal("fault policy injected no retries; raise TaskFailProb")
	}
	retrySpans := 0
	for _, s := range tr.Spans() {
		if s.Cat != obs.CatTask {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "attempt" {
				if n, ok := a.Val.(int); ok && n > 0 {
					retrySpans++
				}
			}
		}
	}
	if retrySpans == 0 {
		t.Error("retried attempts left no task spans in the trace")
	}
	// Committed-only accounting: the scan profile must count each input
	// row exactly once despite retried attempts.
	var scanRows int64
	p.Walk(func(n plan.Node) {
		if _, ok := n.(*plan.TableScan); ok {
			if st := prof.Lookup(n.Base().ID); st != nil {
				scanRows += st.Rows.Load()
			}
		}
	})
	if scanRows != 5000 {
		t.Errorf("scan profile counted %d rows, want exactly 5000 (no double-count under retries)", scanRows)
	}
}
