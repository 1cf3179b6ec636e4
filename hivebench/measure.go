package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
)

// sample is one timed operation on the benchmark's clock.
type sample struct {
	class string
	ms    float64
}

// window accumulates one timed phase: every attempted operation, its
// latency and outcome, and process-level resource readings taken at the
// window's slice boundaries.
type window struct {
	start, end time.Time
	marks      []mark

	attempted int
	failed    int
	failures  []string // first few causes, for the report

	queries  []sample // correct queries only
	modelled time.Duration

	commits       []sample // write+commit per streamed batch (serve-ingest)
	committedRows int64
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// mark is one reading of the process and of the queries completed so far.
type mark struct {
	at                  time.Time
	cpu                 time.Duration
	mallocs, totalAlloc uint64
	queries             int64
}

func (w *window) mark() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.marks = append(w.marks, mark{at: time.Now(), cpu: processCPU(), mallocs: m.Mallocs,
		totalAlloc: m.TotalAlloc, queries: int64(len(w.queries))})
}

func (w *window) begin() {
	w.mark()
	w.start = w.marks[0].at
}

func (w *window) finish() {
	w.mark()
	w.end = w.marks[len(w.marks)-1].at
}

// sliceDelta is what the process did between two marks.
type sliceDelta struct {
	wall, cpu           time.Duration
	mallocs, totalAlloc uint64
}

// perQuery is the median over the window's slices of f(slice) divided by
// the queries completed in the slice: steadier than one whole-window
// figure when the machine is briefly busy with something else. Slices in
// which no query completed are skipped.
func (w *window) perQuery(f func(d sliceDelta) float64) float64 {
	var xs []float64
	for i := 1; i < len(w.marks); i++ {
		a, b := w.marks[i-1], w.marks[i]
		if q := b.queries - a.queries; q > 0 {
			d := sliceDelta{b.at.Sub(a.at), b.cpu - a.cpu, b.mallocs - a.mallocs, b.totalAlloc - a.totalAlloc}
			xs = append(xs, f(d)/float64(q))
		}
	}
	return median(xs)
}

// qps is correct queries per second, the median over the slices.
func (w *window) qps() float64 {
	return 1 / w.perQuery(func(d sliceDelta) float64 { return d.wall.Seconds() })
}

func (w *window) fail(cause string) {
	w.failed++
	if len(w.failures) < 8 {
		w.failures = append(w.failures, cause)
	}
}

// addQuery records a correct query; modelled cost is kept apart and never
// added to the latency.
func (w *window) addQuery(class string, lat time.Duration, st core.ExecStats) {
	w.queries = append(w.queries, sample{class, ms(lat)})
	w.modelled += st.LaunchOverhead + st.SimulatedIO + st.RetryBackoff
}

// merge folds the writer's part of a window into the whole.
func (w *window) merge(o *window) {
	w.attempted += o.attempted
	w.failed += o.failed
	for _, f := range o.failures {
		if len(w.failures) < 8 {
			w.failures = append(w.failures, f)
		}
	}
	w.commits = append(w.commits, o.commits...)
	w.committedRows += o.committedRows
}

// sliceQPS is the query rate of each slice, to show how steady a run was.
func (w *window) sliceQPS() []float64 {
	var out []float64
	for i := 1; i < len(w.marks); i++ {
		a, b := w.marks[i-1], w.marks[i]
		out = append(out, float64(b.queries-a.queries)/b.at.Sub(a.at).Seconds())
	}
	return out
}

func (w *window) wall() time.Duration { return w.end.Sub(w.start) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank quantile of the latencies (q in (0,1]).
func quantile(s []sample, q float64) sample {
	if len(s) == 0 {
		return sample{}
	}
	sorted := append([]sample(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ms < sorted[j].ms })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the user-visible metrics of a window. Per-query
// figures divide by correct queries; run checks there is at least one.
func (w *window) endToEnd() map[string]metric {
	n := float64(len(w.queries))
	m := map[string]metric{
		"query_p50_ms":          {quantile(w.queries, 0.50).ms, "ms"},
		"query_p90_ms":          {quantile(w.queries, 0.90).ms, "ms"},
		"queries_per_s":         {w.qps(), "1/s"},
		"cpu_ms_per_query":      {w.perQuery(func(d sliceDelta) float64 { return ms(d.cpu) }), "ms"},
		"allocs_per_query":      {w.perQuery(func(d sliceDelta) float64 { return float64(d.mallocs) }), "count"},
		"alloc_mb_per_query":    {w.perQuery(func(d sliceDelta) float64 { return float64(d.totalAlloc) / (1 << 20) }), "MB"},
		"max_rss_mb":            {maxRSSMB(), "MB"},
		"modelled_ms_per_query": {ms(w.modelled) / n, "ms"},
		"error_rate":            {float64(w.failed) / float64(max(w.attempted, 1)), "ratio"},
		// The writer's figures; 0 without a writer.
		"ingest_rows_per_s": {float64(w.committedRows) / w.wall().Seconds(), "1/s"},
		"commit_p50_ms":     {quantile(w.commits, 0.50).ms, "ms"},
		"commit_p90_ms":     {quantile(w.commits, 0.90).ms, "ms"},
	}
	return m
}

// classMedians gives each query class's median latency, so a report
// shows which class the overall median falls in.
func classMedians(s []sample) map[string]float64 {
	by := map[string][]sample{}
	for _, x := range s {
		by[x.class] = append(by[x.class], x)
	}
	out := map[string]float64{}
	for c, xs := range by {
		out[c] = quantile(xs, 0.5).ms
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
