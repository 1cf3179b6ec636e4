// Command hivebench is the repository benchmark: three closed-loop
// workloads (scan-agg, star-join, serve-ingest) driven only through
// core.Driver, server.Session and server.Stream, timed on the benchmark's
// own clock, with every result checked. See README.md.
//
//	hivebench --workload scan-agg --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// endToEndNames are the metrics every workload reports with --trace 0;
// perLayerNames those of --trace 1. They match BENCHMARK.json.
var endToEndNames = []string{
	"setup_s", "query_p50_ms", "query_p90_ms", "queries_per_s", "cpu_ms_per_query",
	"allocs_per_query", "alloc_mb_per_query", "max_rss_mb",
}

// A traced run measures more than perLayerNames and prints it all. Left
// out of the list are the figures that read the same on every run of
// every listed workload: the writer's (serve-ingest is not listed), queue
// wait (one client never queues) and the modelled cost (deterministic).
var perLayerNames = []string{
	"sql.parse_us", "plan.plan_us", "optimizer.optimize_compile_us", "core.exec_ms",
	"core.frontend_share", "server.session_overhead_ms",
	"mapred.jobs_per_query", "mapred.task_cpu_ms_per_query", "mapred.shuffle_bytes_per_query",
	"mapred.shuffle_records_per_query", "mapred.retried_tasks_per_query",
	"exec.hash_builds_per_query", "exec.build_reuse_ratio", "vexec.batches_per_query",
	"orc.scan_ms_per_mb", "orc.groups_read_ratio", "dfs.read_ms_per_mb",
	"dfs.bytes_read_per_query", "dfs.read_ops_per_query", "dfs.meta_bytes_per_query",
	"llap.cache_hit_ratio", "llap.cache_evictions_per_query", "llap.cache_bytes_per_query",
	"bench.trace_overhead_ratio", "error_rate",
}

// env is one built warehouse and the clients that reach it.
type env struct {
	d           *core.Driver
	conf        core.Config
	client      *client
	read        map[string][]string // table -> columns the mix reads
	cacheBudget int64               // chunk-cache budget (LLAP workloads)
	serve       *serveState         // serve-ingest only
	close       func()
}

// workloadDef builds a workload's warehouse and deals its query mix. Why
// each workload exists is in README.md and BENCHMARK.json.
type workloadDef struct {
	setup func(sizes) (*env, error)
	mix   func(*rand.Rand, sizes) *deck
}

var workloads = map[string]workloadDef{
	"scan-agg":     {setup: newScanAgg, mix: scanAggMix},
	"star-join":    {setup: newStarJoin, mix: starJoinMix},
	"serve-read":   {setup: newServeRead, mix: serveMix},
	"serve-ingest": {setup: newServeIngest, mix: serveMix},
}

type options struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	sz        sizes
	setupReps int
	out       string
}

// report is everything a run measured; the last stdout line is cut from it.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Sizes       map[string]float64 `json:"sizes"`
	SetupRuns   []float64          `json:"setup_runs_s"`
	Queries     int                `json:"query_samples"`
	Commits     int                `json:"commit_samples"`
	P50Class    string             `json:"p50_class"`
	P90Class    string             `json:"p90_class"`
	ClassMedian map[string]float64 `json:"class_median_ms"`
	SliceQPS    []float64          `json:"slice_queries_per_s"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	EndToEnd    map[string]metric  `json:"end_to_end"`
	Layers      map[string]metric  `json:"per_layer,omitempty"`
	SpansFile   string             `json:"spans_file,omitempty"`
}

func main() {
	wl := flag.String("workload", "", "workload: scan-agg | star-join | serve-read | serve-ingest")
	seed := flag.Int64("seed", 1, "draws query parameters, mix order and ingest batch sizes")
	secs := flag.Int("seconds", 10, "length of each timed window")
	trace := flag.Int("trace", 0, "1: add a traced window and report per-layer metrics")
	out := flag.String("out", "out", "directory for reports, spans and stall dumps")
	flag.Parse()
	if _, ok := workloads[*wl]; !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hivebench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hivebench:", err)
		os.Exit(1)
	}
	o := options{workload: *wl, seed: *seed, seconds: time.Duration(*secs) * time.Second,
		trace: *trace == 1, sz: fullSizes, setupReps: 3, out: *out}
	// Set-up, warm-up and two windows take well under a minute; a run that
	// reaches 170 s is stuck, and the contract's limit is 180 s.
	wd := newWatchdog(o.out, 30*time.Second, 170*time.Second)
	rep, err := run(o, wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hivebench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "hivebench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one benchmark run: set-up (repeated, median reported),
// reference answers, an untraced window and, with tracing, a traced one.
func run(o options, wd *watchdog) (*report, error) {
	def := workloads[o.workload]
	rng := rand.New(rand.NewSource(o.seed))
	dk := def.mix(rng, o.sz)
	writerRng := rand.New(rand.NewSource(o.seed + 7919))

	rep := &report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace}
	wd.onStall = func(unfinished int) {
		line, _ := json.Marshal(map[string]any{"correct": false, "attempted": unfinished, "failed": unfinished, "metrics": map[string]metric{}})
		fmt.Println(string(line))
	}
	wd.start()
	defer wd.close()

	var e *env
	for i := 0; i < o.setupReps; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if e, err = def.setup(o.sz); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		built := time.Since(t)
		e.client.dk = dk
		if i == 0 {
			// Reference answers are not part of set-up time.
			if err := references(e.d, dk.pool); err != nil {
				e.close()
				return nil, err
			}
		}
		t = time.Now()
		if err := warm(e, wd); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		rep.SetupRuns = append(rep.SetupRuns, (built + time.Since(t)).Seconds())
	}
	defer e.close()
	if err := recordSizes(e, rep); err != nil {
		return nil, err
	}

	runtime.GC()
	untraced := measure(e, o.seconds, wd, nil, writerRng)
	if len(untraced.queries) == 0 {
		return nil, fmt.Errorf("no query completed correctly: %s", strings.Join(untraced.failures, "; "))
	}
	rep.EndToEnd = untraced.endToEnd()
	rep.EndToEnd["setup_s"] = metric{median(rep.SetupRuns), "s"}
	rep.Queries, rep.Commits = len(untraced.queries), len(untraced.commits)
	rep.Attempted, rep.Failed, rep.Failures = untraced.attempted, untraced.failed, untraced.failures
	rep.P50Class = quantile(untraced.queries, 0.5).class
	rep.P90Class = quantile(untraced.queries, 0.9).class
	rep.ClassMedian = classMedians(untraced.queries)
	rep.SliceQPS = untraced.sliceQPS()
	if !o.trace {
		return rep, nil
	}

	L := newLayers(e.d)
	runtime.GC()
	traced := measure(e, o.seconds, wd, L, writerRng)
	rep.Attempted += traced.attempted
	rep.Failed += traced.failed
	rep.Failures = append(rep.Failures, traced.failures...)
	io, err := probeIO(e, L, 300*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("storage probe: %w", err)
	}
	rep.Layers = L.metrics(e.d, untraced, traced, io)
	rep.SpansFile = filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := L.tr.WriteFile(rep.SpansFile); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return rep, nil
}

// recordSizes notes the data and cache sizes the workload runs at.
func recordSizes(e *env, rep *report) error {
	files, err := tableFiles(e)
	if err != nil {
		return err
	}
	onDisk, err := filesSize(e, files)
	if err != nil {
		return err
	}
	decoded, err := projectedBytes(e)
	if err != nil {
		return err
	}
	rep.Sizes = map[string]float64{
		"files_mb":             float64(onDisk) / (1 << 20),
		"read_columns_mb":      float64(decoded) / (1 << 20),
		"chunk_cache_mb":       float64(e.cacheBudget) / (1 << 20),
		"read_columns_x_cache": ratio(float64(decoded), float64(e.cacheBudget)),
	}
	return nil
}

// emit prints the human-readable report, saves it as JSON beside the
// results, and prints the contract line last.
func emit(f io.Writer, o options, rep *report) error {
	fmt.Fprintf(f, "workload=%s seed=%d seconds=%g trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(f, "sizes: %s\n", kv(rep.Sizes, "%.3g"))
	fmt.Fprintf(f, "setup runs (s): %v\n", rep.SetupRuns)
	fmt.Fprintf(f, "query samples=%d commit samples=%d p50 in %s, p90 in %s; class medians (ms): %s\n",
		rep.Queries, rep.Commits, rep.P50Class, rep.P90Class, kv(rep.ClassMedian, "%.2f"))
	printMetrics(f, "end-to-end", rep.EndToEnd)
	if rep.Layers != nil {
		printMetrics(f, "per-layer (traced window)", rep.Layers)
		fmt.Fprintf(f, "spans: %s\n", rep.SpansFile)
	}
	for _, c := range rep.Failures {
		fmt.Fprintf(f, "FAILED: %s\n", c)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(o.out, fmt.Sprintf("report-%s-seed%d-trace%v.json", rep.Workload, rep.Seed, rep.Trace))
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		return err
	}
	line, err := contractLine(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, string(line))
	return nil
}

// contractLine is the last line of a run's output: whether every result
// was correct, the operation counts, and the metrics BENCHMARK.json names
// for the run's mode (end-to-end untraced, per-layer traced).
func contractLine(rep *report) ([]byte, error) {
	names, from := endToEndNames, rep.EndToEnd
	if rep.Trace {
		names, from = perLayerNames, rep.Layers
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := from[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	return json.Marshal(map[string]any{
		"correct": rep.Failed == 0, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": out,
	})
}

func printMetrics(f io.Writer, title string, m map[string]metric) {
	fmt.Fprintf(f, "%s:\n", title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func kv(m map[string]float64, format string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + fmt.Sprintf(format, m[k])
	}
	return strings.Join(parts, " ")
}
