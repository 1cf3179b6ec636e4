package main

// The traced run measures each layer from outside the program: it times
// calls into each layer's public functions, reads the counters the program
// already keeps (ExecStats, the metrics registry, query-history records,
// the RunProfiled operator profile), and records its own spans with the
// public obs.Tracer, written out when the run ends.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/vector"
)

// layers accumulates the traced window's per-layer figures.
type layers struct {
	tr  *obs.Tracer
	reg obs.Snapshot // registry at the start of the traced window

	mu sync.Mutex // clients trace concurrently

	queries                   int
	parse, planT, explain     time.Duration
	benchWall, execWall       time.Duration
	sessQueries               int
	sessOverhead, queueWait   time.Duration
	jobs, taskCPU             int64
	shuffleBytes, shuffleRecs int64
	retried                   int64
	builds, reused, cached    int64
	batches                   int64
	groupsRead, groupsSkipped int64
	dfsBytes, dfsReads, meta  int64
	cacheHits, cacheMisses    int64
	cacheBytes                int64
}

func newLayers(d *core.Driver) *layers {
	return &layers{tr: obs.NewTracer(), reg: d.Registry().Snapshot()}
}

// tracedQuery runs one query with every layer timed: parse, plan and
// optimize+compile are called on the same text through their public entry
// points, then the query runs profiled with the tracer in its context so
// the driver's phase, job, task and operator spans nest under the
// benchmark's own query span.
func (L *layers) tracedQuery(ctx context.Context, e *env, c *client, q *query) (*core.Result, time.Duration, error) {
	root := L.tr.Start("bench.query", "bench", nil)
	root.SetAttr("class", q.class)
	defer root.Finish()
	timed := func(name string, f func() error) (time.Duration, error) {
		t := time.Now()
		err := f()
		dur := time.Since(t)
		L.tr.Emit(name, "bench", root, t, dur)
		return dur, err
	}
	// One untimed pass first: the timed calls then run as warm as the
	// driver's own front end does, so explain - parse - plan is not skewed
	// by whichever call first touches the query's text and catalog entries.
	if _, _, err := e.d.Explain(q.sql); err != nil {
		return nil, 0, err
	}
	var stmt *sql.SelectStmt
	parse, err := timed("sql.Parse", func() (err error) { stmt, err = sql.Parse(q.sql); return err })
	if err != nil {
		return nil, 0, err
	}
	planT, err := timed("plan.Plan", func() error {
		_, err := plan.NewPlanner(e.d.Metastore(), &e.conf.Planner).Plan(stmt)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	explain, err := timed("core.Explain", func() error { _, _, err := e.d.Explain(q.sql); return err })
	if err != nil {
		return nil, 0, err
	}

	var (
		res  *core.Result
		prof *obs.PlanProfile
	)
	qctx := obs.WithSpan(obs.WithTracer(ctx, L.tr), root)
	lat, err := timed("bench.run", func() (err error) { res, prof, err = c.run(qctx, q.sql, true); return err })
	if err != nil {
		return nil, lat, err
	}
	session := ""
	if c.sess != nil {
		session = c.sess.ID()
	}
	rec, haveRec := latestRecord(e.d, session)
	L.mu.Lock()
	defer L.mu.Unlock()
	L.queries++
	L.parse += parse
	L.planT += planT
	L.explain += explain
	L.benchWall += lat
	st := res.Stats
	L.execWall += st.WallTime
	L.jobs += st.Jobs
	L.taskCPU += int64(st.CumulativeCPU)
	L.shuffleBytes += st.ShuffleBytes
	L.shuffleRecs += st.ShuffleRecords
	L.retried += st.RetriedTasks
	L.cacheHits += st.CacheHits
	L.cacheMisses += st.CacheMisses
	L.cacheBytes += st.CacheBytesRead
	L.dfsBytes += st.DFSBytesRead
	for _, id := range prof.IDs() {
		op := prof.Lookup(id)
		L.builds += op.HashBuilds.Load()
		L.reused += op.HashReused.Load()
		L.cached += op.HashCached.Load()
		L.batches += op.Batches.Load()
		L.groupsRead += op.GroupsRead.Load()
		L.groupsSkipped += op.GroupsSkipped.Load()
		L.dfsReads += op.IO.DFSReads.Load()
		L.meta += op.IO.MetaBytes.Load()
	}
	if haveRec {
		L.sessQueries++
		L.sessOverhead += lat - rec.Total
		L.queueWait += rec.QueueWait
	}
	return res, lat, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics turns the traced window into the per-layer figures. Figures of
// a layer the workload does not use read 0.
func (L *layers) metrics(d *core.Driver, untraced, traced *window, io ioProbe) map[string]metric {
	reg := d.Registry().Snapshot().Diff(L.reg)
	n := float64(max(L.queries, 1))
	us := func(t time.Duration) float64 { return float64(t) / float64(time.Microsecond) / n }
	front := L.parse + L.planT + L.explain
	rows := float64(traced.committedRows)
	compactions := float64(reg.Get("txn.CompactionsMinor") + reg.Get("txn.CompactionsMajor"))
	m := map[string]metric{
		"sql.parse_us":                     {us(L.parse), "us"},
		"plan.plan_us":                     {us(L.planT), "us"},
		"optimizer.optimize_compile_us":    {us(L.explain - L.parse - L.planT), "us"},
		"core.exec_ms":                     {ms(L.execWall) / n, "ms"},
		"core.frontend_share":              {ratio(float64(front), float64(front+L.benchWall)), "ratio"},
		"server.session_overhead_ms":       {ratio(ms(L.sessOverhead), float64(L.sessQueries)), "ms"},
		"server.queue_wait_ms":             {ratio(ms(L.queueWait), float64(L.sessQueries)), "ms"},
		"mapred.jobs_per_query":            {float64(L.jobs) / n, "count"},
		"mapred.task_cpu_ms_per_query":     {ms(time.Duration(L.taskCPU)) / n, "ms"},
		"mapred.shuffle_bytes_per_query":   {float64(L.shuffleBytes) / n, "B"},
		"mapred.shuffle_records_per_query": {float64(L.shuffleRecs) / n, "count"},
		"mapred.retried_tasks_per_query":   {float64(L.retried) / n, "count"},
		"exec.hash_builds_per_query":       {float64(L.builds) / n, "count"},
		"exec.build_reuse_ratio":           {ratio(float64(L.reused+L.cached), float64(L.builds+L.reused+L.cached)), "ratio"},
		"vexec.batches_per_query":          {float64(L.batches) / n, "count"},
		"orc.scan_ms_per_mb":               {io.orcMsPerMB, "ms/MB"},
		"orc.groups_read_ratio":            {ratio(float64(L.groupsRead), float64(L.groupsRead+L.groupsSkipped)), "ratio"},
		"dfs.read_ms_per_mb":               {io.dfsMsPerMB, "ms/MB"},
		"dfs.bytes_read_per_query":         {float64(L.dfsBytes) / n, "B"},
		"dfs.read_ops_per_query":           {float64(L.dfsReads) / n, "count"},
		"dfs.meta_bytes_per_query":         {float64(L.meta) / n, "B"},
		"dfs.bytes_written_per_row":        {ratio(float64(reg.Get("dfs.BytesWritten")), rows), "B"},
		"llap.cache_hit_ratio":             {ratio(float64(L.cacheHits), float64(L.cacheHits+L.cacheMisses)), "ratio"},
		"llap.cache_evictions_per_query":   {float64(reg.Get("llap.cache.Evictions")) / n, "count"},
		"llap.cache_bytes_per_query":       {float64(L.cacheBytes) / n, "B"},
		"txn.compactions_per_krow":         {ratio(compactions, rows/1000), "count"},
		"bench.trace_overhead_ratio":       {ratio(traced.qps(), untraced.qps()), "ratio"},
	}
	// The writer's figures and the error rate come from the untraced
	// window of the same run, so tracing does not colour them.
	u := untraced.endToEnd()
	for _, k := range []string{"modelled_ms_per_query", "ingest_rows_per_s", "commit_p50_ms", "commit_p90_ms", "error_rate"} {
		m[k] = u[k]
	}
	return m
}

// ioProbe is the storage layers measured directly over the files the
// workload's queries read: a raw DFS read of each file, and an ORC reader
// over the same files decoding the projected columns.
type ioProbe struct {
	dfsMsPerMB, orcMsPerMB float64
}

// tableFiles lists the data files of each table the mix reads.
func tableFiles(e *env) (map[string][]string, error) {
	out := map[string][]string{}
	for t := range e.read {
		meta, err := e.d.Metastore().Table(t)
		if err != nil {
			return nil, err
		}
		for _, fi := range e.d.FS().List(meta.Path) {
			out[t] = append(out[t], fi.Name)
		}
	}
	return out, nil
}

func filesSize(e *env, files map[string][]string) (int64, error) {
	var total int64
	for _, paths := range files {
		for _, p := range paths {
			fi, err := e.d.FS().Stat(p)
			if err != nil {
				return 0, err
			}
			total += fi.Size
		}
	}
	return total, nil
}

// projectedBytes sums the decompressed stream sizes of the columns the mix
// reads, from the ORC stripe footers: the working set the chunk cache
// competes for.
func projectedBytes(e *env) (int64, error) {
	files, err := tableFiles(e)
	if err != nil {
		return 0, err
	}
	var total int64
	for t, paths := range files {
		want := map[string]bool{}
		for _, c := range e.read[t] {
			want[c] = true
		}
		for _, p := range paths {
			f, err := e.d.FS().Open(p)
			if err != nil {
				return 0, err
			}
			r, err := orc.NewReader(f)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", p, err)
			}
			ids := map[int]bool{}
			for i, c := range r.Schema().Columns {
				if want[c.Name] {
					ids[i+1] = true // column 0 is the root struct
				}
			}
			for s := 0; s < r.NumStripes(); s++ {
				streams, err := r.StripeStreams(s)
				if err != nil {
					return 0, err
				}
				for _, st := range streams {
					if ids[st.Column] {
						total += int64(st.Decoded)
					}
				}
			}
		}
	}
	return total, nil
}

// probeIO times raw DFS reads and projected ORC scans over the workload's
// files, repeating passes until each side has run for minDur.
func probeIO(e *env, L *layers, minDur time.Duration) (ioProbe, error) {
	files, err := tableFiles(e)
	if err != nil {
		return ioProbe{}, err
	}
	bytes, err := filesSize(e, files)
	if err != nil {
		return ioProbe{}, err
	}
	pass := func(name string, read func(table, path string) error) (float64, error) {
		sp := L.tr.Start(name, "bench", nil)
		defer sp.Finish()
		var mbs float64
		t := time.Now()
		for time.Since(t) < minDur {
			for table, paths := range files {
				for _, p := range paths {
					if err := read(table, p); err != nil {
						return 0, fmt.Errorf("%s %s: %w", name, p, err)
					}
				}
			}
			mbs += float64(bytes) / (1 << 20)
		}
		return ms(time.Since(t)) / mbs, nil
	}
	var p ioProbe
	p.dfsMsPerMB, err = pass("dfs.read", func(_, path string) error {
		f, err := e.d.FS().Open(path)
		if err != nil {
			return err
		}
		buf := make([]byte, f.Size())
		_, err = f.ReadAt(buf, 0)
		return err
	})
	if err != nil {
		return p, err
	}
	p.orcMsPerMB, err = pass("orc.scan", func(table, path string) error {
		f, err := e.d.FS().Open(path)
		if err != nil {
			return err
		}
		r, err := orc.NewReader(f)
		if err != nil {
			return err
		}
		br, err := r.Batches(orc.ReadOptions{Include: e.read[table]})
		if err != nil {
			return err
		}
		b := br.NewBatchFor(vector.DefaultBatchSize)
		for {
			ok, err := br.Next(b)
			if err != nil || !ok {
				return err
			}
		}
	})
	return p, err
}
