// executor.go runs compiled task DAGs on the MapReduce engine: it turns
// table files into input splits, drives map chains over file readers,
// shuffles ReduceSink output, and feeds reduce trees group by group —
// the Reducer Driver role of §5.2.2.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/fileformat"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/plan"
	"repro/internal/sysdb"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vexec"
)

type executor struct {
	d        *Driver
	conf     *Config // this query's config snapshot (immutable during the run)
	compiled *compiler.Compiled
	qid      int64
	ctx      context.Context
	tempDir  string
	tez      bool // in-memory edges (Tez and LLAP modes)
	llap     bool
	caches   *orc.Caches // LLAP's shared caches; nil outside ModeLLAP

	// prof is the query-level operator profile (nil when profiling is
	// off). Task attempts record into private per-attempt profiles and
	// only the committing attempt's numbers are merged in, so retries and
	// speculative losers never double-count rows.
	prof *obs.PlanProfile

	// counters, when set, is this query's private engine-counter scope:
	// every job the executor launches charges it in addition to the
	// engine's cumulative counters.
	counters *mapred.Counters

	mu      sync.Mutex
	results []types.Row
	// memTemps holds intermediate tables for Tez mode: rows flow between
	// stages in memory instead of through DFS-materialized temp files.
	// Each producing task attempt appends one chunk, which later becomes
	// one input split.
	memTemps map[string][][]types.Row
	// sinks registers each live task attempt's private output set, keyed
	// by attempt, until the engine commits (winning attempt: side effects
	// published) or aborts it (loser: side effects discarded).
	sinks map[string]*sinkSet
	// attemptProfs holds each live attempt's private profile, same
	// lifecycle as sinks.
	attemptProfs map[string]*obs.PlanProfile
	// builds shares map-join build-side hash tables across this query's
	// tasks and attempts, keyed by "nodeID/input" (see buildshare.go).
	builds map[string]*buildSlot
	// views caches each ACID table's snapshot-resolved file set for the
	// query's lifetime (see acid.go), so split planning, local scans and
	// build-cache keys agree even as transactions commit mid-query.
	views map[string]txn.View
	// sysSnaps caches one rows-snapshot per sys.* table for the query's
	// lifetime: a query scanning sys.queries twice (self-join, retry) sees
	// one consistent snapshot, and the reconciliation invariants (row
	// counts vs ExecStats) hold exactly.
	sysSnaps map[string][]types.Row
}

func newExecutor(d *Driver, conf *Config, compiled *compiler.Compiled, qid int64, ctx context.Context, prof *obs.PlanProfile) *executor {
	ex := &executor{
		d:            d,
		conf:         conf,
		compiled:     compiled,
		qid:          qid,
		ctx:          ctx,
		prof:         prof,
		tempDir:      fmt.Sprintf("/tmp/query-%d", qid),
		tez:          conf.Engine == ModeTez || conf.Engine == ModeLLAP,
		llap:         conf.Engine == ModeLLAP,
		memTemps:     map[string][][]types.Row{},
		sinks:        map[string]*sinkSet{},
		attemptProfs: map[string]*obs.PlanProfile{},
		builds:       map[string]*buildSlot{},
		views:        map[string]txn.View{},
		sysSnaps:     map[string][]types.Row{},
	}
	if ex.llap {
		ex.caches = d.LLAP().Caches()
	}
	return ex
}

// attemptProfile returns (creating on first use) the private profile for
// one task attempt, or nil when the query is not being profiled.
func (ex *executor) attemptProfile(key string) *obs.PlanProfile {
	if ex.prof == nil {
		return nil
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	p := ex.attemptProfs[key]
	if p == nil {
		p = obs.NewPlanProfile()
		ex.attemptProfs[key] = p
	}
	return p
}

// takeAttemptProfile removes and returns an attempt's profile.
func (ex *executor) takeAttemptProfile(key string) *obs.PlanProfile {
	if ex.prof == nil {
		return nil
	}
	ex.mu.Lock()
	p := ex.attemptProfs[key]
	delete(ex.attemptProfs, key)
	ex.mu.Unlock()
	return p
}

// attemptKey names one task attempt's private output set (and its temp
// part files): retries and speculative twins of a task must never share
// output paths.
func attemptKey(tc *mapred.TaskContext) string {
	kind := "m"
	if tc.Reduce {
		kind = "r"
	}
	return fmt.Sprintf("%s-%05d-a%02d", kind, tc.TaskID, tc.Attempt)
}

// registerSinks files an attempt's sink set for later commit or abort.
func (ex *executor) registerSinks(key string, s *sinkSet) {
	ex.mu.Lock()
	ex.sinks[key] = s
	ex.mu.Unlock()
}

// takeSinks removes and returns an attempt's sink set; nil when the
// attempt never got far enough to create one.
func (ex *executor) takeSinks(key string) *sinkSet {
	ex.mu.Lock()
	s := ex.sinks[key]
	delete(ex.sinks, key)
	ex.mu.Unlock()
	return s
}

func (ex *executor) cleanup() {
	ex.d.fs.RemoveAll(ex.tempDir)
	ex.mu.Lock()
	ex.memTemps = map[string][][]types.Row{}
	ex.sinks = map[string]*sinkSet{}
	ex.mu.Unlock()
}

// tableInfo resolves a scan's table to its storage location, format and
// schema, looking at compiler temp tables first.
func (ex *executor) tableInfo(name string) (path string, format fileformat.Kind, schema *types.Schema, opts fileformat.Options, err error) {
	if s, ok := ex.compiled.TempSchemas[name]; ok {
		return ex.tempDir + "/" + name, fileformat.Sequence, compiler.TempTypesSchema(s), fileformat.Options{}, nil
	}
	meta, err := ex.d.meta.Table(name)
	if err != nil {
		return "", 0, nil, fileformat.Options{}, err
	}
	return meta.Path, meta.Format, meta.Schema, meta.Options, nil
}

func (ex *executor) run() error {
	for i, task := range ex.compiled.Tasks {
		// In Tez mode the whole DAG launches once; later stages reuse the
		// containers. In LLAP mode the daemons are already running, so not
		// even the first stage pays a launch.
		chained := ex.llap || (ex.tez && i > 0)
		if err := ex.runTask(task, chained); err != nil {
			return fmt.Errorf("core: task %d: %w", task.ID, err)
		}
	}
	return nil
}

// split is one map task's input: which scan it serves and which file (or,
// in Tez mode, which in-memory chunk) it reads.
type split struct {
	scanIdx int
	path    string
	rows    []types.Row // non-nil for Tez in-memory edges
}

// isMemTemp reports whether a scan's table lives in the Tez in-memory
// store.
func (ex *executor) isMemTemp(name string) bool {
	if !ex.tez {
		return false
	}
	_, ok := ex.compiled.TempSchemas[name]
	return ok
}

// sysRows snapshots a sys.* table's rows, once per query: later scans of
// the same table (and retried attempts, which re-read the same split
// slice) see the first snapshot.
func (ex *executor) sysRows(name string) ([]types.Row, error) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if rows, ok := ex.sysSnaps[name]; ok {
		return rows, nil
	}
	def, ok := ex.d.sysTableDef(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown sys table %q", name)
	}
	rows := def.Rows()
	ex.sysSnaps[name] = rows
	return rows, nil
}

func (ex *executor) runTask(task *compiler.Task, chained bool) error {
	var splits []any
	for i, scan := range task.MapScans {
		if sysdb.IsSysTable(scan.Table) {
			// Virtual table: its snapshot is one in-memory split, the same
			// shape as a Tez edge, so every engine mode scans it through
			// the ordinary rows path. An empty snapshot contributes no
			// split — exactly like an empty base table.
			rows, err := ex.sysRows(scan.Table)
			if err != nil {
				return err
			}
			if len(rows) > 0 {
				splits = append(splits, split{scanIdx: i, rows: rows})
			}
			continue
		}
		if ex.isMemTemp(scan.Table) {
			ex.mu.Lock()
			chunks := ex.memTemps[scan.Table]
			ex.mu.Unlock()
			for _, rows := range chunks {
				if len(rows) > 0 {
					splits = append(splits, split{scanIdx: i, rows: rows})
				}
			}
			continue
		}
		path, _, _, _, err := ex.tableInfo(scan.Table)
		if err != nil {
			return err
		}
		files, err := ex.resolveScanFiles(scan, path, -1)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			// An empty table still needs one (empty) map task so that
			// fragment side effects (e.g. keyless aggregates) happen.
			continue
		}
		for _, f := range files {
			splits = append(splits, split{scanIdx: i, path: f})
		}
	}

	tagSchemas := make(map[int]*plan.Schema)
	for _, rs := range task.ReduceSinks {
		tagSchemas[rs.Tag] = rs.Out
	}

	job := &mapred.Job{
		Name:          fmt.Sprintf("q%d-job%d", ex.qid, task.ID),
		Splits:        splits,
		ChainedLaunch: chained,
		Counters:      ex.counters,
		MapFunc: func(tc *mapred.TaskContext, sp any, out mapred.Collector) error {
			return ex.runMapTask(task, tc, sp.(split), out)
		},
		// The output-commit protocol: only the winning attempt's private
		// sink set is published — and only its profile is folded into the
		// query profile; every other attempt's is discarded.
		CommitTask: func(tc *mapred.TaskContext) error {
			ex.prof.Merge(ex.takeAttemptProfile(attemptKey(tc)))
			if s := ex.takeSinks(attemptKey(tc)); s != nil {
				return s.commit()
			}
			return nil
		},
		AbortTask: func(tc *mapred.TaskContext) {
			ex.takeAttemptProfile(attemptKey(tc))
			if s := ex.takeSinks(attemptKey(tc)); s != nil {
				s.abort()
			}
		},
	}
	if ex.llap {
		daemon := ex.d.LLAP()
		job.Runner = func(ctx context.Context, fn func() error) error {
			return daemon.ExecuteCtx(ctx, fn)
		}
	}
	if !task.IsMapOnly() {
		job.NumReduces = task.NumReducers
		job.ReduceFunc = func(tc *mapred.TaskContext, groups func() (*mapred.Group, bool)) error {
			return ex.runReduceTask(task, tc, tagSchemas, groups)
		}
	}
	return ex.d.engine.RunContext(ex.ctx, job)
}

// sinkSet is one task attempt's private output: temp-file writers, Tez
// in-memory chunks and buffered result rows. Nothing in it is visible to
// the query until commit publishes it — Hadoop's output-commit protocol —
// so a failed, cancelled or speculative-loser attempt leaves no trace
// (abort discards the buffers and removes its part files).
type sinkSet struct {
	ex      *executor
	suffix  string
	writers map[string]fileformat.Writer
	memRows map[string][]types.Row
	resRows []types.Row
	paths   []string // part files created by this attempt, for abort cleanup
}

func (ex *executor) newSinkSet(suffix string) *sinkSet {
	return &sinkSet{ex: ex, suffix: suffix, writers: map[string]fileformat.Writer{}, memRows: map[string][]types.Row{}}
}

func (s *sinkSet) sinkRow(dest string, row types.Row) error {
	if dest == "" {
		s.resRows = append(s.resRows, row.Clone())
		return nil
	}
	if s.ex.isMemTemp(dest) {
		s.memRows[dest] = append(s.memRows[dest], row.Clone())
		return nil
	}
	w, ok := s.writers[dest]
	if !ok {
		schema, okSchema := s.ex.compiled.TempSchemas[dest]
		if !okSchema {
			return fmt.Errorf("core: unknown temp destination %q", dest)
		}
		path := s.ex.tempDir + "/" + dest + "/part-" + s.suffix
		var err error
		w, err = fileformat.CreateCtx(s.ex.d.fs, path, compiler.TempTypesSchema(schema), fileformat.Sequence, nil, s.ex.ctx)
		if err != nil {
			return err
		}
		s.writers[dest] = w
		s.paths = append(s.paths, path)
	}
	return w.Write(row)
}

// commit publishes the attempt's output: part files are sealed, in-memory
// chunks handed to the Tez store, result rows appended to the query
// result.
func (s *sinkSet) commit() error {
	for _, w := range s.writers {
		if err := w.Close(); err != nil {
			return err
		}
	}
	s.ex.mu.Lock()
	for dest, rows := range s.memRows {
		s.ex.memTemps[dest] = append(s.ex.memTemps[dest], rows)
	}
	s.ex.results = append(s.ex.results, s.resRows...)
	s.ex.mu.Unlock()
	s.memRows = map[string][]types.Row{}
	s.resRows = nil
	return nil
}

// abort discards the attempt's output, removing any part files it created.
func (s *sinkSet) abort() {
	for _, w := range s.writers {
		// Close errors don't matter: the file is removed next.
		_ = w.Close()
	}
	for _, p := range s.paths {
		_ = s.ex.d.fs.Remove(p)
	}
	s.memRows = nil
	s.resRows = nil
}

// execContext builds the runtime context for one task attempt. aprof is
// the attempt's private profile (nil when unprofiled); map-join local
// scans attribute their rows and I/O to the scanned node through it.
// taskBucket is the hash bucket this map task's split is aligned to (-1
// when not bucket-aligned); bucketed joins build per-bucket sides from it.
func (ex *executor) execContext(tc *mapred.TaskContext, sinks *sinkSet, out mapred.Collector, numReduces int, aprof *obs.PlanProfile, taskBucket int) *exec.Context {
	return &exec.Context{
		EmitShuffle: func(rs *plan.ReduceSink, key []byte, tag int, value []byte) error {
			part := 0
			if numReduces > 1 {
				part = mapred.Partition(key, numReduces)
			}
			return out.Collect(part, mapred.ShuffleRecord{Key: key, Tag: tag, Value: value})
		},
		SinkRow: sinks.sinkRow,
		ScanRows: func(ts *plan.TableScan) (func() (types.Row, error), error) {
			return ex.openScan(ts, tc.Ctx, 0, aprof.Op(ts.ID), -1)
		},
		ScanRowsBucket: func(ts *plan.TableScan, bucket int) (func() (types.Row, error), error) {
			return ex.openScan(ts, tc.Ctx, 0, aprof.Op(ts.ID), bucket)
		},
		TaskBucket:      taskBucket,
		SharedHashTable: ex.sharedHashTable,
	}
}

// splitBucket returns the hash bucket a map split is aligned to: splits of
// bucketed layout tables read exactly one bucket_%05d file. -1 for
// anything else (plain tables, Tez edges, sys tables, ACID manifests).
func (ex *executor) splitBucket(scan *plan.TableScan, sp split) int {
	if sp.rows != nil || sp.path == "" {
		return -1
	}
	meta, err := ex.d.meta.Table(scan.Table)
	if err != nil || !meta.Partitioning.Bucketed() {
		return -1
	}
	if b, ok := BucketOfFile(sp.path); ok {
		return b
	}
	return -1
}

// scanInclude resolves a scan's reader projection and the scatter mapping
// for pruned scans (narrow reader rows are spread back into full-width
// rows so compiled column indexes stay valid).
func scanInclude(ts *plan.TableScan) (include []string, scatter []int) {
	if ts.Needed == nil {
		return ts.Cols, nil
	}
	for _, idx := range ts.Needed {
		include = append(include, ts.Cols[idx])
	}
	return include, ts.Needed
}

// widen scatters a narrow (pruned) row into a full-width row.
func widen(row types.Row, scatter []int, width int) types.Row {
	if scatter == nil {
		return row
	}
	full := make(types.Row, width)
	for j, idx := range scatter {
		full[idx] = row[j]
	}
	return full
}

// openScan opens a row iterator over the files of a scan's table (used
// for map-join local work). bucket >= 0 restricts a bucketed layout table
// to that hash bucket's files. stats, when non-nil, receives the scan's
// rows, I/O attribution and ORC selection counters.
func (ex *executor) openScan(ts *plan.TableScan, ctx context.Context, node int, stats *obs.OpStats, bucket int) (func() (types.Row, error), error) {
	if sysdb.IsSysTable(ts.Table) {
		rows, err := ex.sysRows(ts.Table)
		if err != nil {
			return nil, err
		}
		i := 0
		return func() (types.Row, error) {
			if i >= len(rows) {
				return nil, nil
			}
			row := rows[i]
			i++
			stats.AddRows(1)
			return row, nil
		}, nil
	}
	if ex.isMemTemp(ts.Table) {
		ex.mu.Lock()
		chunks := ex.memTemps[ts.Table]
		ex.mu.Unlock()
		ci, ri := 0, 0
		return func() (types.Row, error) {
			for ci < len(chunks) {
				if ri < len(chunks[ci]) {
					row := chunks[ci][ri]
					ri++
					stats.AddRows(1)
					return row, nil
				}
				ci++
				ri = 0
			}
			return nil, nil
		}, nil
	}
	path, format, schema, _, err := ex.tableInfo(ts.Table)
	if err != nil {
		return nil, err
	}
	include, scatter := scanInclude(ts)
	files, err := ex.resolveScanFiles(ts, path, bucket)
	if err != nil {
		return nil, err
	}
	idx := 0
	var r fileformat.Reader
	next := func() (types.Row, error) {
		for {
			if r == nil {
				if idx >= len(files) {
					return nil, nil
				}
				var err error
				r, err = fileformat.Open(ex.d.fs, files[idx], schema, format,
					fileformat.ScanOptions{Include: include, SArg: ts.SArg, ORCCaches: ex.caches, Ctx: ctx, Node: node, Tally: stats.Tally()})
				if err != nil {
					return nil, err
				}
				idx++
			}
			row, err := r.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					foldScanCounters(stats, r)
					r = nil
					continue
				}
				return nil, err
			}
			stats.AddRows(1)
			return widen(row, scatter, len(ts.Cols)), nil
		}
	}
	return next, nil
}

// foldScanCounters copies a finished reader's ORC stripe / index-group
// selection counters into the scan's stats, when both exist.
func foldScanCounters(stats *obs.OpStats, r fileformat.Reader) {
	if stats == nil {
		return
	}
	if src, ok := r.(fileformat.ScanCounterSource); ok {
		c := src.ScanCounters()
		stats.AddScanCounters(c.StripesRead, c.StripesSkipped, c.GroupsRead, c.GroupsSkipped)
	}
}

// runMapTask drives one split's rows through the scan's consumer chains.
// All output lands in an attempt-private sink set; the engine publishes it
// via CommitTask only if this attempt wins.
func (ex *executor) runMapTask(task *compiler.Task, tc *mapred.TaskContext, sp split, out mapred.Collector) error {
	scan := task.MapScans[sp.scanIdx]
	sinks := ex.newSinkSet(attemptKey(tc))
	ex.registerSinks(attemptKey(tc), sinks)
	aprof := ex.attemptProfile(attemptKey(tc))
	ctx := ex.execContext(tc, sinks, out, task.NumReducers, aprof, ex.splitBucket(scan, sp))
	scanStats := aprof.Op(scan.ID) // nil aprof -> nil stats; methods no-op

	if sp.rows != nil {
		// Tez in-memory edge: no file reader, rows arrive full width.
		builder := exec.NewBuilder()
		builder.SetProfile(aprof)
		consumers, err := builder.BuildMapChain(scan)
		if err != nil {
			return err
		}
		for _, op := range consumers {
			if err := op.Init(ctx); err != nil {
				return err
			}
		}
		var scanStart time.Time
		if scanStats != nil {
			scanStart = time.Now()
		}
		for i, row := range sp.rows {
			if i%1024 == 0 {
				if err := tc.Ctx.Err(); err != nil {
					return err
				}
			}
			scanStats.AddRows(1)
			for _, op := range consumers {
				if err := op.Process(row, 0); err != nil {
					return err
				}
			}
		}
		for _, op := range consumers {
			if err := op.Flush(); err != nil {
				return err
			}
		}
		if scanStats != nil {
			end := time.Now()
			scanStats.AddWall(end.Sub(scanStart))
			scanStats.MarkInterval(scanStart, end)
		}
		return nil
	}

	_, format, schema, _, err := ex.tableInfo(scan.Table)
	if err != nil {
		return err
	}
	if scan.Vectorize {
		return vexec.RunVectorizedScan(tc.Ctx, ex.d.fs, sp.path, scan, ctx, tc.Node, ex.caches, aprof)
	}

	builder := exec.NewBuilder()
	builder.SetProfile(aprof)
	consumers, err := builder.BuildMapChain(scan)
	if err != nil {
		return err
	}
	for _, op := range consumers {
		if err := op.Init(ctx); err != nil {
			return err
		}
	}
	include, scatter := scanInclude(scan)
	r, err := fileformat.Open(ex.d.fs, sp.path, schema, format,
		fileformat.ScanOptions{Include: include, SArg: scan.SArg, ORCCaches: ex.caches, Ctx: tc.Ctx, Node: tc.Node, Tally: scanStats.Tally()})
	if err != nil {
		return err
	}
	defer r.Close()
	var scanStart time.Time
	if scanStats != nil {
		scanStart = time.Now()
	}
	for i := 0; ; i++ {
		if i%1024 == 0 {
			if err := tc.Ctx.Err(); err != nil {
				return err
			}
		}
		row, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		scanStats.AddRows(1)
		row = widen(row, scatter, len(scan.Cols))
		for _, op := range consumers {
			if err := op.Process(row, 0); err != nil {
				return err
			}
		}
	}
	for _, op := range consumers {
		if err := op.Flush(); err != nil {
			return err
		}
	}
	if scanStats != nil {
		end := time.Now()
		scanStats.AddWall(end.Sub(scanStart))
		scanStats.MarkInterval(scanStart, end)
		foldScanCounters(scanStats, r)
	}
	return nil
}

// runReduceTask feeds shuffled groups into the reduce tree with
// StartGroup/EndGroup signals — the Reducer Driver of §5.2.2.
func (ex *executor) runReduceTask(task *compiler.Task, tc *mapred.TaskContext, tagSchemas map[int]*plan.Schema, groups func() (*mapred.Group, bool)) error {
	sinks := ex.newSinkSet(attemptKey(tc))
	ex.registerSinks(attemptKey(tc), sinks)
	aprof := ex.attemptProfile(attemptKey(tc))
	ctx := ex.execContext(tc, sinks, nil, 0, aprof, -1)
	// The entry operator is driven directly (its taps cover only edges
	// below it), so its rows and wall are recorded here.
	entryStats := aprof.Op(task.ReduceEntry.Base().ID)

	builder := exec.NewBuilder()
	builder.SetProfile(aprof)
	entry, err := builder.Build(task.ReduceEntry)
	if err != nil {
		return err
	}
	if err := entry.Init(ctx); err != nil {
		return err
	}
	// Every record decodes into one reused row: the reduce tree only
	// borrows it for the length of Process (DESIGN.md §16).
	var row types.Row
	var entryStart time.Time
	if entryStats != nil {
		entryStart = time.Now()
	}
	for i := 0; ; i++ {
		if i%256 == 0 {
			if err := tc.Ctx.Err(); err != nil {
				return err
			}
		}
		g, ok := groups()
		if !ok {
			break
		}
		if err := entry.StartGroup(); err != nil {
			return err
		}
		for _, rec := range g.Records {
			schema, ok := tagSchemas[rec.Tag]
			if !ok {
				return fmt.Errorf("core: shuffle record with unknown tag %d", rec.Tag)
			}
			row, err = exec.DecodeRowInto(schema, rec.Value, row)
			if err != nil {
				return err
			}
			entryStats.AddRows(1)
			if err := entry.Process(row, rec.Tag); err != nil {
				return err
			}
		}
		if err := entry.EndGroup(); err != nil {
			return err
		}
	}
	err = entry.Flush()
	if entryStats != nil {
		end := time.Now()
		entryStats.AddWall(end.Sub(entryStart))
		entryStats.MarkInterval(entryStart, end)
	}
	return err
}
