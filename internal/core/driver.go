package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/dfs"
	"repro/internal/fileformat"
	"repro/internal/llap"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/sysdb"
	"repro/internal/txn"
	"repro/internal/types"
)

// EngineMode selects the underlying data processing engine.
type EngineMode int

// Engine modes: classic MapReduce (the paper's evaluation substrate), a
// Tez-style DAG mode (§9: Hive 0.13+ can translate a query to a Tez job) —
// one container launch for the whole DAG and in-memory intermediate edges
// instead of DFS-materialized temp tables — and an LLAP-style daemon mode
// (the §9 outlook realized in Camacho-Rodríguez et al. 2019): Tez-style
// edges plus persistent executors and a shared in-memory columnar cache,
// so repeated queries pay neither worker start cost nor repeat DFS reads.
const (
	ModeMapReduce EngineMode = iota
	ModeTez
	ModeLLAP
)

// String names the mode.
func (m EngineMode) String() string {
	switch m {
	case ModeTez:
		return "tez"
	case ModeLLAP:
		return "llap"
	}
	return "mapreduce"
}

// Config selects which of the paper's advancements are active, so the
// benchmark harness can toggle them individually as §7 does.
type Config struct {
	Planner plan.PlannerOptions
	// Engine picks the execution substrate (default MapReduce).
	Engine EngineMode
	// Optimizations (§5, §6, §4.2). The zero value disables everything,
	// reproducing the "original Hive" baseline.
	Opt optimizer.Options
	// DefaultFormat is used by CreateTable when no format is given.
	DefaultFormat fileformat.Kind
	// WarehouseDir is the DFS root for table data.
	WarehouseDir string
	// LLAP sizes the daemon layer used by ModeLLAP (workers, admission
	// queue, cache budgets). Zero-value fields take llap defaults.
	LLAP llap.Config
	// AutoCompactDeltas is the delta-file count at which a committed write
	// to an ACID table schedules a background minor compaction onto the
	// LLAP executor pool. Zero means the default (8); negative disables
	// auto-compaction (tests and crash drills drive compaction manually).
	// Read once, when the session's transaction manager starts.
	AutoCompactDeltas int
	// History sizes the query history and slow-query capture (S26).
	// Zero-value fields take sysdb defaults. Read once, when the first
	// query (or sys-table lookup) starts the history.
	History sysdb.Config
}

// Driver is the session façade (Figure 1). Since the multi-tenant server
// layer (internal/server) it is shared by concurrent queries: the active
// configuration is read under confMu and snapshotted once per query, so a
// SetConfig (or a per-session RunWith) never races a running query.
type Driver struct {
	fs      *dfs.FS
	engine  *mapred.Engine
	meta    *Metastore
	queryID atomic.Int64

	confMu sync.RWMutex
	conf   Config

	llapMu     sync.Mutex
	llapDaemon *llap.Daemon // created on first ModeLLAP query; outlives queries

	txnMu sync.Mutex
	txns  *txn.Manager // created on first ACID use; outlives queries

	regMu   sync.Mutex
	reg     *obs.Registry // built on first Registry() call
	regLLAP bool          // LLAP stats structs registered (at most once)
	regTxn  bool          // txn manager stats registered (at most once)
	regHist bool          // query-history stats registered (at most once)

	queryHist atomic.Pointer[obs.Histogram] // per-query latency, set with the registry

	hist atomic.Pointer[sysdb.History] // query history; built on first use

	sysMu    sync.Mutex
	sysExtra map[string]sysdb.TableDef // subsystem-registered sys.* tables

	// scanStats counts layout-aware scan resolution (partitions pruned and
	// scanned, bucket files skipped); registered under the "scan" prefix.
	scanStats scanStats
}

// NewDriver assembles a driver over a DFS and a MapReduce engine.
func NewDriver(fs *dfs.FS, engine *mapred.Engine, conf Config) *Driver {
	if conf.WarehouseDir == "" {
		conf.WarehouseDir = "/warehouse"
	}
	return &Driver{fs: fs, engine: engine, meta: NewMetastore(), conf: conf}
}

// FS exposes the underlying filesystem (benchmarks read its counters).
func (d *Driver) FS() *dfs.FS { return d.fs }

// Engine exposes the MapReduce engine.
func (d *Driver) Engine() *mapred.Engine { return d.engine }

// Metastore exposes the catalog.
func (d *Driver) Metastore() *Metastore { return d.meta }

// LLAP returns the session's daemon layer, starting it on first use. The
// daemon — its worker pool and cache contents — persists across queries;
// that persistence is what makes warm runs cheap.
func (d *Driver) LLAP() *llap.Daemon {
	d.llapMu.Lock()
	defer d.llapMu.Unlock()
	if d.llapDaemon == nil {
		d.confMu.RLock()
		cfg := d.conf.LLAP
		d.confMu.RUnlock()
		d.llapDaemon = llap.NewDaemon(cfg)
	}
	return d.llapDaemon
}

// StartedLLAP returns the daemon if one has been started, nil otherwise —
// unlike LLAP it never starts one as a side effect. Readiness probes use
// it: a never-started daemon is not a failure, a closed one is.
func (d *Driver) StartedLLAP() *llap.Daemon {
	d.llapMu.Lock()
	defer d.llapMu.Unlock()
	return d.llapDaemon
}

// History returns the session's query history, starting it (from the
// configuration's History block, read once) on first use. Like the LLAP
// daemon it outlives individual queries; unlike it, it always exists —
// a Disabled config yields an inert history whose Begin returns nil.
func (d *Driver) History() *sysdb.History {
	if h := d.hist.Load(); h != nil {
		return h
	}
	d.confMu.RLock()
	cfg := d.conf.History
	d.confMu.RUnlock()
	h := sysdb.New(d.fs, cfg)
	if d.hist.CompareAndSwap(nil, h) {
		return h
	}
	return d.hist.Load()
}

// Registry returns the session's unified metrics registry: the DFS, engine
// and (once started) LLAP daemon stats structs registered under stable
// prefixes, plus a task-attempt latency histogram installed on the engine
// and a per-query latency histogram (core.QueryNanos) observed by every
// Run. The structs register by adoption — the registry reads their
// existing atomics — so hot paths are untouched. Safe to call repeatedly
// and from concurrent queries: creation and the one-shot LLAP registration
// both happen under regMu, so two racing callers can neither build two
// registries nor double-register (and panic) the daemon's structs.
func (d *Driver) Registry() *obs.Registry {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	if d.reg == nil {
		d.reg = obs.NewRegistry()
		obs.RegisterStruct(d.reg, "dfs", d.fs.Stats())
		obs.RegisterStruct(d.reg, "mapred", d.engine.Counters())
		obs.RegisterStruct(d.reg, "scan", &d.scanStats)
		d.engine.SetTaskHistogram(d.reg.Histogram("mapred.TaskNanos"))
		d.queryHist.Store(d.reg.Histogram("core.QueryNanos"))
	}
	if !d.regLLAP {
		d.llapMu.Lock()
		daemon := d.llapDaemon
		d.llapMu.Unlock()
		if daemon != nil {
			if cc := daemon.ChunkCache(); cc != nil {
				obs.RegisterStruct(d.reg, "llap.cache", cc.Stats())
			}
			if bc := daemon.Builds(); bc != nil {
				obs.RegisterStruct(d.reg, "llap.builds", bc.Stats())
			}
			obs.RegisterStruct(d.reg, "llap.pool", daemon.Stats())
			d.regLLAP = true
		}
	}
	if !d.regTxn {
		if mgr := d.txnManager(); mgr != nil {
			obs.RegisterStruct(d.reg, "txn", mgr.Stats())
			d.regTxn = true
		}
	}
	if !d.regHist {
		if h := d.History(); h.Enabled() {
			obs.RegisterStruct(d.reg, "sysdb", h.Stats())
		}
		d.regHist = true
	}
	return d.reg
}

// Close releases session resources: the LLAP daemon's workers (if
// started) and any query-history records not yet flushed to the DFS.
func (d *Driver) Close() {
	d.llapMu.Lock()
	daemon := d.llapDaemon
	d.llapDaemon = nil
	d.llapMu.Unlock()
	if daemon != nil {
		daemon.Close()
	}
	d.hist.Load().Flush()
}

// Config returns a copy of the active configuration.
func (d *Driver) Config() Config {
	d.confMu.RLock()
	defer d.confMu.RUnlock()
	return d.conf
}

// SetConfig swaps the configuration (benchmarks toggle optimizations).
// Queries already running keep the snapshot they started with; queries
// started after the call see the new configuration.
func (d *Driver) SetConfig(conf Config) {
	d.confMu.Lock()
	defer d.confMu.Unlock()
	if conf.WarehouseDir == "" {
		conf.WarehouseDir = d.conf.WarehouseDir
	}
	d.conf = conf
}

// CreateTable registers a table and returns a loader for its data.
func (d *Driver) CreateTable(name string, schema *types.Schema, format fileformat.Kind, opts *fileformat.Options) (*TableLoader, error) {
	return d.CreateTableSpec(name, schema, format, opts, nil)
}

// CreateTableSpec is CreateTable with a physical-layout spec: partition
// columns, hash buckets, a within-bucket sort order, or per-replica
// divergent layouts. A nil spec is a plain table.
func (d *Driver) CreateTableSpec(name string, schema *types.Schema, format fileformat.Kind, opts *fileformat.Options, spec *PartitionSpec) (*TableLoader, error) {
	if _, err := d.meta.Table(name); err == nil {
		return nil, fmt.Errorf("core: table %q already exists", name)
	}
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	o := fileformat.Options{}
	if opts != nil {
		o = *opts
	}
	d.confMu.RLock()
	warehouse := d.conf.WarehouseDir
	d.confMu.RUnlock()
	meta := &TableMeta{
		Name:         name,
		Schema:       schema,
		Format:       format,
		Path:         warehouse + "/" + name,
		Options:      o,
		Partitioning: spec,
	}
	d.meta.Register(meta)
	return &TableLoader{d: d, meta: meta}, nil
}

// TableLoader writes data files into a table. For tables with a layout
// spec the loader buffers rows and materializes the partition/bucket/
// replica layout at Close; for plain tables it streams part files.
type TableLoader struct {
	d     *Driver
	meta  *TableMeta
	part  int
	w     fileformat.Writer
	path  string // current part file, for stats recording at seal
	count int64

	// Layout-spec buffering: partition key -> rows, plus the partition
	// values behind each key (insertion order kept for determinism).
	buf      map[string][]types.Row
	bufVals  map[string][]any
	bufOrder []string
}

// Write appends one row, opening a part file on demand.
func (l *TableLoader) Write(row types.Row) error {
	if l.meta.Partitioning != nil {
		return l.bufferRow(row)
	}
	if l.w == nil {
		path := fmt.Sprintf("%s/part-%05d", l.meta.Path, l.part)
		w, err := fileformat.Create(l.d.fs, path, l.meta.Schema, l.meta.Format, &l.meta.Options)
		if err != nil {
			return err
		}
		l.w = w
		l.path = path
		l.d.noteTableWrite(l.meta.Name)
	}
	l.count++
	return l.w.Write(row)
}

// NextFile closes the current part file so subsequent writes open a new
// one; loaders use it to spread a table over multiple DFS files (and thus
// multiple map tasks). Layout-spec tables place files by partition and
// bucket instead, so it is a no-op for them.
func (l *TableLoader) NextFile() error {
	if l.w == nil {
		return nil
	}
	err := l.w.Close()
	if err == nil {
		// Record catalog stats for the sealed file (stats-collecting
		// formats only) before the version bump below, so a derivation at
		// the new version already sees this file.
		if src, ok := l.w.(fileformat.FileStatsSource); ok {
			l.d.meta.Stats().RecordFile(l.meta.Name, l.path, src.FileStatistics())
		}
	}
	l.w = nil
	l.part++
	l.d.noteTableWrite(l.meta.Name)
	return err
}

// noteTableWrite is the unified write-tracking path: every data write —
// bulk load or committed transaction — advances the table's snapshot
// version and invalidates every daemon cache tier (map-join builds by
// table name, chunk and metadata caches by warehouse path) exactly once,
// so no tier can serve pre-write contents or chunks of a replaced file
// that happens to reuse a path.
func (d *Driver) noteTableWrite(name string) {
	d.meta.BumpVersion(name)
	d.llapMu.Lock()
	daemon := d.llapDaemon
	d.llapMu.Unlock()
	if daemon != nil {
		path := ""
		if meta, err := d.meta.Table(name); err == nil {
			path = meta.Path
		}
		daemon.InvalidateTable(name, path)
	}
}

// Close finishes loading. Layout-spec tables materialize their buffered
// rows here: one directory per partition, one file per hash bucket, rows
// sorted per the spec, and divergent per-replica copies.
func (l *TableLoader) Close() error {
	if l.meta.Partitioning != nil {
		return l.flushPartitioned()
	}
	return l.NextFile()
}

// Rows returns how many rows were loaded.
func (l *TableLoader) Rows() int64 { return l.count }

// Result is a completed query: its output schema, rows, and execution
// accounting for the benchmark harness.
type Result struct {
	Schema *plan.Schema
	Rows   []types.Row
	Stats  ExecStats
}

// ExecStats aggregates what one query consumed; the paper's figures report
// elapsed time, cumulative CPU time (Fig 12b) and bytes read from the DFS
// (Fig 10b).
type ExecStats struct {
	Jobs           int64
	MapOnlyJobs    int
	Elapsed        time.Duration // wall time + launch overhead + simulated I/O
	WallTime       time.Duration
	CumulativeCPU  time.Duration
	LaunchOverhead time.Duration
	SimulatedIO    time.Duration
	DFSBytesRead   int64
	ShuffleBytes   int64
	ShuffleRecords int64
	// LLAP cache accounting (zero outside ModeLLAP). A fully cached query
	// has DFSBytesRead == 0 but still reports the data it consumed via
	// CacheBytesRead and TotalBytesRead.
	CacheHits      int64
	CacheMisses    int64
	CacheBytesRead int64 // decompressed bytes served from the chunk cache
	// TotalBytesRead is DFSBytesRead + CacheBytesRead: bytes the query
	// consumed regardless of where they came from. Always > 0 for a query
	// that scanned data, so per-byte ratios never divide by zero on the
	// zero-DFS warm path.
	TotalBytesRead int64
	// Fault-tolerance accounting (nonzero only under fault injection or
	// genuine failures): how many task attempts failed, how many retries
	// and speculative duplicates ran, the CPU burned by attempts that did
	// not commit, and the accounted retry backoff (included in Elapsed).
	FailedTasks      int64
	RetriedTasks     int64
	SpeculativeTasks int64
	WastedCPU        time.Duration
	RetryBackoff     time.Duration
}

// Explain parses, plans and optimizes a query, returning the operator DAG
// and compiled tasks without executing.
func (d *Driver) Explain(query string) (*plan.Plan, *compiler.Compiled, error) {
	conf := d.Config()
	prep, err := d.prepare(context.Background(), &conf, query)
	if err != nil {
		return nil, nil, err
	}
	if prep.ddl != nil {
		return nil, nil, fmt.Errorf("core: cannot explain DDL")
	}
	return prep.plan, prep.compiled, nil
}

// Prepared is a query that has been through the front end once (Figure 1:
// parse, semantic analysis, optimize, compile) under a configuration
// snapshot, ready for Execute. A Prepared is never modified, so one may be
// executed again — the server re-executes it when a preempted query
// requeues.
type Prepared struct {
	// ScanBytes is the admission and slow-query pre-trace estimate: each
	// base table once, at its largest scan — a pruned scan's SelBytes,
	// otherwise the table's primary-replica bytes (logicalTableBytes).
	ScanBytes int64

	query    string
	conf     Config
	stmt     *sql.SelectStmt      // nil for DDL
	ddl      *sql.CreateTableStmt // nil for queries
	plan     *plan.Plan
	compiled *compiler.Compiled
	// versions holds each scanned base table's metastore version, read
	// after planning; Execute prepares again when any has moved, since a
	// pruned scan's partition list is frozen in the plan.
	versions map[string]int64
	frontEnd time.Duration // Prepare's wall, charged to each execution's record
}

// Prepare runs the front end under a private configuration snapshot. The
// server prepares before admission, so a query that cannot plan never
// takes a slot; a failed Prepare still leaves one failed query-history
// record.
func (d *Driver) Prepare(ctx context.Context, conf Config, query string) (*Prepared, error) {
	start := time.Now()
	prep, err := d.prepare(ctx, &conf, query)
	wall := time.Since(start)
	if err != nil {
		lq := d.History().Begin(d.queryID.Add(1), query, conf.Engine.String(), sysdb.MetaFrom(ctx))
		lq.Finish(sysdb.Outcome{Err: err, Wall: wall}, nil)
		d.queryHist.Load().ObserveDuration(wall)
		return nil, err
	}
	prep.frontEnd = wall
	return prep, nil
}

// prepare runs the front-end phases — parse, plan, optimize, compile —
// each under its own trace span (no-ops when the context carries no
// tracer). DDL is only parsed.
func (d *Driver) prepare(ctx context.Context, conf *Config, query string) (*Prepared, error) {
	prep := &Prepared{query: query, conf: *conf}
	if ddl, isDDL, err := sql.MaybeDDL(query); isDDL {
		if err != nil {
			return nil, err
		}
		prep.ddl = ddl
		return prep, nil
	}
	_, sp := obs.StartSpan(ctx, "parse", obs.CatPhase)
	stmt, err := sql.Parse(query)
	sp.FinishErr(err)
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "plan", obs.CatPhase)
	p, err := plan.NewPlanner(sysCatalog{d}, &conf.Planner).Plan(stmt)
	sp.FinishErr(err)
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "optimize", obs.CatPhase)
	err = optimizer.Apply(p, d.optimizerEnv(conf))
	sp.FinishErr(err)
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "compile", obs.CatPhase)
	compiled, err := compiler.Compile(p)
	if err == nil {
		err = optimizer.PostCompile(p, compiled, d.optimizerEnv(conf))
	}
	sp.FinishErr(err)
	if err != nil {
		return nil, err
	}
	prep.stmt, prep.plan, prep.compiled = stmt, p, compiled
	prep.versions = map[string]int64{}
	perTable := map[string]int64{}
	p.Walk(func(n plan.Node) {
		ts, ok := n.(*plan.TableScan)
		if !ok {
			return
		}
		meta, err := d.meta.Table(ts.Table)
		if err != nil {
			return // temp or sys table: no DFS bytes at admission time
		}
		prep.versions[ts.Table] = d.meta.Version(ts.Table)
		bytes := d.logicalTableBytes(meta)
		if ts.Part != nil {
			bytes = ts.Part.SelBytes
		}
		perTable[ts.Table] = max(perTable[ts.Table], bytes)
	})
	for _, b := range perTable {
		prep.ScanBytes += b
	}
	return prep, nil
}

// current reports whether no table the prepared plan scans has been
// written since it was planned.
func (d *Driver) current(prep *Prepared) bool {
	for table, v := range prep.versions {
		if d.meta.Version(table) != v {
			return false
		}
	}
	return true
}

// logicalTableBytes is the table's primary-replica on-disk size: for
// layout-spec tables the partition registry's byte totals (divergent
// replica copies hold the same rows, so counting them would double every
// size estimate), for plain tables the directory total.
func (d *Driver) logicalTableBytes(meta *TableMeta) int64 {
	if meta.Partitioning == nil {
		return d.fs.TotalSize(meta.Path)
	}
	var total int64
	for _, p := range d.meta.Partitions(meta.Name) {
		total += p.Bytes
	}
	return total
}

func (d *Driver) optimizerEnv(conf *Config) *optimizer.Env {
	return &optimizer.Env{
		Options: conf.Opt,
		TableSize: func(name string) (int64, error) {
			meta, err := d.meta.Table(name)
			if err != nil {
				return 0, err
			}
			return d.logicalTableBytes(meta), nil
		},
		TableFormat: func(name string) (fileformat.Kind, bool) {
			meta, err := d.meta.Table(name)
			if err != nil {
				return 0, false
			}
			return meta.Format, true
		},
		TableStats: d.TableStats,
		TableLayout: func(name string) (*optimizer.TableLayout, bool) {
			meta, err := d.meta.Table(name)
			if err != nil || meta.Partitioning == nil {
				return nil, false
			}
			spec := meta.Partitioning
			tl := &optimizer.TableLayout{
				PartitionBy:    spec.PartitionBy,
				BucketBy:       spec.BucketBy,
				NumBuckets:     spec.NumBuckets,
				SortBy:         spec.SortBy,
				ReplicaLayouts: spec.ReplicaLayouts,
			}
			for _, pi := range d.meta.Partitions(name) {
				tl.Partitions = append(tl.Partitions, optimizer.PartitionMeta{
					Key:    pi.Key,
					Path:   pi.Path,
					Values: pi.Values,
					Rows:   pi.Rows,
					Bytes:  pi.Bytes,
				})
			}
			return tl, true
		},
	}
}

// TableStats returns the table-level statistics derived from the catalog's
// per-file stats over the table's currently visible file set — directory
// listing for regular tables, the committed manifest view for ACID tables.
// The derivation is cached keyed on the metastore version, which every
// write path (bulk load, ACID commit, compaction) bumps through
// noteTableWrite, so a commit invalidates and the next call re-derives.
// ok is false when any visible file lacks stats (non-ORC formats, unknown
// tables) — CBO callers fall back to heuristics.
func (d *Driver) TableStats(name string) (*stats.TableStats, bool) {
	meta, err := d.meta.Table(name)
	if err != nil {
		return nil, false
	}
	version := d.meta.Version(name)
	var files []string
	if mgr := d.txnManager(); mgr != nil && mgr.IsRegistered(name) {
		v, err := mgr.ResolveView(name, nil)
		if err != nil {
			return nil, false
		}
		files = v.Files
	} else {
		infos := d.fs.List(meta.Path)
		files = make([]string, 0, len(infos))
		for _, fi := range infos {
			if _, isRep := IsReplicaFile(fi.Name); isRep {
				// Divergent replica copies hold the same rows as the
				// primary and carry no catalog stats; counting them would
				// double every row count (or sink the derivation).
				continue
			}
			files = append(files, fi.Name)
		}
	}
	return d.meta.Stats().Derive(name, version, files)
}

// Run executes a query end to end under the driver's configuration.
func (d *Driver) Run(query string) (*Result, error) {
	return d.RunWith(context.Background(), d.Config(), query)
}

// RunWith executes a query end to end under an explicit configuration
// snapshot, so concurrent sessions with their own engine and optimizer
// settings share one driver without racing its configuration. Cancelling
// ctx stops in-flight tasks, admission waits and DFS reads (the call
// returns ctx.Err()); a tracer installed with obs.WithTracer receives
// query / phase / job / task / operator spans. An EXPLAIN or EXPLAIN
// ANALYZE prefix turns the result into a rendered (for ANALYZE, executed
// and profile-annotated) plan tree.
func (d *Driver) RunWith(ctx context.Context, conf Config, query string) (*Result, error) {
	res, _, _, err := d.runTracked(ctx, &conf, query, nil, false)
	return res, err
}

// RunProfiledWith is RunWith that also returns the optimized plan and
// per-operator profile — the programmatic face of EXPLAIN ANALYZE, used by
// the REPL's \profile mode and by tests that reconcile operator numbers
// against ExecStats.
func (d *Driver) RunProfiledWith(ctx context.Context, conf Config, query string) (*Result, *plan.Plan, *obs.PlanProfile, error) {
	res, p, prof, err := d.runTracked(ctx, &conf, query, nil, true)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, p, prof, nil
}

// Execute runs a prepared query under its configuration snapshot and
// returns the result with the plan it ran and, when profiled (or traced),
// the per-operator profile. If a table the plan scans has been written
// since Prepare, the query is prepared again first, so a stale partition
// list is never read. Each call is its own query-history record, charged
// with Prepare's front-end time.
func (d *Driver) Execute(ctx context.Context, prep *Prepared, profiled bool) (*Result, *plan.Plan, *obs.PlanProfile, error) {
	return d.runTracked(ctx, &prep.conf, prep.query, prep, profiled)
}

// runTracked is the one run path, under query-history accounting: it
// assigns the query id, opens the query span, decides tracing (a
// caller-installed tracer is adopted; otherwise the history's 1-in-N
// sampler may install one), runs the staged pipeline, and retires the
// query into the history with its final state and byte/row tallies. A nil
// prep (RunWith) runs the front end inside the query's span and record.
func (d *Driver) runTracked(ctx context.Context, conf *Config, query string, prep *Prepared, profiled bool) (*Result, *plan.Plan, *obs.PlanProfile, error) {
	qid := d.queryID.Add(1)
	h := d.History()
	meta := sysdb.MetaFrom(ctx)
	lq := h.Begin(qid, query, conf.Engine.String(), meta)
	if lq != nil {
		if t := obs.TracerFrom(ctx); t != nil {
			lq.AttachTrace(t, false)
		} else if h.SampleNext() {
			t := obs.NewTracer()
			ctx = obs.WithTracer(ctx, t)
			lq.AttachTrace(t, true)
		}
	}
	start := time.Now()
	ctx, qsp := obs.StartSpan(ctx, fmt.Sprintf("q%d", qid), obs.CatQuery)
	qsp.SetAttr("engine", conf.Engine.String())
	res, p, prof, err := d.runStaged(ctx, conf, qid, query, prep, profiled, lq, h)
	qsp.FinishErr(err)
	wall := time.Since(start)
	if prep != nil {
		wall += prep.frontEnd
	}
	d.queryHist.Load().ObserveDuration(wall)
	if lq != nil {
		o := sysdb.Outcome{Err: err, Wall: wall}
		if err != nil {
			if ctx.Err() != nil {
				o.Cancelled = true
			}
			if meta.Classify != nil {
				o.State = meta.Classify(err, context.Cause(ctx))
			}
		}
		if res != nil {
			o.ActualRows = int64(len(res.Rows))
			o.DFSBytes = res.Stats.DFSBytesRead
			o.CacheBytes = res.Stats.CacheBytesRead
			o.TotalBytes = res.Stats.TotalBytesRead
			o.ShuffleBytes = res.Stats.ShuffleBytes
			o.Retries = res.Stats.RetriedTasks
			o.FailedTasks = res.Stats.FailedTasks
		}
		lq.Finish(o, prof)
	}
	return res, p, prof, err
}

func (d *Driver) runStaged(ctx context.Context, conf *Config, qid int64, query string, prep *Prepared, profiled bool, lq *sysdb.LiveQuery, h *sysdb.History) (*Result, *plan.Plan, *obs.PlanProfile, error) {
	if prep == nil || !d.current(prep) {
		var err error
		if prep, err = d.prepare(ctx, conf, query); err != nil {
			return nil, nil, nil, err
		}
	}
	if prep.ddl != nil {
		res, err := d.executeDDL(conf, prep.ddl)
		return res, nil, nil, err
	}
	stmt, p := prep.stmt, prep.plan
	lq.SetPlan(planFingerprint(p), planEstRows(p))
	if lq != nil && !lq.Traced() && h.SlowCandidate(prep.ScanBytes) {
		// Slow-candidate pre-trace: the plan is about to scan enough bytes
		// to plausibly cross the slow threshold, so install a tracer now.
		// Parse/plan spans are already past — for a slow query the
		// execution is what matters; the capture is only retained if the
		// run actually proves slow.
		t := obs.NewTracer()
		ctx = obs.WithTracer(ctx, t)
		lq.AttachTrace(t, false)
	}
	if stmt.Explain && !stmt.Analyze {
		return explainResult(p), p, nil, nil
	}
	var prof *obs.PlanProfile
	if profiled || (stmt.Explain && stmt.Analyze) || obs.TracerFrom(ctx) != nil {
		// EXPLAIN ANALYZE needs the profile for its rendering; a traced
		// run needs it for per-operator spans (and the slow-query capture
		// retains it alongside the trace).
		prof = obs.NewPlanProfile()
	}
	res, err := d.execute(ctx, conf, qid, p, prep.compiled, prof)
	if err != nil {
		return nil, p, prof, err
	}
	if stmt.Explain && stmt.Analyze {
		return analyzeResult(p, prof, res), p, prof, nil
	}
	return res, p, prof, nil
}

// execute runs a compiled plan, assembling ExecStats from per-query
// counter scopes: the engine charges this query's jobs into a private
// mapred.Counters, DFS readers and writers mirror into a context-carried
// dfs.Stats, and scan tallies tee cache hits into a per-query IOTally.
// Scoped counting (not diffing shared cumulative counters) keeps the
// numbers exact when several queries run concurrently on one driver. With
// a profile, committed task attempts fold their per-operator numbers into
// it; with a tracer in ctx, operator spans are emitted from the folded
// profile after the run.
func (d *Driver) execute(ctx context.Context, conf *Config, qid int64, p *plan.Plan, compiled *compiler.Compiled, prof *obs.PlanProfile) (*Result, error) {
	// Transactional sessions read at one snapshot for the whole query: every
	// ACID scan resolves its file set against the same frontier, and the
	// snapshot pins compaction's cleaner away from the resolved files until
	// the query finishes. A caller-supplied snapshot (qcheck's explicit
	// frontiers) is honored as-is.
	if mgr := d.txnManager(); mgr != nil && txn.SnapshotFrom(ctx) == nil {
		snap := mgr.AcquireSnapshot()
		defer snap.Release()
		ctx = txn.WithSnapshot(ctx, snap)
	}
	qcounters := &mapred.Counters{}
	qstats := &dfs.Stats{}
	qtally := &obs.IOTally{}
	ctx = dfs.WithStatsScope(ctx, qstats)
	ctx = obs.WithQueryTally(ctx, qtally)
	ex := newExecutor(d, conf, compiled, qid, ctx, prof)
	ex.counters = qcounters
	defer ex.cleanup()

	start := time.Now()
	if err := ex.run(); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	engineDiff := qcounters.Snapshot()
	fsDiff := qstats.Snapshot()
	emitOpSpans(ctx, p, prof)

	var schema *plan.Schema
	for _, sink := range p.Sinks {
		if sink.Dest == "" {
			schema = sink.Schema()
		}
	}
	return &Result{
		Schema: schema,
		Rows:   ex.results,
		Stats: ExecStats{
			Jobs:             engineDiff.Jobs,
			MapOnlyJobs:      compiled.NumMapOnlyJobs(),
			Elapsed:          wall + engineDiff.LaunchOverhead + engineDiff.Backoff + fsDiff.IOTime,
			WallTime:         wall,
			CumulativeCPU:    engineDiff.CumulativeCPU(),
			LaunchOverhead:   engineDiff.LaunchOverhead,
			SimulatedIO:      fsDiff.IOTime,
			DFSBytesRead:     fsDiff.BytesRead,
			ShuffleBytes:     engineDiff.ShuffleBytes,
			ShuffleRecords:   engineDiff.ShuffleRecords,
			CacheHits:        qtally.CacheHits.Load(),
			CacheMisses:      qtally.CacheMisses.Load(),
			CacheBytesRead:   qtally.CacheBytes.Load(),
			TotalBytesRead:   fsDiff.BytesRead + qtally.CacheBytes.Load(),
			FailedTasks:      engineDiff.FailedTasks,
			RetriedTasks:     engineDiff.RetriedTasks,
			SpeculativeTasks: engineDiff.SpeculativeTasks,
			WastedCPU:        engineDiff.WastedCPU,
			RetryBackoff:     engineDiff.Backoff,
		},
	}, nil
}
