// hive is an interactive SQL shell over the reproduction: it loads one of
// the paper's synthetic datasets into an in-process warehouse and evaluates
// queries with the configured advancements, printing results and the
// execution statistics the paper's figures report (jobs, elapsed,
// cumulative CPU, DFS bytes read).
//
// Usage:
//
//	hive -dataset tpch -format orc -optimize all
//	> SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fileformat"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/txn"
	"repro/internal/workload"
)

func main() {
	dataset := flag.String("dataset", "tpch", "dataset to load: tpch|tpcds|ssdb|all")
	format := flag.String("format", "ORC", "storage format: TEXTFILE|SEQUENCEFILE|RCFILE|ORC")
	codec := flag.String("compress", "NONE", "codec: NONE|ZLIB|SNAPPY")
	optimize := flag.String("optimize", "all", "optimizations: all|none|ppd|mapjoin|correlation|vectorize|cbo (comma-separated)")
	scale := flag.Float64("scale", 0.3, "dataset scale factor")
	engine := flag.String("engine", "mapreduce", "execution engine: mapreduce|tez|llap")
	serve := flag.Bool("serve", false,
		"route queries through the multi-tenant query server: sessions, resource pools, admission control (\\sessions, \\pool, \\pools)")
	httpAddr := flag.String("http", "",
		"with -serve: listen address for the HTTP admin plane, e.g. :8080 (Prometheus /metrics, /debug/queries, /debug/trace/<qid>, /healthz, /readyz)")
	flag.Parse()
	if *httpAddr != "" && !*serve {
		fatalIf(fmt.Errorf("-http requires -serve (the admin plane reports server state)"))
	}

	kind, err := fileformat.ParseKind(strings.ToUpper(*format))
	fatalIf(err)
	ck, err := compress.ParseKind(strings.ToUpper(*codec))
	fatalIf(err)
	opt, err := parseOpt(*optimize)
	fatalIf(err)

	var tables []bench.TableSpec
	switch *dataset {
	case "tpch":
		tables = bench.TPCHTables()
	case "tpcds":
		tables = bench.TPCDSTables()
	case "ssdb":
		tables = bench.SSDBTables()
	case "all":
		tables = append(append(bench.TPCHTables(), bench.TPCDSTables()...), bench.SSDBTables()...)
	default:
		fatalIf(fmt.Errorf("unknown dataset %q", *dataset))
	}

	sc := workload.DefaultScale()
	sc.Lineitem = int(float64(sc.Lineitem) * *scale)
	sc.Orders = int(float64(sc.Orders) * *scale)
	sc.StoreSales = int(float64(sc.StoreSales) * *scale)
	sc.WebSales = int(float64(sc.WebSales) * *scale)

	fmt.Printf("loading %s as %s (%s, %s engine)...\n", *dataset, kind, ck, *engine)
	env, _, err := bench.NewEnv(bench.EnvConfig{
		Scale:       sc,
		Format:      kind,
		Compression: ck,
		Opt:         opt,
		RowsPerFile: 25000,
		Tez:         *engine == "tez",
		LLAP:        *engine == "llap",
	}, tables)
	fatalIf(err)

	fmt.Println("tables:", strings.Join(env.Driver.Metastore().Names(), ", "))

	// In -serve mode every statement goes through the multi-tenant server:
	// the shell holds one current session (switchable with \session) and
	// each query passes workload-manager admission for its session's pool.
	var srv *server.Server
	var sess *server.Session
	if *serve {
		srv = server.New(env.Driver, server.ManagerConfig{
			Pools: []server.PoolConfig{
				{Name: "interactive", Slots: 2, Interactive: true},
				{Name: "batch", Slots: 2, Preemptable: true},
			},
		})
		defer srv.Close()
		sess, err = srv.OpenSession("")
		fatalIf(err)
		fmt.Printf("server mode: session %s in pool %q (\\sessions lists, \\pools shows admission stats)\n",
			sess.ID(), sess.Pool())
		if *httpAddr != "" {
			hs := &http.Server{Addr: *httpAddr, Handler: srv.Handler()}
			go func() {
				if err := server.Serve(context.Background(), hs); err != nil {
					fmt.Fprintln(os.Stderr, "hive: admin plane:", err)
				}
			}()
			defer hs.Close()
			fmt.Printf("admin plane on %s: /metrics /debug/queries /debug/trace/<qid> /healthz /readyz\n", *httpAddr)
		}
	}

	fmt.Println(`enter a SELECT statement on one line ("\help" lists commands; EXPLAIN ANALYZE <sql> profiles a query)`)
	var timeout time.Duration
	profile := false
	tracePath := ""
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("> ")
		if !scanner.Scan() {
			return
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "--"):
			continue
		case line == `\q` || line == "quit" || line == "exit":
			return
		case line == `\help` || line == `\h`:
			fmt.Print(`commands:
  \q                      quit
  \help                   this help
  \explain <sql>          show the optimized plan and job count without running
  \profile on|off         append the EXPLAIN ANALYZE tree (per-operator rows,
                          wall time, DFS-vs-cache bytes) after every query
  \trace <path>|off       record each query as a Chrome trace_event file at
                          <path> (open in chrome://tracing or Perfetto);
                          spans cover phases, jobs, task attempts, operators
  \cache                  LLAP cache and daemon pool statistics (-engine llap)
  \txns                   ACID transaction state: open txns, high watermark,
                          per-table base/delta manifests, compaction counters
  \compact <table> [major] run a minor (merge deltas) or major (fold into a
                          new base) compaction on an ACID table now
  \timeout <dur>|off      bound query wall time (e.g. \timeout 30s)
  \history [N]            last N query-history records (default 10): state,
                          wall time, rows, bytes — same data as sys.queries
  \sys                    list the queryable sys.* virtual tables and their
                          columns (e.g. SELECT qid, wall_ms FROM sys.queries)
server mode (-serve):
  \sessions               list open sessions (current one starred)
  \session new [pool]     open a session (in pool) and switch to it
  \session <id>           switch to an open session
  \pool <name>            move the current session to a resource pool
  \pools                  per-pool admission stats (running, queued, preempted)
statements: SELECT ...; EXPLAIN <select>; EXPLAIN ANALYZE <select>
`)
		case strings.HasPrefix(line, `\profile`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\profile`))
			switch arg {
			case "on":
				profile = true
				fmt.Println("profiling on: each query prints its annotated plan")
			case "off":
				profile = false
				fmt.Println("profiling off")
			default:
				fmt.Println(`usage: \profile on|off`)
			}
		case strings.HasPrefix(line, `\trace`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\trace`))
			switch arg {
			case "", "off":
				tracePath = ""
				fmt.Println("tracing off")
			default:
				tracePath = arg
				fmt.Printf("tracing on: each query overwrites %s (open in chrome://tracing or Perfetto)\n", tracePath)
			}
		case line == `\cache`:
			if *engine != "llap" {
				fmt.Println("no cache: start with -engine llap")
				continue
			}
			daemon := env.Driver.LLAP()
			cs := daemon.ChunkCache().Snapshot()
			ds := daemon.Snapshot()
			hr := 0.0
			if cs.Hits+cs.Misses > 0 {
				hr = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
			}
			fmt.Printf("chunk cache: %d entries, %d bytes cached (budget %d)\n",
				cs.Entries, cs.BytesCached, daemon.Config().CacheBytes)
			fmt.Printf("  hits %d, misses %d (%.1f%% hit rate); %d inserts, %d evictions, %d rejected\n",
				cs.Hits, cs.Misses, 100*hr, cs.Inserts, cs.Evictions, cs.Rejected)
			fmt.Printf("  %d decompressed bytes served from memory\n", cs.BytesSaved)
			fmt.Printf("meta cache: %d entries (%d hits, %d misses)\n",
				daemon.MetaCache().Len(), daemon.MetaCache().Hits(), daemon.MetaCache().Misses())
			fmt.Printf("daemon pool: %d workers; %d tasks submitted, %d executed, %d rejected, peak concurrency %d\n",
				daemon.Config().Workers, ds.Submitted, ds.Executed, ds.Rejected, ds.MaxConcurrent)
		case line == `\txns`:
			m := env.Driver.Txns()
			fmt.Printf("high watermark: txn %d; %d active snapshot(s); %d file(s) pending clean\n",
				m.HighWater(), m.ActiveSnapshots(), m.PendingCleanFiles())
			open := m.OpenTxns()
			if len(open) == 0 {
				fmt.Println("open transactions: none")
			} else {
				fmt.Printf("open transactions: %d\n", len(open))
				for _, ts := range open {
					fmt.Printf("  txn %d (%s): %d pending row(s) in %s\n",
						ts.ID, ts.State, ts.Rows, strings.Join(ts.Tables, ", "))
				}
			}
			tables := m.Tables()
			if len(tables) == 0 {
				fmt.Println("ACID tables: none (CreateACIDTable registers one; plain tables stay non-transactional)")
			}
			for _, name := range tables {
				man, err := m.ManifestOf(name)
				if err != nil {
					fmt.Printf("  %s: manifest error: %v\n", name, err)
					continue
				}
				var deltaFiles int
				var deltaRows int64
				for _, d := range man.Deltas {
					deltaFiles += len(d.Files)
					deltaRows += d.Rows
				}
				fmt.Printf("  %s: v%d, base %d file(s)/%d row(s) (through txn %d), %d delta(s) = %d file(s)/%d row(s)\n",
					name, man.Version, len(man.Base), man.BaseRows, man.BaseTxn,
					len(man.Deltas), deltaFiles, deltaRows)
			}
			st := m.Snapshot()
			fmt.Printf("txns: %d begun, %d committed, %d aborted; compactions: %d minor, %d major (%d lost race, %d crashed); %d file(s) cleaned, %d orphan(s) recovered\n",
				st.Begun, st.Committed, st.Aborted,
				st.CompactionsMinor, st.CompactionsMajor, st.CompactionsLost, st.CompactionCrashes,
				st.FilesRemoved, st.OrphansRemoved)
		case strings.HasPrefix(line, `\compact`):
			args := strings.Fields(strings.TrimPrefix(line, `\compact`))
			if len(args) == 0 || len(args) > 2 || (len(args) == 2 && args[1] != "major" && args[1] != "minor") {
				fmt.Println(`usage: \compact <table> [major|minor]`)
				continue
			}
			m := env.Driver.Txns()
			if !m.IsRegistered(args[0]) {
				fmt.Printf("%s is not an ACID table (\\txns lists them)\n", args[0])
				continue
			}
			res, err := m.Compact(args[0], txn.CompactOptions{Major: len(args) == 2 && args[1] == "major"})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			switch {
			case res.LostRace:
				fmt.Printf("%s compaction lost the publish race after %d attempt(s); another compactor got there first\n",
					res.Kind, res.Attempts)
			case !res.Compacted:
				fmt.Printf("nothing to do: not enough deltas below the compaction ceiling (txn %d)\n", res.Ceiling)
			default:
				fmt.Printf("%s compaction merged %d delta(s) (%d file(s), %d row(s)) into %d file(s), up through txn %d\n",
					res.Kind, res.InputDeltas, res.InputFiles, res.Rows, len(res.OutputFiles), res.Ceiling)
			}
		case line == `\history` || strings.HasPrefix(line, `\history `):
			n := 10
			if arg := strings.TrimSpace(strings.TrimPrefix(line, `\history`)); arg != "" {
				if v, err := strconv.Atoi(arg); err != nil || v <= 0 {
					fmt.Println(`usage: \history [N]`)
					continue
				} else {
					n = v
				}
			}
			hist := env.Driver.History()
			if !hist.Enabled() {
				fmt.Println("query history is disabled in this session's configuration")
				continue
			}
			recs := hist.Tail(n)
			if len(recs) == 0 {
				fmt.Println("no queries recorded yet")
				continue
			}
			fmt.Printf("%-5s %-10s %-9s %9s %8s %12s %6s %s\n",
				"qid", "state", "engine", "wall", "rows", "bytes", "trace", "query")
			for _, r := range recs {
				traced := ""
				if r.Traced {
					traced = "yes"
				}
				q := r.Query
				if len(q) > 48 {
					q = q[:45] + "..."
				}
				fmt.Printf("%-5d %-10s %-9s %9s %8d %12d %6s %s\n",
					r.ID, r.State, r.Engine, r.Wall.Round(time.Millisecond),
					r.ActualRows, r.TotalBytes, traced, q)
			}
			fmt.Printf("%d recorded in total; sys.queries holds the same data for SQL (\\sys lists tables)\n", hist.Total())
		case line == `\sys`:
			for _, name := range env.Driver.SysTables() {
				sch, err := env.Driver.SysTableSchema(name)
				if err != nil {
					fmt.Printf("%s: %v\n", name, err)
					continue
				}
				cols := make([]string, len(sch.Columns))
				for i, c := range sch.Columns {
					cols[i] = c.Name
				}
				fmt.Printf("%-16s %s\n", name, strings.Join(cols, ", "))
			}
			fmt.Println(`query them like any table: SELECT qid, wall_ms FROM sys.queries WHERE state = 'ok'`)
		case line == `\pools`:
			if srv == nil {
				fmt.Println("no server: start with -serve")
				continue
			}
			fmt.Printf("%-14s %7s %7s %7s %9s %9s %9s %10s\n",
				"pool", "slots", "running", "queued", "admitted", "rejected", "timedout", "preempted")
			for _, st := range srv.Manager().Stats() {
				name := st.Name
				if st.Interactive {
					name += "*"
				}
				fmt.Printf("%-14s %7d %7d %7d %9d %9d %9d %10d\n",
					name, st.Slots, st.Running, st.Queued, st.Admitted, st.Rejected, st.TimedOut, st.Preempted)
			}
			fmt.Println("(* = interactive pool: dispatched first, may preempt batch)")
		case strings.HasPrefix(line, `\pool `):
			if srv == nil {
				fmt.Println("no server: start with -serve")
				continue
			}
			name := strings.TrimSpace(strings.TrimPrefix(line, `\pool `))
			if err := sess.SetPool(name); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("session %s now in pool %q\n", sess.ID(), name)
		case line == `\sessions`:
			if srv == nil {
				fmt.Println("no server: start with -serve")
				continue
			}
			for _, s := range srv.Sessions() {
				marker := " "
				if s.ID() == sess.ID() {
					marker = "*"
				}
				fmt.Printf("%s %-6s pool=%-14s engine=%-10s queries=%d preemptions=%d\n",
					marker, s.ID(), s.Pool(), s.Config().Engine, s.Queries(), s.Preemptions())
			}
		case strings.HasPrefix(line, `\session `):
			if srv == nil {
				fmt.Println("no server: start with -serve")
				continue
			}
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\session `))
			if arg == "new" || strings.HasPrefix(arg, "new ") {
				pool := strings.TrimSpace(strings.TrimPrefix(arg, "new"))
				ns, err := srv.OpenSession(pool)
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				sess = ns
				fmt.Printf("session %s opened in pool %q (now current)\n", sess.ID(), sess.Pool())
				continue
			}
			ns, ok := srv.Session(arg)
			if !ok {
				fmt.Printf("no session %q (\\sessions lists them)\n", arg)
				continue
			}
			sess = ns
			fmt.Printf("session %s is now current (pool %q)\n", sess.ID(), sess.Pool())
		case strings.HasPrefix(line, `\timeout`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\timeout`))
			if arg == "" || arg == "off" {
				timeout = 0
				fmt.Println("timeout off")
				continue
			}
			d, err := time.ParseDuration(arg)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			timeout = d
			fmt.Printf("queries now time out after %s\n", timeout)
		case strings.HasPrefix(line, `\explain `):
			q := strings.TrimPrefix(line, `\explain `)
			_, compiled, err := env.Driver.Explain(q)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			// Render through the EXPLAIN statement rather than plan.String()
			// so CBO cardinality estimates ([est=N]) appear in the tree.
			res, err := env.Driver.Run("EXPLAIN " + q)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, r := range res.Rows {
				fmt.Println(r[0])
			}
			fmt.Printf("jobs: %d (%d map-only)\n", compiled.NumJobs(), compiled.NumMapOnlyJobs())
		default:
			ctx := context.Background()
			cancel := context.CancelFunc(func() {})
			if timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, timeout)
			}
			var tracer *obs.Tracer
			if tracePath != "" {
				tracer = obs.NewTracer()
				ctx = obs.WithTracer(ctx, tracer)
			}
			var res *core.Result
			var err error
			if profile {
				var p *plan.Plan
				var prof *obs.PlanProfile
				if srv != nil {
					res, p, prof, err = sess.RunProfiled(ctx, line)
				} else {
					res, p, prof, err = env.Driver.RunProfiledWith(ctx, env.Driver.Config(), line)
				}
				if err == nil {
					for _, l := range core.RenderAnalyzedPlan(p, prof, res) {
						fmt.Println(l)
					}
				}
			} else if srv != nil {
				res, err = sess.Run(ctx, line)
			} else {
				res, err = env.Driver.RunWith(ctx, env.Driver.Config(), line)
			}
			cancel()
			if tracer != nil {
				if werr := tracer.WriteFile(tracePath); werr != nil {
					fmt.Println("trace write error:", werr)
				} else {
					fmt.Printf("trace written to %s\n", tracePath)
				}
			}
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			limit := len(res.Rows)
			if limit > 50 {
				limit = 50
			}
			for _, row := range res.Rows[:limit] {
				parts := make([]string, len(row))
				for i, v := range row {
					if v == nil {
						parts[i] = "NULL"
					} else {
						parts[i] = fmt.Sprint(v)
					}
				}
				fmt.Println(strings.Join(parts, "\t"))
			}
			if len(res.Rows) > limit {
				fmt.Printf("... (%d more rows)\n", len(res.Rows)-limit)
			}
			s := res.Stats
			fmt.Printf("%d row(s); %d job(s); elapsed %s; cumulative CPU %s; %d DFS bytes read; %d shuffle bytes\n",
				len(res.Rows), s.Jobs, s.Elapsed.Round(1000), s.CumulativeCPU.Round(1000), s.DFSBytesRead, s.ShuffleBytes)
			if s.CacheHits+s.CacheMisses > 0 {
				fmt.Printf("cache: %d hits, %d misses (%.1f%%); %d bytes from cache of %d total\n",
					s.CacheHits, s.CacheMisses,
					100*float64(s.CacheHits)/float64(s.CacheHits+s.CacheMisses),
					s.CacheBytesRead, s.TotalBytesRead)
			}
		}
	}
}

func parseOpt(s string) (optimizer.Options, error) {
	var opt optimizer.Options
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "all":
			opt = optimizer.AllOn()
		case "none", "":
		case "ppd":
			opt.PredicatePushdown = true
		case "mapjoin":
			opt.MapJoinConversion = true
			opt.MapJoinThreshold = optimizer.DefaultMapJoinThreshold
			opt.MergeMapOnlyJobs = true
		case "correlation":
			opt.Correlation = true
		case "vectorize":
			opt.Vectorize = true
		case "cbo":
			opt.CBO = true
		default:
			return opt, fmt.Errorf("unknown optimization %q", part)
		}
	}
	return opt, nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hive:", err)
		os.Exit(1)
	}
}
