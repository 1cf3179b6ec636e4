package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/fileformat"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sysdb"
	"repro/internal/types"
)

// TestSysTablesAllEngines runs SELECTs over five sys.* tables on every
// engine mode: virtual tables go through the same planner/compiler/
// executor pipeline as base tables, so each mode must serve them.
func TestSysTablesAllEngines(t *testing.T) {
	for _, mode := range []EngineMode{ModeMapReduce, ModeTez, ModeLLAP} {
		t.Run(mode.String(), func(t *testing.T) {
			d := newTestDriver(t, fileformat.ORC, Config{
				Engine:  mode,
				Opt:     optimizer.Options{PredicatePushdown: true},
				History: sysdb.Config{SampleEvery: -1},
			})
			defer d.Close()
			d.Registry() // install the query-latency histogram up front

			// Seed history with real queries.
			runQ(t, d, "SELECT count(*) FROM sales")
			runQ(t, d, "SELECT item_id, sum(qty) FROM sales GROUP BY item_id")

			// sys.queries: both seeded queries present with row counts.
			res := runQ(t, d, "SELECT qid, query, state, actual_rows FROM sys.queries ORDER BY qid")
			if len(res.Rows) != 2 {
				t.Fatalf("sys.queries rows = %d, want 2", len(res.Rows))
			}
			if res.Rows[0][2] != "ok" || res.Rows[0][3] != int64(1) {
				t.Fatalf("first record = %v", res.Rows[0])
			}
			if res.Rows[1][3] != int64(10) {
				t.Fatalf("group-by record = %v", res.Rows[1])
			}

			// Predicates and ORDER BY work over the virtual rows.
			res = runQ(t, d, "SELECT qid, wall_ms FROM sys.queries WHERE actual_rows > 5 ORDER BY wall_ms DESC")
			if len(res.Rows) != 1 {
				t.Fatalf("filtered sys.queries rows = %d, want 1", len(res.Rows))
			}

			// sys.live_queries: the scanning query itself is in flight.
			res = runQ(t, d, "SELECT qid, engine FROM sys.live_queries")
			if len(res.Rows) != 1 || res.Rows[0][1] != mode.String() {
				t.Fatalf("sys.live_queries = %v", res.Rows)
			}

			// sys.metrics: registry rows, including dfs bytes and the
			// per-query latency histogram with interpolated quantiles.
			res = runQ(t, d, "SELECT name, kind, value, p99 FROM sys.metrics WHERE name = 'core.QueryNanos'")
			if len(res.Rows) != 1 || res.Rows[0][1] != "histogram" {
				t.Fatalf("sys.metrics core.QueryNanos = %v", res.Rows)
			}
			if res.Rows[0][3].(int64) <= 0 {
				t.Fatal("interpolated p99 missing from sys.metrics")
			}
			res = runQ(t, d, "SELECT count(*) FROM sys.metrics WHERE kind = 'counter'")
			if res.Rows[0][0].(int64) <= 0 {
				t.Fatal("no counters in sys.metrics")
			}

			// sys.caches: chunk tier appears once the daemon exists.
			res = runQ(t, d, "SELECT tier, hits FROM sys.caches")
			if mode == ModeLLAP {
				found := false
				for _, r := range res.Rows {
					if r[0] == "chunk" {
						found = true
					}
				}
				if !found {
					t.Fatalf("sys.caches missing chunk tier: %v", res.Rows)
				}
			} else if len(res.Rows) != 0 {
				t.Fatalf("sys.caches should be empty without a daemon: %v", res.Rows)
			}

			// sys.txns: empty (no ACID use), but queryable.
			res = runQ(t, d, "SELECT count(*) FROM sys.txns")
			if res.Rows[0][0] != int64(0) {
				t.Fatalf("sys.txns = %v", res.Rows)
			}

			// Joining a sys table against itself sees one snapshot.
			res = runQ(t, d, "SELECT a.qid FROM sys.queries a JOIN sys.queries b ON a.qid = b.qid")
			if len(res.Rows) < 2 {
				t.Fatalf("sys self-join rows = %d", len(res.Rows))
			}
		})
	}
}

// TestSysQueriesReconcilesWithExecStats pins the observability-must-not-
// lie invariant: the history record for a query reports exactly the row
// count and byte tallies its Result did.
func TestSysQueriesReconcilesWithExecStats(t *testing.T) {
	d := newTestDriver(t, fileformat.ORC, Config{
		Engine:  ModeLLAP,
		History: sysdb.Config{SampleEvery: -1},
	})
	defer d.Close()

	for i := 0; i < 2; i++ { // second pass hits the chunk cache
		res := runQ(t, d, "SELECT item_id, qty FROM sales WHERE qty >= 3")
		rec, ok := d.History().Last()
		if !ok {
			t.Fatal("no history record")
		}
		if rec.ActualRows != int64(len(res.Rows)) {
			t.Fatalf("rows: history %d vs result %d", rec.ActualRows, len(res.Rows))
		}
		if rec.DFSBytes != res.Stats.DFSBytesRead ||
			rec.CacheBytes != res.Stats.CacheBytesRead ||
			rec.TotalBytes != res.Stats.TotalBytesRead {
			t.Fatalf("bytes: history %d/%d/%d vs stats %d/%d/%d",
				rec.DFSBytes, rec.CacheBytes, rec.TotalBytes,
				res.Stats.DFSBytesRead, res.Stats.CacheBytesRead, res.Stats.TotalBytesRead)
		}
		if rec.State != "ok" || rec.Engine != "llap" {
			t.Fatalf("record = %+v", rec)
		}
		// Dogfood: read the same numbers back through SQL.
		sel := runQ(t, d, "SELECT qid, actual_rows, bytes_total FROM sys.queries ORDER BY qid DESC LIMIT 1")
		// The sys scan snapshot was taken before its own record existed,
		// so the newest record it sees is the data query's.
		if sel.Rows[0][1] != rec.ActualRows || sel.Rows[0][2] != rec.TotalBytes {
			t.Fatalf("SQL view %v vs record %+v", sel.Rows[0], rec)
		}
	}
}

// TestSlowQueryCapture drives a query over a tiny byte threshold and
// retrieves its Chrome trace and profile from the capture store.
func TestSlowQueryCapture(t *testing.T) {
	d := newTestDriver(t, fileformat.ORC, Config{
		History: sysdb.Config{
			SampleEvery: -1,
			SlowWall:    -1,  // bytes threshold only
			SlowBytes:   256, // any real scan crosses this
		},
	})
	defer d.Close()

	res := runQ(t, d, "SELECT count(*) FROM sales")
	if res.Stats.TotalBytesRead < 256 {
		t.Fatalf("scan read %d bytes; threshold test needs more", res.Stats.TotalBytesRead)
	}
	rec, ok := d.History().Last()
	if !ok || !rec.Traced {
		t.Fatalf("slow query not captured: %+v", rec)
	}
	cap, ok := d.History().Capture(rec.ID)
	if !ok || cap.Tracer == nil {
		t.Fatal("capture missing tracer")
	}
	if cap.Profile == nil {
		t.Fatal("capture missing profile")
	}
	var buf bytes.Buffer
	if err := cap.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "traceEvents") || !strings.Contains(out, "job") {
		t.Fatalf("chrome trace missing spans: %.200s", out)
	}

	// A metadata-only query stays under the byte threshold: no capture.
	runQ(t, d, "SELECT count(*) FROM sys.queries")
	rec, _ = d.History().Last()
	if rec.Traced {
		t.Fatal("sys scan must not be captured by the byte threshold")
	}
}

// TestHistorySampling: with SampleEvery=1 every query is traced and
// captured even when fast; with sampling disabled none are.
func TestHistorySampling(t *testing.T) {
	d := newTestDriver(t, fileformat.Sequence, Config{
		History: sysdb.Config{SampleEvery: 1, SlowWall: -1, SlowBytes: -1},
	})
	defer d.Close()
	runQ(t, d, "SELECT count(*) FROM items")
	rec, _ := d.History().Last()
	if !rec.Sampled || !rec.Traced {
		t.Fatalf("SampleEvery=1 record = %+v", rec)
	}
	if _, ok := d.History().Capture(rec.ID); !ok {
		t.Fatal("sampled capture missing")
	}
}

// TestHistoryDisabledIsInert: a Disabled config records nothing and the
// sys tables that depend on it are empty (but still queryable).
func TestHistoryDisabledIsInert(t *testing.T) {
	d := newTestDriver(t, fileformat.Sequence, Config{
		History: sysdb.Config{Disabled: true},
	})
	defer d.Close()
	runQ(t, d, "SELECT count(*) FROM items")
	if d.History().Total() != 0 {
		t.Fatal("disabled history recorded a query")
	}
	res := runQ(t, d, "SELECT count(*) FROM sys.queries")
	if res.Rows[0][0] != int64(0) {
		t.Fatalf("sys.queries on disabled history = %v", res.Rows)
	}
}

// TestCallerTracerAdopted: a tracer installed by the caller (the REPL's
// \trace) is adopted for capture bookkeeping and spans still arrive.
func TestCallerTracerAdopted(t *testing.T) {
	d := newTestDriver(t, fileformat.Sequence, Config{
		History: sysdb.Config{SampleEvery: -1, SlowWall: time.Nanosecond},
	})
	defer d.Close()
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := d.RunWith(ctx, d.Config(), "SELECT count(*) FROM items"); err != nil {
		t.Fatal(err)
	}
	rec, _ := d.History().Last()
	if !rec.Traced || rec.Sampled {
		t.Fatalf("caller-traced record = %+v", rec)
	}
	cap, ok := d.History().Capture(rec.ID)
	if !ok || cap.Tracer != tr {
		t.Fatal("caller tracer not the captured one")
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("caller tracer received no spans")
	}
}

// TestRegisterSysTable: subsystem-registered tables resolve, shadow
// nothing after unregistration, and errors for unknown sys names surface.
func TestRegisterSysTable(t *testing.T) {
	d := newTestDriver(t, fileformat.Sequence, Config{})
	defer d.Close()
	d.RegisterSysTable(sysdb.TableDef{
		Name:   "sys.widgets",
		Schema: types.NewSchema(types.Col("id", types.Primitive(types.Long))),
		Rows:   func() []types.Row { return []types.Row{{int64(1)}, {int64(2)}} },
	})
	res := runQ(t, d, "SELECT id FROM sys.widgets ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[1][0] != int64(2) {
		t.Fatalf("sys.widgets = %v", res.Rows)
	}
	names := d.SysTables()
	found := false
	for _, n := range names {
		if n == "sys.widgets" {
			found = true
		}
	}
	if !found || len(names) < 6 {
		t.Fatalf("SysTables() = %v", names)
	}
	d.UnregisterSysTable("sys.widgets")
	if _, err := d.Run("SELECT id FROM sys.widgets"); err == nil {
		t.Fatal("unregistered sys table still resolves")
	}
	if _, err := d.Run("SELECT x FROM sys.nope"); err == nil {
		t.Fatal("unknown sys table should error")
	}
}

// TestHistoryStatsInRegistry: the history's own counters surface under
// the sysdb prefix.
func TestHistoryStatsInRegistry(t *testing.T) {
	d := newTestDriver(t, fileformat.Sequence, Config{History: sysdb.Config{SampleEvery: -1}})
	defer d.Close()
	runQ(t, d, "SELECT count(*) FROM items")
	if got := d.Registry().Snapshot().Get("sysdb.Recorded"); got != 1 {
		t.Fatalf("sysdb.Recorded = %d, want 1", got)
	}
}

// TestSlowPreTraceChargesPrimaryReplica: the slow-candidate pre-trace reads
// the one scan-byte estimate, which charges a REPLICATED BY table its
// primary-replica bytes — not the divergent `.rN` copies beside them. A
// threshold between the primary bytes and the on-disk total must not
// pre-trace; one at the primary bytes must.
func TestSlowPreTraceChargesPrimaryReplica(t *testing.T) {
	traced := func(threshold func(primary, onDisk int64) int64) bool {
		t.Helper()
		fs := dfs.New(dfs.WithBlockSize(1 << 20))
		d := NewDriver(fs, mapred.NewEngine(mapred.Config{Slots: 2}), Config{})
		defer d.Close()
		schema := types.NewSchema(
			types.Col("k", types.Primitive(types.Long)),
			types.Col("v", types.Primitive(types.Long)),
		)
		l, err := d.CreateTableSpec("logs", schema, fileformat.ORC, nil, &PartitionSpec{ReplicaLayouts: []string{"k", "v"}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if err := l.Write(types.Row{int64(i % 13), int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		meta, _ := d.meta.Table("logs")
		primary, onDisk := d.logicalTableBytes(meta), fs.TotalSize(meta.Path)
		if primary <= 0 || onDisk <= primary {
			t.Fatalf("fixture: primary %d bytes of %d on disk; want replica copies on disk", primary, onDisk)
		}
		// The history is built on the first query, so this is its config.
		conf := d.Config()
		conf.History = sysdb.Config{SampleEvery: -1, SlowWall: time.Nanosecond, SlowBytes: threshold(primary, onDisk)}
		d.SetConfig(conf)
		runQ(t, d, "SELECT COUNT(*) FROM logs")
		rec, ok := d.History().Last()
		if !ok {
			t.Fatal("no history record")
		}
		// SlowWall of 1ns retains every traced run, so Traced says whether
		// the pre-trace installed a tracer.
		return rec.Traced
	}
	if traced(func(primary, onDisk int64) int64 { return (primary + onDisk) / 2 }) {
		t.Error("pre-traced a query whose primary bytes are under SlowBytes: replica copies were counted")
	}
	if !traced(func(primary, onDisk int64) int64 { return primary }) {
		t.Error("query at SlowBytes was not pre-traced")
	}
}
