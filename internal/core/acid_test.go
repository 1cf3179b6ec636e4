package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dfs"
	"repro/internal/fileformat"
	"repro/internal/mapred"
	"repro/internal/optimizer"
	"repro/internal/txn"
	"repro/internal/types"
)

// newACIDDriver builds a driver with one ACID fact table "events" holding
// rows committed by three transactions, auto-compaction disabled so tests
// control compaction timing.
func newACIDDriver(t *testing.T, conf Config) *Driver {
	t.Helper()
	conf.AutoCompactDeltas = -1
	fs := dfs.New(dfs.WithBlockSize(1 << 20))
	engine := mapred.NewEngine(mapred.Config{Slots: 4})
	d := NewDriver(fs, engine, conf)
	t.Cleanup(d.Close)

	schema := types.NewSchema(
		types.Col("k", types.Primitive(types.Long)),
		types.Col("v", types.Primitive(types.Long)),
	)
	if err := d.CreateACIDTable("events", schema, nil); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		l, err := d.LoadACID("events")
		if err != nil {
			t.Fatal(err)
		}
		for i := b * 100; i < (b+1)*100; i++ {
			if err := l.Write(types.Row{int64(i), int64(i % 7)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func countAndSum(t *testing.T, d *Driver, query string) (int64, int64) {
	t.Helper()
	res, err := d.Run(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%s: %d rows", query, len(res.Rows))
	}
	return res.Rows[0][0].(int64), res.Rows[0][1].(int64)
}

func TestACIDTableQueriesAcrossEngines(t *testing.T) {
	for _, mode := range []EngineMode{ModeMapReduce, ModeTez, ModeLLAP} {
		t.Run(mode.String(), func(t *testing.T) {
			d := newACIDDriver(t, Config{Engine: mode})
			n, sum := countAndSum(t, d, "SELECT COUNT(*), SUM(k) FROM events")
			if n != 300 || sum != 300*299/2 {
				t.Fatalf("count=%d sum=%d, want 300, %d", n, sum, 300*299/2)
			}
		})
	}
}

func TestACIDQueryIgnoresUncommittedAndAborted(t *testing.T) {
	d := newACIDDriver(t, Config{})
	// An open transaction's rows are invisible.
	open := d.Txns().Begin()
	if err := open.Write("events", types.Row{int64(9999), int64(0)}); err != nil {
		t.Fatal(err)
	}
	// An aborted loader leaves nothing.
	ab, err := d.LoadACID("events")
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Write(types.Row{int64(8888), int64(0)}); err != nil {
		t.Fatal(err)
	}
	ab.Abort()

	if n, _ := countAndSum(t, d, "SELECT COUNT(*), SUM(k) FROM events"); n != 300 {
		t.Fatalf("count=%d, want 300 (uncommitted/aborted rows leaked)", n)
	}
	if err := open.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := countAndSum(t, d, "SELECT COUNT(*), SUM(k) FROM events"); n != 301 {
		t.Fatalf("count=%d, want 301 after commit", n)
	}
}

func TestACIDSnapshotPinsQueryAcrossCommit(t *testing.T) {
	d := newACIDDriver(t, Config{})
	snap := d.Txns().AcquireSnapshot()
	defer snap.Release()

	l, err := d.LoadACID("events")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Write(types.Row{int64(5000), int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The explicit (older) snapshot still reads 300 rows; a fresh query
	// sees the commit.
	ctx := txn.WithSnapshot(context.Background(), snap)
	res, err := d.RunWith(ctx, d.Config(), "SELECT COUNT(*), SUM(k) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].(int64); n != 300 {
		t.Fatalf("old snapshot sees %d rows, want 300", n)
	}
	if n, _ := countAndSum(t, d, "SELECT COUNT(*), SUM(k) FROM events"); n != 301 {
		t.Fatalf("fresh query sees %d rows, want 301", n)
	}
}

func TestACIDCompactionPreservesQueryResults(t *testing.T) {
	d := newACIDDriver(t, Config{Engine: ModeLLAP})
	before, err := d.Run("SELECT k, SUM(v) FROM events GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Txns().Compact("events", txn.CompactOptions{})
	if err != nil || !res.Compacted {
		t.Fatalf("compact: %+v, %v", res, err)
	}
	after, err := d.Run("SELECT k, SUM(v) FROM events GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Rows, after.Rows) {
		t.Fatal("query results changed across minor compaction")
	}
	if _, err := d.Txns().Compact("events", txn.CompactOptions{Major: true}); err != nil {
		t.Fatal(err)
	}
	final, err := d.Run("SELECT k, SUM(v) FROM events GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Rows, final.Rows) {
		t.Fatal("query results changed across major compaction")
	}
}

func TestACIDAutoCompactionTriggers(t *testing.T) {
	fs := dfs.New(dfs.WithBlockSize(1 << 20))
	engine := mapred.NewEngine(mapred.Config{Slots: 4})
	d := NewDriver(fs, engine, Config{AutoCompactDeltas: 4})
	t.Cleanup(d.Close)
	schema := types.NewSchema(types.Col("k", types.Primitive(types.Long)))
	if err := d.CreateACIDTable("t", schema, nil); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 6; b++ {
		l, err := d.LoadACID("t")
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Write(types.Row{int64(b)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The background compaction runs on the daemon pool; Close drains it.
	d.Close()
	mgr := d.Txns()
	if got := mgr.Snapshot().CompactionsMinor; got == 0 {
		t.Fatal("auto-compaction never ran")
	}
	man, err := mgr.ManifestOf("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Deltas) >= 6 {
		t.Fatalf("deltas = %d, want merged below 6", len(man.Deltas))
	}
}

func TestACIDBuildCacheKeyedBySnapshotFileSet(t *testing.T) {
	// A map-join against an ACID dimension must key its cached build by the
	// snapshot file set: after a commit to the dimension, a warm query must
	// not reuse the stale build.
	fs := dfs.New(dfs.WithBlockSize(1 << 20))
	engine := mapred.NewEngine(mapred.Config{Slots: 4})
	d := NewDriver(fs, engine, Config{
		Engine: ModeLLAP,
		Opt:    optimizer.Options{MapJoinConversion: true, MapJoinThreshold: optimizer.DefaultMapJoinThreshold, MergeMapOnlyJobs: true},
	})
	t.Cleanup(d.Close)

	facts := types.NewSchema(
		types.Col("id", types.Primitive(types.Long)),
		types.Col("val", types.Primitive(types.Long)),
	)
	loader, err := d.CreateTable("facts", facts, fileformat.ORC, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := loader.Write(types.Row{int64(i % 5), int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	dim := types.NewSchema(
		types.Col("id", types.Primitive(types.Long)),
		types.Col("name", types.Primitive(types.String)),
	)
	if err := d.CreateACIDTable("dim", dim, nil); err != nil {
		t.Fatal(err)
	}
	l, err := d.LoadACID("dim")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Write(types.Row{int64(i), fmt.Sprintf("name-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	query := "SELECT d.name, COUNT(*) FROM facts f JOIN dim d ON f.id = d.id GROUP BY d.name ORDER BY d.name"
	r1, err := d.Run(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 5 {
		t.Fatalf("join rows = %d, want 5", len(r1.Rows))
	}
	// Commit a new dimension row; the next query must see 6 groups, not a
	// cached 5-row build.
	l2, err := d.LoadACID("dim")
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Write(types.Row{int64(5), "name-5"}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := d.Run("SELECT d.name, COUNT(*) FROM facts f JOIN dim d ON f.id = d.id GROUP BY d.name ORDER BY d.name")
	if err != nil {
		t.Fatal(err)
	}
	// facts has ids 0..4 only, so the join still yields 5 groups — but the
	// build over dim must have been rebuilt under a new snapshot-file-set
	// key, not served from the pre-commit build. Check via build-cache
	// stats: two distinct keys were inserted.
	if len(r2.Rows) != 5 {
		t.Fatalf("join rows after commit = %d, want 5", len(r2.Rows))
	}
	bc := d.LLAP().Builds()
	if bc.Snapshot().Puts < 2 {
		t.Fatalf("build cache puts = %d, want >= 2 (stale build reused across commit)", bc.Snapshot().Puts)
	}
}
