package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/fileformat"
	"repro/internal/mapred"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/types"
)

// pruneDriver builds a driver with the S27 layout-table menagerie:
//   - sales: partitioned by ds (8 days) and bucketed by uid into 4 buckets,
//     created through SQL DDL to exercise that path end to end
//   - sales_flat: the same 1600 rows in one unpartitioned directory (the
//     reference for result comparison)
//   - users: bucketed+sorted by uid into 4 buckets (bucket-join small side)
//   - sales_s: same rows as sales, unpartitioned but bucketed+sorted by uid
//     (SMB-compatible big side)
//   - logs: replica-divergent layout, replica 0 sorted by ds and replica 1
//     sorted by uid
func pruneDriver(t *testing.T, conf Config) (*Driver, *dfs.FS) {
	t.Helper()
	fs := dfs.New(dfs.WithBlockSize(1 << 20))
	engine := mapred.NewEngine(mapred.Config{Slots: 4})
	if conf.DefaultFormat == 0 {
		conf.DefaultFormat = fileformat.ORC
	}
	d := NewDriver(fs, engine, conf)
	t.Cleanup(d.Close)

	if _, err := d.Run(`CREATE TABLE sales (ds string, uid bigint, qty bigint)
		PARTITIONED BY (ds) CLUSTERED BY (uid) INTO 4 BUCKETS STORED AS orc`); err != nil {
		t.Fatal(err)
	}
	salesRow := func(i int) types.Row {
		return types.Row{fmt.Sprintf("2014-01-%02d", i%8+1), int64(i % 40), int64(i % 7)}
	}
	loadRows := func(name string, n int, row func(int) types.Row) {
		t.Helper()
		l, err := d.Loader(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := l.Write(row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	loadRows("sales", 1600, salesRow)

	flat := types.NewSchema(
		types.Col("ds", types.Primitive(types.String)),
		types.Col("uid", types.Primitive(types.Long)),
		types.Col("qty", types.Primitive(types.Long)),
	)
	fl, err := d.CreateTable("sales_flat", flat, fileformat.ORC, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1600; i++ {
		if err := fl.Write(salesRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := d.Run(`CREATE TABLE sales_s (ds string, uid bigint, qty bigint)
		CLUSTERED BY (uid) SORTED BY (uid) INTO 4 BUCKETS STORED AS orc`); err != nil {
		t.Fatal(err)
	}
	loadRows("sales_s", 1600, salesRow)

	if _, err := d.Run(`CREATE TABLE users (uid bigint, name string)
		CLUSTERED BY (uid) SORTED BY (uid) INTO 4 BUCKETS STORED AS orc`); err != nil {
		t.Fatal(err)
	}
	loadRows("users", 40, func(i int) types.Row {
		return types.Row{int64(i), fmt.Sprintf("u%02d", i)}
	})

	if _, err := d.Run(`CREATE TABLE logs (ds string, uid bigint, val bigint)
		REPLICATED BY (ds, uid) STORED AS orc`); err != nil {
		t.Fatal(err)
	}
	loadRows("logs", 800, func(i int) types.Row {
		return types.Row{fmt.Sprintf("2014-02-%02d", i%4+1), int64(i % 50), int64(i)}
	})
	return d, fs
}

// explainLines runs EXPLAIN and joins the output rows for Contains checks.
func explainLines(t *testing.T, d *Driver, query string) string {
	t.Helper()
	res, err := d.Run("EXPLAIN " + query)
	if err != nil {
		t.Fatalf("EXPLAIN failed: %v\n%s", err, query)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		s, _ := r[0].(string)
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.String()
}

func sortedRows(rows []types.Row) []types.Row {
	out := append([]types.Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		return fmt.Sprint(out[i]) < fmt.Sprint(out[j])
	})
	return out
}

// TestPruneShape is the `make check` smoke for S27: partition pruning,
// bucket pinning, and replica routing must show up in EXPLAIN, and the
// pruned scan must read a small fraction of the bytes while returning
// byte-identical results.
func TestPruneShape(t *testing.T) {
	d, _ := pruneDriver(t, Config{Opt: optimizer.Options{
		PartitionPruning: true, BucketJoin: true, ReplicaRouting: true,
	}})

	q := `SELECT uid, qty FROM sales WHERE ds = '2014-01-03' AND uid = 7`
	out := explainLines(t, d, q)
	if !strings.Contains(out, "{partitions=1/8 bucket=") {
		t.Fatalf("EXPLAIN missing partition/bucket pruning summary:\n%s", out)
	}
	rq := `SELECT ds, val FROM logs WHERE uid = 13`
	if out := explainLines(t, d, rq); !strings.Contains(out, "replica=uid") {
		t.Fatalf("EXPLAIN missing replica routing summary:\n%s", out)
	}

	pruned, err := d.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	// Same query against the same table with every layout optimization off:
	// identical rows, far more bytes.
	off := Config{DefaultFormat: fileformat.ORC}
	unpruned, err := d.RunWith(t.Context(), off, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(pruned.Rows), sortedRows(unpruned.Rows)) {
		t.Fatalf("pruned rows differ from unpruned:\n%v\nvs\n%v", pruned.Rows, unpruned.Rows)
	}
	flatRef, err := d.RunWith(t.Context(), off,
		`SELECT uid, qty FROM sales_flat WHERE ds = '2014-01-03' AND uid = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(pruned.Rows), sortedRows(flatRef.Rows)) {
		t.Fatalf("pruned rows differ from flat reference")
	}
	if pruned.Stats.TotalBytesRead*5 > unpruned.Stats.TotalBytesRead {
		t.Fatalf("pruning read %d bytes, want <= 1/5 of unpruned %d",
			pruned.Stats.TotalBytesRead, unpruned.Stats.TotalBytesRead)
	}
}

// TestPartitionPruningMatrix checks result identity between the pruned
// partitioned table and the unpartitioned reference across predicate
// shapes, pruning on and off.
func TestPartitionPruningMatrix(t *testing.T) {
	d, _ := pruneDriver(t, Config{Opt: optimizer.AllOn()})
	off := Config{DefaultFormat: fileformat.ORC}

	preds := []string{
		`ds = '2014-01-05'`,
		`ds = '2014-01-05' AND uid = 21`,
		`ds >= '2014-01-06' AND qty > 3`,
		`ds IN ('2014-01-01', '2014-01-08')`,
		`ds BETWEEN '2014-01-02' AND '2014-01-04' AND uid < 5`,
		`ds = 'no-such-day'`,
		`uid = 39`, // no partition predicate: all partitions, one bucket
		`qty = 2`,  // no layout predicate at all
	}
	for _, p := range preds {
		q := fmt.Sprintf(`SELECT ds, uid, qty FROM sales WHERE %s`, p)
		ref := fmt.Sprintf(`SELECT ds, uid, qty FROM sales_flat WHERE %s`, p)
		got, err := d.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		want, err := d.RunWith(t.Context(), off, ref)
		if err != nil {
			t.Fatalf("%s (ref): %v", p, err)
		}
		if !reflect.DeepEqual(sortedRows(got.Rows), sortedRows(want.Rows)) {
			t.Errorf("WHERE %s: pruned result differs from reference (%d vs %d rows)",
				p, len(got.Rows), len(want.Rows))
		}
	}
}

// TestBucketMapJoinNoShuffle pins the bucket-join rewrites: a co-bucketed
// join becomes a bucket map join (per-bucket builds), an SMB-compatible
// pair becomes a sort-merge bucket join, and both run with zero shuffle
// bytes while matching the shuffle join's rows.
func TestBucketMapJoinNoShuffle(t *testing.T) {
	d, _ := pruneDriver(t, Config{Opt: optimizer.AllOn()})
	base := Config{DefaultFormat: fileformat.ORC} // shuffle-join baseline

	cases := []struct {
		name, query, marker string
	}{
		{"bucket-map", `SELECT sales.uid, qty, name FROM sales JOIN users ON sales.uid = users.uid`, "[bucket]"},
		{"smb", `SELECT sales_s.uid, qty, name FROM sales_s JOIN users ON sales_s.uid = users.uid`, "SMBJOIN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := explainLines(t, d, tc.query)
			if !strings.Contains(out, tc.marker) {
				t.Fatalf("EXPLAIN missing %s join:\n%s", tc.marker, out)
			}
			got, err := d.Run(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.ShuffleBytes != 0 {
				t.Fatalf("bucketed join shuffled %d bytes, want 0", got.Stats.ShuffleBytes)
			}
			want, err := d.RunWith(t.Context(), base, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if want.Stats.ShuffleBytes == 0 {
				t.Fatalf("baseline shuffle join unexpectedly shuffled 0 bytes")
			}
			if !reflect.DeepEqual(sortedRows(got.Rows), sortedRows(want.Rows)) {
				t.Fatalf("bucketed join rows differ from shuffle join (%d vs %d rows)",
					len(got.Rows), len(want.Rows))
			}
		})
	}
}

// TestReplicaRoutingAndFallback pins HAIL-style routing: a predicate on a
// divergent layout column routes the scan to that replica (counted as
// hits), losing the routed replica falls back without changing results,
// and losing every copy of a file still fails cleanly.
func TestReplicaRoutingAndFallback(t *testing.T) {
	d, fs := pruneDriver(t, Config{Opt: optimizer.AllOn()})
	off := Config{DefaultFormat: fileformat.ORC}

	q := `SELECT ds, val FROM logs WHERE uid >= 10 AND uid < 20`
	want, err := d.RunWith(t.Context(), off, q)
	if err != nil {
		t.Fatal(err)
	}

	st := fs.Stats()
	hits0 := st.ReplicaRoutedHits.Load()
	got, err := d.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(got.Rows), sortedRows(want.Rows)) {
		t.Fatalf("routed scan rows differ from unrouted")
	}
	if st.ReplicaRoutedHits.Load() == hits0 {
		t.Fatalf("replica routing recorded no hits")
	}

	// Lose replica 1 (the uid-sorted copies): the scan must fall back to
	// the primary and still agree.
	var lost []string
	for _, pi := range d.meta.Partitions("logs") {
		for _, fi := range fs.List(pi.Path) {
			if idx, ok := IsReplicaFile(fi.Name); ok && idx == 1 {
				fs.SetUnavailable(fi.Name, true)
				lost = append(lost, fi.Name)
			}
		}
	}
	if len(lost) == 0 {
		t.Fatal("no replica-1 files found to lose")
	}
	fb0 := st.ReplicaFallbacks.Load()
	got2, err := d.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(got2.Rows), sortedRows(want.Rows)) {
		t.Fatalf("post-loss rows differ from reference")
	}
	if st.ReplicaFallbacks.Load() == fb0 {
		t.Fatalf("replica loss recorded no fallbacks")
	}
	for _, name := range lost {
		fs.SetUnavailable(name, false)
	}
}

// TestPartitionedReloadInvalidates pins that reloading a layout table
// replaces its per-partition stats and bumps the snapshot version that
// build-cache keys embed, so nothing serves stale partition data.
func TestPartitionedReloadInvalidates(t *testing.T) {
	d, _ := pruneDriver(t, Config{Opt: optimizer.AllOn()})

	v0 := d.meta.Version("sales")
	var rows0 int64
	for _, pi := range d.meta.Partitions("sales") {
		rows0 += pi.Rows
	}
	if rows0 != 1600 {
		t.Fatalf("per-partition stats sum = %d rows, want 1600", rows0)
	}

	// Reload with half the rows: partition stats and the version must move.
	l, err := d.Loader("sales")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		row := types.Row{fmt.Sprintf("2014-01-%02d", i%8+1), int64(i % 40), int64(i % 7)}
		if err := l.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if v := d.meta.Version("sales"); v <= v0 {
		t.Fatalf("reload did not bump version: %d -> %d", v0, v)
	}
	var rows1 int64
	for _, pi := range d.meta.Partitions("sales") {
		rows1 += pi.Rows
	}
	if rows1 != 800 {
		t.Fatalf("per-partition stats after reload = %d rows, want 800", rows1)
	}
	res, err := d.Run(`SELECT ds, uid, qty FROM sales WHERE ds = '2014-01-03'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("post-reload pruned scan = %d rows, want 100", len(res.Rows))
	}
}

// TestSysPartitionsTable pins the sys.partitions catalog view.
func TestSysPartitionsTable(t *testing.T) {
	d, _ := pruneDriver(t, Config{Opt: optimizer.AllOn()})
	res, err := d.Run(`SELECT table_name, partition, rows, num_buckets, num_replicas
		FROM sys.partitions WHERE table_name = 'sales' ORDER BY partition`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("sys.partitions has %d sales rows, want 8", len(res.Rows))
	}
	if res.Rows[2][1] != "ds=2014-01-03" || res.Rows[2][3] != int64(4) {
		t.Fatalf("unexpected sys.partitions row: %v", res.Rows[2])
	}
}

// TestPreparedQueryReplansAfterWrite: a pruned plan freezes its partition
// list, so executing a Prepared after a write to the scanned table must
// plan again and return what a fresh run does — here the rows of two
// partitions the write added.
func TestPreparedQueryReplansAfterWrite(t *testing.T) {
	d, _ := pruneDriver(t, Config{Opt: optimizer.AllOn()})
	q := `SELECT ds, uid, qty FROM sales WHERE ds >= '2014-01-07'`
	prep, err := d.Prepare(t.Context(), d.Config(), q)
	if err != nil {
		t.Fatal(err)
	}
	pruned := false
	prep.plan.Walk(func(n plan.Node) {
		if ts, ok := n.(*plan.TableScan); ok && ts.Part != nil && len(ts.Part.Selected) == 2 {
			pruned = true
		}
	})
	if !pruned {
		t.Fatal("prepared scan is not pruned to 2 partitions")
	}

	// Reload with ten days instead of eight.
	l, err := d.Loader("sales")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := l.Write(types.Row{fmt.Sprintf("2014-01-%02d", i%10+1), int64(i % 40), int64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, _, _, err := d.Execute(t.Context(), prep, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.RunWith(t.Context(), d.Config(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 400 {
		t.Fatalf("fresh run = %d rows, want 400 (days 07-10)", len(want.Rows))
	}
	if !reflect.DeepEqual(sortedRows(got.Rows), sortedRows(want.Rows)) {
		t.Fatalf("stale prepared run = %d rows, fresh run = %d", len(got.Rows), len(want.Rows))
	}
}
