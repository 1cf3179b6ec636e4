package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/fileformat"
	"repro/internal/llap"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/types"
)

// starDriver loads a miniature star schema in ORC: a fact table split
// over two files (two map tasks) plus two dimension tables small enough
// for map-join conversion. dim1 has duplicate keys (cross products) and a
// NULL key; the fact side has NULL keys too, so NULL==NULL join semantics
// get exercised on both engines.
func starDriver(t *testing.T, conf Config) *Driver {
	t.Helper()
	fs := dfs.New(dfs.WithBlockSize(1 << 20))
	engine := mapred.NewEngine(mapred.Config{Slots: 4})
	d := NewDriver(fs, engine, conf)
	t.Cleanup(d.Close)

	fact := types.NewSchema(
		types.Col("k1", types.Primitive(types.Long)),
		types.Col("k2", types.Primitive(types.String)),
		types.Col("qty", types.Primitive(types.Long)),
		types.Col("price", types.Primitive(types.Double)),
	)
	loader, err := d.CreateTable("fact", fact, fileformat.ORC, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		row := types.Row{int64(i % 12), fmt.Sprintf("g%d", i%4), int64(i % 5), float64(i%100) / 4}
		if i%131 == 0 {
			row[0] = nil // NULL join key
		}
		if err := loader.Write(row); err != nil {
			t.Fatal(err)
		}
		if i == 1999 {
			if err := loader.NextFile(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}

	dim1 := types.NewSchema(
		types.Col("id", types.Primitive(types.Long)),
		types.Col("name", types.Primitive(types.String)),
		types.Col("weight", types.Primitive(types.Double)),
	)
	dl, err := d.CreateTable("dim1", dim1, fileformat.ORC, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := dl.Write(types.Row{int64(i), fmt.Sprintf("n%d", i), float64(i) / 2}); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate key 3 (one-to-many) and a NULL build key.
	if err := dl.Write(types.Row{int64(3), "n3-dup", 9.5}); err != nil {
		t.Fatal(err)
	}
	if err := dl.Write(types.Row{nil, "n-null", 0.0}); err != nil {
		t.Fatal(err)
	}
	if err := dl.Close(); err != nil {
		t.Fatal(err)
	}

	dim2 := types.NewSchema(
		types.Col("a", types.Primitive(types.Long)),
		types.Col("b", types.Primitive(types.String)),
		types.Col("tag", types.Primitive(types.String)),
	)
	d2l, err := d.CreateTable("dim2", dim2, fileformat.ORC, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := d2l.Write(types.Row{int64(i), fmt.Sprintf("g%d", i%4), fmt.Sprintf("tag%d", i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d2l.Close(); err != nil {
		t.Fatal(err)
	}
	return d
}

var mapJoinQueries = []string{
	// Single join, map-only, no aggregation: the join feeds a FileSink.
	`SELECT fact.qty, dim1.name FROM fact JOIN dim1 ON fact.k1 = dim1.id`,
	// Filter before the join, arithmetic projection after it.
	`SELECT fact.qty + 1, dim1.weight * 2 FROM fact JOIN dim1 ON fact.k1 = dim1.id
	 WHERE fact.qty >= 2`,
	// Multi-key join (long + string key columns).
	`SELECT count(*) FROM fact JOIN dim2 ON fact.k1 = dim2.a AND fact.k2 = dim2.b`,
	// Two small tables chained, then grouped aggregation.
	`SELECT dim2.tag, sum(fact.qty) AS s, count(*) AS n FROM fact
	 JOIN dim1 ON fact.k1 = dim1.id
	 JOIN dim2 ON fact.k1 = dim2.a
	 GROUP BY dim2.tag ORDER BY dim2.tag`,
	// Join plus map-side aggregation over the joined rows.
	`SELECT dim1.name, sum(fact.price) AS rev FROM fact
	 JOIN dim1 ON fact.k1 = dim1.id
	 WHERE fact.qty < 4 GROUP BY dim1.name ORDER BY dim1.name`,
}

func mapJoinConf(vectorize bool) Config {
	return Config{Opt: optimizer.Options{
		MapJoinConversion: true,
		MapJoinThreshold:  optimizer.DefaultMapJoinThreshold,
		MergeMapOnlyJobs:  true,
		PredicatePushdown: true,
		Vectorize:         vectorize,
	}}
}

// TestVectorizedMapJoinMatchesRowEngine is the correctness gate for the
// vectorized probe: identical rows from the row-mode map join, the
// vectorized map join, and the unconverted reduce-side join.
func TestVectorizedMapJoinMatchesRowEngine(t *testing.T) {
	reduceD := starDriver(t, Config{})
	rowD := starDriver(t, mapJoinConf(false))
	vecD := starDriver(t, mapJoinConf(true))
	for qi, q := range mapJoinQueries {
		want := append([]types.Row(nil), runQ(t, reduceD, q).Rows...)
		sortRows(want)
		for name, d := range map[string]*Driver{"row-mapjoin": rowD, "vec-mapjoin": vecD} {
			got := append([]types.Row(nil), runQ(t, d, q).Rows...)
			sortRows(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("query %d engine %s disagrees with reduce join\n got  %v\n want %v",
					qi, name, truncate(got), truncate(want))
			}
		}
	}
}

// TestVectorizedMapJoinMarks guards against the join chain silently
// falling back to the row engine: the fact scan must be marked and the
// plan must actually contain a MapJoin.
func TestVectorizedMapJoinMarks(t *testing.T) {
	d := starDriver(t, mapJoinConf(true))
	p, compiled, err := d.Explain(mapJoinQueries[3])
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.Find(func(n plan.Node) bool { _, ok := n.(*plan.MapJoin); return ok })); n == 0 {
		t.Fatal("no MapJoin in optimized plan")
	}
	marked := false
	for _, task := range compiled.Tasks {
		for _, scan := range task.MapScans {
			if scan.Table == "fact" && scan.Vectorize {
				marked = true
			}
		}
	}
	if !marked {
		t.Fatalf("fact scan not marked vectorizable:\n%s", p)
	}
}

// mapJoinStats sums hash-build counters over every MapJoin in the plan.
func mapJoinStats(p *plan.Plan, prof *obs.PlanProfile) (builds, reused, cached int64) {
	for _, n := range p.Find(func(n plan.Node) bool { _, ok := n.(*plan.MapJoin); return ok }) {
		if st := prof.Lookup(n.Base().ID); st != nil {
			builds += st.HashBuilds.Load()
			reused += st.HashReused.Load()
			cached += st.HashCached.Load()
		}
	}
	return
}

// TestSharedHashTableBuiltOncePerQuery verifies the tentpole invariant:
// with two map tasks over the fact table, each small table is built
// exactly once per query and every other task reuses the shared table.
func TestSharedHashTableBuiltOncePerQuery(t *testing.T) {
	for _, vec := range []bool{false, true} {
		t.Run(fmt.Sprintf("vectorize=%v", vec), func(t *testing.T) {
			d := starDriver(t, mapJoinConf(vec))
			_, p, prof, err := d.RunProfiledWith(context.Background(), d.Config(), mapJoinQueries[3])
			if err != nil {
				t.Fatal(err)
			}
			builds, reused, _ := mapJoinStats(p, prof)
			// Two small tables joined, each built once.
			if builds != 2 {
				t.Errorf("builds = %d, want 2 (once per small table)", builds)
			}
			// The second map task (and with vectorization, the second file's
			// fragment) must reuse rather than rebuild.
			if reused < 2 {
				t.Errorf("reused = %d, want >= 2", reused)
			}
		})
	}
}

// TestLLAPBuildCacheAcrossQueries verifies the daemon-resident build
// cache: a repeated query serves its hash tables from the cache
// (builds=0), and a write to the small table invalidates them.
func TestLLAPBuildCacheAcrossQueries(t *testing.T) {
	conf := mapJoinConf(true)
	conf.Engine = ModeLLAP
	conf.LLAP = llap.Config{Workers: 4, CacheBytes: 32 << 20}
	d := starDriver(t, conf)
	q := mapJoinQueries[4]

	_, p, prof, err := d.RunProfiledWith(context.Background(), d.Config(), q)
	if err != nil {
		t.Fatal(err)
	}
	builds, _, cached := mapJoinStats(p, prof)
	if builds == 0 {
		t.Fatalf("cold run did not build (builds=%d cached=%d)", builds, cached)
	}

	res, p2, prof2, err := d.RunProfiledWith(context.Background(), d.Config(), q)
	if err != nil {
		t.Fatal(err)
	}
	builds2, _, cached2 := mapJoinStats(p2, prof2)
	if builds2 != 0 || cached2 == 0 {
		t.Errorf("warm run: builds=%d cached=%d, want builds=0 cached>0", builds2, cached2)
	}
	warmRows := append([]types.Row(nil), res.Rows...)

	// A write to the small table must invalidate its cached builds.
	d.noteTableWrite("dim1")
	res3, p3, prof3, err := d.RunProfiledWith(context.Background(), d.Config(), q)
	if err != nil {
		t.Fatal(err)
	}
	builds3, _, _ := mapJoinStats(p3, prof3)
	if builds3 == 0 {
		t.Error("run after table write served a stale cached build")
	}
	got := append([]types.Row(nil), res3.Rows...)
	sortRows(warmRows)
	sortRows(got)
	if !reflect.DeepEqual(got, warmRows) {
		t.Errorf("results changed across cache invalidation\n got  %v\n want %v", truncate(got), truncate(warmRows))
	}
}

// TestExplainAnalyzeShowsBuildCounters checks the operator annotation is
// rendered for map joins.
func TestExplainAnalyzeShowsBuildCounters(t *testing.T) {
	d := starDriver(t, mapJoinConf(true))
	res, err := d.Run("EXPLAIN ANALYZE " + mapJoinQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no explain output")
	}
	var out strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintln(&out, r[0])
	}
	if !strings.Contains(out.String(), "builds=") {
		t.Errorf("EXPLAIN ANALYZE missing build counters:\n%s", out.String())
	}
}
