package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/fileformat"
	"repro/internal/mapred"
	"repro/internal/optimizer"
	"repro/internal/orc"
	"repro/internal/types"
)

// lineitemDriver loads a miniature TPC-H-style lineitem table in ORC.
func lineitemDriver(t *testing.T, conf Config, withNulls bool) *Driver {
	t.Helper()
	fs := dfs.New()
	engine := mapred.NewEngine(mapred.Config{Slots: 4})
	d := NewDriver(fs, engine, conf)
	schema := types.NewSchema(
		types.Col("l_quantity", types.Primitive(types.Long)),
		types.Col("l_extendedprice", types.Primitive(types.Double)),
		types.Col("l_discount", types.Primitive(types.Double)),
		types.Col("l_tax", types.Primitive(types.Double)),
		types.Col("l_returnflag", types.Primitive(types.String)),
		types.Col("l_linestatus", types.Primitive(types.String)),
		types.Col("l_shipdate", types.Primitive(types.Long)),
	)
	loader, err := d.CreateTable("lineitem", schema, fileformat.ORC,
		&fileformat.Options{ORCOptions: &orc.WriterOptions{RowIndexStride: 1000, StripeSize: 64 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	flags := []string{"A", "N", "R"}
	status := []string{"F", "O"}
	for i := 0; i < 20000; i++ {
		row := types.Row{
			int64(i%50 + 1),
			float64(i%1000) + 0.5,
			float64(i%10) / 100,
			float64(i%8) / 100,
			flags[i%3],
			status[i%2],
			int64(9000 + i%1000),
		}
		if withNulls && i%97 == 0 {
			row[1] = nil
		}
		if err := loader.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}
	return d
}

var vectorQueries = []string{
	// TPC-H q6 shape: conjunctive filters + one aggregation of a product.
	`SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem
	 WHERE l_shipdate >= 9100 AND l_shipdate < 9500
	   AND l_discount BETWEEN 0.03 AND 0.07 AND l_quantity < 24`,
	// TPC-H q1 shape: one predicate, grouped aggregations.
	`SELECT l_returnflag, l_linestatus,
	        sum(l_quantity) AS sum_qty,
	        sum(l_extendedprice) AS sum_base,
	        sum(l_extendedprice * (1 - l_discount)) AS sum_disc,
	        sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
	        avg(l_quantity) AS avg_qty,
	        avg(l_extendedprice) AS avg_price,
	        avg(l_discount) AS avg_disc,
	        count(*) AS n
	 FROM lineitem WHERE l_shipdate <= 9800
	 GROUP BY l_returnflag, l_linestatus
	 ORDER BY l_returnflag, l_linestatus`,
	// Plain filtered projection with arithmetic.
	`SELECT l_quantity + 10, l_extendedprice * 2 FROM lineitem
	 WHERE l_returnflag = 'A' AND l_quantity IN (1, 2, 3)`,
	// min/max + string grouping.
	`SELECT l_returnflag, min(l_shipdate), max(l_shipdate), min(l_extendedprice)
	 FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`,
	// OR filter.
	`SELECT count(*) FROM lineitem WHERE l_quantity < 3 OR l_quantity > 48`,
	// IS NULL filter.
	`SELECT count(*) FROM lineitem WHERE l_extendedprice IS NULL`,
}

// TestVectorizedMatchesRowEngine is the core §6 correctness check: identical
// results from both engines over the same ORC data.
func TestVectorizedMatchesRowEngine(t *testing.T) {
	for _, withNulls := range []bool{false, true} {
		t.Run(fmt.Sprintf("nulls=%v", withNulls), func(t *testing.T) {
			rowD := lineitemDriver(t, Config{}, withNulls)
			vecD := lineitemDriver(t, Config{Opt: optimizer.Options{Vectorize: true}}, withNulls)
			for qi, q := range vectorQueries {
				rowRes := runQ(t, rowD, q)
				vecRes := runQ(t, vecD, q)
				rows1 := append([]types.Row(nil), rowRes.Rows...)
				rows2 := append([]types.Row(nil), vecRes.Rows...)
				sortRows(rows1)
				sortRows(rows2)
				if !reflect.DeepEqual(rows1, rows2) {
					t.Errorf("query %d: engines disagree\n row %v\n vec %v", qi, truncate(rows1), truncate(rows2))
				}
			}
		})
	}
}

// TestVectorizedActuallyMarks guards against silently falling back to the
// row engine.
func TestVectorizedActuallyMarks(t *testing.T) {
	d := lineitemDriver(t, Config{Opt: optimizer.Options{Vectorize: true}}, false)
	_, compiled, err := d.Explain(vectorQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, task := range compiled.Tasks {
		for _, scan := range task.MapScans {
			if scan.Vectorize {
				marked++
			}
		}
	}
	if marked == 0 {
		t.Fatal("no scan was marked vectorizable for TPC-H q6")
	}
}

// TestVectorizedFallsBackForRowFormats: non-ORC tables must not be marked.
func TestVectorizedFallsBackForRowFormats(t *testing.T) {
	d := newTestDriver(t, fileformat.Sequence, Config{Opt: optimizer.Options{Vectorize: true}})
	q := "SELECT item_id, sum(qty) AS s FROM sales GROUP BY item_id"
	_, compiled, err := d.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range compiled.Tasks {
		for _, scan := range task.MapScans {
			if scan.Vectorize {
				t.Fatalf("scan over %s marked vectorizable", scan.Table)
			}
		}
	}
	// And the query still runs.
	runQ(t, d, q)
}

// TestVectorizedReducesCPU reproduces the Figure 12(b) direction on a
// miniature scale: cumulative task CPU with vectorization must be below the
// row engine's on a scan-heavy aggregation.
func TestVectorizedReducesCPU(t *testing.T) {
	q := vectorQueries[1] // q1 shape, 8 aggregations
	rowD := lineitemDriver(t, Config{}, false)
	vecD := lineitemDriver(t, Config{Opt: optimizer.Options{Vectorize: true}}, false)
	// Warm up and measure a few runs to damp scheduler noise.
	var rowCPU, vecCPU int64
	for i := 0; i < 3; i++ {
		rowCPU += int64(runQ(t, rowD, q).Stats.CumulativeCPU)
		vecCPU += int64(runQ(t, vecD, q).Stats.CumulativeCPU)
	}
	if vecCPU >= rowCPU {
		t.Logf("warning: vectorized CPU %d >= row CPU %d at this tiny scale", vecCPU, rowCPU)
	}
}

// TestSumAvgRejectNonNumeric: SUM and AVG over a BOOLEAN or string
// argument fail at plan time under both the row and the vectorized
// configuration (the engines used to fold BOOLEAN differently: row mode
// added 0, vexec 0/1), while COUNT/MIN/MAX over BOOLEAN still agree.
func TestSumAvgRejectNonNumeric(t *testing.T) {
	schema := types.NewSchema(
		types.Col("k", types.Primitive(types.Long)),
		types.Col("b", types.Primitive(types.Boolean)),
		types.Col("s", types.Primitive(types.String)),
	)
	var want [][]types.Row
	for _, conf := range []Config{{}, {Opt: optimizer.Options{Vectorize: true}}} {
		d := NewDriver(dfs.New(), mapred.NewEngine(mapred.Config{Slots: 2}), conf)
		l, err := d.CreateTable("t", schema, fileformat.ORC, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := l.Write(types.Row{int64(i % 3), i%4 == 0, fmt.Sprint(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			"SELECT SUM(b) FROM t",
			"SELECT k, AVG(b) FROM t GROUP BY k",
			"SELECT SUM(k > 1) FROM t",
			"SELECT AVG(s) FROM t",
		} {
			if _, err := d.Run(q); err == nil || !strings.Contains(err.Error(), "want a numeric type") {
				t.Errorf("vectorize=%v %s: err = %v, want a plan-time type error", conf.Opt.Vectorize, q, err)
			}
		}
		var got []types.Row
		for _, q := range []string{
			"SELECT k, COUNT(b), MIN(b), MAX(b) FROM t GROUP BY k ORDER BY k",
			"SELECT SUM(k), AVG(k) FROM t WHERE b",
		} {
			got = append(got, runQ(t, d, q).Rows...)
		}
		want = append(want, got)
		d.Close()
	}
	if !reflect.DeepEqual(want[0], want[1]) {
		t.Fatalf("row and vectorized engines disagree:\n row %v\nvec %v", want[0], want[1])
	}
}
