package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/types"
)

type fakeCatalog map[string]*types.Schema

func (c fakeCatalog) TableSchema(name string) (*types.Schema, error) {
	if s, ok := c[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("no such table %q", name)
}

func catalog() fakeCatalog {
	kv := func() *types.Schema {
		return types.NewSchema(
			types.Col("key", types.Primitive(types.Long)),
			types.Col("skey1", types.Primitive(types.Long)),
			types.Col("skey2", types.Primitive(types.Long)),
			types.Col("value1", types.Primitive(types.Double)),
			types.Col("value2", types.Primitive(types.Double)),
			types.Col("name", types.Primitive(types.String)),
		)
	}
	return fakeCatalog{
		"big1": kv(), "big2": kv(), "big3": kv(),
		"small1": kv(), "small2": kv(), "t": kv(),
	}
}

func planOf(t *testing.T, src string, opts *PlannerOptions) *Plan {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(catalog(), opts).Plan(stmt)
	if err != nil {
		t.Fatalf("Plan(%q): %v", src, err)
	}
	return p
}

func countNodes[T Node](p *Plan) int {
	n := 0
	p.Walk(func(node Node) {
		if _, ok := node.(T); ok {
			n++
		}
	})
	return n
}

func TestPlanSimpleScanFilter(t *testing.T) {
	p := planOf(t, "SELECT name, value1 FROM t WHERE key > 10", nil)
	if countNodes[*TableScan](p) != 1 || countNodes[*Filter](p) != 1 ||
		countNodes[*ReduceSink](p) != 0 || countNodes[*FileSink](p) != 1 {
		t.Fatalf("unexpected shape:\n%s", p)
	}
	sel := p.Find(func(n Node) bool { _, ok := n.(*Select); return ok })
	if len(sel) != 1 || sel[0].Schema().Width() != 2 {
		t.Fatalf("select schema: %s", sel[0].Schema())
	}
}

func TestPlanGroupByMapSideAgg(t *testing.T) {
	p := planOf(t, "SELECT name, sum(value1), count(*) FROM t GROUP BY name", nil)
	gbys := p.Find(func(n Node) bool { _, ok := n.(*GroupBy); return ok })
	if len(gbys) != 2 {
		t.Fatalf("want partial+final GBY, got %d:\n%s", len(gbys), p)
	}
	modes := map[GBYMode]bool{}
	for _, g := range gbys {
		modes[g.(*GroupBy).Mode] = true
	}
	if !modes[GBYPartial] || !modes[GBYFinal] {
		t.Fatalf("modes = %v", modes)
	}
	if countNodes[*ReduceSink](p) != 1 {
		t.Fatalf("want exactly one shuffle:\n%s", p)
	}
}

func TestPlanGroupByCompleteMode(t *testing.T) {
	p := planOf(t, "SELECT name, avg(value1) FROM t GROUP BY name",
		&PlannerOptions{DisableMapSideAgg: true})
	gbys := p.Find(func(n Node) bool { _, ok := n.(*GroupBy); return ok })
	if len(gbys) != 1 || gbys[0].(*GroupBy).Mode != GBYComplete {
		t.Fatalf("plan:\n%s", p)
	}
}

func TestPlanGlobalAggregateUsesOneReducer(t *testing.T) {
	p := planOf(t, "SELECT sum(value1), count(*) FROM t WHERE key BETWEEN 0 AND 100", nil)
	rss := p.Find(func(n Node) bool { _, ok := n.(*ReduceSink); return ok })
	if len(rss) != 1 {
		t.Fatalf("shuffles = %d", len(rss))
	}
	if rss[0].(*ReduceSink).NumReducers != 1 {
		t.Fatalf("global agg reducers = %d", rss[0].(*ReduceSink).NumReducers)
	}
}

func TestPlanJoinShape(t *testing.T) {
	p := planOf(t, "SELECT a.name FROM big1 a JOIN big2 b ON a.key = b.key", nil)
	if countNodes[*Join](p) != 1 || countNodes[*ReduceSink](p) != 2 {
		t.Fatalf("plan:\n%s", p)
	}
	join := p.Find(func(n Node) bool { _, ok := n.(*Join); return ok })[0]
	if got := join.Schema().Width(); got != 12 {
		t.Fatalf("join schema width = %d", got)
	}
	// RS tags must be 0 and 1.
	tags := map[int]bool{}
	for _, rs := range p.Find(func(n Node) bool { _, ok := n.(*ReduceSink); return ok }) {
		tags[rs.(*ReduceSink).Tag] = true
	}
	if !tags[0] || !tags[1] {
		t.Fatalf("tags = %v", tags)
	}
}

func TestPlanFilterPushdownBelowJoin(t *testing.T) {
	p := planOf(t, `SELECT a.name FROM big1 a JOIN small1 b ON a.key = b.key
		WHERE b.value1 > 5 AND a.name = 'x'`, nil)
	// Both conjuncts bind to single tables, so both filters must sit
	// below the ReduceSinks.
	filters := p.Find(func(n Node) bool { _, ok := n.(*Filter); return ok })
	if len(filters) != 2 {
		t.Fatalf("filters = %d:\n%s", len(filters), p)
	}
	for _, f := range filters {
		if _, ok := f.Base().Parents[0].(*TableScan); !ok {
			t.Errorf("filter %s not directly above a scan:\n%s", f.Label(), p)
		}
	}
}

func TestPlanRunningExample(t *testing.T) {
	// Paper Figure 4(a).
	src := `SELECT big1.key, small1.value1, small2.value1, big2.value1, sq1.total
	FROM big1
	JOIN small1 ON (big1.skey1 = small1.key)
	JOIN small2 ON (big1.skey2 = small2.key)
	JOIN (SELECT big2.key AS key, avg(big3.value1) AS avg, sum(big3.value2) AS total
	      FROM big2 JOIN big3 ON (big2.key = big3.key)
	      GROUP BY big2.key) sq1 ON (big1.key = sq1.key)
	JOIN big2 ON (sq1.key = big2.key)
	WHERE big2.value1 > sq1.avg`
	p := planOf(t, src, nil)
	// 4 top-level joins + 1 subquery join = 5 Joins; each join has 2
	// RSOps, plus the subquery's group-by RS: 11 ReduceSinks.
	if got := countNodes[*Join](p); got != 5 {
		t.Fatalf("joins = %d:\n%s", got, p)
	}
	if got := countNodes[*ReduceSink](p); got != 11 {
		t.Fatalf("reduce sinks = %d:\n%s", got, p)
	}
	if got := countNodes[*TableScan](p); got != 6 {
		t.Fatalf("scans = %d:\n%s", got, p)
	}
}

func TestPlanOrderByLimit(t *testing.T) {
	p := planOf(t, "SELECT name, key FROM t ORDER BY key DESC LIMIT 7", nil)
	rss := p.Find(func(n Node) bool { _, ok := n.(*ReduceSink); return ok })
	if len(rss) != 1 {
		t.Fatalf("shuffles = %d", len(rss))
	}
	rs := rss[0].(*ReduceSink)
	if rs.NumReducers != 1 || len(rs.SortDesc) != 1 || !rs.SortDesc[0] {
		t.Fatalf("order-by RS = %+v", rs)
	}
	lims := p.Find(func(n Node) bool { _, ok := n.(*Limit); return ok })
	if len(lims) != 1 || lims[0].(*Limit).N != 7 {
		t.Fatalf("limit missing:\n%s", p)
	}
}

func TestPlanErrors(t *testing.T) {
	bad := []string{
		"SELECT nope FROM t",
		"SELECT name FROM missing_table",
		"SELECT name FROM t WHERE bogus > 1",
		"SELECT name, sum(value1) FROM t",                      // non-grouped column
		"SELECT name FROM big1 a JOIN big2 b ON a.key > b.key", // no equi key
		"SELECT frobnicate(name) FROM t",                       // unknown function
		"SELECT t.name FROM t JOIN t ON t.key = t.key",         // ambiguous alias
		"SELECT avg(name) FROM t",                              // non-numeric AVG
		"SELECT sum(key > 1) FROM t",                           // BOOLEAN SUM
	}
	for _, src := range bad {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := NewPlanner(catalog(), nil).Plan(stmt); err == nil {
			t.Errorf("Plan(%q) succeeded", src)
		}
	}
}

func TestExprEvaluation(t *testing.T) {
	schema := NewSchema(
		Column{Name: "a", Kind: types.Long},
		Column{Name: "b", Kind: types.Double},
		Column{Name: "s", Kind: types.String},
	)
	eval := func(src string, row types.Row) any {
		t.Helper()
		stmt, err := sql.Parse("SELECT " + src + " FROM t")
		if err != nil {
			t.Fatal(err)
		}
		e, err := CompileExpr(stmt.Items[0].Expr, schema)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		return e.Eval(row)
	}
	row := types.Row{int64(6), 1.5, "hi"}
	cases := []struct {
		src  string
		want any
	}{
		{"a + 2", int64(8)},
		{"a * b", 9.0},
		{"a / 4", 1.5},
		{"a - 10", int64(-4)},
		{"a > 5", true},
		{"a <> 6", false},
		{"s = 'hi'", true},
		{"a BETWEEN 5 AND 7", true},
		{"a BETWEEN 7 AND 9", false},
		{"a IN (1, 6, 9)", true},
		{"a IN (1, 2)", false},
		{"s IS NULL", false},
		{"s IS NOT NULL", true},
		{"NOT a = 6", false},
		{"a > 5 AND b < 2", true},
		{"a > 9 OR b < 2", true},
		{"b + a", 7.5},
	}
	for _, c := range cases {
		if got := eval(c.src, row); got != c.want {
			t.Errorf("%s = %v (%T), want %v", c.src, got, got, c.want)
		}
	}
	// NULL propagation.
	nullRow := types.Row{nil, nil, nil}
	for _, src := range []string{"a + 2", "a > 5", "a BETWEEN 1 AND 2", "a IN (1)"} {
		if got := eval(src, nullRow); got != nil {
			t.Errorf("%s over NULLs = %v, want nil", src, got)
		}
	}
	if got := eval("a IS NULL", nullRow); got != true {
		t.Errorf("IS NULL over NULL = %v", got)
	}
	// Three-valued logic: NULL AND false = false; NULL OR true = true.
	if got := eval("a > 5 AND b < 2", types.Row{nil, 5.0, ""}); got != false {
		t.Errorf("NULL AND false = %v", got)
	}
	if got := eval("a > 5 OR b < 2", types.Row{nil, 1.0, ""}); got != true {
		t.Errorf("NULL OR true = %v", got)
	}
}

func TestAggStateLifecycle(t *testing.T) {
	arg := &ColExpr{Idx: 0, K: types.Double}
	rows := []types.Row{{1.0}, {2.0}, {nil}, {4.0}}
	check := func(fn AggFunc, want any) {
		t.Helper()
		s := NewAggState(AggDesc{Func: fn, Arg: arg})
		for _, r := range rows {
			s.Update(r)
		}
		if got := s.Result(); got != want {
			t.Errorf("%s = %v, want %v", fn, got, want)
		}
	}
	check(AggSum, 7.0)
	check(AggCount, int64(3)) // count(col) skips NULL
	check(AggMin, 1.0)
	check(AggMax, 4.0)
	avg := NewAggState(AggDesc{Func: AggAvg, Arg: arg})
	for _, r := range rows {
		avg.Update(r)
	}
	if got := avg.Result(); got != 7.0/3.0 {
		t.Errorf("avg = %v", got)
	}
	star := NewAggState(AggDesc{Func: AggCount})
	for _, r := range rows {
		star.Update(r)
	}
	if got := star.Result(); got != int64(4) {
		t.Errorf("count(*) = %v", got)
	}
}

func TestAggPartialMerge(t *testing.T) {
	arg := &ColExpr{Idx: 0, K: types.Long}
	for _, fn := range []AggFunc{AggSum, AggCount, AggAvg, AggMin, AggMax} {
		desc := AggDesc{Func: fn, Arg: arg}
		// Partition rows over two partial states, merge into a final.
		p1, p2 := NewAggState(desc), NewAggState(desc)
		for i := int64(1); i <= 6; i++ {
			if i%2 == 0 {
				p1.Update(types.Row{i})
			} else {
				p2.Update(types.Row{i})
			}
		}
		final := NewAggState(desc)
		final.Merge(p1.AppendPartial(nil))
		final.Merge(p2.AppendPartial(nil))

		direct := NewAggState(desc)
		for i := int64(1); i <= 6; i++ {
			direct.Update(types.Row{i})
		}
		if final.Result() != direct.Result() {
			t.Errorf("%s: merged %v != direct %v", fn, final.Result(), direct.Result())
		}
	}
}

func TestPlanString(t *testing.T) {
	p := planOf(t, "SELECT name FROM t WHERE key = 1", nil)
	s := p.String()
	for _, want := range []string{"FS-", "SEL-", "FIL-", "TS-"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan dump missing %s:\n%s", want, s)
		}
	}
}
