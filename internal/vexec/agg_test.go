package vexec

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// aggBatch is one input batch of an aggregation case: rows, the columns
// to deliver as IsRepeating vectors (every row must hold the same value),
// and an optional selection (SelectedInUse) naming the live rows.
type aggBatch struct {
	rows      []types.Row
	repeating []int
	sel       []int
}

// live returns the rows the row engine sees for this batch.
func (ab aggBatch) live() []types.Row {
	if ab.sel == nil {
		return ab.rows
	}
	out := make([]types.Row, len(ab.sel))
	for j, i := range ab.sel {
		out[j] = ab.rows[i]
	}
	return out
}

// fill loads the batch's rows into typed vectors.
func (ab aggBatch) fill(b *vector.VectorizedRowBatch, kinds []types.Kind) {
	b.Reset()
	for c := range kinds {
		rep := false
		for _, r := range ab.repeating {
			rep = rep || r == c
		}
		n := len(ab.rows)
		if rep {
			n = 1
		}
		for i := 0; i < n; i++ {
			v := ab.rows[i][c]
			switch cv := b.Columns[c].(type) {
			case *vector.LongColumnVector:
				cv.IsRepeating = rep
				switch x := v.(type) {
				case nil:
					cv.SetNull(i)
				case bool:
					cv.Vector[i] = 0
					if x {
						cv.Vector[i] = 1
					}
				default:
					cv.Vector[i] = x.(int64)
				}
			case *vector.DoubleColumnVector:
				cv.IsRepeating = rep
				if v == nil {
					cv.SetNull(i)
				} else {
					cv.Vector[i] = v.(float64)
				}
			case *vector.BytesColumnVector:
				cv.IsRepeating = rep
				switch x := v.(type) {
				case nil:
					cv.SetNull(i)
				case string:
					cv.Vector[i] = []byte(x)
				case []byte:
					cv.Vector[i] = x
				}
			}
		}
	}
	b.Size = len(ab.rows)
	if ab.sel != nil {
		b.SelectedInUse = true
		b.Size = copy(b.Selected, ab.sel)
	}
}

// aggPlan builds GroupBy(Partial) -> ReduceSink over input columns of the
// given kinds, with the planner's partial-row schema.
func aggPlan(kinds []types.Kind, keys []int, aggs []plan.AggDesc) (*plan.GroupBy, *plan.ReduceSink) {
	p := &plan.Plan{}
	gby := p.NewNode(&plan.GroupBy{Aggs: aggs, Mode: plan.GBYPartial}).(*plan.GroupBy)
	var outCols []plan.Column
	for _, k := range keys {
		gby.Keys = append(gby.Keys, col(k, kinds[k]))
		outCols = append(outCols, plan.Column{Name: fmt.Sprintf("k%d", k), Kind: kinds[k]})
	}
	for i, d := range aggs {
		for j, k := range d.StateKinds() {
			outCols = append(outCols, plan.Column{Name: fmt.Sprintf("_s%d_%d", i, j), Kind: k})
		}
	}
	gby.Out = plan.NewSchema(outCols...)
	rs := p.NewNode(&plan.ReduceSink{Tag: 0}).(*plan.ReduceSink)
	for i := range keys {
		rs.Keys = append(rs.Keys, col(i, outCols[i].Kind))
	}
	rs.Out = gby.Out
	plan.Connect(gby, rs)
	return gby, rs
}

// shipped collects ReduceSink output as decoded partial rows plus the raw
// shuffle keys.
type shipped struct {
	rows []types.Row
	keys []string
}

func (s *shipped) ctx(t *testing.T) *exec.Context {
	return &exec.Context{EmitShuffle: func(rs *plan.ReduceSink, key []byte, _ int, value []byte) error {
		row, err := exec.DecodeRowInto(rs.Out, value, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.rows = append(s.rows, row)
		s.keys = append(s.keys, string(key))
		return nil
	}}
}

// newAggTerminal compiles the vectorized terminal over a batch with one
// typed column per input kind.
func newAggTerminal(t testing.TB, kinds []types.Kind, gby *plan.GroupBy, rs *plan.ReduceSink, ctx *exec.Context, capacity int) (*hashAggTerminal, *vector.VectorizedRowBatch) {
	t.Helper()
	env := &batchEnv{pool: vector.NewPool(capacity)}
	b := env.newBatch(kinds)
	state := &colState{kinds: kinds}
	for i := range kinds {
		state.colMap = append(state.colMap, i)
	}
	c := &compiler{batch: b, state: state, capacity: capacity}
	term, err := c.compileHashAgg(gby, rs, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.steps) != 0 {
		t.Fatalf("column keys and arguments compiled to %d steps", len(c.steps))
	}
	return term.(*hashAggTerminal), b
}

// runBothAggs runs the batches through the vectorized terminal and the
// row-mode GBYPartial operator, returning what each shipped and the first
// error each hit.
func runBothAggs(t *testing.T, kinds []types.Kind, keys []int, aggs []plan.AggDesc, batches []aggBatch) (vec, row shipped, vecErr, rowErr error) {
	t.Helper()
	gby, rs := aggPlan(kinds, keys, aggs)
	term, b := newAggTerminal(t, kinds, gby, rs, vec.ctx(t), 16)
	for _, ab := range batches {
		ab.fill(b, kinds)
		if vecErr = term.consume(b); vecErr != nil {
			break
		}
	}
	if vecErr == nil {
		vecErr = term.flush()
	}

	op, err := exec.NewBuilder().Build(gby)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Init(row.ctx(t)); err != nil {
		t.Fatal(err)
	}
	for _, ab := range batches {
		for _, r := range ab.live() {
			if rowErr = op.Process(r, 0); rowErr != nil {
				break
			}
		}
		if rowErr != nil {
			break
		}
	}
	if rowErr == nil {
		rowErr = op.Flush()
	}
	return vec, row, vecErr, rowErr
}

func agg(f plan.AggFunc, idx int, k types.Kind) plan.AggDesc {
	if idx < 0 {
		return plan.AggDesc{Func: f}
	}
	return plan.AggDesc{Func: f, Arg: col(idx, k)}
}

// TestTypedGroupByMatchesRowMode checks every key path of the typed
// group-by against the row engine's GBYPartial: the same partial rows, in
// the same order, compared exactly (floating sums included), and the same
// shuffle keys.
func TestTypedGroupByMatchesRowMode(t *testing.T) {
	L, D, S, B := types.Long, types.Double, types.String, types.Boolean
	// Floating sums whose value depends on the addition order.
	big, tiny := 1e16, 0.7
	numAggs := func(l, d int) []plan.AggDesc {
		return []plan.AggDesc{
			agg(plan.AggCount, -1, 0),
			agg(plan.AggCount, d, D),
			agg(plan.AggSum, l, L),
			agg(plan.AggSum, d, D),
			agg(plan.AggAvg, l, L),
			agg(plan.AggAvg, d, D),
			agg(plan.AggMin, l, L),
			agg(plan.AggMax, l, L),
			agg(plan.AggMin, d, D),
			agg(plan.AggMax, d, D),
		}
	}
	cases := []struct {
		name    string
		kinds   []types.Kind
		keys    []int
		aggs    []plan.AggDesc
		batches []aggBatch
	}{
		{
			name:  "no keys",
			kinds: []types.Kind{L, D},
			aggs:  numAggs(0, 1),
			batches: []aggBatch{
				{rows: []types.Row{{int64(3), big}, {nil, tiny}, {int64(-7), nil}, {int64(5), -big}}},
				{rows: []types.Row{{int64(1), tiny}, {int64(9), 2.5}}, sel: []int{1}},
				{rows: []types.Row{{int64(4), tiny}, {int64(4), tiny}, {int64(4), tiny}}, repeating: []int{0, 1}},
			},
		},
		{
			name:  "no keys, only NULL arguments",
			kinds: []types.Kind{L, D},
			aggs:  numAggs(0, 1),
			batches: []aggBatch{
				{rows: []types.Row{{nil, nil}, {nil, nil}}, repeating: []int{0, 1}},
			},
		},
		{
			name:  "one long key",
			kinds: []types.Kind{L, L, D},
			keys:  []int{0},
			aggs:  numAggs(1, 2),
			batches: []aggBatch{
				{rows: []types.Row{{int64(2), int64(1), big}, {nil, int64(5), tiny}, {int64(-1), nil, 1.5}, {int64(2), int64(3), tiny}, {int64(2), int64(4), -big}}},
				{rows: []types.Row{{nil, int64(8), 0.25}, {int64(1 << 40), int64(-2), tiny}, {int64(-1), int64(6), nil}}, sel: []int{0, 2}},
				{rows: []types.Row{{int64(7), int64(1), tiny}, {int64(7), int64(2), tiny}}, repeating: []int{0}},
				{rows: []types.Row{{nil, int64(1), tiny}, {nil, int64(2), big}}, repeating: []int{0}},
			},
		},
		{
			name:  "one string key with NULLs and embedded 0x00, string MIN/MAX",
			kinds: []types.Kind{S, L, S},
			keys:  []int{0},
			aggs: []plan.AggDesc{
				agg(plan.AggCount, -1, 0),
				agg(plan.AggSum, 1, L),
				agg(plan.AggMin, 2, S),
				agg(plan.AggMax, 2, S),
				agg(plan.AggCount, 2, S),
			},
			batches: []aggBatch{
				{rows: []types.Row{{"a\x00b", int64(1), "m"}, {"a", int64(2), "b\x00"}, {"a\x00", int64(3), nil}, {"", int64(4), "zz"}, {nil, int64(5), "a"}}},
				{rows: []types.Row{{"a", int64(6), "b"}, {"a\x00b", nil, ""}, {nil, int64(7), "q"}, {"a", int64(8), "c"}}, sel: []int{0, 1, 2}},
				{rows: []types.Row{{"\x00", int64(1), "k"}, {"\x00", int64(2), "k"}}, repeating: []int{0, 2}},
			},
		},
		{
			name:  "boolean key, boolean MIN/MAX",
			kinds: []types.Kind{B, D, B},
			keys:  []int{0},
			aggs: []plan.AggDesc{
				agg(plan.AggCount, -1, 0), agg(plan.AggSum, 1, D), agg(plan.AggMax, 1, D),
				agg(plan.AggMin, 2, B), agg(plan.AggMax, 2, B),
			},
			batches: []aggBatch{
				{rows: []types.Row{{true, big, true}, {false, 1.0, nil}, {nil, 2.0, false}, {true, tiny, false}, {true, -big, true}}},
				{rows: []types.Row{{false, 3.0, true}, {false, nil, true}}, repeating: []int{0, 2}},
			},
		},
		{
			name:  "double key",
			kinds: []types.Kind{D, L},
			keys:  []int{0},
			aggs:  []plan.AggDesc{agg(plan.AggCount, -1, 0), agg(plan.AggSum, 1, L), agg(plan.AggMin, 1, L)},
			batches: []aggBatch{
				{rows: []types.Row{{0.5, int64(1)}, {-2.25, int64(2)}, {nil, int64(3)}, {0.5, int64(4)}, {1e300, nil}}},
				{rows: []types.Row{{-2.25, int64(9)}, {7.0, int64(-9)}}, sel: []int{1}},
			},
		},
		{
			name:  "mixed multi-key",
			kinds: []types.Kind{S, L, D, B, D},
			keys:  []int{0, 1, 2, 3},
			aggs:  []plan.AggDesc{agg(plan.AggCount, -1, 0), agg(plan.AggSum, 4, D), agg(plan.AggAvg, 1, L), agg(plan.AggMin, 0, S)},
			batches: []aggBatch{
				{rows: []types.Row{
					{"x", int64(1), 0.5, true, big},
					{"x", int64(1), 0.5, true, tiny},
					{"x", int64(1), 0.5, false, tiny},
					{nil, int64(1), 0.5, true, 1.0},
					{"x", nil, nil, nil, 2.0},
					{"y", int64(2), -0.5, true, -big},
					{"x", int64(1), 0.5, true, -big},
				}},
				{rows: []types.Row{{"x", int64(1), 0.5, true, tiny}, {"y", int64(2), -0.5, true, 4.0}, {"x", nil, nil, nil, nil}}, sel: []int{2, 0}},
				{rows: []types.Row{{"y", int64(2), -0.5, true, 1.0}, {"y", int64(3), -0.5, true, 1.0}}, repeating: []int{0, 2, 3}},
			},
		},
		{
			name:  "empty batches",
			kinds: []types.Kind{S, D},
			keys:  []int{0},
			aggs:  []plan.AggDesc{agg(plan.AggCount, -1, 0), agg(plan.AggSum, 1, D)},
			batches: []aggBatch{
				{},
				{rows: []types.Row{{"a", 1.0}}, sel: []int{}},
				{rows: []types.Row{{"a", 1.0}, {"b", 2.0}}},
				{},
			},
		},
		{
			name:    "no keys, empty input",
			kinds:   []types.Kind{L},
			aggs:    []plan.AggDesc{agg(plan.AggCount, -1, 0), agg(plan.AggSum, 0, L)},
			batches: []aggBatch{{}, {rows: []types.Row{{int64(1)}}, sel: []int{}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vec, row, vecErr, rowErr := runBothAggs(t, tc.kinds, tc.keys, tc.aggs, tc.batches)
			if vecErr != nil || rowErr != nil {
				t.Fatalf("errors: vectorized %v, row mode %v", vecErr, rowErr)
			}
			if !reflect.DeepEqual(vec.rows, row.rows) {
				t.Fatalf("partial rows differ:\nvectorized %v\nrow mode   %v", vec.rows, row.rows)
			}
			if !reflect.DeepEqual(vec.keys, row.keys) {
				t.Fatalf("shuffle keys differ:\nvectorized %q\nrow mode   %q", vec.keys, row.keys)
			}
		})
	}
}

// TestTypedGroupByBinaryKeyFails pins today's behaviour for a BINARY key:
// it has no key encoding, and the vectorized terminal fails with the row
// engine's error on the first non-NULL value.
func TestTypedGroupByBinaryKeyFails(t *testing.T) {
	kinds := []types.Kind{types.Binary, types.Long}
	aggs := []plan.AggDesc{agg(plan.AggCount, -1, 0)}
	batches := []aggBatch{{rows: []types.Row{{nil, int64(1)}, {[]byte("k"), int64(2)}}}}
	_, _, vecErr, rowErr := runBothAggs(t, kinds, []int{0}, aggs, batches)
	if vecErr == nil || rowErr == nil {
		t.Fatalf("binary key accepted: vectorized %v, row mode %v", vecErr, rowErr)
	}
	if vecErr.Error() != rowErr.Error() {
		t.Fatalf("vectorized error %q, row mode %q", vecErr, rowErr)
	}
}

// TestTypedGroupBySteadyStateAllocs pins the hot loop: once a terminal has
// seen a batch's groups, consuming it again allocates nothing on every key
// path.
func TestTypedGroupBySteadyStateAllocs(t *testing.T) {
	L, D, S := types.Long, types.Double, types.String
	rows := make([]types.Row, 12)
	for i := range rows {
		rows[i] = types.Row{int64(i % 3), []string{"A", "N", "R"}[i%3], []string{"F", "O"}[i%2], float64(i) / 4}
	}
	kinds := []types.Kind{L, S, S, D}
	aggs := []plan.AggDesc{
		agg(plan.AggCount, -1, 0), agg(plan.AggSum, 3, D), agg(plan.AggAvg, 0, L),
		agg(plan.AggMin, 1, S), agg(plan.AggMax, 3, D),
	}
	for _, tc := range []struct {
		name string
		keys []int
		sel  []int
	}{
		{"no keys", nil, nil},
		{"long key", []int{0}, nil},
		{"string key", []int{1}, []int{0, 3, 4, 7}},
		{"two string keys", []int{1, 2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gby, rs := aggPlan(kinds, tc.keys, aggs)
			var out shipped
			term, b := newAggTerminal(t, kinds, gby, rs, out.ctx(t), 16)
			aggBatch{rows: rows, sel: tc.sel}.fill(b, kinds)
			for i := 0; i < 2; i++ { // create the groups and both key buffers
				if err := term.consume(b); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := term.consume(b); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("consume on a warm terminal allocated %.1f times per batch", allocs)
			}
		})
	}
}

// BenchmarkVectorizedHashAgg measures a TPC-H q1-shaped fragment (date
// filter, two string keys, sums and averages over derived values, count)
// from a pre-written ORC file through the partial group-by.
func BenchmarkVectorizedHashAgg(b *testing.B) {
	schema := types.NewSchema(
		types.Col("l_returnflag", types.Primitive(types.String)),
		types.Col("l_linestatus", types.Primitive(types.String)),
		types.Col("l_quantity", types.Primitive(types.Double)),
		types.Col("l_extendedprice", types.Primitive(types.Double)),
		types.Col("l_discount", types.Primitive(types.Double)),
		types.Col("l_tax", types.Primitive(types.Double)),
		types.Col("l_shipdate", types.Primitive(types.Long)),
	)
	rows := make([]types.Row, 60000)
	for i := range rows {
		rows[i] = types.Row{
			[]string{"A", "N", "R"}[i%3], []string{"F", "O"}[(i/3)%2],
			float64(1 + i%50), float64(900+i%1000) * 1.5, float64(i%11) / 100, float64(i%9) / 100,
			int64(i % 2500),
		}
	}
	fs, path := buildORC(&testing.T{}, schema, rows)

	D := types.Double
	one := lit(1.0, D)
	disc, _ := plan.NewArith("-", one, col(4, D))
	price, _ := plan.NewArith("*", col(3, D), disc)
	tax, _ := plan.NewArith("+", one, col(5, D))
	charge, _ := plan.NewArith("*", price, tax)
	p := &plan.Plan{}
	scan := p.NewNode(&plan.TableScan{Table: "lineitem"}).(*plan.TableScan)
	scan.Out = plan.FromTableSchema("lineitem", schema)
	for _, c := range schema.Columns {
		scan.Cols = append(scan.Cols, c.Name)
	}
	f := p.NewNode(&plan.Filter{Cond: &plan.CompareExpr{Op: "<=", Left: col(6, types.Long), Right: lit(int64(2400), types.Long)}}).(*plan.Filter)
	f.Out = scan.Schema()
	plan.Connect(scan, f)
	kinds := make([]types.Kind, len(schema.Columns))
	for i := range kinds {
		kinds[i] = scan.Schema().Cols[i].Kind
	}
	gby, _ := aggPlan(kinds, []int{0, 1}, []plan.AggDesc{
		{Func: plan.AggSum, Arg: col(2, D)},
		{Func: plan.AggSum, Arg: col(3, D)},
		{Func: plan.AggSum, Arg: price},
		{Func: plan.AggSum, Arg: charge},
		{Func: plan.AggAvg, Arg: col(2, D)},
		{Func: plan.AggAvg, Arg: col(3, D)},
		{Func: plan.AggAvg, Arg: col(4, D)},
		{Func: plan.AggCount},
	})
	plan.Connect(f, gby)

	var groups int
	ctx := &exec.Context{EmitShuffle: func(*plan.ReduceSink, []byte, int, []byte) error { groups++; return nil }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunVectorizedScan(context.Background(), fs, path, scan, ctx, 0, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	if groups != 6*b.N {
		b.Fatalf("shipped %d groups over %d runs, want 6 per run", groups, b.N)
	}
}
