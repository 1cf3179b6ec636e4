package exec

import (
	"reflect"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// clobber overwrites every slot of a row the way a caller reusing its
// scratch row would once Process returned.
func clobber(row types.Row) {
	for i := range row {
		row[i] = "clobbered"
	}
}

// processBorrowed hands op a fresh copy of row and overwrites that copy as
// soon as Process returns: an operator that kept the row without copying it
// would later emit "clobbered".
func processBorrowed(t *testing.T, op Operator, row types.Row, tag int) {
	t.Helper()
	r := row.Clone()
	if err := op.Process(r, tag); err != nil {
		t.Fatal(err)
	}
	clobber(r)
}

// TestRetainingOperatorsCopyRows checks the borrowed-row contract on every
// operator that keeps a row past Process: the reduce-side join buffers, the
// Complete and Final group-by first row, the partial group-by's new-group
// keys and the map-join hash-table build.
func TestRetainingOperatorsCopyRows(t *testing.T) {
	t.Run("join buffer", func(t *testing.T) {
		p := &plan.Plan{}
		join := p.NewNode(&plan.Join{NumInputs: 2}).(*plan.Join)
		fs := p.NewNode(&plan.FileSink{}).(*plan.FileSink)
		plan.Connect(join, fs)
		sink := &collectSink{}
		op := buildFragment(t, join, sink.ctx())
		for g := 0; g < 2; g++ { // the second group reuses the slabs
			op.StartGroup()
			processBorrowed(t, op, types.Row{int64(g), "l1"}, 0)
			processBorrowed(t, op, types.Row{int64(g), "l2"}, 0)
			processBorrowed(t, op, types.Row{int64(g), "r1"}, 1)
			op.EndGroup()
		}
		op.Flush()
		want := []types.Row{
			{int64(0), "l1", int64(0), "r1"}, {int64(0), "l2", int64(0), "r1"},
			{int64(1), "l1", int64(1), "r1"}, {int64(1), "l2", int64(1), "r1"},
		}
		if !reflect.DeepEqual(sink.rows, want) {
			t.Errorf("got %v, want %v", sink.rows, want)
		}
	})

	for _, mode := range []plan.GBYMode{plan.GBYComplete, plan.GBYFinal} {
		t.Run("group-by first row "+mode.String(), func(t *testing.T) {
			p := &plan.Plan{}
			agg := plan.AggDesc{Func: plan.AggSum, Arg: &plan.ColExpr{Idx: 1, K: types.Long}}
			gby := p.NewNode(&plan.GroupBy{
				Keys: []plan.Expr{&plan.ColExpr{Idx: 0, K: types.String}},
				Aggs: []plan.AggDesc{agg},
				Mode: mode,
			}).(*plan.GroupBy)
			fs := p.NewNode(&plan.FileSink{}).(*plan.FileSink)
			plan.Connect(gby, fs)
			sink := &collectSink{}
			op := buildFragment(t, gby, sink.ctx())
			for _, key := range []string{"a", "b"} {
				op.StartGroup()
				processBorrowed(t, op, types.Row{key, int64(1)}, 0)
				processBorrowed(t, op, types.Row{key, int64(2)}, 0)
				op.EndGroup()
			}
			op.Flush()
			want := []types.Row{{"a", int64(3)}, {"b", int64(3)}}
			if !reflect.DeepEqual(sink.rows, want) {
				t.Errorf("got %v, want %v", sink.rows, want)
			}
		})
	}

	t.Run("partial group-by keys", func(t *testing.T) {
		p := &plan.Plan{}
		gby := p.NewNode(&plan.GroupBy{
			Keys: []plan.Expr{&plan.ColExpr{Idx: 0, K: types.String}},
			Aggs: []plan.AggDesc{{Func: plan.AggCount}},
			Mode: plan.GBYPartial,
		}).(*plan.GroupBy)
		fs := p.NewNode(&plan.FileSink{}).(*plan.FileSink)
		plan.Connect(gby, fs)
		sink := &collectSink{}
		op := buildFragment(t, gby, sink.ctx())
		for _, key := range []string{"x", "y", "x"} {
			processBorrowed(t, op, types.Row{key}, 0)
		}
		op.Flush()
		want := []types.Row{{"x", int64(2)}, {"y", int64(1)}}
		if !reflect.DeepEqual(sink.rows, want) {
			t.Errorf("got %v, want %v", sink.rows, want)
		}
	})

	t.Run("hash-table build", func(t *testing.T) {
		p := &plan.Plan{}
		scan := p.NewNode(&plan.TableScan{Table: "small"}).(*plan.TableScan)
		// The scan hands out one row and rewrites it for every call, as a
		// reader reusing its row would.
		src := []types.Row{{int64(1), "one"}, {int64(2), "two"}, {int64(1), "uno"}}
		var reused types.Row
		ctx := &Context{ScanRows: func(*plan.TableScan) (func() (types.Row, error), error) {
			i := 0
			return func() (types.Row, error) {
				if i >= len(src) {
					return nil, nil
				}
				reused = append(reused[:0], src[i]...)
				i++
				return reused, nil
			}, nil
		}}
		ht, err := BuildHashTable(ctx, scan, []plan.Expr{&plan.ColExpr{Idx: 0, K: types.Long}})
		if err != nil {
			t.Fatal(err)
		}
		clobber(reused)
		one, _ := EncodeKey([]any{int64(1)}, nil)
		two, _ := EncodeKey([]any{int64(2)}, nil)
		if got, want := ht.Table[string(one)], []types.Row{{int64(1), "one"}, {int64(1), "uno"}}; !reflect.DeepEqual(got, want) {
			t.Errorf("key 1 build rows = %v, want %v", got, want)
		}
		if got, want := ht.Table[string(two)], []types.Row{{int64(2), "two"}}; !reflect.DeepEqual(got, want) {
			t.Errorf("key 2 build rows = %v, want %v", got, want)
		}
	})
}

// q95Fragment wires the reduce tree of a correlated TPC-DS q95-style query:
// a Demux splits one shuffle three ways; tags 0 and 1 go straight through a
// Mux into a three-way join, tag 2 is merged by a Final group-by whose
// result joins as the third input.
func q95Fragment(ctx *Context) (Operator, error) {
	p := &plan.Plan{}
	demux := p.NewNode(&plan.Demux{}).(*plan.Demux)
	mux := p.NewNode(&plan.Mux{}).(*plan.Mux)
	gby := p.NewNode(&plan.GroupBy{
		Keys: []plan.Expr{&plan.ColExpr{Idx: 0, K: types.Long}},
		Aggs: []plan.AggDesc{{Func: plan.AggCount}},
		Mode: plan.GBYFinal,
	}).(*plan.GroupBy)
	join := p.NewNode(&plan.Join{NumInputs: 3}).(*plan.Join)
	fs := p.NewNode(&plan.FileSink{}).(*plan.FileSink)
	plan.Connect(demux, mux)
	plan.Connect(demux, gby)
	demux.ChildIdx = []int{0, 0, 1} // tags 0, 1 -> mux; tag 2 -> gby
	demux.OldTag = []int{0, 1, 0}
	plan.Connect(gby, mux)
	mux.ParentTags = []int{-1, 2} // demux rows keep their tag; gby rows are join input 2
	plan.Connect(mux, join)
	plan.Connect(join, fs)
	op, err := NewBuilder().Build(demux)
	if err != nil {
		return nil, err
	}
	return op, op.Init(ctx)
}

// BenchmarkReduceSideJoin measures the reduce side of a q95-shaped query:
// per key group, two rows on each of the join's shuffle tags and one
// partial-count row for the Final group-by. One op is 2000 groups.
func BenchmarkReduceSideJoin(b *testing.B) {
	const groups = 2000
	type rec struct {
		tag int
		row types.Row
	}
	input := make([][]rec, groups)
	for g := range input {
		k := int64(g)
		input[g] = []rec{
			{0, types.Row{k, int64(g % 7), 12.5, "ws"}},
			{0, types.Row{k, int64(g % 5), 3.25, "ws"}},
			{1, types.Row{k, int64(g % 3)}},
			{1, types.Row{k, int64(g % 11)}},
			{2, types.Row{k, int64(4)}},
		}
	}
	out := 0
	op, err := q95Fragment(&Context{SinkRow: func(string, types.Row) error { out++; return nil }})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range input {
			if err := op.StartGroup(); err != nil {
				b.Fatal(err)
			}
			for _, r := range g {
				if err := op.Process(r.row, r.tag); err != nil {
					b.Fatal(err)
				}
			}
			if err := op.EndGroup(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if want := 4 * groups * b.N; out != want {
		b.Fatalf("join emitted %d rows, want %d", out, want)
	}
}

// TestReduceSinkRecordsSurviveArenaGrowth ships records through one
// attempt's arena — many small ones, then some longer than any block so
// far — and checks every record still decodes to its row after all were
// written, with key and value capped so an append cannot reach a
// neighbour.
func TestReduceSinkRecordsSurviveArenaGrowth(t *testing.T) {
	rs := &plan.ReduceSink{Keys: []plan.Expr{&plan.ColExpr{Idx: 0, K: types.Long}}}
	rs.Out = plan.NewSchema(
		plan.Column{Name: "k", Kind: types.Long},
		plan.Column{Name: "s", Kind: types.String},
	)
	type shipped struct{ key, value []byte }
	var recs []shipped
	ctx := &Context{EmitShuffle: func(_ *plan.ReduceSink, key []byte, _ int, value []byte) error {
		recs = append(recs, shipped{key, value})
		return nil
	}}
	var rows []types.Row
	for i := 0; i < 3000; i++ {
		s := "v"
		if i%500 == 499 {
			s = string(make([]byte, 70<<10)) // longer than the largest block
		}
		rows = append(rows, types.Row{int64(i), s})
	}
	row := make(types.Row, 2) // one borrowed row, rewritten for every record
	for _, r := range rows {
		copy(row, r)
		if err := ctx.EmitReduceSink(rs, row); err != nil {
			t.Fatal(err)
		}
	}
	for i, rec := range recs {
		want, _ := EncodeKey([]any{rows[i][0]}, nil)
		if string(rec.key) != string(want) || cap(rec.key) != len(rec.key) || cap(rec.value) != len(rec.value) {
			t.Fatalf("record %d key %x (cap %d), value cap %d/%d", i, rec.key, cap(rec.key), cap(rec.value), len(rec.value))
		}
		got, err := DecodeRowInto(rs.Out, rec.value, nil)
		if err != nil || !reflect.DeepEqual(got, rows[i]) {
			t.Fatalf("record %d decodes to %.40v (%v), want %.40v", i, got, err, rows[i])
		}
	}
}
