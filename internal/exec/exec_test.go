package exec

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/plan"
	"repro/internal/types"
)

func TestEncodeKeyOrderPreserving(t *testing.T) {
	encode := func(v any) []byte {
		k, err := EncodeKey([]any{v}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	// Integers, including negatives, order bytewise.
	ints := []int64{-1 << 62, -100, -1, 0, 1, 7, 1 << 40}
	for i := 1; i < len(ints); i++ {
		if bytes.Compare(encode(ints[i-1]), encode(ints[i])) >= 0 {
			t.Errorf("key order broken: %d !< %d", ints[i-1], ints[i])
		}
	}
	// Floats.
	floats := []float64{-1e300, -2.5, -0.0, 1e-10, 3.14, 1e300}
	for i := 1; i < len(floats); i++ {
		if bytes.Compare(encode(floats[i-1]), encode(floats[i])) >= 0 {
			t.Errorf("key order broken: %g !< %g", floats[i-1], floats[i])
		}
	}
	// Strings, including embedded NULs and prefixes.
	strs := []string{"", "a", "a\x00b", "ab", "b"}
	for i := 1; i < len(strs); i++ {
		if bytes.Compare(encode(strs[i-1]), encode(strs[i])) >= 0 {
			t.Errorf("key order broken: %q !< %q", strs[i-1], strs[i])
		}
	}
	// NULL sorts first.
	if bytes.Compare(encode(nil), encode(int64(-1<<62))) >= 0 {
		t.Error("NULL does not sort first")
	}
}

func TestEncodeKeyOrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ka, _ := EncodeKey([]any{a}, nil)
		kb, _ := EncodeKey([]any{b}, nil)
		c := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		ka, _ := EncodeKey([]any{a}, nil)
		kb, _ := EncodeKey([]any{b}, nil)
		c := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyDescending(t *testing.T) {
	desc := []bool{true}
	ka, _ := EncodeKey([]any{int64(1)}, desc)
	kb, _ := EncodeKey([]any{int64(2)}, desc)
	if bytes.Compare(ka, kb) <= 0 {
		t.Error("descending keys not inverted")
	}
	// Multi-part mixed ordering.
	k1, _ := EncodeKey([]any{"x", int64(5)}, []bool{false, true})
	k2, _ := EncodeKey([]any{"x", int64(9)}, []bool{false, true})
	if bytes.Compare(k1, k2) <= 0 {
		t.Error("mixed-direction keys wrong")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	schema := plan.NewSchema(
		plan.Column{Name: "a", Kind: types.Long},
		plan.Column{Name: "b", Kind: types.Double},
		plan.Column{Name: "c", Kind: types.String},
		plan.Column{Name: "d", Kind: types.Boolean},
		plan.Column{Name: "e", Kind: types.Binary},
	)
	rows := []types.Row{
		{int64(42), 3.5, "hello", true, []byte{1, 2}},
		{nil, nil, nil, nil, nil},
		{int64(-1), 0.0, "", false, []byte{}},
	}
	var reused types.Row // decoding into a row that held the previous one
	for _, row := range rows {
		buf, err := appendRow(nil, schema, row)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRowInto(schema, buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, row) {
			t.Errorf("round trip: got %#v, want %#v", got, row)
		}
		if reused, err = DecodeRowInto(schema, buf, reused); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused, row) {
			t.Errorf("round trip into a reused row: got %#v, want %#v", reused, row)
		}
	}
	// Width mismatch.
	if _, err := appendRow(nil, schema, types.Row{int64(1)}); err == nil {
		t.Error("short row accepted")
	}
	// Truncated buffer.
	buf, _ := appendRow(nil, schema, rows[0])
	if _, err := DecodeRowInto(schema, buf[:len(buf)-1], nil); err == nil {
		t.Error("truncated buffer accepted")
	}
	if _, err := DecodeRowInto(schema, append(buf, 0), nil); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// collectSink gathers rows a runtime fragment produces.
type collectSink struct {
	rows []types.Row
}

func (s *collectSink) ctx() *Context {
	return &Context{
		SinkRow: func(_ string, row types.Row) error {
			s.rows = append(s.rows, row.Clone())
			return nil
		},
	}
}

// buildFragment wires plan nodes (already connected) into a runtime tree
// rooted at root and returns the entry operator.
func buildFragment(t *testing.T, root plan.Node, ctx *Context) Operator {
	t.Helper()
	op, err := NewBuilder().Build(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Init(ctx); err != nil {
		t.Fatal(err)
	}
	return op
}

func TestGroupByCompleteWithGroups(t *testing.T) {
	p := &plan.Plan{}
	gby := p.NewNode(&plan.GroupBy{
		Keys: []plan.Expr{&plan.ColExpr{Idx: 0, K: types.String}},
		Aggs: []plan.AggDesc{
			{Func: plan.AggSum, Arg: &plan.ColExpr{Idx: 1, K: types.Long}},
			{Func: plan.AggCount},
		},
		Mode: plan.GBYComplete,
	}).(*plan.GroupBy)
	fs := p.NewNode(&plan.FileSink{}).(*plan.FileSink)
	plan.Connect(gby, fs)

	sink := &collectSink{}
	op := buildFragment(t, gby, sink.ctx())

	// Two key groups, as the reducer driver would deliver them.
	op.StartGroup()
	op.Process(types.Row{"a", int64(1)}, 0)
	op.Process(types.Row{"a", int64(2)}, 0)
	op.EndGroup()
	op.StartGroup()
	op.Process(types.Row{"b", int64(10)}, 0)
	op.EndGroup()
	op.Flush()

	want := []types.Row{{"a", int64(3), int64(2)}, {"b", int64(10), int64(1)}}
	if !reflect.DeepEqual(sink.rows, want) {
		t.Errorf("got %v, want %v", sink.rows, want)
	}
}

func TestGroupByPartialHashAggregation(t *testing.T) {
	p := &plan.Plan{}
	gby := p.NewNode(&plan.GroupBy{
		Keys: []plan.Expr{&plan.ColExpr{Idx: 0, K: types.String}},
		Aggs: []plan.AggDesc{{Func: plan.AggAvg, Arg: &plan.ColExpr{Idx: 1, K: types.Long}}},
		Mode: plan.GBYPartial,
	}).(*plan.GroupBy)
	fs := p.NewNode(&plan.FileSink{}).(*plan.FileSink)
	plan.Connect(gby, fs)

	sink := &collectSink{}
	op := buildFragment(t, gby, sink.ctx())
	for _, r := range []types.Row{{"x", int64(2)}, {"y", int64(4)}, {"x", int64(6)}} {
		op.Process(r, 0)
	}
	op.Flush()

	// Partial avg state is (sum, count).
	want := []types.Row{{"x", 8.0, int64(2)}, {"y", 4.0, int64(1)}}
	if !reflect.DeepEqual(sink.rows, want) {
		t.Errorf("got %v, want %v", sink.rows, want)
	}
}

func TestKeylessAggregateEmptyInput(t *testing.T) {
	p := &plan.Plan{}
	gby := p.NewNode(&plan.GroupBy{
		Aggs: []plan.AggDesc{{Func: plan.AggCount}},
		Mode: plan.GBYComplete,
	}).(*plan.GroupBy)
	fs := p.NewNode(&plan.FileSink{}).(*plan.FileSink)
	plan.Connect(gby, fs)

	sink := &collectSink{}
	op := buildFragment(t, gby, sink.ctx())
	op.Flush() // no groups at all
	want := []types.Row{{int64(0)}}
	if !reflect.DeepEqual(sink.rows, want) {
		t.Errorf("count(*) over empty input = %v, want %v", sink.rows, want)
	}
}

func TestReduceJoinCrossProduct(t *testing.T) {
	p := &plan.Plan{}
	join := p.NewNode(&plan.Join{NumInputs: 2}).(*plan.Join)
	fs := p.NewNode(&plan.FileSink{}).(*plan.FileSink)
	plan.Connect(join, fs)

	sink := &collectSink{}
	op := buildFragment(t, join, sink.ctx())

	// Group 1: 2 x 2 rows -> 4 outputs.
	op.StartGroup()
	op.Process(types.Row{"l1"}, 0)
	op.Process(types.Row{"l2"}, 0)
	op.Process(types.Row{"r1"}, 1)
	op.Process(types.Row{"r2"}, 1)
	op.EndGroup()
	// Group 2: left side empty -> no outputs (inner join).
	op.StartGroup()
	op.Process(types.Row{"r3"}, 1)
	op.EndGroup()
	op.Flush()

	if len(sink.rows) != 4 {
		t.Fatalf("join emitted %d rows, want 4", len(sink.rows))
	}
	var got []string
	for _, r := range sink.rows {
		got = append(got, r[0].(string)+r[1].(string))
	}
	sort.Strings(got)
	want := []string{"l1r1", "l1r2", "l2r1", "l2r2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestDemuxMuxCoordination wires the Figure 5 micro-pattern: a Demux feeds
// a GroupBy (via one Mux edge) whose output joins rows arriving directly
// from the shuffle; the join's Mux must hold EndGroup until the GroupBy has
// emitted.
func TestDemuxMuxCoordination(t *testing.T) {
	p := &plan.Plan{}
	// Demux tags: 0 -> join input 0 (via mux passthrough), 1 -> gby.
	gby := p.NewNode(&plan.GroupBy{
		Keys: []plan.Expr{&plan.ColExpr{Idx: 0, K: types.Long}},
		Aggs: []plan.AggDesc{{Func: plan.AggSum, Arg: &plan.ColExpr{Idx: 1, K: types.Long}}},
		Mode: plan.GBYComplete,
	}).(*plan.GroupBy)
	join := p.NewNode(&plan.Join{NumInputs: 2}).(*plan.Join)
	mux := p.NewNode(&plan.Mux{}).(*plan.Mux)
	demux := p.NewNode(&plan.Demux{}).(*plan.Demux)
	fs := p.NewNode(&plan.FileSink{}).(*plan.FileSink)

	// demux children: position 0 = mux, position 1 = gby.
	plan.Connect(demux, mux)
	plan.Connect(demux, gby)
	demux.ChildIdx = []int{0, 1} // newTag 0 -> mux, newTag 1 -> gby
	demux.OldTag = []int{0, 0}
	// gby output also flows into the mux.
	plan.Connect(gby, mux)
	mux.ParentTags = []int{-1, 1} // demux edge passes tag through; gby rows become join tag 1
	plan.Connect(mux, join)
	plan.Connect(join, fs)

	sink := &collectSink{}
	op := buildFragment(t, demux, sink.ctx())

	// One key group: a direct row (tag 0) and two gby rows (tag 1).
	op.StartGroup()
	op.Process(types.Row{int64(7), int64(100)}, 0) // direct to join input 0
	op.Process(types.Row{int64(7), int64(3)}, 1)   // into gby
	op.Process(types.Row{int64(7), int64(4)}, 1)   // into gby
	op.EndGroup()
	op.Flush()

	// Join output: direct row ++ gby result row (key, sum).
	want := []types.Row{{int64(7), int64(100), int64(7), int64(7)}}
	if !reflect.DeepEqual(sink.rows, want) {
		t.Errorf("got %v, want %v", sink.rows, want)
	}
}

func TestLimitStopsForwarding(t *testing.T) {
	p := &plan.Plan{}
	lim := p.NewNode(&plan.Limit{N: 2}).(*plan.Limit)
	fs := p.NewNode(&plan.FileSink{}).(*plan.FileSink)
	plan.Connect(lim, fs)
	sink := &collectSink{}
	op := buildFragment(t, lim, sink.ctx())
	for i := 0; i < 5; i++ {
		op.Process(types.Row{int64(i)}, 0)
	}
	op.Flush()
	if len(sink.rows) != 2 {
		t.Errorf("limit passed %d rows", len(sink.rows))
	}
}

// TestMapJoinRuntime drives the hash-join operator directly: small tables
// built via ScanRows, big rows streamed, including multi-match fan-out and
// misses (§5.1).
func TestMapJoinRuntime(t *testing.T) {
	p := &plan.Plan{}
	bigScan := p.NewNode(&plan.TableScan{Table: "big"}).(*plan.TableScan)
	bigScan.Out = plan.NewSchema(
		plan.Column{Name: "k", Kind: types.Long},
		plan.Column{Name: "v", Kind: types.String},
	)
	smallScan := p.NewNode(&plan.TableScan{Table: "small"}).(*plan.TableScan)
	smallScan.Out = plan.NewSchema(
		plan.Column{Name: "id", Kind: types.Long},
		plan.Column{Name: "attr", Kind: types.String},
	)
	mj := p.NewNode(&plan.MapJoin{
		BigIdx:    0,
		Keys:      [][]plan.Expr{{&plan.ColExpr{Idx: 0, K: types.Long}}, {&plan.ColExpr{Idx: 0, K: types.Long}}},
		ProbeKeys: [][]plan.Expr{nil, {&plan.ColExpr{Idx: 0, K: types.Long}}},
	}).(*plan.MapJoin)
	mj.Out = bigScan.Out.Concat(smallScan.Out)
	plan.Connect(bigScan, mj)
	plan.Connect(smallScan, mj)
	fsink := p.NewNode(&plan.FileSink{}).(*plan.FileSink)
	plan.Connect(mj, fsink)

	small := []types.Row{
		{int64(1), "one-a"},
		{int64(1), "one-b"}, // duplicate key -> fan-out
		{int64(2), "two"},
	}
	sink := &collectSink{}
	ctx := sink.ctx()
	ctx.ScanRows = func(ts *plan.TableScan) (func() (types.Row, error), error) {
		i := 0
		return func() (types.Row, error) {
			if i >= len(small) {
				return nil, nil
			}
			row := small[i]
			i++
			return row, nil
		}, nil
	}
	op, err := NewBuilder().Build(mj)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Init(ctx); err != nil {
		t.Fatal(err)
	}
	for _, big := range []types.Row{
		{int64(1), "x"},
		{int64(3), "miss"},
		{int64(2), "y"},
	} {
		if err := op.Process(big, 0); err != nil {
			t.Fatal(err)
		}
	}
	op.Flush()
	if len(sink.rows) != 3 {
		t.Fatalf("joined rows = %v", sink.rows)
	}
	// k=1 fans out to both small rows; k=3 misses; k=2 matches once.
	if sink.rows[0][3] != "one-a" || sink.rows[1][3] != "one-b" || sink.rows[2][3] != "two" {
		t.Fatalf("join output = %v", sink.rows)
	}
	if sink.rows[0][1] != "x" || sink.rows[2][1] != "y" {
		t.Fatalf("big side columns wrong: %v", sink.rows)
	}
}
