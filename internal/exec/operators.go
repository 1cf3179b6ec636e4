// operators.go implements the runtime operators of the row-mode engine.
// Data is pushed one row at a time from parents to children; on the reduce
// side, StartGroup/EndGroup signals delimit key groups and are propagated
// through the operator tree, with Mux counting its parents' signals — the
// coordination mechanism §5.2.2 describes.
//
// Rows are borrowed (DESIGN.md §16): a row passed to Process belongs to the
// caller and is valid only for the length of that call. An operator that
// keeps a row — the join buffers, a group-by's first row, the sinks and
// the hash-table builds — copies it; every other operator builds its
// output in scratch memory it reuses for the next row.
package exec

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/plan"
	"repro/internal/types"
)

// Context supplies the runtime's environment: where ReduceSink output,
// FileSink rows, and map-join small-table scans go to / come from. The
// driver wires these to the MapReduce engine and the warehouse.
type Context struct {
	// EmitShuffle receives ReduceSink output on the map side.
	EmitShuffle func(rs *plan.ReduceSink, key []byte, tag int, value []byte) error
	// SinkRow receives FileSink rows; dest is "" for the final result.
	SinkRow func(dest string, row types.Row) error
	// ScanRows opens a row iterator over a table for map-join hash-table
	// builds (the "local work" of §5.1).
	ScanRows func(ts *plan.TableScan) (func() (types.Row, error), error)
	// ScanRowsBucket opens a row iterator restricted to one hash bucket of
	// a bucketed table. Bucket map joins use it to build only the bucket
	// matching the task's big-side split. Nil when the warehouse has no
	// bucketed layouts.
	ScanRowsBucket func(ts *plan.TableScan, bucket int) (func() (types.Row, error), error)
	// TaskBucket is the hash bucket the task's big-side split belongs to,
	// or -1 when the split is not bucket-aligned.
	TaskBucket int
	// SharedHashTable, when set, resolves the map-join build side for
	// small input `input` of mj, calling build at most once per query and
	// sharing the result across tasks and attempts. Nil falls back to a
	// local per-operator build. Bucket map joins bypass it: their builds
	// are per-bucket, cheap, and differ across tasks.
	SharedHashTable func(mj *plan.MapJoin, input int, build func() (*HashTable, error)) (*HashTable, error)

	// shuffle holds the attempt's ReduceSink output bytes (shuffle.go).
	shuffle shuffleArena
}

// Operator is a runtime operator instance.
type Operator interface {
	Init(ctx *Context) error
	// Process consumes one row. tag is operator-specific: the shuffle tag
	// for reduce entries, the join input index for joins, the edge
	// position for Mux. row is borrowed: it must not be modified, and it
	// must be copied to be kept after Process returns.
	Process(row types.Row, tag int) error
	// StartGroup/EndGroup delimit reduce-side key groups.
	StartGroup() error
	EndGroup() error
	// Flush signals end of input.
	Flush() error
}

// childRef wires a parent to a child with the tag the child expects from
// this edge (the parent's position among the child's plan parents).
type childRef struct {
	op  Operator
	tag int
}

// base provides fan-out to children and default signal propagation.
type base struct {
	children []childRef
	// signal lists each distinct child operator once, in wiring order:
	// Init, group signals and Flush reach an operator once however many
	// edges lead to it from this parent.
	signal []Operator
}

// addChild wires one edge, recording a newly seen operator in signal.
func (b *base) addChild(c childRef) {
	b.children = append(b.children, c)
	if !slices.Contains(b.signal, c.op) {
		b.signal = append(b.signal, c.op)
	}
}

func (b *base) forward(row types.Row) error {
	for _, c := range b.children {
		if err := c.op.Process(row, c.tag); err != nil {
			return err
		}
	}
	return nil
}

func (b *base) initChildren(ctx *Context) error {
	for _, c := range b.signal {
		if err := c.Init(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (b *base) startGroupChildren() error {
	for _, c := range b.signal {
		if err := c.StartGroup(); err != nil {
			return err
		}
	}
	return nil
}

func (b *base) endGroupChildren() error {
	for _, c := range b.signal {
		if err := c.EndGroup(); err != nil {
			return err
		}
	}
	return nil
}

func (b *base) flushChildren() error {
	for _, c := range b.signal {
		if err := c.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// --- Filter ---

type filterOp struct {
	base
	node *plan.Filter
}

func (o *filterOp) Init(ctx *Context) error { return o.initChildren(ctx) }

func (o *filterOp) Process(row types.Row, _ int) error {
	if plan.Truthy(o.node.Cond.Eval(row)) {
		return o.forward(row)
	}
	return nil
}

func (o *filterOp) StartGroup() error { return o.startGroupChildren() }
func (o *filterOp) EndGroup() error   { return o.endGroupChildren() }
func (o *filterOp) Flush() error      { return o.flushChildren() }

// --- Select ---

type selectOp struct {
	base
	node *plan.Select
	out  types.Row // projected row, rebuilt for every input row
}

func (o *selectOp) Init(ctx *Context) error {
	o.out = make(types.Row, len(o.node.Exprs))
	return o.initChildren(ctx)
}

func (o *selectOp) Process(row types.Row, _ int) error {
	for i, e := range o.node.Exprs {
		o.out[i] = e.Eval(row)
	}
	return o.forward(o.out)
}

func (o *selectOp) StartGroup() error { return o.startGroupChildren() }
func (o *selectOp) EndGroup() error   { return o.endGroupChildren() }
func (o *selectOp) Flush() error      { return o.flushChildren() }

// --- Limit ---

type limitOp struct {
	base
	node *plan.Limit
	seen int
}

func (o *limitOp) Init(ctx *Context) error { return o.initChildren(ctx) }

func (o *limitOp) Process(row types.Row, _ int) error {
	if o.seen >= o.node.N {
		return nil
	}
	o.seen++
	return o.forward(row)
}

func (o *limitOp) StartGroup() error { return o.startGroupChildren() }
func (o *limitOp) EndGroup() error   { return o.endGroupChildren() }
func (o *limitOp) Flush() error      { return o.flushChildren() }

// --- FileSink ---

type fileSinkOp struct {
	node *plan.FileSink
	ctx  *Context
}

func (o *fileSinkOp) Init(ctx *Context) error { o.ctx = ctx; return nil }

func (o *fileSinkOp) Process(row types.Row, _ int) error {
	return o.ctx.SinkRow(o.node.Dest, row)
}

func (o *fileSinkOp) StartGroup() error { return nil }
func (o *fileSinkOp) EndGroup() error   { return nil }
func (o *fileSinkOp) Flush() error      { return nil }

// --- ReduceSink ---

type reduceSinkOp struct {
	node *plan.ReduceSink
	ctx  *Context
}

func (o *reduceSinkOp) Init(ctx *Context) error { o.ctx = ctx; return nil }

func (o *reduceSinkOp) Process(row types.Row, _ int) error {
	return o.ctx.EmitReduceSink(o.node, row)
}

func (o *reduceSinkOp) StartGroup() error { return nil }
func (o *reduceSinkOp) EndGroup() error   { return nil }
func (o *reduceSinkOp) Flush() error      { return nil }

// --- GroupBy ---

type groupByOp struct {
	base
	node *plan.GroupBy
	out  types.Row // result row, rebuilt for every emitted group

	// Reduce-side (Complete/Final) state: one set of agg states, reset in
	// place at StartGroup, and a copy of the group's first row.
	states   []plan.AggState
	firstRow types.Row
	hasFirst bool
	sawGroup bool

	// Map-side (Partial) state: hash aggregation. keyVals and keyBuf are
	// the probe's scratch; a new group copies them.
	hash     map[string]*hashEntry
	hashKeys []string // insertion order for deterministic flush
	keyVals  []any
	keyBuf   []byte
}

type hashEntry struct {
	keyVals []any
	states  []plan.AggState
}

func (o *groupByOp) Init(ctx *Context) error {
	if o.node.Mode == plan.GBYPartial {
		o.hash = make(map[string]*hashEntry)
		o.keyVals = make([]any, len(o.node.Keys))
	} else {
		o.states = o.newStates()
	}
	return o.initChildren(ctx)
}

func (o *groupByOp) newStates() []plan.AggState {
	states := make([]plan.AggState, len(o.node.Aggs))
	for i, d := range o.node.Aggs {
		states[i] = *plan.NewAggState(d)
	}
	return states
}

func (o *groupByOp) Process(row types.Row, _ int) error {
	switch o.node.Mode {
	case plan.GBYPartial:
		for i, k := range o.node.Keys {
			o.keyVals[i] = k.Eval(row)
		}
		kb, err := appendKey(o.keyBuf[:0], o.keyVals, nil)
		if err != nil {
			return err
		}
		o.keyBuf = kb
		ent, ok := o.hash[string(kb)]
		if !ok {
			// One string conversion, shared by the map key and the
			// insertion-order slice (the lookup above converts for free).
			k := string(kb)
			ent = &hashEntry{keyVals: slices.Clone(o.keyVals), states: o.newStates()}
			o.hash[k] = ent
			o.hashKeys = append(o.hashKeys, k)
		}
		for i := range ent.states {
			ent.states[i].Update(row)
		}
		return nil
	case plan.GBYComplete:
		o.keepFirst(row)
		for i := range o.states {
			o.states[i].Update(row)
		}
		return nil
	case plan.GBYFinal:
		o.keepFirst(row)
		// Input rows are keys followed by flattened partial states.
		pos := len(o.node.Keys)
		for i := range o.states {
			w := o.node.Aggs[i].StateWidth()
			o.states[i].Merge(row[pos : pos+w])
			pos += w
		}
		return nil
	}
	return fmt.Errorf("exec: bad group-by mode %v", o.node.Mode)
}

// keepFirst copies the group's first row; the result row reads its keys.
func (o *groupByOp) keepFirst(row types.Row) {
	if !o.hasFirst {
		o.firstRow = append(o.firstRow[:0], row...)
		o.hasFirst = true
	}
}

func (o *groupByOp) StartGroup() error {
	if o.node.Mode != plan.GBYPartial {
		for i := range o.states {
			o.states[i].Reset()
		}
		o.hasFirst = false
		o.sawGroup = true
	}
	return o.startGroupChildren()
}

// EndGroup emits the group's result row, then propagates the signal — the
// emit-before-propagate ordering the Demux/Mux coordination relies on.
func (o *groupByOp) EndGroup() error {
	if o.node.Mode != plan.GBYPartial && o.hasFirst {
		if err := o.forward(o.resultRow()); err != nil {
			return err
		}
	}
	return o.endGroupChildren()
}

func (o *groupByOp) resultRow() types.Row {
	out := o.out[:0]
	for i, k := range o.node.Keys {
		if o.node.Mode == plan.GBYFinal {
			// Keys are leading columns of the shipped partial rows.
			out = append(out, o.firstRow[i])
		} else {
			out = append(out, k.Eval(o.firstRow))
		}
	}
	for i := range o.states {
		out = append(out, o.states[i].Result())
	}
	o.out = out
	return out
}

func (o *groupByOp) Flush() error {
	switch o.node.Mode {
	case plan.GBYPartial:
		for _, kb := range o.hashKeys {
			ent := o.hash[kb]
			out := append(o.out[:0], ent.keyVals...)
			for i := range ent.states {
				out = ent.states[i].AppendPartial(out)
			}
			o.out = out
			if err := o.forward(out); err != nil {
				return err
			}
		}
		o.hash = make(map[string]*hashEntry)
		o.hashKeys = nil
	default:
		// A keyless aggregation over an empty input still produces one
		// row (count(*) = 0); no group ever touched the states.
		if len(o.node.Keys) == 0 && !o.sawGroup {
			if err := o.forward(o.resultRow()); err != nil {
				return err
			}
		}
	}
	return o.flushChildren()
}

// --- Reduce-side Join ---

type joinOp struct {
	base
	node *plan.Join
	// slabs[i] holds the values of input i's buffered rows back to back,
	// and rows[i] are capped subslices of it. Both are reset, not freed, at
	// StartGroup: earlier subslices stay valid after an append moves a
	// slab, and nothing downstream keeps them past the group.
	slabs [][]any
	rows  [][]types.Row
	out   types.Row // output row, rebuilt for every combination
}

func (o *joinOp) Init(ctx *Context) error {
	o.slabs = make([][]any, o.node.NumInputs)
	o.rows = make([][]types.Row, o.node.NumInputs)
	return o.initChildren(ctx)
}

func (o *joinOp) Process(row types.Row, tag int) error {
	if tag < 0 || tag >= len(o.rows) {
		return fmt.Errorf("exec: join received tag %d with %d inputs", tag, len(o.rows))
	}
	slab := o.slabs[tag]
	start := len(slab)
	slab = append(slab, row...)
	o.slabs[tag] = slab
	o.rows[tag] = append(o.rows[tag], slab[start:len(slab):len(slab)])
	return nil
}

func (o *joinOp) StartGroup() error {
	for i := range o.rows {
		o.slabs[i] = o.slabs[i][:0]
		o.rows[i] = o.rows[i][:0]
	}
	return o.startGroupChildren()
}

// EndGroup emits the inner-join cross product of the buffered rows (all
// rows in a group share the join key), then propagates.
func (o *joinOp) EndGroup() error {
	if err := o.emit(0, o.out[:0]); err != nil {
		return err
	}
	return o.endGroupChildren()
}

func (o *joinOp) emit(input int, acc types.Row) error {
	if input == len(o.rows) {
		o.out = acc[:0] // keep the grown buffer for the next group
		return o.forward(acc)
	}
	for _, row := range o.rows[input] {
		next := append(acc, row...)
		if err := o.emit(input+1, next); err != nil {
			return err
		}
		acc = next[:len(acc)]
	}
	return nil
}

func (o *joinOp) Flush() error { return o.flushChildren() }

// --- MapJoin ---

type mapJoinOp struct {
	base
	node *plan.MapJoin
	// tables[i] is the hash table for small input i (nil for the big
	// input).
	tables []*HashTable
	// sorted[i] is the sorted small side for SMB joins (nil otherwise).
	sorted []*sortedSide
	// smallScans[i] is the plan subtree root feeding small input i.
	smallSources []plan.Node
	// keyBuf and out are the probe's scratch: the encoded probe key and
	// the assembled output row.
	keyBuf []byte
	out    types.Row
}

func (o *mapJoinOp) Init(ctx *Context) error {
	o.tables = make([]*HashTable, len(o.node.Keys))
	o.sorted = make([]*sortedSide, len(o.node.Keys))
	// Bucket map joins build only the bucket matching this task's big-side
	// split, locally: the per-bucket build is small and differs per task,
	// so the query-wide shared-table machinery would only add contention.
	bucketed := o.node.Bucketed && ctx.ScanRowsBucket != nil && ctx.TaskBucket >= 0
	for i, src := range o.smallSources {
		if i == o.node.BigIdx {
			continue
		}
		i, src := i, src
		if o.node.SMB && bucketed {
			side, err := buildSortedSide(ctx, src, o.node.Keys[i], ctx.TaskBucket)
			if err != nil {
				return err
			}
			o.sorted[i] = side
			continue
		}
		build := func() (*HashTable, error) {
			if bucketed {
				return BuildHashTableBucket(ctx, src, o.node.Keys[i], ctx.TaskBucket)
			}
			return BuildHashTable(ctx, src, o.node.Keys[i])
		}
		var table *HashTable
		var err error
		if ctx.SharedHashTable != nil && !bucketed {
			table, err = ctx.SharedHashTable(o.node, i, build)
		} else {
			table, err = build()
		}
		if err != nil {
			return err
		}
		o.tables[i] = table
	}
	return o.initChildren(ctx)
}

// runLocalChain evaluates a map-side chain rooted at a TableScan directly
// (no MapReduce), pushing final rows into sink.
func runLocalChain(ctx *Context, top plan.Node, sink func(types.Row) error) error {
	return runLocalChainScan(ctx, top, ctx.ScanRows, sink)
}

// runLocalChainScan is runLocalChain with an explicit scan opener, letting
// bucket map joins restrict the small side to one hash bucket.
func runLocalChainScan(ctx *Context, top plan.Node, open func(*plan.TableScan) (func() (types.Row, error), error), sink func(types.Row) error) error {
	// Build the chain from top down to the scan.
	var chain []plan.Node
	cur := top
	for {
		chain = append(chain, cur)
		if _, ok := cur.(*plan.TableScan); ok {
			break
		}
		if len(cur.Base().Parents) != 1 {
			return fmt.Errorf("exec: map-join small-table chain has non-linear operator %s", cur.Label())
		}
		cur = cur.Base().Parents[0]
	}
	scan := chain[len(chain)-1].(*plan.TableScan)
	next, err := open(scan)
	if err != nil {
		return err
	}
	apply := func(row types.Row) error {
		// Walk from the scan upward through the chain.
		rows := []types.Row{row}
		for i := len(chain) - 2; i >= 0; i-- {
			var out []types.Row
			for _, r := range rows {
				switch n := chain[i].(type) {
				case *plan.Filter:
					if plan.Truthy(n.Cond.Eval(r)) {
						out = append(out, r)
					}
				case *plan.Select:
					projected := make(types.Row, len(n.Exprs))
					for j, e := range n.Exprs {
						projected[j] = e.Eval(r)
					}
					out = append(out, projected)
				default:
					return fmt.Errorf("exec: unsupported operator %s in local chain", chain[i].Label())
				}
			}
			rows = out
		}
		for _, r := range rows {
			if err := sink(r); err != nil {
				return err
			}
		}
		return nil
	}
	for {
		row, err := next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if row == nil {
			return nil
		}
		if err := apply(row); err != nil {
			return err
		}
	}
}

func (o *mapJoinOp) Process(row types.Row, _ int) error {
	return o.probe(0, row, o.out[:0])
}

// probe assembles output rows in input order, streaming the big input and
// looking the others up in their hash tables.
func (o *mapJoinOp) probe(input int, bigRow types.Row, acc types.Row) error {
	if input == len(o.tables) {
		o.out = acc[:0] // keep the grown buffer for the next row
		return o.forward(acc)
	}
	if input == o.node.BigIdx {
		next := append(acc, bigRow...)
		if err := o.probe(input+1, bigRow, next); err != nil {
			return err
		}
		return nil
	}
	// Probe keys are the big side's join expressions, evaluated over the
	// streaming big row. The key buffer is shared by every input: each
	// lookup finishes before the next input's key is encoded.
	kb, err := appendKeyExprs(o.keyBuf[:0], o.node.ProbeKeys[input], bigRow)
	if err != nil {
		return err
	}
	o.keyBuf = kb
	var matches []types.Row
	if o.sorted[input] != nil {
		matches = o.sorted[input].matches(kb)
	} else {
		matches = o.tables[input].Table[string(kb)]
	}
	for _, match := range matches {
		next := append(acc, match...)
		if err := o.probe(input+1, bigRow, next); err != nil {
			return err
		}
		acc = next[:len(acc)]
	}
	return nil
}

func (o *mapJoinOp) StartGroup() error { return o.startGroupChildren() }
func (o *mapJoinOp) EndGroup() error   { return o.endGroupChildren() }
func (o *mapJoinOp) Flush() error      { return o.flushChildren() }

// --- Demux ---

// demuxOp routes each row to the child its tag names. Its children are
// indexed by position (the edge tag base records is unused).
type demuxOp struct {
	base
	node *plan.Demux
}

func (o *demuxOp) Init(ctx *Context) error { return o.initChildren(ctx) }

func (o *demuxOp) Process(row types.Row, newTag int) error {
	if newTag < 0 || newTag >= len(o.node.ChildIdx) {
		return fmt.Errorf("exec: demux received unknown tag %d", newTag)
	}
	child := o.children[o.node.ChildIdx[newTag]]
	// A Mux target receives the restored old tag directly (its edge-based
	// ParentTags translation only applies to in-phase operator edges). The
	// interface also matches a profiling tap wrapping a Mux.
	if m, ok := child.op.(muxTarget); ok {
		return m.processDirect(row, o.node.OldTag[newTag])
	}
	return child.op.Process(row, o.node.OldTag[newTag])
}

func (o *demuxOp) StartGroup() error { return o.startGroupChildren() }
func (o *demuxOp) EndGroup() error   { return o.endGroupChildren() }
func (o *demuxOp) Flush() error      { return o.flushChildren() }

// --- Mux ---

// muxOp merges edges into a GroupBy or Join inside an optimized reduce
// phase. ParentTags[edge] is the tag forwarded to the child (-1 passes the
// incoming tag through, used for Demux edges). Group signals are counted:
// StartGroup is forwarded on the first parent's signal, EndGroup once all
// parents have signaled (§5.2.2's coordination mechanism).
type muxOp struct {
	base
	node       *plan.Mux
	numParents int
	startSeen  int
	endSeen    int
	flushSeen  int
}

func (o *muxOp) Init(ctx *Context) error { return o.initChildren(ctx) }

func (o *muxOp) Process(row types.Row, edge int) error {
	tag := edge
	if edge >= 0 && edge < len(o.node.ParentTags) && o.node.ParentTags[edge] >= 0 {
		tag = o.node.ParentTags[edge]
	}
	return o.processDirect(row, tag)
}

// processDirect forwards a row whose tag is already resolved (rows arriving
// from the Demux carry their restored original tags).
func (o *muxOp) processDirect(row types.Row, tag int) error {
	for _, c := range o.children {
		if err := c.op.Process(row, tag); err != nil {
			return err
		}
	}
	return nil
}

func (o *muxOp) StartGroup() error {
	o.startSeen++
	var err error
	if o.startSeen == 1 {
		err = o.startGroupChildren()
	}
	if o.startSeen >= o.numParents {
		o.startSeen = 0
	}
	return err
}

func (o *muxOp) EndGroup() error {
	o.endSeen++
	if o.endSeen == o.numParents {
		o.endSeen = 0
		o.startSeen = 0
		return o.endGroupChildren()
	}
	return nil
}

func (o *muxOp) Flush() error {
	o.flushSeen++
	if o.flushSeen == o.numParents {
		o.flushSeen = 0
		return o.flushChildren()
	}
	return nil
}
