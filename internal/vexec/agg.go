// agg.go implements vectorized map-side hash aggregation as a typed,
// batch-at-a-time group-by. Each batch is consumed in two passes:
//
//  1. Every live row is assigned a group slot. With no keys every row folds
//     into slot 0; otherwise each row's keys are encoded straight from the
//     typed vectors into one reused buffer, byte-identical to
//     exec.EncodeKey, and probed with a non-allocating string conversion.
//     Key values are boxed only when a new group is created.
//  2. Each aggregate runs once over the batch: the vector type and the
//     aggregate function are resolved outside the row loop, which updates
//     per-aggregate accumulator arrays indexed by slot.
//
// Slots are numbered in first-seen order and each group's rows are folded
// in row order, so flush emits the same partial rows, in the same order
// and with bit-identical floating sums, as the row-mode GBYPartial.
package vexec

import (
	"bytes"
	"fmt"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// compileHashAgg compiles the Partial group-by terminal.
func (c *compiler) compileHashAgg(gby *plan.GroupBy, rs *plan.ReduceSink, ctx *exec.Context) (terminal, error) {
	t := &hashAggTerminal{
		rs:       rs,
		ctx:      ctx,
		keyCols:  make([]int, 0, len(gby.Keys)),
		keyKinds: make([]types.Kind, 0, len(gby.Keys)),
		accs:     make([]aggCol, 0, len(gby.Aggs)),
	}
	for _, k := range gby.Keys {
		col, kind, err := c.compileValue(k)
		if err != nil {
			return nil, err
		}
		t.keyCols = append(t.keyCols, col)
		t.keyKinds = append(t.keyKinds, kind)
	}
	for _, a := range gby.Aggs {
		acc := aggCol{desc: a, col: -1, kind: types.Long}
		if a.Arg != nil {
			col, kind, err := c.compileValue(a.Arg)
			if err != nil {
				return nil, err
			}
			acc.col, acc.kind = col, kind
		}
		t.accs = append(t.accs, acc)
	}
	if len(t.keyCols) > 0 {
		t.slotOf = map[string]int{}
		t.keyVecs = make([]keyVec, len(t.keyCols))
		// The slot of each live row lives in a scratch column of the batch,
		// so pooled fragments draw it from the vector pool instead of
		// allocating.
		t.slots = c.batch.Columns[c.addScratch(types.Long)].(*vector.LongColumnVector).Vector
	}
	return t, nil
}

// noKeySlots is the shared, read-only slot column of the no-key path: every
// row belongs to group 0.
var noKeySlots = make([]int64, vector.DefaultBatchSize)

type hashAggTerminal struct {
	rs       *plan.ReduceSink
	ctx      *exec.Context
	keyCols  []int
	keyKinds []types.Kind

	// Group table. keys[s] holds group s's boxed key values; slots are
	// handed out in first-seen order. slotOf maps a group's encoded key to
	// its slot (nil without keys).
	keys    [][]any
	slotOf  map[string]int
	keyVecs []keyVec // resolved per batch
	keyBuf  []byte   // the encoded key of the row being probed

	accs  []aggCol
	slots []int64 // pass-1 output: slots[j] is the group of live row j
}

func (t *hashAggTerminal) consume(b *vector.VectorizedRowBatch) error {
	n := b.Size
	if n == 0 {
		return nil
	}
	var sel []int
	if b.SelectedInUse {
		sel = b.Selected[:n]
	}
	var slots []int64
	if len(t.keyCols) == 0 {
		if len(t.keys) == 0 {
			t.newGroup(nil)
		}
		slots = noKeySlots
		if n > len(slots) {
			slots = t.scratchSlots(n) // zeroed, and never written without keys
		}
		slots = slots[:n]
	} else {
		slots = t.scratchSlots(n)
		if err := t.assignSlots(b, sel, slots); err != nil {
			return err
		}
	}
	for a := range t.accs {
		if err := t.accs[a].fold(b, sel, slots); err != nil {
			return err
		}
	}
	return nil
}

// scratchSlots returns the slot array for a batch of n live rows; it only
// allocates when the batch outgrows the scratch column.
func (t *hashAggTerminal) scratchSlots(n int) []int64 {
	if len(t.slots) < n {
		t.slots = make([]int64, n)
	}
	return t.slots[:n]
}

// newGroup appends a group with the given boxed keys and returns its slot.
func (t *hashAggTerminal) newGroup(keys []any) int {
	t.keys = append(t.keys, keys)
	for a := range t.accs {
		t.accs[a].grow()
	}
	return len(t.keys) - 1
}

// assignSlots is pass 1 with keys: each row's key is encoded into keyBuf
// and probed by value.
func (t *hashAggTerminal) assignSlots(b *vector.VectorizedRowBatch, sel []int, slots []int64) error {
	for k, col := range t.keyCols {
		t.keyVecs[k] = resolveKeyVec(b.Columns[col], t.keyKinds[k])
	}
	for j := range slots {
		i := j
		if sel != nil {
			i = sel[j]
		}
		buf := t.keyBuf[:0]
		for k := range t.keyVecs {
			var err error
			if buf, err = t.keyVecs[k].appendKey(buf, i); err != nil {
				return err
			}
		}
		t.keyBuf = buf
		s, ok := t.slotOf[string(buf)]
		if !ok {
			keys := make([]any, len(t.keyCols))
			for k, col := range t.keyCols {
				keys[k] = columnValue(b, col, t.keyKinds[k], i)
			}
			s = t.newGroup(keys)
			t.slotOf[string(buf)] = s
		}
		slots[j] = int64(s)
	}
	return nil
}

// keyVec is one key column of the current batch, resolved to its typed
// vector once per batch.
type keyVec struct {
	kind  types.Kind
	long  *vector.LongColumnVector
	dbl   *vector.DoubleColumnVector
	bytes *vector.BytesColumnVector
}

func resolveKeyVec(c vector.ColumnVector, kind types.Kind) keyVec {
	k := keyVec{kind: kind}
	switch v := c.(type) {
	case *vector.LongColumnVector:
		k.long = v
	case *vector.DoubleColumnVector:
		k.dbl = v
	case *vector.BytesColumnVector:
		k.bytes = v
	}
	return k
}

// appendKey appends row i's key part exactly as exec.EncodeKey would encode
// columnValue(b, col, kind, i).
func (k *keyVec) appendKey(buf []byte, i int) ([]byte, error) {
	switch {
	case k.long != nil:
		if k.long.Null(i) {
			return exec.AppendKeyNull(buf), nil
		}
		if k.kind == types.Boolean {
			return exec.AppendKeyBool(buf, k.long.Value(i) != 0), nil
		}
		return exec.AppendKeyLong(buf, k.long.Value(i)), nil
	case k.dbl != nil:
		if k.dbl.Null(i) {
			return exec.AppendKeyNull(buf), nil
		}
		return exec.AppendKeyDouble(buf, k.dbl.Value(i)), nil
	case k.bytes != nil:
		if k.bytes.Null(i) {
			return exec.AppendKeyNull(buf), nil
		}
		if k.kind == types.Binary {
			// Binary values have no key encoding; report EncodeKey's error.
			_, err := exec.EncodeKey([]any{k.bytes.Value(i)}, nil)
			return nil, err
		}
		return exec.AppendKeyString(buf, k.bytes.Value(i)), nil
	}
	return exec.AppendKeyNull(buf), nil // columnValue boxes unknown vectors as NULL
}

// aggCol holds one aggregate's accumulators as arrays indexed by group
// slot. Only the arrays the aggregate needs are grown.
type aggCol struct {
	desc plan.AggDesc
	col  int        // argument column, -1 for count(*)
	kind types.Kind // argument kind

	count []int64   // non-NULL inputs (rows for count(*)); MIN/MAX: 0 = none yet
	long  []int64   // SUM/AVG over integers: the sum; MIN/MAX over longs: the extreme
	dbl   []float64 // SUM/AVG: the floating sum; MIN/MAX over doubles: the extreme
	bytes [][]byte  // MIN/MAX over strings: the extreme
}

// grow appends a zeroed accumulator for a new group.
func (a *aggCol) grow() {
	a.count = append(a.count, 0)
	switch a.desc.Func {
	case plan.AggSum, plan.AggAvg:
		a.long = append(a.long, 0)
		a.dbl = append(a.dbl, 0)
	case plan.AggMin, plan.AggMax:
		switch {
		case a.kind.IsFloating():
			a.dbl = append(a.dbl, 0)
		case a.kind == types.String || a.kind == types.Binary:
			a.bytes = append(a.bytes, nil)
		default:
			a.long = append(a.long, 0)
		}
	}
}

// fold is pass 2: it folds the batch's live rows into the accumulators of
// their slots, one typed loop per vector type and function.
func (a *aggCol) fold(b *vector.VectorizedRowBatch, sel []int, slots []int64) error {
	if a.col < 0 { // count(*)
		for _, s := range slots {
			a.count[s]++
		}
		return nil
	}
	isMax := a.desc.Func == plan.AggMax
	switch v := b.Columns[a.col].(type) {
	case *vector.LongColumnVector:
		switch a.desc.Func {
		case plan.AggCount:
			a.foldCount(v, sel, slots)
		case plan.AggSum, plan.AggAvg:
			for j, s := range slots {
				i := j
				if sel != nil {
					i = sel[j]
				}
				if v.Null(i) {
					continue
				}
				x := v.Value(i)
				a.long[s] += x
				a.dbl[s] += float64(x)
				a.count[s]++
			}
		case plan.AggMin, plan.AggMax:
			foldExtreme(v.Vector, nullsOf(v.NoNulls, v.IsNull), v.IsRepeating, sel, slots, a.count, a.long, isMax)
		}
	case *vector.DoubleColumnVector:
		switch a.desc.Func {
		case plan.AggCount:
			a.foldCount(v, sel, slots)
		case plan.AggSum, plan.AggAvg:
			for j, s := range slots {
				i := j
				if sel != nil {
					i = sel[j]
				}
				if v.Null(i) {
					continue
				}
				a.dbl[s] += v.Value(i)
				a.count[s]++
			}
		case plan.AggMin, plan.AggMax:
			foldExtreme(v.Vector, nullsOf(v.NoNulls, v.IsNull), v.IsRepeating, sel, slots, a.count, a.dbl, isMax)
		}
	case *vector.BytesColumnVector:
		return a.foldBytes(v, sel, slots)
	}
	return nil
}

// nullsOf returns a vector's NULL flags, or nil when it has no NULLs.
func nullsOf(noNulls bool, isNull []bool) []bool {
	if noNulls {
		return nil
	}
	return isNull
}

// foldExtreme folds MIN (isMax false) or MAX over a numeric column into
// ext, counting each group's non-NULL inputs in count; count[s] == 0 means
// group s has no extreme yet. vals and nulls are read at row 0 when the
// vector repeats; nulls is nil when it has no NULLs.
func foldExtreme[T int64 | float64](vals []T, nulls []bool, repeating bool, sel []int, slots, count []int64, ext []T, isMax bool) {
	for j, s := range slots {
		i := j
		if sel != nil {
			i = sel[j]
		}
		if repeating {
			i = 0
		}
		if nulls != nil && nulls[i] {
			continue
		}
		if x := vals[i]; count[s] == 0 || (isMax && x > ext[s]) || (!isMax && x < ext[s]) {
			ext[s] = x
		}
		count[s]++
	}
}

func (a *aggCol) foldBytes(v *vector.BytesColumnVector, sel []int, slots []int64) error {
	var sign int // MIN keeps values comparing below, MAX above
	switch a.desc.Func {
	case plan.AggCount:
		a.foldCount(v, sel, slots)
		return nil
	case plan.AggMin:
		sign = -1
	case plan.AggMax:
		sign = 1
	}
	for j, s := range slots {
		i := j
		if sel != nil {
			i = sel[j]
		}
		if v.Null(i) {
			continue
		}
		if sign == 0 {
			return fmt.Errorf("vexec: %s over string column", a.desc.Func)
		}
		if x := v.Value(i); a.count[s] == 0 || bytes.Compare(x, a.bytes[s]) == sign {
			a.bytes[s] = append(a.bytes[s][:0], x...)
		}
		a.count[s]++
	}
	return nil
}

func (a *aggCol) foldCount(v vector.ColumnVector, sel []int, slots []int64) {
	for j, s := range slots {
		i := j
		if sel != nil {
			i = sel[j]
		}
		if !v.Null(i) {
			a.count[s]++
		}
	}
}

// appendPartial appends slot s's partial state, laid out as
// plan.AggState.PartialResult.
func (a *aggCol) appendPartial(row types.Row, s int) types.Row {
	switch a.desc.Func {
	case plan.AggCount:
		return append(row, a.count[s])
	case plan.AggSum:
		switch {
		case a.count[s] == 0:
			return append(row, nil)
		case a.desc.ResultKind() == types.Long:
			return append(row, a.long[s])
		}
		return append(row, a.dbl[s])
	case plan.AggAvg:
		return append(row, a.dbl[s], a.count[s])
	case plan.AggMin, plan.AggMax:
		switch {
		case a.count[s] == 0:
			return append(row, nil)
		case a.kind.IsFloating():
			return append(row, a.dbl[s])
		case a.kind == types.String:
			return append(row, string(a.bytes[s]))
		case a.kind == types.Binary:
			return append(row, append([]byte(nil), a.bytes[s]...))
		case a.kind == types.Boolean:
			return append(row, a.long[s] != 0)
		}
		return append(row, a.long[s])
	}
	return row
}

// flush ships one partial row per group, laid out exactly as the row-mode
// GBYPartial emits them (keys, then flattened partial states), so the
// reduce-side Final group-by is engine-agnostic.
func (t *hashAggTerminal) flush() error {
	for s, keys := range t.keys {
		row := make(types.Row, 0, len(keys)+2*len(t.accs))
		row = append(row, keys...)
		for a := range t.accs {
			row = t.accs[a].appendPartial(row, s)
		}
		if err := emitToReduceSink(t.ctx, t.rs, row); err != nil {
			return err
		}
	}
	t.keys = nil
	clear(t.slotOf)
	for a := range t.accs {
		acc := &t.accs[a]
		*acc = aggCol{desc: acc.desc, col: acc.col, kind: acc.kind}
	}
	return nil
}
