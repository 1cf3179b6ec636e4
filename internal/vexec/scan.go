// scan.go drives a vectorized map fragment: ORC batches flow through the
// compiled program (filters and projections), then the terminal —
// FileSink, ReduceSink, or a vectorized partial group-by — materializes
// rows only at the fragment boundary.
package vexec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dfs"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// batchSize is the configured batch row count; 1024 by default (§6.1: one
// batch fits the processor cache). SetBatchSize adjusts it for the batch
// size ablation.
var batchSize = vector.DefaultBatchSize

// SetBatchSize overrides the batch size; n <= 0 restores the default. Not
// safe to change while queries are running.
func SetBatchSize(n int) {
	if n <= 0 {
		n = vector.DefaultBatchSize
	}
	batchSize = n
}

// RunVectorizedScan executes one marked map chain over one ORC file.
// caches, when non-nil, lets the reader serve chunks and metadata from an
// LLAP-style cache. goctx cancels the scan between batches and inside DFS
// reads. prof, when non-nil, collects per-operator rows, wall time and I/O
// attribution for the fragment.
func RunVectorizedScan(goctx context.Context, fs *dfs.FS, path string, scan *plan.TableScan, ctx *exec.Context, node int, caches *orc.Caches, prof *obs.PlanProfile) error {
	fr, err := fs.Open(path)
	if err != nil {
		return err
	}
	fr.SetNode(node)
	if goctx != nil {
		fr.SetContext(goctx)
	}
	scanStats := prof.Op(scan.ID) // nil prof -> nil stats; methods no-op
	// Tee into the per-query tally (if the context carries one) so cache
	// hits stay per-query attributable under concurrent queries.
	tally := obs.TeeTally(scanStats.Tally(), obs.QueryTallyFrom(goctx))
	fr.SetTally(tally)
	r, err := orc.NewCachedReader(fr, path, caches)
	if err != nil {
		return err
	}
	include := scan.Cols
	if scan.Needed != nil {
		include = nil
		for _, idx := range scan.Needed {
			include = append(include, scan.Cols[idx])
		}
	}
	br, err := r.Batches(orc.ReadOptions{Include: include, SArg: scan.SArg, Tally: tally})
	if err != nil {
		return err
	}
	env := newBatchEnv(batchSize)
	defer env.release()
	batch := env.newBatch(br.Kinds())
	prog, err := compileChain(scan, batch, ctx, prof, env)
	if err != nil {
		return err
	}
	for {
		if goctx != nil {
			if err := goctx.Err(); err != nil {
				return err
			}
		}
		var start time.Time
		if scanStats != nil {
			start = time.Now()
		}
		ok, err := br.Next(batch)
		if scanStats != nil {
			end := time.Now()
			scanStats.AddWall(end.Sub(start))
			scanStats.MarkInterval(start, end)
		}
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		scanStats.AddBatch(int64(batch.Size))
		if err := prog.processBatch(batch); err != nil {
			return err
		}
	}
	if scanStats != nil {
		sc := br.Counters()
		scanStats.AddScanCounters(sc.StripesRead, sc.StripesSkipped, sc.GroupsRead, sc.GroupsSkipped)
	}
	return prog.term.flush()
}

func (p *program) processBatch(b *vector.VectorizedRowBatch) error {
	for _, s := range p.steps {
		if err := s.run(b); err != nil {
			return err
		}
		if b.Size == 0 {
			return nil
		}
	}
	return p.term.consume(b)
}

// CompileChain compiles the operator chain hanging off a marked scan. The
// vectorization optimizer validated the shape: Filter* / Select? /
// MapJoin* ending in GroupBy(Partial)+ReduceSink, ReduceSink, or
// FileSink, with single children throughout.
func CompileChain(scan *plan.TableScan, batch *vector.VectorizedRowBatch, ctx *exec.Context) (*program, error) {
	return compileChain(scan, batch, ctx, nil, nil)
}

// compileChain is CompileChain plus optional per-operator profiling (every
// node's steps and the terminal are wrapped, profile.go) and batch
// pooling.
func compileChain(scan *plan.TableScan, batch *vector.VectorizedRowBatch, ctx *exec.Context, prof *obs.PlanProfile, env *batchEnv) (*program, error) {
	if len(scan.Children) != 1 {
		return nil, fmt.Errorf("vexec: scan %s has %d consumers; vectorization requires 1", scan.Label(), len(scan.Children))
	}
	// Logical columns map to physical batch columns; pruned-away columns
	// map to -1 (any reference would be a pruning bug and fails loudly in
	// compileValue).
	state := &colState{}
	phys := map[int]int{}
	if scan.Needed != nil {
		for j, idx := range scan.Needed {
			phys[idx] = j
		}
	} else {
		for i := range scan.Schema().Cols {
			phys[i] = i
		}
	}
	for i, col := range scan.Schema().Cols {
		p, ok := phys[i]
		if !ok {
			p = -1
		}
		state.colMap = append(state.colMap, p)
		state.kinds = append(state.kinds, col.Kind)
	}
	c := &compiler{batch: batch, state: state, capacity: batch.Columns[0].Capacity(), prof: prof, env: env}
	return c.compileFrom(scan.Children[0], ctx)
}

// compileFrom compiles the chain from node down to its terminal against
// the compiler's current batch and column state. The map-join case
// recurses: the join becomes a terminal owning a freshly compiled
// downstream program over its output batch.
func (c *compiler) compileFrom(node plan.Node, ctx *exec.Context) (*program, error) {
	for {
		pre := len(c.steps)
		switch t := node.(type) {
		case *plan.Filter:
			f, err := c.compileFilter(t.Cond)
			if err != nil {
				return nil, err
			}
			c.steps = append(c.steps, filterStep{f})
			c.tagNode(t, pre)
		case *plan.Select:
			mapping := make([]int, len(t.Exprs))
			kinds := make([]types.Kind, len(t.Exprs))
			for i, e := range t.Exprs {
				col, kind, err := c.compileValue(e)
				if err != nil {
					return nil, err
				}
				mapping[i] = col
				kinds[i] = kind
			}
			c.steps = append(c.steps, projectStep{prog: c.state, mapping: mapping, kinds: kinds})
			c.tagNode(t, pre)
		case *plan.MapJoin:
			term, err := c.compileMapJoin(t, ctx)
			if err != nil {
				return nil, err
			}
			c.tagNode(t, pre) // probe-key value steps, if any
			return &program{batch: c.batch, steps: c.steps, term: c.tagTerm(t, term)}, nil
		case *plan.GroupBy:
			if t.Mode != plan.GBYPartial {
				return nil, fmt.Errorf("vexec: unexpected %s group-by in map chain", t.Mode)
			}
			rs, ok := singleChild(t).(*plan.ReduceSink)
			if !ok {
				return nil, fmt.Errorf("vexec: partial group-by must feed a ReduceSink")
			}
			term, err := c.compileHashAgg(t, rs, ctx)
			if err != nil {
				return nil, err
			}
			c.tagNode(t, pre)
			return &program{batch: c.batch, steps: c.steps, term: c.tagTerm(t, term)}, nil
		case *plan.ReduceSink:
			return &program{batch: c.batch, steps: c.steps, term: c.tagTerm(t, newRowEmitter(c, t, nil, ctx))}, nil
		case *plan.FileSink:
			return &program{batch: c.batch, steps: c.steps, term: c.tagTerm(t, newRowEmitter(c, nil, t, ctx))}, nil
		default:
			return nil, fmt.Errorf("vexec: unsupported operator %s in vectorized chain", node.Label())
		}
		node = singleChild(node)
		if node == nil {
			return nil, fmt.Errorf("vexec: chain ended without a sink")
		}
	}
}

func singleChild(n plan.Node) plan.Node {
	if len(n.Base().Children) != 1 {
		return nil
	}
	return n.Base().Children[0]
}

// rowEmitter materializes surviving rows at the fragment boundary and
// forwards them to a ReduceSink or FileSink, the same wire formats the
// row-mode engine uses.
type rowEmitter struct {
	state *colState
	rs    *plan.ReduceSink
	fsink *plan.FileSink
	ctx   *exec.Context
	row   types.Row
}

func newRowEmitter(c *compiler, rs *plan.ReduceSink, fsink *plan.FileSink, ctx *exec.Context) *rowEmitter {
	return &rowEmitter{state: c.state, rs: rs, fsink: fsink, ctx: ctx}
}

func (e *rowEmitter) consume(b *vector.VectorizedRowBatch) error {
	width := len(e.state.colMap)
	if e.row == nil {
		e.row = make(types.Row, width)
	}
	var failed error
	b.Rows(func(i int) {
		if failed != nil {
			return
		}
		for c := 0; c < width; c++ {
			e.row[c] = columnValue(b, e.state.colMap[c], e.state.kinds[c], i)
		}
		// Both targets only borrow the row (the sink copies what it keeps).
		if e.rs != nil {
			failed = e.ctx.EmitReduceSink(e.rs, e.row)
		} else {
			failed = e.ctx.SinkRow(e.fsink.Dest, e.row)
		}
	})
	return failed
}

func (e *rowEmitter) flush() error { return nil }

// columnValue boxes one vector cell; only boundary code pays this cost.
func columnValue(b *vector.VectorizedRowBatch, col int, kind types.Kind, i int) any {
	switch v := b.Columns[col].(type) {
	case *vector.LongColumnVector:
		if v.Null(i) {
			return nil
		}
		if kind == types.Boolean {
			return v.Value(i) != 0
		}
		return v.Value(i)
	case *vector.DoubleColumnVector:
		if v.Null(i) {
			return nil
		}
		return v.Value(i)
	case *vector.BytesColumnVector:
		if v.Null(i) {
			return nil
		}
		if kind == types.Binary {
			out := make([]byte, len(v.Value(i)))
			copy(out, v.Value(i))
			return out
		}
		return string(v.Value(i))
	}
	return nil
}
