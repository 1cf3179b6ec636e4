// txncell.go: the transactional writer/reader axis. The fuzzed query runs
// against an ACID copy of the scenario table while two writer sessions
// stream extra row batches into it through the server's streaming-insert
// endpoint. The reader executes at explicitly acquired snapshots, and the
// oracle is exact: a snapshot read must equal a reference replay (clean
// MapReduce/Text run) of the base load plus precisely the batches whose
// transactions that snapshot sees. Any divergence — a torn batch, an
// uncommitted row leaking, a snapshot drifting mid-query — is a failure,
// and the failing transaction schedule ddmin-shrinks to a minimal batch
// subset that still disagrees.
package qcheck

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/fileformat"
	"repro/internal/mapred"
	"repro/internal/optimizer"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
)

const (
	txnWriters = 2 // writer sessions streaming batches
	txnBatches = 6 // row batches split across the writers
	txnReads   = 3 // snapshot reads racing the writers (plus one final read)
)

// txnBatchRows strides the scenario rows into txnBatches batches: batch b
// re-inserts rows b, b+txnBatches, ... so replay oracles are pure row
// arithmetic. Batches may be empty for tiny tables; an empty batch commits
// nothing, which is itself worth exercising.
func txnBatchRows(t *Table) [][]types.Row {
	batches := make([][]types.Row, txnBatches)
	for i, row := range t.Rows {
		b := i % txnBatches
		batches[b] = append(batches[b], row)
	}
	return batches
}

// newTxnDriver builds a private warehouse whose scenario table is ACID
// (base rows committed as one transaction) and whose dimension tables are
// plain ORC. Auto-compaction is left on with a low threshold so background
// compaction races the reads too.
func newTxnDriver(t *Table, c Cell) (*core.Driver, error) {
	fs := dfs.New(dfs.WithBlockSize(1 << 20))
	engine := mapred.NewEngine(mapred.Config{Slots: 4})
	opt := optimizer.AllOn()
	opt.PredicatePushdown = c.Pushdown
	d := core.NewDriver(fs, engine, core.Config{
		Engine:            c.Engine,
		Opt:               opt,
		AutoCompactDeltas: 3,
	})
	if err := d.CreateACIDTable(t.Name, t.Schema, nil); err != nil {
		d.Close()
		return nil, err
	}
	base, err := d.LoadACID(t.Name)
	if err != nil {
		d.Close()
		return nil, err
	}
	for i, row := range t.Rows {
		if i > 0 && i%rowsPerFile == 0 {
			if err := base.NextFile(); err != nil {
				d.Close()
				return nil, err
			}
		}
		if err := base.Write(row); err != nil {
			d.Close()
			return nil, err
		}
	}
	if err := base.Close(); err != nil {
		d.Close()
		return nil, err
	}
	for _, dim := range t.Dims {
		loader, err := d.CreateTable(dim.Name, dim.Schema, fileformat.ORC, nil)
		if err != nil {
			d.Close()
			return nil, err
		}
		for _, row := range dim.Rows {
			if err := loader.Write(row); err != nil {
				d.Close()
				return nil, err
			}
		}
		if err := loader.Close(); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}

// txnRead is one snapshot read: which batches the snapshot saw and what
// the query returned.
type txnRead struct {
	visible []bool // per batch
	rows    []types.Row
	err     error
}

// visKey renders the visible set as a replay-cache key.
func visKey(visible []bool) string {
	key := make([]byte, len(visible))
	for i, v := range visible {
		key[i] = '0'
		if v {
			key[i] = '1'
		}
	}
	return string(key)
}

// txnReplay runs the reference oracle for one visible set: a clean
// MapReduce/Text warehouse loaded with the base rows plus every visible
// batch, queried once.
func txnReplay(t *Table, batches [][]types.Row, visible []bool, query string, seed int64) ([]types.Row, error) {
	rows := append([]types.Row(nil), t.Rows...)
	for b, vis := range visible {
		if vis {
			rows = append(rows, batches[b]...)
		}
	}
	env, err := newScenarioEnv(withRows(t, rows), fileformat.Text, false, seed)
	if err != nil {
		return nil, fmt.Errorf("replay env: %w", err)
	}
	defer env.close()
	env.configure(Cell{Engine: allEngines[0], Format: fileformat.Text, Reference: true})
	res, rerr := env.driver.Run(query)
	if rerr != nil {
		return nil, rerr
	}
	return res.Rows, nil
}

// runTxnCell executes the transactional cell for one query: start the
// writers, interleave snapshot reads, then check every read against its
// replay oracle. nil means every snapshot read matched its replay.
func runTxnCell(t *Table, c Cell, stmt *sql.SelectStmt, query string, seed int64, execs *int64) *Failure {
	d, err := newTxnDriver(t, c)
	if err != nil {
		return &Failure{Query: query, Cell: c, Detail: fmt.Sprintf("txn env: %v", err)}
	}
	defer d.Close()
	batches := txnBatchRows(t)

	srv := server.New(d, server.ManagerConfig{Pools: []server.PoolConfig{
		{Name: "qcheck", Slots: txnWriters + 1, QueueDepth: 2 * (txnWriters + 1)},
	}})
	defer srv.Close()

	// ids[b] is batch b's transaction id, stored before the batch's rows are
	// written and therefore — by the manager's lock ordering — always set by
	// the time any snapshot can see the batch's commit.
	var ids [txnBatches]atomic.Int64
	var wg sync.WaitGroup
	writerErrs := make([]error, txnWriters)
	for w := 0; w < txnWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := srv.OpenSession("")
			if err != nil {
				writerErrs[w] = err
				return
			}
			defer sess.Close()
			st, err := sess.OpenStream(t.Name)
			if err != nil {
				writerErrs[w] = err
				return
			}
			for b := w; b < txnBatches; b += txnWriters {
				ids[b].Store(st.TxnID())
				for _, row := range batches[b] {
					if err := st.Write(row); err != nil {
						writerErrs[w] = err
						return
					}
				}
				if err := st.Commit(); err != nil {
					writerErrs[w] = err
					return
				}
			}
			writerErrs[w] = st.Close()
		}(w)
	}

	// The reader races the writers through its own session, then takes one
	// final read after every batch has committed (full visibility).
	reads := make([]txnRead, 0, txnReads+1)
	var readErr error
	func() {
		sess, err := srv.OpenSession("")
		if err != nil {
			readErr = err
			return
		}
		defer sess.Close()
		doRead := func() {
			snap := d.Txns().AcquireSnapshot()
			defer snap.Release()
			visible := make([]bool, txnBatches)
			for b := range visible {
				if id := ids[b].Load(); id != 0 && snap.Visible(id) {
					visible[b] = true
				}
			}
			// Each read counts with its replay: how many replays the cache
			// below actually runs depends on how many distinct snapshots
			// the racing reads saw, which is not deterministic.
			*execs += 2
			res, err := sess.Run(txn.WithSnapshot(context.Background(), snap), query)
			r := txnRead{visible: visible, err: err}
			if err == nil {
				r.rows = res.Rows
			}
			reads = append(reads, r)
		}
		for i := 0; i < txnReads; i++ {
			doRead()
		}
		wg.Wait()
		doRead()
	}()
	wg.Wait()
	if readErr != nil {
		return &Failure{Query: query, Cell: c, Detail: fmt.Sprintf("reader session: %v", readErr)}
	}
	for w, err := range writerErrs {
		if err != nil {
			return &Failure{Query: query, Cell: c, Detail: fmt.Sprintf("writer %d: %v", w, err)}
		}
	}

	// Check every read against the replay of its visible set. Reads often
	// share a visible set, so replays are cached per set.
	type replayResult struct {
		rows []types.Row
		err  error
	}
	replays := map[string]replayResult{}
	for i, r := range reads {
		key := visKey(r.visible)
		rep, ok := replays[key]
		if !ok {
			rep.rows, rep.err = txnReplay(t, batches, r.visible, query, seed)
			replays[key] = rep
		}
		var want []types.Row
		if rep.err == nil {
			if msg := checkOrdered(stmt, rep.rows); msg != "" {
				return &Failure{Query: query, Cell: c, Detail: "replay: " + msg}
			}
			want = normalizeRows(rep.rows)
		}
		if f := checkAgainstRef(stmt, query, c, r.rows, r.err, rep.err, want); f != nil {
			f.Detail = fmt.Sprintf("read %d/%d at snapshot %s: %s", i+1, len(reads), visKey(r.visible), f.Detail)
			return f
		}
	}
	return nil
}

// txnScheduleDisagrees is the schedule shrinker's predicate: commit
// exactly the given batches serially, read at full visibility, and report
// whether the read still disagrees with its replay. Serial execution makes
// the predicate deterministic, which ddmin requires.
func txnScheduleDisagrees(t *Table, c Cell, stmt *sql.SelectStmt, query string, batchIdx []int, seed int64) (bool, string) {
	d, err := newTxnDriver(t, c)
	if err != nil {
		return false, ""
	}
	defer d.Close()
	batches := txnBatchRows(t)
	visible := make([]bool, txnBatches)
	for _, b := range batchIdx {
		visible[b] = true
		loader, err := d.LoadACID(t.Name)
		if err != nil {
			return false, ""
		}
		for _, row := range batches[b] {
			if err := loader.Write(row); err != nil {
				loader.Abort()
				return false, ""
			}
		}
		if err := loader.Close(); err != nil {
			return false, ""
		}
	}
	res, err := d.Run(query)
	var rows []types.Row
	if err == nil {
		rows = res.Rows
	}
	repRows, repErr := txnReplay(t, batches, visible, query, seed)
	var want []types.Row
	if repErr == nil {
		want = normalizeRows(repRows)
	}
	f := checkAgainstRef(stmt, query, c, rows, err, repErr, want)
	if f == nil {
		return false, ""
	}
	return true, f.Detail
}

// scheduleShrinkBudget bounds predicate evaluations per schedule shrink;
// each one builds two warehouses and runs the query twice.
const scheduleShrinkBudget = 60

// ShrinkSchedule ddmin-minimizes a transactional cell failure's batch
// schedule: the smallest batch subset whose serial commit still makes the
// query disagree with its replay. ok is false when the disagreement does
// not reproduce deterministically (a pure interleaving race — still a
// bug, but not schedule-dependent).
func ShrinkSchedule(f *Failure, seed int64) (minimal []int, evals int, ok bool) {
	all := make([]int, txnBatches)
	for i := range all {
		all[i] = i
	}
	pred := func(idxs []int) bool {
		if evals >= scheduleShrinkBudget {
			return false
		}
		evals++
		bad, _ := txnScheduleDisagrees(f.Table, f.Cell, f.Stmt, f.Query, idxs, seed)
		return bad
	}
	if !pred(all) {
		return nil, evals, false
	}
	return ddminIdxs(all, pred), evals, true
}

// ddminIdxs is classic delta debugging over an index list: repeatedly try
// reducing to a chunk or its complement at increasing granularity until
// 1-minimal (no single index can be dropped).
func ddminIdxs(idxs []int, pred func([]int) bool) []int {
	cur := append([]int(nil), idxs...)
	n := 2
	for len(cur) >= 2 {
		chunks := splitIdxs(cur, n)
		reduced := false
		for _, try := range chunks {
			if pred(try) {
				cur, n, reduced = try, 2, true
				break
			}
		}
		if !reduced {
			for i := range chunks {
				try := complementIdxs(chunks, i)
				if pred(try) {
					cur, reduced = try, true
					if n = n - 1; n < 2 {
						n = 2
					}
					break
				}
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}
	return cur
}

func splitIdxs(idxs []int, n int) [][]int {
	out := make([][]int, 0, n)
	size := (len(idxs) + n - 1) / n
	for i := 0; i < len(idxs); i += size {
		end := i + size
		if end > len(idxs) {
			end = len(idxs)
		}
		out = append(out, append([]int(nil), idxs[i:end]...))
	}
	return out
}

func complementIdxs(chunks [][]int, skip int) []int {
	var out []int
	for i, c := range chunks {
		if i != skip {
			out = append(out, c...)
		}
	}
	return out
}
