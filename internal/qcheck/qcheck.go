// Package qcheck is a seeded differential testing harness (SQLancer
// style) for the reproduction's query stack: generate random tables and
// random queries, run each query on every cell of the
// {engine × format × pushdown × faults} matrix, and demand that every
// cell return the reference cell's answer — MapReduce over TextFile with
// every optimization off, the simplest path through the system. Any
// disagreement is minimized by a delta-debugging shrinker into a small
// replayable repro (E11).
package qcheck

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/sql"
	"repro/internal/types"
)

// Config tunes one fuzzing run; the zero value takes defaults.
type Config struct {
	// Seed drives table generation, query generation and fault injection;
	// same seed, same everything — queries, verdicts, fingerprint.
	Seed int64
	// Queries is the number of generated queries (default 100).
	Queries int
	// QueriesPerTable is how many queries share one generated table
	// before a fresh schema+dataset is drawn (default 10).
	QueriesPerTable int
	// FullFaults runs the whole fault axis (every engine × format ×
	// pushdown cell again under injected faults) instead of one
	// representative faulted cell per engine.
	FullFaults bool
	// Shrink minimizes disagreements before reporting (default true via
	// NoShrink=false).
	NoShrink bool
	// MaxFailures stops the run after this many disagreements (default 3;
	// each one triggers a shrink, which is the expensive part).
	MaxFailures int
	// Progress, when non-nil, receives a line per scenario (benchrunner
	// wires this to stdout; tests leave it nil).
	Progress func(string)
	// cells overrides the comparison matrix (tests use it to focus a run
	// on one axis, e.g. just {reference, cbo}); nil means Matrix().
	cells []Cell
}

func (c Config) withDefaults() Config {
	if c.Queries <= 0 {
		c.Queries = 100
	}
	if c.QueriesPerTable <= 0 {
		c.QueriesPerTable = 10
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 3
	}
	return c
}

// Failure is one disagreement between a cell and the reference cell.
type Failure struct {
	// Query is the SQL text that disagreed (pre-shrink).
	Query string
	// Cell is the first disagreeing cell.
	Cell Cell
	// Detail describes the disagreement (row diff, error mismatch,
	// ORDER BY violation).
	Detail string
	// Table is the scenario table the query ran against (pre-shrink).
	Table *Table
	// Stmt is the parsed-back statement (what the shrinker minimizes).
	Stmt *sql.SelectStmt
	// Repro is the shrunk reproduction, nil when shrinking was off or
	// the shrink could not re-trigger the disagreement.
	Repro *Repro
}

// Report is one fuzzing run's outcome.
type Report struct {
	Seed       int64
	Cells      int   // matrix cells compared per query (incl. reference)
	Scenarios  int   // tables generated
	Queries    int   // statements generated and cross-checked
	Executions int64 // query executions across all cells; each /txn read counts with its replay
	Failures   []*Failure
	// PlanDivergences counts queries whose optimized plan changed when CBO
	// was toggled on (join order, map-join choice, or estimate-driven
	// rewrites). Divergence is expected and healthy; it is only meaningful
	// because every divergent plan still produced the reference answer.
	PlanDivergences int64
	// Fingerprint hashes every query text and verdict; two runs with the
	// same seed and config must produce the same fingerprint.
	Fingerprint uint64
}

// Run executes one fuzzing run.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	cells := cfg.cells
	if cells == nil {
		cells = Matrix(cfg.FullFaults)
	}
	rep := &Report{Seed: cfg.Seed, Cells: len(cells)}
	fp := fnv.New64a()

	rng := rand.New(rand.NewSource(cfg.Seed))
	for rep.Queries < cfg.Queries && len(rep.Failures) < cfg.MaxFailures {
		table := GenTable(rng, GenOptions{AllowEmpty: true, Dims: true})
		envs, err := newEnvSet(table, cells, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("qcheck: scenario %d: %w", rep.Scenarios, err)
		}
		rep.Scenarios++
		n := cfg.QueriesPerTable
		if left := cfg.Queries - rep.Queries; n > left {
			n = left
		}
		var scenarioFails int
		for i := 0; i < n && len(rep.Failures) < cfg.MaxFailures; i++ {
			stmt := GenQuery(rng, table)
			query := stmt.String()
			verdict := runOne(envs, cells, table, stmt, query, &rep.Executions, &rep.PlanDivergences)
			rep.Queries++
			fmt.Fprintf(fp, "%s\x00%s\x01", query, verdictText(verdict))
			if verdict != nil {
				verdict.Table = table
				verdict.Stmt = stmt
				rep.Failures = append(rep.Failures, verdict)
				scenarioFails++
			}
		}
		envs.close()
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("scenario %d: %d rows, %d queries, %d disagreements",
				rep.Scenarios, len(table.Rows), n, scenarioFails))
		}
	}
	rep.Fingerprint = fp.Sum64()

	if !cfg.NoShrink {
		for _, f := range rep.Failures {
			if f.Cell.Txn {
				// Minimize the transaction schedule first: knowing the
				// smallest committed-batch subset that still disagrees is
				// the txn axis's analogue of row minimization.
				if minimal, evals, ok := ShrinkSchedule(f, cfg.Seed); ok {
					f.Detail += fmt.Sprintf(" [minimal schedule: batches %v, %d evals]", minimal, evals)
				}
			}
			if f.Cell.Prune {
				// Minimize the layout first: the smallest partition-spec
				// clause subset that still disagrees is the layout axis's
				// analogue of row minimization.
				if minimal, evals, ok := ShrinkSpec(f, cfg.Seed); ok {
					f.Detail += fmt.Sprintf(" [minimal layout: %s, %d evals]", minimal, evals)
				}
			}
			f.Repro = ShrinkFailure(f, cfg.Seed)
		}
	}
	return rep, nil
}

func verdictText(f *Failure) string {
	if f == nil {
		return "ok"
	}
	return "FAIL " + f.Cell.ID() + ": " + f.Detail
}

// runOne cross-checks one query over the matrix; nil means all cells
// agreed.
func runOne(envs *envSet, cells []Cell, table *Table, stmt *sql.SelectStmt, query string, execs, planDivs *int64) *Failure {
	ref := cells[0]
	refEnv := envs.get(ref)
	refEnv.configure(ref)
	*execs++
	refRes, refErr := refEnv.driver.Run(query)

	var want []types.Row
	if refErr == nil {
		if msg := checkOrdered(stmt, refRes.Rows); msg != "" {
			return &Failure{Query: query, Cell: ref, Detail: msg}
		}
		want = normalizeRows(refRes.Rows)
	}

	for _, c := range cells[1:] {
		if c.Txn {
			// The transactional cell owns its environments: writers mutate
			// the table, so every query gets a fresh warehouse and its own
			// replay oracles rather than the shared reference result.
			if f := runTxnCell(table, c, stmt, query, envs.seed, execs); f != nil {
				return f
			}
			continue
		}
		if c.Prune {
			// The layout cell owns its warehouse (the scenario rows under a
			// derived partition/bucket/replica spec) and swaps configs per
			// mode itself; a nil env means this table offers no layout.
			if env := envs.get(c); env != nil {
				if f := runPruneCell(env, c, stmt, query, refErr, want, execs); f != nil {
					return f
				}
			}
			continue
		}
		env := envs.get(c)
		env.configure(c)
		if c.Sys {
			*execs += 2 // the query itself plus the sys.queries dogfood read
			if f := runSysCell(env, c, stmt, query, refErr, want); f != nil {
				return f
			}
			continue
		}
		if c.Concurrent {
			*execs += concurrentSessions
			allRows, errs := runConcurrent(env.driver, query)
			for i := range errs {
				if f := checkAgainstRef(stmt, query, c, allRows[i], errs[i], refErr, want); f != nil {
					f.Detail = fmt.Sprintf("session %d/%d: %s", i+1, concurrentSessions, f.Detail)
					return f
				}
			}
			continue
		}
		*execs++
		res, err := env.driver.Run(query)
		var rows []types.Row
		if err == nil {
			rows = res.Rows
		}
		if f := checkAgainstRef(stmt, query, c, rows, err, refErr, want); f != nil {
			return f
		}
		if c.CBO && err == nil {
			// Plan differential: the results above already agreed with the
			// reference, so any plan change CBO made is safe by
			// construction; record how often it changed anything. Explain
			// errors are ignored — correctness is owned by the result check.
			off := c
			off.CBO = false
			offPlan, offErr := env.planString(off, query)
			onPlan, onErr := env.planString(c, query)
			if offErr == nil && onErr == nil && offPlan != onPlan {
				*planDivs++
			}
		}
	}
	return nil
}

// checkAgainstRef applies the agreement rules for one execution of one
// cell: errors must match the reference's error-ness, ORDER BY must hold,
// and normalized rows must equal the reference's.
func checkAgainstRef(stmt *sql.SelectStmt, query string, c Cell, rows []types.Row, err, refErr error, want []types.Row) *Failure {
	switch {
	case refErr != nil && err == nil:
		return &Failure{Query: query, Cell: c,
			Detail: fmt.Sprintf("reference errored (%v) but cell succeeded", refErr)}
	case refErr == nil && err != nil:
		return &Failure{Query: query, Cell: c, Detail: fmt.Sprintf("cell errored: %v", err)}
	case refErr != nil:
		return nil // both errored: agreement
	}
	if msg := checkOrdered(stmt, rows); msg != "" {
		return &Failure{Query: query, Cell: c, Detail: msg}
	}
	if msg := compareNormalized(want, normalizeRows(rows)); msg != "" {
		return &Failure{Query: query, Cell: c, Detail: msg}
	}
	return nil
}

// disagreement re-runs one (table, stmt) pair on just {reference, cell}
// and reports whether they still disagree; the shrinker's predicate.
func disagreement(t *Table, stmt *sql.SelectStmt, cell Cell, seed int64) (bool, string) {
	cells := []Cell{{Engine: allEngines[0], Format: allFormats[0], Reference: true}, cell}
	envs, err := newEnvSet(t, cells, seed)
	if err != nil {
		return false, ""
	}
	defer envs.close()
	var execs, planDivs int64
	f := runOne(envs, cells, t, stmt, stmt.String(), &execs, &planDivs)
	if f == nil {
		return false, ""
	}
	return true, f.Detail
}
