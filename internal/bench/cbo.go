// cbo.go drives E16: cost-based optimization from catalog statistics. A
// q27-style star join is written with its dimensions in a deliberately
// bad order — the fanning-out demographics dimension first, the selective
// promotion dimension last — and runs once under the heuristic planner
// (query order) and once under CBO (statistics order). Reported per
// configuration: wall-clock, bytes read, shuffle volume, which dimension
// joined first, and for the CBO run the per-operator estimate-vs-actual
// row error that EXPLAIN ANALYZE surfaces.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/fileformat"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/workload"
)

// CBORow is one configuration's measurement.
type CBORow struct {
	Config       string
	Elapsed      time.Duration
	BytesRead    int64
	ShuffleBytes int64
	Rows         int
	// FirstDim is the dimension the plan joins against the fact table
	// first — the observable join-order decision.
	FirstDim string
	// MeanEstErr is the mean relative |estimated − actual| row error over
	// operators carrying estimates (0 for the heuristic run, which has
	// none); EstOps counts those operators.
	MeanEstErr float64
	EstOps     int
}

// CBOReport bundles E16's outputs.
type CBOReport struct {
	Runs []CBORow
	// OrderChanged reports whether CBO picked a different first dimension
	// than the query's textual order — the experiment's headline claim.
	OrderChanged bool
	// Speedup is heuristic elapsed over CBO elapsed.
	Speedup    float64
	Consistent bool
	Mismatches []string
}

// cboTables is the skewed star: sales fans out 15× into cust_demo
// (duplicate keys) and matches at most 6 of its 8 promotion keys in
// promo, so statistics order (promo first) beats query order.
func cboTables() []TableSpec {
	fact := types.NewSchema(
		types.Col("cd_key", types.Primitive(types.Long)),
		types.Col("promo_key", types.Primitive(types.Long)),
		types.Col("qty", types.Primitive(types.Long)),
		types.Col("price", types.Primitive(types.Double)),
	)
	demo := types.NewSchema(
		types.Col("cd_id", types.Primitive(types.Long)),
		types.Col("band", types.Primitive(types.String)),
	)
	promo := types.NewSchema(
		types.Col("p_id", types.Primitive(types.Long)),
		types.Col("p_name", types.Primitive(types.String)),
	)
	return []TableSpec{
		{"sales", fact, func(sc workload.Scale, emit workload.Emit) error {
			for i := 0; i < sc.StoreSales; i++ {
				err := emit(types.Row{int64(i % 40), int64(i % 8), int64(i % 5), float64(i%100) / 3})
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"cust_demo", demo, func(sc workload.Scale, emit workload.Emit) error {
			for i := 0; i < sc.StoreSales/15; i++ {
				if err := emit(types.Row{int64(i % 40), fmt.Sprintf("band%d", i%7)}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"promo", promo, func(sc workload.Scale, emit workload.Emit) error {
			for i := 0; i < 6; i++ {
				if err := emit(types.Row{int64(i), fmt.Sprintf("promo%d", i)}); err != nil {
					return err
				}
			}
			return nil
		}},
	}
}

// cboQuery lists the fanning-out dimension first on purpose.
const cboQuery = `SELECT count(*), sum(sales.price) FROM sales
	JOIN cust_demo ON sales.cd_key = cust_demo.cd_id
	JOIN promo ON sales.promo_key = promo.p_id`

// cboFirstDim names the dimension on the tag-1 side of the join whose
// tag-0 (spine) side reaches the sales scan.
func cboFirstDim(p *plan.Plan) string {
	var dim string
	p.Walk(func(n plan.Node) {
		j, ok := n.(*plan.Join)
		if !ok || len(j.Parents) != 2 {
			return
		}
		if cboScans(j.Parents[0])["sales"] {
			for name := range cboScans(j.Parents[1]) {
				dim = name
			}
		}
	})
	return dim
}

func cboScans(n plan.Node) map[string]bool {
	out := map[string]bool{}
	seen := map[plan.Node]bool{}
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if ts, ok := n.(*plan.TableScan); ok && !strings.HasPrefix(ts.Table, "_tmp_") {
			out[ts.Table] = true
		}
		for _, p := range n.Base().Parents {
			walk(p)
		}
	}
	walk(n)
	return out
}

// cboEstError averages the relative estimate error over every operator
// that both carries an estimate and committed a runtime profile.
func cboEstError(p *plan.Plan, prof *obs.PlanProfile) (float64, int) {
	var sum float64
	var n int
	p.Walk(func(node plan.Node) {
		b := node.Base()
		if !b.EstSet {
			return
		}
		st := prof.Lookup(b.ID)
		if st == nil {
			return
		}
		actual := float64(st.Rows.Load())
		sum += math.Abs(float64(b.EstRows)-actual) / math.Max(actual, 1)
		n++
	})
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func cboMeasure(env *Env, name string) (CBORow, []interface{}, error) {
	res, p, prof, err := env.Driver.RunProfiledWith(context.Background(), env.Driver.Config(), cboQuery)
	if err != nil {
		return CBORow{}, nil, fmt.Errorf("bench: cbo %s: %w", name, err)
	}
	errRate, estOps := cboEstError(p, prof)
	return CBORow{
		Config:       name,
		Elapsed:      res.Stats.Elapsed,
		BytesRead:    res.Stats.TotalBytesRead,
		ShuffleBytes: res.Stats.ShuffleBytes,
		Rows:         len(res.Rows),
		FirstDim:     cboFirstDim(p),
		MeanEstErr:   errRate,
		EstOps:       estOps,
	}, flattenRows(res), nil
}

// RunCBO measures the star join under the heuristic planner and under
// CBO, keeping the fastest of runs repetitions per configuration.
func RunCBO(cfg EnvConfig, runs int) (*CBOReport, error) {
	if runs <= 0 {
		runs = 3
	}
	base := cfg
	base.Format = fileformat.ORC
	base.Tez = true
	base.DiskBandwidth = -1
	base.LaunchOverhead = 0
	// Shuffle joins only: map-join conversion would hash-build both tiny
	// dimensions and mask the join-order effect this experiment isolates.
	base.Opt = optimizer.Options{PredicatePushdown: true, Correlation: false}

	rep := &CBOReport{Consistent: true}
	var want []interface{}
	for _, c := range []struct {
		name string
		cbo  bool
	}{{"heuristic", false}, {"cbo", true}} {
		ecfg := base
		ecfg.Opt.CBO = c.cbo
		env, _, err := NewEnv(ecfg, cboTables())
		if err != nil {
			return nil, err
		}
		best, rows, err := cboMeasure(env, c.name)
		if err != nil {
			env.Driver.Close()
			return nil, err
		}
		for i := 1; i < runs; i++ {
			r, _, err := cboMeasure(env, c.name)
			if err != nil {
				env.Driver.Close()
				return nil, err
			}
			if r.Elapsed < best.Elapsed {
				best = r
			}
		}
		env.Driver.Close()
		rep.Runs = append(rep.Runs, best)
		if want == nil {
			want = rows
		} else if msg := compareResults(want, rows); msg != "" {
			rep.Consistent = false
			rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("%s vs heuristic: %s", c.name, msg))
		}
	}
	h, c := rep.Runs[0], rep.Runs[1]
	rep.OrderChanged = h.FirstDim != c.FirstDim
	if c.Elapsed > 0 {
		rep.Speedup = float64(h.Elapsed) / float64(c.Elapsed)
	}
	return rep, nil
}

// PrintCBO renders the experiment.
func PrintCBO(w io.Writer, rep *CBOReport) {
	fmt.Fprintln(w, "E16: cost-based join ordering from ORC statistics — skewed star join")
	fmt.Fprintf(w, "%-10s %12s %12s %13s %6s %-10s %10s %7s\n",
		"config", "elapsed(ms)", "bytes", "shuffle", "rows", "first dim", "est err", "est ops")
	for _, r := range rep.Runs {
		fmt.Fprintf(w, "%-10s %12d %12d %13d %6d %-10s %9.1f%% %7d\n",
			r.Config, r.Elapsed.Milliseconds(), r.BytesRead, r.ShuffleBytes,
			r.Rows, r.FirstDim, 100*r.MeanEstErr, r.EstOps)
	}
	if rep.OrderChanged {
		fmt.Fprintf(w, "CBO reordered the chain (%s first instead of %s): %.2fx elapsed\n",
			rep.Runs[1].FirstDim, rep.Runs[0].FirstDim, rep.Speedup)
	} else {
		fmt.Fprintln(w, "CBO kept the textual join order")
	}
	if rep.Consistent {
		fmt.Fprintln(w, "Results identical across heuristic and CBO plans.")
	} else {
		fmt.Fprintln(w, "RESULT MISMATCHES:")
		for _, m := range rep.Mismatches {
			fmt.Fprintln(w, "  "+m)
		}
	}
}
