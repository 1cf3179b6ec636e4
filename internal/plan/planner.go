package plan

import (
	"fmt"

	"repro/internal/sql"
	"repro/internal/types"
)

// Catalog resolves table names to storage schemas; the Metastore implements
// it (paper §2: the planner contacts the Metastore during analysis).
type Catalog interface {
	TableSchema(name string) (*types.Schema, error)
}

// PlannerOptions configures plan generation.
type PlannerOptions struct {
	// DefaultReducers is the reducer count for shuffles (order-by always
	// uses one). Default 4.
	DefaultReducers int
	// DisableMapSideAgg turns off the Partial/Final group-by split (hash
	// aggregation in the map phase). Map-side aggregation is on by
	// default; the vectorization experiment relies on it doing the heavy
	// lifting in map tasks.
	DisableMapSideAgg bool
}

func (o *PlannerOptions) withDefaults() PlannerOptions {
	out := PlannerOptions{DefaultReducers: 4}
	if o != nil {
		if o.DefaultReducers > 0 {
			out.DefaultReducers = o.DefaultReducers
		}
		out.DisableMapSideAgg = o.DisableMapSideAgg
	}
	return out
}

// Planner translates parsed statements into operator DAGs (paper §2): it
// walks the AST, assembles the operator tree, and inserts ReduceSink
// boundaries before every major operation (joins, group-bys, order-bys)
// that needs its input re-partitioned.
type Planner struct {
	catalog Catalog
	opts    PlannerOptions
}

// NewPlanner creates a planner over a catalog.
func NewPlanner(catalog Catalog, opts *PlannerOptions) *Planner {
	return &Planner{catalog: catalog, opts: opts.withDefaults()}
}

// Plan builds the operator DAG for a statement.
func (pl *Planner) Plan(stmt *sql.SelectStmt) (*Plan, error) {
	p := &Plan{}
	top, err := pl.planQuery(p, stmt)
	if err != nil {
		return nil, err
	}
	sink := p.NewNode(&FileSink{}).(*FileSink)
	sink.Out = top.Schema()
	Connect(top, sink)
	p.Sinks = append(p.Sinks, sink)
	return p, nil
}

// planQuery plans a query block without its terminal sink and returns the
// top operator.
func (pl *Planner) planQuery(p *Plan, stmt *sql.SelectStmt) (Node, error) {
	top, err := pl.planFrom(p, stmt)
	if err != nil {
		return nil, err
	}
	// WHERE: push each conjunct to the deepest operator whose schema can
	// resolve it; residual conjuncts filter above the join chain. The
	// pushed filters matter for the map-join small tables (§5.1) and for
	// predicate pushdown into ORC readers (§4.2).
	if stmt.Where != nil {
		for _, conjunct := range splitConjuncts(stmt.Where) {
			top, err = pl.placeFilter(p, top, conjunct)
			if err != nil {
				return nil, err
			}
		}
	}
	return pl.planSelectAggregate(p, stmt, top)
}

// planFrom plans the FROM clause and its JOINs, left-deep.
func (pl *Planner) planFrom(p *Plan, stmt *sql.SelectStmt) (Node, error) {
	left, err := pl.planTableRef(p, stmt.From)
	if err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		right, err := pl.planTableRef(p, j.Right)
		if err != nil {
			return nil, err
		}
		left, err = pl.planJoin(p, left, right, j.On)
		if err != nil {
			return nil, err
		}
	}
	return left, nil
}

func (pl *Planner) planTableRef(p *Plan, ref sql.TableRef) (Node, error) {
	if ref.Subquery != nil {
		sub, err := pl.planQuery(p, ref.Subquery)
		if err != nil {
			return nil, err
		}
		// Requalify the derived table's output under its alias.
		sel := p.NewNode(&Select{}).(*Select)
		sel.Out = sub.Schema().WithTable(ref.Alias)
		for i, c := range sub.Schema().Cols {
			sel.Exprs = append(sel.Exprs, &ColExpr{Idx: i, K: c.Kind, Name: c.Name})
		}
		Connect(sub, sel)
		return sel, nil
	}
	ts, err := pl.catalog.TableSchema(ref.Table)
	if err != nil {
		return nil, err
	}
	scan := p.NewNode(&TableScan{Table: ref.Table, Alias: ref.Name()}).(*TableScan)
	scan.Out = FromTableSchema(ref.Name(), ts)
	for _, c := range ts.Columns {
		scan.Cols = append(scan.Cols, c.Name)
	}
	return scan, nil
}

// planJoin builds a reduce-side equi-join: an RS boundary on each side
// keyed by the equi-join columns (the map-join optimizer may later convert
// it, §5.1).
func (pl *Planner) planJoin(p *Plan, left, right Node, on sql.Expr) (Node, error) {
	var leftKeys, rightKeys []Expr
	var residual []sql.Expr
	for _, conjunct := range splitConjuncts(on) {
		eq, ok := conjunct.(*sql.BinaryExpr)
		if !ok || eq.Op != "=" {
			residual = append(residual, conjunct)
			continue
		}
		l, errL := CompileExpr(eq.Left, left.Schema())
		r, errR := CompileExpr(eq.Right, right.Schema())
		if errL == nil && errR == nil {
			leftKeys = append(leftKeys, l)
			rightKeys = append(rightKeys, r)
			continue
		}
		// Keys may be written right=left.
		l2, errL2 := CompileExpr(eq.Right, left.Schema())
		r2, errR2 := CompileExpr(eq.Left, right.Schema())
		if errL2 == nil && errR2 == nil {
			leftKeys = append(leftKeys, l2)
			rightKeys = append(rightKeys, r2)
			continue
		}
		residual = append(residual, conjunct)
	}
	if len(leftKeys) == 0 {
		return nil, fmt.Errorf("plan: join has no equi-join condition in %s", on)
	}
	lrs := p.NewNode(&ReduceSink{Keys: leftKeys, NumReducers: pl.opts.DefaultReducers, Tag: 0}).(*ReduceSink)
	lrs.Out = left.Schema()
	Connect(left, lrs)
	rrs := p.NewNode(&ReduceSink{Keys: rightKeys, NumReducers: pl.opts.DefaultReducers, Tag: 1}).(*ReduceSink)
	rrs.Out = right.Schema()
	Connect(right, rrs)
	join := p.NewNode(&Join{NumInputs: 2}).(*Join)
	join.Out = left.Schema().Concat(right.Schema())
	Connect(lrs, join)
	Connect(rrs, join)
	var top Node = join
	for _, conjunct := range residual {
		cond, err := CompileExpr(conjunct, join.Out)
		if err != nil {
			return nil, fmt.Errorf("plan: join condition %s: %w", conjunct, err)
		}
		f := p.NewNode(&Filter{Cond: cond}).(*Filter)
		f.Out = top.Schema()
		Connect(top, f)
		top = f
	}
	return top, nil
}

// placeFilter pushes one conjunct as deep as possible: onto the lowest
// operator (searching upward from top through joins) whose schema resolves
// every column the conjunct references.
func (pl *Planner) placeFilter(p *Plan, top Node, conjunct sql.Expr) (Node, error) {
	if target := deepestResolvable(top, conjunct); target != nil && target != top {
		cond, err := CompileExpr(conjunct, target.Schema())
		if err == nil {
			f := p.NewNode(&Filter{Cond: cond}).(*Filter)
			f.Out = target.Schema()
			// Splice: target's children now read from the filter.
			children := append([]Node(nil), target.Base().Children...)
			for _, c := range children {
				ReplaceParent(c, target, f)
			}
			Connect(target, f)
			return top, nil
		}
	}
	cond, err := CompileExpr(conjunct, top.Schema())
	if err != nil {
		return nil, fmt.Errorf("plan: WHERE %s: %w", conjunct, err)
	}
	f := p.NewNode(&Filter{Cond: cond}).(*Filter)
	f.Out = top.Schema()
	Connect(top, f)
	return f, nil
}

// deepestResolvable searches the source tree under top for the deepest
// single node whose schema resolves the conjunct (joins recurse into both
// sides; the search stops at aggregation or sink boundaries).
func deepestResolvable(top Node, conjunct sql.Expr) Node {
	if _, err := CompileExpr(conjunct, top.Schema()); err != nil {
		return nil
	}
	for _, parent := range top.Base().Parents {
		switch parent.(type) {
		case *TableScan, *Filter, *Select, *Join, *MapJoin, *ReduceSink:
			if deeper := deepestResolvable(parent, conjunct); deeper != nil {
				// Never push below a derived-table Select that renames
				// columns... resolution failing handles that naturally.
				if _, isRS := deeper.(*ReduceSink); !isRS {
					return deeper
				}
			}
		}
	}
	return top
}

// aggInfo records how a select/order expression maps onto group-by output.
type aggInfo struct {
	keyIdx map[string]int // group-by expr text -> key column index
	aggIdx map[string]int // aggregate expr text -> output column index
	schema *Schema
}

// planSelectAggregate handles GROUP BY, aggregates, SELECT, ORDER BY and
// LIMIT above the source tree.
func (pl *Planner) planSelectAggregate(p *Plan, stmt *sql.SelectStmt, top Node) (Node, error) {
	aggs := collectAggregates(stmt)
	var info *aggInfo
	if len(stmt.GroupBy) > 0 || len(aggs) > 0 {
		var err error
		top, info, err = pl.planGroupBy(p, stmt, top, aggs)
		if err != nil {
			return nil, err
		}
	}

	// SELECT projection.
	sel := p.NewNode(&Select{}).(*Select)
	outCols := make([]Column, len(stmt.Items))
	for i, item := range stmt.Items {
		var e Expr
		var err error
		if info != nil {
			e, err = compileOverAggregates(item.Expr, info)
		} else {
			e, err = CompileExpr(item.Expr, top.Schema())
		}
		if err != nil {
			return nil, fmt.Errorf("plan: select item %s: %w", item.Expr, err)
		}
		sel.Exprs = append(sel.Exprs, e)
		name := item.Alias
		if name == "" {
			if c, ok := item.Expr.(*sql.ColumnRef); ok {
				name = c.Column
			} else {
				name = fmt.Sprintf("_c%d", i)
			}
		}
		outCols[i] = Column{Name: name, Kind: e.Kind()}
	}
	sel.Out = NewSchema(outCols...)
	Connect(top, sel)
	top = sel

	// ORDER BY: a single-reducer sort boundary. Keys resolve against the
	// SELECT output: by alias, by matching select-item expression text
	// (so "ORDER BY items.category" finds the projected column), or as a
	// plain expression over the output schema.
	if len(stmt.OrderBy) > 0 {
		byAlias := map[string]int{}
		byText := map[string]int{}
		for i, item := range stmt.Items {
			if item.Alias != "" {
				byAlias[item.Alias] = i
			}
			byText[item.Expr.String()] = i
		}
		resolveKey := func(e sql.Expr) (Expr, error) {
			if idx, ok := byText[e.String()]; ok {
				c := sel.Out.Cols[idx]
				return &ColExpr{Idx: idx, K: c.Kind, Name: c.Name}, nil
			}
			if cr, ok := e.(*sql.ColumnRef); ok {
				if idx, ok := byAlias[cr.Column]; ok {
					c := sel.Out.Cols[idx]
					return &ColExpr{Idx: idx, K: c.Kind, Name: c.Name}, nil
				}
			}
			return CompileExpr(e, top.Schema())
		}
		var keys []Expr
		var desc []bool
		for _, o := range stmt.OrderBy {
			e, err := resolveKey(o.Expr)
			if err != nil {
				return nil, fmt.Errorf("plan: order by %s: %w", o.Expr, err)
			}
			keys = append(keys, e)
			desc = append(desc, o.Desc)
		}
		rs := p.NewNode(&ReduceSink{Keys: keys, NumReducers: 1, SortDesc: desc}).(*ReduceSink)
		rs.Out = top.Schema()
		Connect(top, rs)
		top = rs
	}
	if stmt.Limit >= 0 {
		lim := p.NewNode(&Limit{N: stmt.Limit}).(*Limit)
		lim.Out = top.Schema()
		Connect(top, lim)
		top = lim
	}
	return top, nil
}

// planGroupBy inserts the aggregation boundary: optionally a map-side
// Partial GroupBy, then a ReduceSink on the grouping keys, then the
// reduce-side GroupBy.
func (pl *Planner) planGroupBy(p *Plan, stmt *sql.SelectStmt, top Node, aggExprs []*sql.FuncExpr) (Node, *aggInfo, error) {
	info := &aggInfo{keyIdx: map[string]int{}, aggIdx: map[string]int{}}
	var keys []Expr
	var keyCols []Column
	for i, g := range stmt.GroupBy {
		e, err := CompileExpr(g, top.Schema())
		if err != nil {
			return nil, nil, fmt.Errorf("plan: group by %s: %w", g, err)
		}
		keys = append(keys, e)
		info.keyIdx[g.String()] = i
		name := fmt.Sprintf("_k%d", i)
		if c, ok := g.(*sql.ColumnRef); ok {
			name = c.Column
		}
		keyCols = append(keyCols, Column{Name: name, Kind: e.Kind()})
	}
	var descs []AggDesc
	var aggCols []Column
	for _, f := range aggExprs {
		text := f.String()
		if _, dup := info.aggIdx[text]; dup {
			continue
		}
		fn, ok := ParseAggFunc(f.Name)
		if !ok {
			return nil, nil, fmt.Errorf("plan: unknown aggregate %s", f.Name)
		}
		desc := AggDesc{Func: fn}
		if !f.Star {
			if len(f.Args) != 1 {
				return nil, nil, fmt.Errorf("plan: aggregate %s needs one argument", f.Name)
			}
			arg, err := CompileExpr(f.Args[0], top.Schema())
			if err != nil {
				return nil, nil, fmt.Errorf("plan: aggregate %s: %w", f, err)
			}
			// SUM and AVG take numeric arguments only, as in Hive; the row
			// and vectorized engines would otherwise each fold a BOOLEAN
			// (or string) their own way.
			if k := arg.Kind(); (fn == AggSum || fn == AggAvg) && !k.IsInteger() && !k.IsFloating() {
				return nil, nil, fmt.Errorf("plan: aggregate %s: argument is %s, want a numeric type", f, k)
			}
			desc.Arg = arg
		}
		info.aggIdx[text] = len(keys) + len(descs)
		descs = append(descs, desc)
		aggCols = append(aggCols, Column{Name: fmt.Sprintf("_a%d", len(descs)-1), Kind: desc.ResultKind()})
	}
	finalSchema := NewSchema(append(append([]Column{}, keyCols...), aggCols...)...)

	if !pl.opts.DisableMapSideAgg {
		// Map-side partial aggregation, shipping partial states.
		partial := p.NewNode(&GroupBy{Keys: keys, Aggs: descs, Mode: GBYPartial}).(*GroupBy)
		var stateCols []Column
		for i, d := range descs {
			for j, k := range d.StateKinds() {
				stateCols = append(stateCols, Column{Name: fmt.Sprintf("_s%d_%d", i, j), Kind: k})
			}
		}
		partial.Out = NewSchema(append(append([]Column{}, keyCols...), stateCols...)...)
		Connect(top, partial)

		// Shuffle on the key columns of the partial output.
		var rsKeys []Expr
		for i, kc := range keyCols {
			rsKeys = append(rsKeys, &ColExpr{Idx: i, K: kc.Kind, Name: kc.Name})
		}
		rs := p.NewNode(&ReduceSink{Keys: rsKeys, NumReducers: pl.reducersForKeys(keys), Tag: 0}).(*ReduceSink)
		rs.Out = partial.Out
		Connect(partial, rs)

		final := p.NewNode(&GroupBy{Keys: rsKeys, Aggs: descs, Mode: GBYFinal}).(*GroupBy)
		final.Out = finalSchema
		Connect(rs, final)
		info.schema = finalSchema
		return final, info, nil
	}

	rs := p.NewNode(&ReduceSink{Keys: keys, NumReducers: pl.reducersForKeys(keys), Tag: 0}).(*ReduceSink)
	rs.Out = top.Schema()
	Connect(top, rs)
	complete := p.NewNode(&GroupBy{Keys: keys, Aggs: descs, Mode: GBYComplete}).(*GroupBy)
	complete.Out = finalSchema
	Connect(rs, complete)
	info.schema = finalSchema
	return complete, info, nil
}

// reducersForKeys uses a single reducer for global (keyless) aggregation.
func (pl *Planner) reducersForKeys(keys []Expr) int {
	if len(keys) == 0 {
		return 1
	}
	return pl.opts.DefaultReducers
}

// compileOverAggregates compiles a post-aggregation expression: aggregate
// calls and group-by keys become column references into the GroupBy output.
func compileOverAggregates(e sql.Expr, info *aggInfo) (Expr, error) {
	if idx, ok := info.keyIdx[e.String()]; ok {
		c := info.schema.Cols[idx]
		return &ColExpr{Idx: idx, K: c.Kind, Name: c.Name}, nil
	}
	if idx, ok := info.aggIdx[e.String()]; ok {
		c := info.schema.Cols[idx]
		return &ColExpr{Idx: idx, K: c.Kind, Name: c.Name}, nil
	}
	switch t := e.(type) {
	case *sql.BinaryExpr:
		l, err := compileOverAggregates(t.Left, info)
		if err != nil {
			return nil, err
		}
		r, err := compileOverAggregates(t.Right, info)
		if err != nil {
			return nil, err
		}
		return combineBinary(t.Op, l, r)
	case *sql.IntLit:
		return &ConstExpr{Value: t.Value, K: types.Long}, nil
	case *sql.FloatLit:
		return &ConstExpr{Value: t.Value, K: types.Double}, nil
	case *sql.StringLit:
		return &ConstExpr{Value: t.Value, K: types.String}, nil
	case *sql.ColumnRef:
		// A bare column must be a group-by key; plain name match over the
		// aggregate schema covers keys named by ColumnRef group-bys.
		if idx, err := info.schema.Resolve("", t.Column); err == nil {
			c := info.schema.Cols[idx]
			return &ColExpr{Idx: idx, K: c.Kind, Name: c.Name}, nil
		}
		return nil, fmt.Errorf("column %s is neither aggregated nor grouped", t)
	}
	return nil, fmt.Errorf("expression %s mixes aggregate and non-aggregate terms unsupportedly", e)
}

// collectAggregates gathers the aggregate calls in SELECT and ORDER BY.
func collectAggregates(stmt *sql.SelectStmt) []*sql.FuncExpr {
	var out []*sql.FuncExpr
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch t := e.(type) {
		case *sql.FuncExpr:
			if t.IsAggregate() {
				out = append(out, t)
				return
			}
			for _, a := range t.Args {
				walk(a)
			}
		case *sql.BinaryExpr:
			walk(t.Left)
			walk(t.Right)
		case *sql.NotExpr:
			walk(t.Inner)
		case *sql.BetweenExpr:
			walk(t.Operand)
			walk(t.Lo)
			walk(t.Hi)
		case *sql.InExpr:
			walk(t.Operand)
			for _, l := range t.List {
				walk(l)
			}
		case *sql.IsNullExpr:
			walk(t.Operand)
		}
	}
	for _, item := range stmt.Items {
		walk(item.Expr)
	}
	for _, o := range stmt.OrderBy {
		walk(o.Expr)
	}
	return out
}

// splitConjuncts flattens a conjunction into its AND-ed parts.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []sql.Expr{e}
}

// CompileExpr compiles an AST expression against a schema; aggregate calls
// are rejected (they are handled by planGroupBy).
func CompileExpr(e sql.Expr, schema *Schema) (Expr, error) {
	switch t := e.(type) {
	case *sql.ColumnRef:
		idx, err := schema.Resolve(t.Table, t.Column)
		if err != nil {
			return nil, err
		}
		c := schema.Cols[idx]
		return &ColExpr{Idx: idx, K: c.Kind, Name: qualified(c.Table, c.Name)}, nil
	case *sql.IntLit:
		return &ConstExpr{Value: t.Value, K: types.Long}, nil
	case *sql.FloatLit:
		return &ConstExpr{Value: t.Value, K: types.Double}, nil
	case *sql.StringLit:
		return &ConstExpr{Value: t.Value, K: types.String}, nil
	case *sql.BoolLit:
		return &ConstExpr{Value: t.Value, K: types.Boolean}, nil
	case *sql.NullLit:
		return &ConstExpr{Value: nil, K: types.Long}, nil
	case *sql.BinaryExpr:
		l, err := CompileExpr(t.Left, schema)
		if err != nil {
			return nil, err
		}
		r, err := CompileExpr(t.Right, schema)
		if err != nil {
			return nil, err
		}
		return combineBinary(t.Op, l, r)
	case *sql.NotExpr:
		inner, err := CompileExpr(t.Inner, schema)
		if err != nil {
			return nil, err
		}
		return &NotExpr{Inner: inner}, nil
	case *sql.BetweenExpr:
		op, err := CompileExpr(t.Operand, schema)
		if err != nil {
			return nil, err
		}
		lo, err := CompileExpr(t.Lo, schema)
		if err != nil {
			return nil, err
		}
		hi, err := CompileExpr(t.Hi, schema)
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Operand: op, Lo: lo, Hi: hi}, nil
	case *sql.InExpr:
		op, err := CompileExpr(t.Operand, schema)
		if err != nil {
			return nil, err
		}
		var list []Expr
		for _, item := range t.List {
			c, err := CompileExpr(item, schema)
			if err != nil {
				return nil, err
			}
			list = append(list, c)
		}
		return &InExpr{Operand: op, List: list}, nil
	case *sql.IsNullExpr:
		op, err := CompileExpr(t.Operand, schema)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{Operand: op, Negated: t.Negated}, nil
	case *sql.FuncExpr:
		if t.IsAggregate() {
			return nil, fmt.Errorf("aggregate %s outside GROUP BY context", t)
		}
		return nil, fmt.Errorf("unknown function %s", t.Name)
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

func combineBinary(op string, l, r Expr) (Expr, error) {
	switch op {
	case "+", "-", "*", "/":
		return NewArith(op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		return &CompareExpr{Op: op, Left: l, Right: r}, nil
	case "AND", "OR":
		return &LogicalExpr{Op: op, Left: l, Right: r}, nil
	}
	return nil, fmt.Errorf("unsupported operator %s", op)
}
