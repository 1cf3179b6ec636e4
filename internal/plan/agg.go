package plan

import (
	"fmt"

	"repro/internal/types"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc int

// Aggregate functions (TPC-H q1 uses sum/avg/count, q6 sum; the Figure 4
// example uses avg and sum).
const (
	AggSum AggFunc = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name.
func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return fmt.Sprintf("agg(%d)", int(f))
}

// ParseAggFunc maps a lower-case SQL name to an AggFunc.
func ParseAggFunc(name string) (AggFunc, bool) {
	switch name {
	case "sum":
		return AggSum, true
	case "count":
		return AggCount, true
	case "avg":
		return AggAvg, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	}
	return 0, false
}

// AggDesc describes one aggregation in a GroupBy operator.
type AggDesc struct {
	Func AggFunc
	// Arg is the aggregated expression; nil for count(*).
	Arg Expr
}

// ResultKind is the output type of the aggregate.
func (a AggDesc) ResultKind() types.Kind {
	switch a.Func {
	case AggCount:
		return types.Long
	case AggAvg:
		return types.Double
	case AggSum:
		if a.Arg != nil && a.Arg.Kind().IsInteger() {
			return types.Long
		}
		return types.Double
	default: // min/max preserve the argument kind
		if a.Arg == nil {
			return types.Long
		}
		return a.Arg.Kind()
	}
}

// StateWidth is the number of state columns a partial (map-side) aggregate
// ships to the reducer: avg ships (sum, count), everything else one column.
func (a AggDesc) StateWidth() int {
	if a.Func == AggAvg {
		return 2
	}
	return 1
}

// StateKinds returns the kinds of the partial-state columns.
func (a AggDesc) StateKinds() []types.Kind {
	switch a.Func {
	case AggAvg:
		return []types.Kind{types.Double, types.Long}
	case AggCount:
		return []types.Kind{types.Long}
	case AggSum:
		return []types.Kind{a.ResultKind()}
	default:
		return []types.Kind{a.ResultKind()}
	}
}

// AggState is the running state of one aggregate over one group.
type AggState struct {
	desc  AggDesc
	sum   float64
	isum  int64
	count int64
	min   any
	max   any
}

// NewAggState creates an empty state for the descriptor.
func NewAggState(desc AggDesc) *AggState { return &AggState{desc: desc} }

// Reset empties the state in place for the next group.
func (s *AggState) Reset() { *s = AggState{desc: s.desc} }

// Update folds one input row into the state (Complete/Partial modes).
func (s *AggState) Update(row types.Row) {
	var v any
	if s.desc.Arg != nil {
		v = s.desc.Arg.Eval(row)
	}
	switch s.desc.Func {
	case AggCount:
		if s.desc.Arg == nil || v != nil {
			s.count++
		}
	case AggSum, AggAvg:
		if v == nil {
			return
		}
		switch x := v.(type) {
		case int64:
			s.isum += x
			s.sum += float64(x)
		case float64:
			s.sum += x
		}
		s.count++
	case AggMin:
		if v == nil {
			return
		}
		if s.min == nil || compareValues(v, s.min) < 0 {
			s.min = v
		}
	case AggMax:
		if v == nil {
			return
		}
		if s.max == nil || compareValues(v, s.max) > 0 {
			s.max = v
		}
	}
}

// Merge folds partial-state columns (produced by AppendPartial on the map
// side) into the state (Final mode). state holds exactly StateWidth values.
func (s *AggState) Merge(state []any) {
	switch s.desc.Func {
	case AggCount:
		if state[0] != nil {
			s.count += state[0].(int64)
		}
	case AggSum:
		if state[0] == nil {
			return
		}
		switch x := state[0].(type) {
		case int64:
			s.isum += x
			s.sum += float64(x)
		case float64:
			s.sum += x
		}
		s.count++
	case AggAvg:
		if state[0] != nil {
			s.sum += state[0].(float64)
		}
		if state[1] != nil {
			s.count += state[1].(int64)
		}
	case AggMin:
		if state[0] != nil && (s.min == nil || compareValues(state[0], s.min) < 0) {
			s.min = state[0]
		}
	case AggMax:
		if state[0] != nil && (s.max == nil || compareValues(state[0], s.max) > 0) {
			s.max = state[0]
		}
	}
}

// AppendPartial appends the map-side partial state columns to out.
func (s *AggState) AppendPartial(out []any) []any {
	switch s.desc.Func {
	case AggCount:
		return append(out, s.count)
	case AggSum:
		return append(out, s.sumValue())
	case AggAvg:
		return append(out, s.sum, s.count)
	case AggMin:
		return append(out, s.min)
	case AggMax:
		return append(out, s.max)
	}
	return out
}

// Result emits the final aggregate value.
func (s *AggState) Result() any {
	switch s.desc.Func {
	case AggCount:
		return s.count
	case AggSum:
		return s.sumValue()
	case AggAvg:
		if s.count == 0 {
			return nil
		}
		return s.sum / float64(s.count)
	case AggMin:
		return s.min
	case AggMax:
		return s.max
	}
	return nil
}

func (s *AggState) sumValue() any {
	if s.count == 0 {
		return nil
	}
	if s.desc.ResultKind() == types.Long {
		return s.isum
	}
	return s.sum
}
