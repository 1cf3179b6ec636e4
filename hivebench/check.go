package main

// Result checking follows the internal/qcheck oracle: a timed answer must
// equal the answer of the unoptimized MapReduce/row reference
// configuration as a multiset of rows (or in order, for ORDER BY queries),
// with canonical NULL and -0, exact integers and floats equal within a
// relative epsilon of 1e-9, since sum order differs across engines.

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/types"
)

func floatsClose(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	diff := math.Abs(a - b)
	return diff < 1e-9 || diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func numVal(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func valueEq(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if ai, ok := a.(int64); ok {
		if bi, ok := b.(int64); ok {
			return ai == bi
		}
	}
	if af, ok := numVal(a); ok {
		bf, ok := numVal(b)
		return ok && floatsClose(af, bf)
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// sortKey renders a row with floats at 8 significant digits, so rows that
// differ only in float low bits sort to the same position on both sides.
func sortKey(r types.Row) string {
	var b []byte
	for _, v := range r {
		switch x := v.(type) {
		case nil:
			b = append(b, "N|"...)
		case float64:
			b = strconv.AppendFloat(b, x+0, 'e', 7, 64) // +0 folds -0
			b = append(b, '|')
		default:
			b = append(b, fmt.Sprint(x)...)
			b = append(b, '|')
		}
	}
	return string(b)
}

// canonical returns the rows in comparison order: as produced when the
// query orders them, multiset-sorted otherwise.
func canonical(rows []types.Row, ordered bool) []types.Row {
	out := append([]types.Row(nil), rows...)
	if !ordered {
		sort.SliceStable(out, func(i, j int) bool { return sortKey(out[i]) < sortKey(out[j]) })
	}
	return out
}

// diffRows returns "" when got matches the canonical reference want.
func diffRows(want, got []types.Row, ordered bool) string {
	got = canonical(got, ordered)
	if len(want) != len(got) {
		return fmt.Sprintf("row count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Sprintf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !valueEq(want[i][j], got[i][j]) {
				return fmt.Sprintf("row %d col %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return ""
}
