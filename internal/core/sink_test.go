package core

import (
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/plan"
	"repro/internal/types"
)

// TestSinkSetCopiesBorrowedRows checks the FileSink end of the
// borrowed-row contract: the final-result rows and the in-memory temp rows
// an attempt buffers are copies, so the operator that produced them may
// reuse its row as soon as SinkRow returns.
func TestSinkSetCopiesBorrowedRows(t *testing.T) {
	schema := plan.NewSchema(
		plan.Column{Name: "k", Kind: types.Long},
		plan.Column{Name: "v", Kind: types.String},
	)
	ex := &executor{
		tez:      true,
		compiled: &compiler.Compiled{TempSchemas: map[string]*plan.Schema{"tmp": schema}},
		memTemps: map[string][][]types.Row{},
	}
	s := ex.newSinkSet("r-00000-a00")
	row := types.Row{int64(1), "a"}
	for _, dest := range []string{"", "tmp"} {
		if err := s.sinkRow(dest, row); err != nil {
			t.Fatal(err)
		}
	}
	row[0], row[1] = int64(-1), "clobbered"
	if err := s.commit(); err != nil {
		t.Fatal(err)
	}
	want := []types.Row{{int64(1), "a"}}
	if !reflect.DeepEqual(ex.results, want) {
		t.Errorf("result rows = %v, want %v", ex.results, want)
	}
	if got := ex.memTemps["tmp"]; len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Errorf("temp rows = %v, want one chunk %v", got, want)
	}
}
