package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the metric lists the
// program prints in step.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is in BENCHMARK.json but not in the program", w.Name)
		}
	}
	same := func(kind string, spec []struct{ Name, Unit string }, names []string) {
		if len(spec) != len(names) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the program %d", kind, len(spec), len(names))
			return
		}
		for i := range spec {
			if spec[i].Name != names[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %s, program %s", kind, i, spec[i].Name, names[i])
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEndNames)
	same("per_layer", s.PerLayer, perLayerNames)
}

// TestWorkloadsSmoke runs every workload at a tiny size with tracing on
// and checks that each named metric is reported with its unit and that
// every result was correct. serve-ingest runs last: it can stall on the
// dfs lock-order inversion between FS.List and FileWriter.Write, and a
// stalled run is reported as a failure with its goroutine dump.
func TestWorkloadsSmoke(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range workloadNames() {
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 1, seconds: 300 * time.Millisecond, trace: true,
				sz: tinySizes, setupReps: 1, out: t.TempDir()}
			wd := newWatchdog(o.out, 10*time.Second, 2*time.Minute)
			stalled := make(chan int, 1)
			wd.exit = func(code int) { stalled <- code }
			type outcome struct {
				rep *report
				err error
			}
			done := make(chan outcome, 1)
			// A stalled run never returns; its goroutines stay parked on
			// the deadlocked locks of its own warehouse.
			go func() {
				rep, err := run(o, wd)
				done <- outcome{rep, err}
			}()
			var rep *report
			select {
			case <-stalled:
				t.Fatal("stalled: see the STALL lines and goroutine dump above")
			case r := <-done:
				if r.err != nil {
					t.Fatal(r.err)
				}
				rep = r.rep
			}
			if rep.Failed != 0 || rep.EndToEnd["error_rate"].Value != 0 {
				t.Fatalf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			for _, m := range s.EndToEnd {
				if got, ok := rep.EndToEnd[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range s.PerLayer {
				if got, ok := rep.Layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if _, err := os.Stat(rep.SpansFile); err != nil {
				t.Errorf("spans file: %v", err)
			}
			for _, trace := range []bool{false, true} {
				rep.Trace = trace
				line, err := contractLine(rep)
				if err != nil {
					t.Fatal(err)
				}
				var parsed map[string]json.RawMessage
				if err := json.Unmarshal(line, &parsed); err != nil || len(parsed) != 4 {
					t.Errorf("contract line %s: keys %d, err %v", line, len(parsed), err)
				}
			}
		})
	}
}
