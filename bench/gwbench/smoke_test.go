package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The harness re-execs its own binary as `worker`; under `go test` that
// binary is the test executable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(workerMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestCheck runs all four workloads at 1/64 size on all three runtimes —
// real worker processes and a real HTTP listener included — and requires
// every output to verify against its reference and every metric to be
// measured.
func TestCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes; skipped under -short")
	}
	var out bytes.Buffer
	if err := run([]string{"-check", "-scratch", t.TempDir()}, &out); err != nil {
		t.Fatalf("gwbench -check: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), " attempted, 0 failed\n") {
		t.Errorf("operations failed:\n%s", out.String())
	}
}

// TestContractLine checks the last line of a contract run: exactly the four
// keys, and exactly the per-layer metric names for -trace 1.
func TestContractLine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes; skipped under -short")
	}
	var out bytes.Buffer
	if err := run([]string{"-check", "-workload", "ts-uniform", "-trace", "1", "-scratch", t.TempDir()}, &out); err != nil {
		t.Fatalf("gwbench: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(rep) != 4 || rep["correct"] == nil || rep["attempted"] == nil || rep["failed"] == nil {
		t.Errorf("last line keys: %s", lines[len(lines)-1])
	}
	var got map[string]reportMetric
	if err := json.Unmarshal(rep["metrics"], &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(perLayerDefs) {
		t.Errorf("%d metrics on the line, want %d", len(got), len(perLayerDefs))
	}
	for _, d := range perLayerDefs {
		if got[d.name].Unit != d.unit {
			t.Errorf("metric %s: unit %q, want %q", d.name, got[d.name].Unit, d.unit)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in metrics.go and
// workloads.go together.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndDefs)
	same("per_layer", doc.PerLayer, perLayerDefs)
	sps := specs(16, 32, 16)
	if len(doc.Workloads) != len(sps) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(sps))
	}
	for i, sp := range sps {
		if doc.Workloads[i].Name != sp.name || doc.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go has %q: %q", i, doc.Workloads[i], sp.name, sp.why)
		}
	}
}
