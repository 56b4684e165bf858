package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code := mainErr([]string{"--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"}); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}

// TestWorkloadsMatchBenchmarkFile pins the workload names BENCHMARK.json
// declares to the ones the harness runs.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, harness has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		sp := findSpec(w.Name)
		if sp == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the harness", w.Name)
		} else if sp.why != w.Why {
			t.Errorf("workload %q: why differs from BENCHMARK.json", w.Name)
		}
	}
}

// TestEveryMetricEmitted runs every workload at a tiny size, untraced and
// traced, and checks that the result passes its output checks and carries
// exactly the metrics BENCHMARK.json lists, each with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	type named = struct{ Name, Unit string }
	want := map[bool][]named{}
	for _, m := range bf.EndToEnd {
		want[false] = append(want[false], named{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		want[true] = append(want[true], named{m.Name, m.Unit})
	}
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			out, _, err := run(sp, 1, 0.5, traced, 0.05)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !out.correct || out.sent < 1 {
				t.Errorf("%s traced=%v: correct=%v sent=%d problems=%v", sp.name, traced, out.correct, out.sent, out.problems)
			}
			if len(out.metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", sp.name, traced, len(out.metrics), len(want[traced]))
			}
			for _, m := range want[traced] {
				got, ok := out.metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", sp.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", sp.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
