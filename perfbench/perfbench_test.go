package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// workloads run their input generation and repeated set-ups as child
// processes of os.Executable(), which under go test is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--child" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload, untraced and traced, on a tiny
// corpus, and requires each correctness gate to pass and each metric the
// workload names to be reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	t.Setenv("PERFBENCH_SCALE", "smoke")
	for _, name := range []string{"serve_read", "serve_write", "eval_sweep"} {
		for _, traced := range []bool{false, true} {
			o := options{
				workload: name, seed: DefaultSeed, seconds: 2, trace: traced,
				workDir: t.TempDir(), scale: scaleFromEnv(),
			}
			out, err := run(o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d\n%v",
					name, traced, out.correct, out.attempted, out.failed, out.gateNotes)
			}
			for _, m := range e2eTable {
				if !slices.Contains(m.workloads, name) {
					continue
				}
				got, ok := out.e2e[m.name]
				if !m.gated {
					got, ok = out.ungated[m.name]
				}
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("%s (traced %v): end-to-end %s = %+v (present %v)", name, traced, m.name, got, ok)
				}
			}
			// The result line holds every gated end-to-end metric, or
			// every per-layer metric when traced, on every workload.
			shown := out.e2e
			if traced {
				shown = out.layers
			}
			if _, err := resultMetrics(o, shown); err != nil {
				t.Errorf("%s (traced %v): %v", name, traced, err)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's metric lists in
// step with the metrics this package reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
	var gatedE2E []e2eMetric
	for _, m := range e2eTable {
		if m.gated {
			gatedE2E = append(gatedE2E, m)
		}
	}
	if len(b.EndToEnd) != len(gatedE2E) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, e2eTable %d gated ones", len(b.EndToEnd), len(gatedE2E))
	}
	for i, m := range gatedE2E {
		for w := range workloads {
			if !slices.Contains(m.workloads, w) {
				t.Errorf("gated metric %s is not measured by %s", m.name, w)
			}
		}
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end_to_end[%d] = %+v, want %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
	if len(b.PerLayer) != len(layerTable) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layerTable %d", len(b.PerLayer), len(layerTable))
	}
	for i, m := range layerTable {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
}
