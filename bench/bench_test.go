package bench

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the harness's child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == ChildArg {
		os.Exit(ChildMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// TestWorkloadsTiny runs every workload, end to end and traced, at a
// tiny size — one pass over 20 Debian-shaped binaries (plus the six
// apps), four large binaries, half a second of serve load — through the
// same correctness checks as a full run.
func TestWorkloadsTiny(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				rep, err := Run(ctx, Config{
					Workload: w.Name, Seed: 7, Seconds: 0.5, Trace: traced,
					WorkDir: t.TempDir(), Self: self,
					scale: scale{treeBinaries: 20, largeBinaries: 4, setups: 1},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %v %v", rep.Correct, rep.Failed, rep.Attempted, rep.Violations, rep.Failures)
				}
				want := EndToEnd
				if traced {
					want = PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(rep.Metrics), len(want))
				}
				for i, m := range rep.Metrics {
					if m.Name != want[i].name || m.Unit != want[i].unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %d = %+v, want %s in %s", i, m, want[i].name, want[i].unit)
					}
				}
				if _, err := rep.Line(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness
// naming the same workloads and metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(bm.Workloads), len(Workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: %+v, harness %+v", i, w, Workloads[i])
		}
	}
	type def struct{ name, unit, better string }
	var e2e, layer []def
	for _, m := range bm.EndToEnd {
		e2e = append(e2e, def{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bm.PerLayer {
		layer = append(layer, def{m.Name, m.Unit, m.Better})
	}
	for _, c := range []struct {
		got  []def
		want []metricDef
	}{{e2e, EndToEnd}, {layer, PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the harness %d", len(c.got), len(c.want))
		}
		for i, d := range c.got {
			if d.name != c.want[i].name || d.unit != c.want[i].unit || (d.better != "lower" && d.better != "higher") {
				t.Errorf("metric %d: %+v, harness %+v", i, d, c.want[i])
			}
		}
	}
}
