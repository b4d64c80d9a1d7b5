package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	parent := span{100, 200}
	tests := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{110, 120}, {150, 170}}, 70},
		{"overlapping", []span{{110, 140}, {130, 160}}, 50},
		{"nested", []span{{110, 190}, {120, 130}, {150, 160}}, 20},
		{"clipped to parent", []span{{50, 120}, {180, 250}}, 60},
		{"outside parent", []span{{0, 50}, {200, 300}}, 100},
		{"covers parent", []span{{0, 300}}, 0},
		{"empty and reversed", []span{{150, 150}, {170, 160}}, 100},
		{"unsorted", []span{{180, 190}, {110, 120}, {115, 130}}, 70},
	}
	for _, tt := range tests {
		if got := selfTime(parent, tt.children); got != tt.want {
			t.Errorf("%s: selfTime = %d, want %d", tt.name, got, tt.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tt := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, tt.p); got != tt.want {
			t.Errorf("percentile(%g) = %g, want %g", tt.p, got, tt.want)
		}
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Below two windows it is the plain percentile.
	xs := make([]float64, latencyWindow+latencyWindow/2)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	if got, want := windowedPercentile(xs, 99), percentile(xs, 99); got != want {
		t.Errorf("one window: %g, want %g", got, want)
	}
	// With three windows, a stall confined to one moves the result not at
	// all.
	xs = make([]float64, 3*latencyWindow)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	calm := windowedPercentile(xs, 99)
	for i := latencyWindow; i < latencyWindow+100; i++ {
		xs[i] = 1e6
	}
	if got := windowedPercentile(xs, 99); got != calm {
		t.Errorf("stalled window moved p99 from %g to %g", calm, got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func bound(t *testing.T, f benchmarkFile, name string) float64 {
	t.Helper()
	for _, m := range f.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no metric %s", name)
	return 0
}

func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, listed map[string]string, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark prints %d", len(listed), kind, len(defs))
		}
		for _, d := range defs {
			if unit, ok := listed[d.name]; !ok || unit != d.unit {
				t.Errorf("%s metric %s (%s): BENCHMARK.json has unit %q", kind, d.name, d.unit, unit)
			}
		}
	}
	e2e := make(map[string]string)
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := make(map[string]string)
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end-to-end", e2e, endToEndMetrics)
	check("per-layer", layer, layerMetrics)
}

// small returns options for a short, shrunken run.
func small(seconds time.Duration, scale float64) options {
	return options{seed: 7, seconds: seconds, scale: scale, setupReps: 1}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload briefly in both
// modes: each must pass its own checks and print exactly the metric
// tables, with the same unit for each name.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := small(time.Second, 0.1)
			res, err := runWorkload(w, o, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEndMetrics
			if traced {
				defs = layerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, got, d.unit)
				}
			}
		}
	}
}

func TestPlantedWrongAnswerRaisesFailRatio(t *testing.T) {
	for _, w := range workloads {
		o := small(time.Second, 0.1)
		o.wrongAnswer = true
		p, err := w.run(o, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if p.failed == 0 || p.e2e["success_ratio"].Value >= 1 {
			t.Errorf("%s: planted wrong answer not caught: attempted=%d failed=%d success_ratio=%g",
				w.name, p.attempted, p.failed, p.e2e["success_ratio"].Value)
		}
	}
}

func TestPlantedSlowSchedulerShowsAsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's slowdown swamps the planted delay")
	}
	f := readBenchmarkFile(t)
	run := func(w workload, o options) metrics {
		t.Helper()
		p, err := w.run(o, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if p.failed != 0 || p.invalid != "" {
			t.Fatalf("%s: failed=%d invalid=%q", w.name, p.failed, p.invalid)
		}
		return p.e2e
	}

	// sim-table2: every planning call waits, so each sim.Run takes longer.
	simOpts := small(time.Second, 0.1)
	base := run(simTable2, simOpts)["throughput_rps"].Value
	simOpts.slowSchedule = 20 * time.Millisecond
	slow := run(simTable2, simOpts)["throughput_rps"].Value
	if b := bound(t, f, "throughput_rps"); slow >= base*(1-b) {
		t.Errorf("sim-table2 throughput %g -> %g with a slow scheduler: not a regression beyond bound %g", base, slow, b)
	}

	// live-open-table2: every cycle is late, so answers arrive later.
	openOpts := small(3*time.Second, 0.3)
	base = run(liveOpenTable2, openOpts)["latency_p50_ms"].Value
	openOpts.slowSchedule = 10 * time.Millisecond
	slow = run(liveOpenTable2, openOpts)["latency_p50_ms"].Value
	if b := bound(t, f, "latency_p50_ms"); slow <= base*(1+b) {
		t.Errorf("live-open-table2 latency p50 %g -> %g ms with a slow scheduler: not a regression beyond bound %g", base, slow, b)
	}
}
