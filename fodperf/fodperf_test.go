package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// small runs a workload on graphs 16× smaller than the real ones, with a
// one-second window.
func small(t *testing.T, name string, trace bool, tamper func(*tape)) *result {
	t.Helper()
	cfg := config{seed: 3, window: time.Second, trace: trace, scale: 16, outDir: t.TempDir(), tamper: tamper}
	res, err := run(workloads[name], cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	return res
}

func checkMetrics(t *testing.T, name string, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.name, m.Unit, d.unit)
		}
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			res := small(t, name, false, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, name, res, endToEnd)
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
				}
			}

			res = small(t, name, true, nil)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, name, res, perLayer)
			if e := res.Metrics["error_rate"].Value; e != 0 {
				t.Errorf("error_rate = %v, want 0", e)
			}
			// The cache is what tells the workloads apart: warm-read must
			// never miss and cold-build must never hit.
			hit := res.Metrics["cache.hit_ratio"].Value
			switch name {
			case "warm-read":
				if hit != 1 {
					t.Errorf("warm-read cache.hit_ratio = %v, want 1", hit)
				}
			case "cold-build":
				if hit != 0 {
					t.Errorf("cold-build cache.hit_ratio = %v, want 0", hit)
				}
			}
			// Every time is measured on every workload: by the window, the
			// layer replays, or the probe round for request kinds the
			// workload's traffic lacks.
			for _, d := range perLayer {
				switch d.unit {
				case "s", "ms", "us", "ns":
					if v := res.Metrics[d.name].Value; v <= 0 {
						t.Errorf("%s = %v %s, want > 0", d.name, v, d.unit)
					}
				}
			}
		})
	}
}

// TestCheckerCatchesCorruption is the negative control: one page and one
// count are altered after the window, and the check must reject both.
func TestCheckerCatchesCorruption(t *testing.T) {
	res := small(t, "mutate-read", false, func(tp *tape) {
		tp.pageRecs[0].sum++
		tp.countRecs[0].n++
	})
	if res.Correct {
		t.Fatal("a corrupted page and count passed the check")
	}
	if res.Failed < 2 {
		t.Fatalf("%d failures, want at least 2 (page and count)", res.Failed)
	}
}

// TestBenchmarkFile keeps BENCHMARK.json in step with what the program
// prints.
func TestBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	// cold-build is run by hand, not gated: its throughput drifts with the
	// host's memory load by more than any bound the file may set.
	listed := map[string]bool{"cold-build": true}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
		listed[w.Name] = true
	}
	for n := range workloads {
		if !listed[n] {
			t.Errorf("workload %q is missing from BENCHMARK.json", n)
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(defs))
		}
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		for _, m := range file {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s (%s) not printed with that unit", kind, m.Name, m.Unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}
