package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the literals are calibrated for %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(doc.Workloads), len(workloads))
	}
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . - (at most 64)", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	for i, w := range workloads {
		name(w.Name)
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the catalogue %q", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 fit", w.Name, len(w.Why))
		}
		if w.Batch > 64 {
			t.Errorf("%s: answers are kept as 64-bit masks, batch %d does not fit", w.Name, w.Batch)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalogue %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, m := range endToEnd {
		name(m.Name)
		d := doc.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, catalogue %+v", i, d, m)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, bound %v, better %q", m.Name, m.Unit, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range perLayer {
		name(m.Name)
		d := doc.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, catalogue %+v", i, d, m)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound != 0 || m.Moves == "" {
			t.Errorf("%s: unit %q, bound %v, moves %q", m.Name, m.Unit, m.Bound, m.Moves)
		}
	}
}

// The result line carries exactly the catalogue's names: every end-to-end
// metric untraced, every per-layer metric traced, nothing else.
func TestResultNamesAreTheCatalogue(t *testing.T) {
	values := map[string]float64{"not_a_metric": 1}
	for _, m := range endToEnd {
		values[m.Name] = 1
	}
	for _, m := range perLayer {
		values[m.Name] = 1
	}
	for traced, group := range map[bool][]metric{false: endToEnd, true: perLayer} {
		res := buildResult(values, traced, 10, 0)
		if !res.Correct || len(res.Metrics) != len(group) {
			t.Errorf("traced=%v: correct=%v with %d metrics, want %d", traced, res.Correct, len(res.Metrics), len(group))
		}
		for _, m := range group {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s reported as %+v (present %v)", traced, m.Name, got, ok)
			}
		}
	}
	delete(values, "recover_s")
	if res := buildResult(values, false, 10, 0); res.Correct {
		t.Error("a run that could not measure recover_s was reported correct")
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "tx_per_s", Better: "higher", Bound: 0.08}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m      metric
		after  []float64
		change float64
		word   string
	}{
		{lower, []float64{105, 106, 104, 105, 105}, 0.05, "ok"},
		{lower, []float64{115, 116, 114, 115, 115}, 0.15, "worse"},
		{lower, []float64{80, 81, 79, 80, 80}, -0.20, "ok"},
		{higher, []float64{85, 86, 84, 85, 85}, 0.15, "worse"},
		{higher, []float64{120, 121, 119, 120, 120}, -0.20, "ok"},
		{lower, []float64{70, 130, 100, 60, 140}, 0, "unresolved"},
		{metric{Name: "serve.handler_us_per_req", Better: "lower"}, []float64{500}, 4, "info"},
	} {
		change, word := verdict(c.m, steady, c.after)
		if word != c.word || change < c.change-0.011 || change > c.change+0.011 {
			t.Errorf("%s %v: %+.3f %s, want %+.3f %s", c.m.Name, c.after, change, word, c.change, c.word)
		}
	}
}
