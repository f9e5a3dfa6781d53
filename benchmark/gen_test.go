package main

import (
	"bytes"
	"testing"
)

// smallWorkload keeps generation fast in tests.
func smallWorkload(velocity bool) workload {
	return workload{Name: "test", Rules: 10, Batch: 4, Velocity: velocity,
		ClosedRate: 100, ClosedShare: 0.4, OpenRate: 40, OpenShare: 0.6, WarmCount: 10,
		Cycles: 1, ChunkTx: 50}
}

func TestSameSeedSameBytes(t *testing.T) {
	a, err := newInputs(smallWorkload(false), 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newInputs(smallWorkload(false), 7, 2)
	c, _ := newInputs(smallWorkload(false), 8, 2)
	if len(a.bodies) < 512 {
		t.Fatalf("only %d distinct bodies, want at least 512", len(a.bodies))
	}
	differs := false
	seen := map[string]bool{}
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i].Raw, b.bodies[i].Raw) {
			t.Fatalf("body %d differs between two generations from seed 7", i)
		}
		differs = differs || !bytes.Equal(a.bodies[i].Raw, c.bodies[i].Raw)
		seen[string(a.bodies[i].Raw)] = true
	}
	if !differs {
		t.Error("seeds 7 and 8 generated the same bodies")
	}
	if len(seen) != len(a.bodies) {
		t.Errorf("%d of %d bodies are distinct", len(seen), len(a.bodies))
	}
	// The analyst's data does not follow -seed.
	for i := range a.feedback {
		if !bytes.Equal(a.feedback[i].Raw, c.feedback[i].Raw) {
			t.Fatalf("feedback chunk %d follows the traffic seed", i)
		}
	}
	if a.rules.Format(a.schema) != c.rules.Format(c.schema) {
		t.Error("incumbent rules follow the traffic seed")
	}
}

func TestVelocityTimesAreMonotoneAndPatched(t *testing.T) {
	in, err := newInputs(smallWorkload(true), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	timeAttr := in.schema.TimeAttr()
	last := int64(-1)
	var buf []byte
	for k := 0; k < in.scoreTotal; k++ {
		buf = in.bodyFor(k, buf)
		rel := in.relFor(k)
		m := rel.Tuple(0)[timeAttr]
		if m < last || m > 1439 {
			t.Fatalf("request %d at minute %d after minute %d", k, m, last)
		}
		last = m
		want := []byte(`"time":"` + in.schema.FormatValue(timeAttr, m) + `"`)
		if n := bytes.Count(buf, want); n != in.w.Batch {
			t.Fatalf("request %d: %d of %d transactions carry %s", k, n, in.w.Batch, want)
		}
	}
	if last < 1400 {
		t.Errorf("the run ends at minute %d; it should spread over the day", last)
	}
	if len(in.winSpecs) != 3 || in.rules.Len() != in.w.Rules+3 {
		t.Errorf("want three windowed atoms on top of %d rules, have %d specs and %d rules", in.w.Rules, len(in.winSpecs), in.rules.Len())
	}
}
