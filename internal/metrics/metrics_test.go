package metrics

import (
	"math"
	"testing"

	"repro/internal/bitset"
)

func confusionFixture() (pred *bitset.Set, truth []bool) {
	// 10 tuples: frauds at 0,1,2; predictions at 0,1,5.
	truth = []bool{true, true, true, false, false, false, false, false, false, false}
	pred = bitset.New(len(truth))
	pred.Add(0)
	pred.Add(1)
	pred.Add(5)
	return pred, truth
}

func TestEvaluateCounts(t *testing.T) {
	pred, truth := confusionFixture()
	c := Evaluate(pred, truth, 0, len(truth))
	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 6 {
		t.Fatalf("confusion = %+v", c)
	}
}

func TestEvaluateWindow(t *testing.T) {
	pred, truth := confusionFixture()
	c := Evaluate(pred, truth, 2, 6)
	// Window covers tuples 2..5: fraud 2 (missed), legits 3,4,5 (5 flagged).
	if c.TP != 0 || c.FN != 1 || c.FP != 1 || c.TN != 2 {
		t.Fatalf("windowed confusion = %+v", c)
	}
	// Out-of-range hi is clamped.
	c2 := Evaluate(pred, truth, 0, 99)
	if c2 != Evaluate(pred, truth, 0, len(truth)) {
		t.Error("hi clamp wrong")
	}
}

func TestPercentages(t *testing.T) {
	pred, truth := confusionFixture()
	c := Evaluate(pred, truth, 0, len(truth))
	if got := c.MissedFraudPct(); math.Abs(got-100.0/3) > 1e-9 {
		t.Errorf("MissedFraudPct = %v", got)
	}
	if got := c.FalseAlarmPct(); math.Abs(got-100.0/7) > 1e-9 {
		t.Errorf("FalseAlarmPct = %v", got)
	}
	wantBal := (100.0/3 + 100.0/7) / 2
	if got := c.BalancedErrorPct(); math.Abs(got-wantBal) > 1e-9 {
		t.Errorf("BalancedErrorPct = %v, want %v", got, wantBal)
	}
}

func TestDegenerateCases(t *testing.T) {
	var c Confusion
	if c.MissedFraudPct() != 0 || c.FalseAlarmPct() != 0 {
		t.Error("empty confusion should be all-zero percentages")
	}
}
