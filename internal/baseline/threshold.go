package baseline

import (
	"repro/internal/bitset"
	"repro/internal/relation"
)

// Threshold is the fully-automatic baseline of Section 5: a single rule of
// the form "risk score greater than threshold", with the threshold re-fitted
// each round to minimize the balanced error over the labeled transactions
// seen so far.
type Threshold struct {
	// Step is the threshold granularity; 0 means 10.
	Step int

	theta  int16
	fitted bool
	mods   int
}

// Name implements Method.
func (*Threshold) Name() string { return "ML Threshold" }

// Refine implements Method: refit the threshold on the labeled data.
func (t *Threshold) Refine(rel *relation.Relation) RoundCost {
	step := t.Step
	if step <= 0 {
		step = 10
	}
	bestTheta, bestErr := t.theta, 1e18
	for theta := 0; theta <= relation.MaxScore+step; theta += step {
		var fn, fp, f, l float64
		for i := 0; i < rel.Len(); i++ {
			switch rel.Label(i) {
			case relation.Fraud:
				f++
				if int(rel.Score(i)) < theta {
					fn++
				}
			case relation.Legitimate:
				l++
				if int(rel.Score(i)) >= theta {
					fp++
				}
			}
		}
		if f == 0 && l == 0 {
			break
		}
		var err float64
		if f > 0 {
			err += fn / f
		}
		if l > 0 {
			err += fp / l
		}
		if err < bestErr {
			bestErr, bestTheta = err, int16(theta)
		}
	}
	var cost RoundCost
	if !t.fitted || bestTheta != t.theta {
		// The method maintains exactly one rule: changing its threshold is
		// one rule modification.
		cost.Modifications = 1
		t.mods++
	}
	t.theta, t.fitted = bestTheta, true
	return cost
}

// Predict implements Method: score ≥ threshold means fraud.
func (t *Threshold) Predict(rel *relation.Relation) *bitset.Set {
	out := bitset.New(rel.Len())
	for i := 0; i < rel.Len(); i++ {
		if rel.Score(i) >= t.theta {
			out.Add(i)
		}
	}
	return out
}
