package rules

import (
	"testing"

	"repro/internal/relation"
)

// scoredFixture builds a relation where tuples differ only in risk score.
func scoredFixture(t *testing.T) (*relation.Schema, *relation.Relation) {
	t.Helper()
	s := paperSchema()
	rel := relation.New(s)
	typeOnt, locOnt := s.Attr(2).Ontology, s.Attr(3).Ontology
	for _, score := range []int16{100, 500, 800, 1000} {
		rel.MustAppend(relation.Tuple{
			600, 200,
			int64(typeOnt.MustLookup("Online, no CCV")),
			int64(locOnt.MustLookup("Online Store")),
		}, relation.Unlabeled, score)
	}
	return s, rel
}

func TestMinScoreAccessors(t *testing.T) {
	s := paperSchema()
	r := NewRule(s)
	if r.MinScore() != 0 {
		t.Error("fresh rule has a threshold")
	}
	r.SetMinScore(700)
	if r.MinScore() != 700 {
		t.Error("SetMinScore did not stick")
	}
	r.SetMinScore(-5)
	if r.MinScore() != 0 {
		t.Error("negative threshold not clamped")
	}
	r.SetMinScore(5000)
	if r.MinScore() != relation.MaxScore {
		t.Error("oversized threshold not clamped")
	}
}

func TestScoreThresholdGatesCapture(t *testing.T) {
	s, rel := scoredFixture(t)
	r := MustParse(s, "amount >= $100").SetMinScore(600)
	got := elems(r.Captures(rel))
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("captures = %v, want [2 3] (scores 800 and 1000)", got)
	}
	// Matches (tuple-only) ignores the threshold; MatchesAt honors it.
	if !r.Matches(s, rel.Tuple(0)) {
		t.Error("Matches should ignore the score threshold")
	}
	if r.MatchesAt(rel, 0) {
		t.Error("MatchesAt should honor the score threshold")
	}
	if !r.MatchesAt(rel, 3) {
		t.Error("MatchesAt rejected a qualifying transaction")
	}
}

func TestScoreThresholdInSetEval(t *testing.T) {
	s, rel := scoredFixture(t)
	rs := NewSet(
		MustParse(s, "amount >= $100").SetMinScore(900),
		MustParse(s, "amount >= $100").SetMinScore(400),
	)
	got := rs.Eval(rel)
	if got.Has(0) || !got.Has(1) || !got.Has(2) || !got.Has(3) {
		t.Errorf("Eval = %v", elems(got))
	}
	if idx := rs.CapturingRulesAt(rel, 1); len(idx) != 1 || idx[0] != 1 {
		t.Errorf("CapturingRulesAt(1) = %v, want [1]", idx)
	}
	if idx := rs.CapturingRulesAt(rel, 3); len(idx) != 2 {
		t.Errorf("CapturingRulesAt(3) = %v, want both rules", idx)
	}
}

func TestScoreThresholdFormatParse(t *testing.T) {
	s := paperSchema()
	r := MustParse(s, "amount >= $110 && score >= 700")
	if r.MinScore() != 700 {
		t.Fatalf("parsed threshold = %d", r.MinScore())
	}
	text := r.Format(s)
	if text != "amount >= $110 && score >= 700" {
		t.Errorf("Format = %q", text)
	}
	r2, err := Parse(s, text)
	if err != nil || !r.Equal(s, r2) {
		t.Errorf("round trip failed: %v", err)
	}
	// A bare score rule.
	r3 := MustParse(s, "score >= 950")
	if r3.MinScore() != 950 {
		t.Errorf("bare score rule threshold = %d", r3.MinScore())
	}
	if got := r3.Format(s); got != "score >= 950" {
		t.Errorf("bare score Format = %q", got)
	}
}

func TestScoreThresholdParseErrors(t *testing.T) {
	s := paperSchema()
	for name, text := range map[string]string{
		"wrong op":   "score = 700",
		"wrong op 2": "score <= 700",
		"negative":   "score >= -1",
		"too big":    "score >= 1001",
		"garbage":    "score >= x",
		"duplicate":  "score >= 1 && score >= 2",
	} {
		if _, err := Parse(s, text); err == nil {
			t.Errorf("%s: Parse(%q) succeeded", name, text)
		}
	}
}

func TestScoreThresholdEqualityAndContainment(t *testing.T) {
	s := paperSchema()
	a := MustParse(s, "amount >= $100").SetMinScore(500)
	b := MustParse(s, "amount >= $100").SetMinScore(500)
	c := MustParse(s, "amount >= $100").SetMinScore(600)
	if !a.Equal(s, b) {
		t.Error("equal thresholds compare unequal")
	}
	if a.Equal(s, c) {
		t.Error("different thresholds compare equal")
	}
	// Containment: a lower-threshold rule contains a higher-threshold one.
	if !a.Contains(s, c) {
		t.Error("threshold 500 should contain threshold 600")
	}
	if c.Contains(s, a) {
		t.Error("threshold 600 should not contain threshold 500")
	}
	// Clone preserves the threshold.
	if a.Clone().MinScore() != 500 {
		t.Error("Clone dropped the threshold")
	}
}

func TestReservedAttributeNames(t *testing.T) {
	for _, name := range []string{"score", "label"} {
		if _, err := relation.NewSchema(relation.Attribute{
			Name: name, Kind: relation.Numeric,
		}); err == nil {
			t.Errorf("schema accepted reserved attribute name %q", name)
		}
	}
}
