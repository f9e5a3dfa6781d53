package rules

import (
	"strings"
	"testing"

	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/window"
)

// velocitySchema has a time-role attribute (minutes since epoch), a user
// key and an amount, the minimal shape for windowed rules.
func velocitySchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "minute", Kind: relation.Numeric,
			Domain: order.NewDomain(0, 1_000_000), Time: true},
		relation.Attribute{Name: "user", Kind: relation.Numeric,
			Domain: order.NewDomain(0, 10_000)},
		relation.Attribute{Name: "amount", Kind: relation.Numeric,
			Domain: order.NewDomain(0, 100_000)},
	)
}

func TestWindowFormatParseRoundTrip(t *testing.T) {
	s := velocitySchema()
	for _, text := range []string{
		"COUNT(user, 10m) >= 5",
		"COUNT(user, 2h) <= 3",
		"SUM(amount, user, 12h) >= 1000",
		"DISTINCT(amount, user, 1h) in [2,9]",
		"amount >= 500 && COUNT(user, 10m) >= 5 && score >= 700",
		"COUNT(user, 3d) = 7",
	} {
		r, err := Parse(s, text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		got := r.Format(s)
		if got != text {
			t.Errorf("round trip %q -> %q", text, got)
		}
		again, err := Parse(s, got)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", got, err)
		}
		if !r.Equal(s, again) {
			t.Errorf("Parse(Format(%q)) not Equal to original", text)
		}
	}
	// Durations canonicalize to the largest exact unit.
	if got := MustParse(s, "SUM(amount, user, 24h) >= 1000").Format(s); got != "SUM(amount, user, 1d) >= 1000" {
		t.Errorf("24h formats as %q, want 1d", got)
	}
}

func TestWindowParseErrors(t *testing.T) {
	s := velocitySchema()
	cases := []struct {
		text, want string
	}{
		{"COUNT(nosuch, 10m) >= 5", "unknown attribute"},
		{"COUNT(user, 10x) >= 5", "bad window duration"},
		{"COUNT(user, -5m) >= 5", "bad window duration"},
		{"COUNT(user, 10m, 3h) >= 5", "COUNT takes 2 arguments"},
		{"SUM(amount, user) >= 5", "SUM takes 3 arguments"},
		{"COUNT(user, 10m) >= 5 && COUNT(user, 10m) <= 9", "multiple conditions on aggregate"},
		{"COUNT(user, 10m) >= x", "bad aggregate threshold"},
	}
	for _, c := range cases {
		_, err := Parse(s, c.text)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.text, err, c.want)
		}
	}
	// A schema without a time attribute refuses windowed atoms with a
	// pointer at the fix.
	_, err := Parse(paperSchema(), "COUNT(amount, 10m) >= 5")
	if err == nil || !strings.Contains(err.Error(), "time attribute") {
		t.Errorf("windowed rule on time-less schema: %v, want time-attribute error", err)
	}
}

// TestWindowedEval checks MatchesAt / Captures / Set.Eval agree and apply
// the velocity condition: a burst of 5 events inside 10 minutes fires, the
// slow drip before it does not.
func TestWindowedEval(t *testing.T) {
	s := velocitySchema()
	rel := relation.New(s)
	// User 1 dribbles one transaction an hour, then bursts 5 in 8 minutes.
	// User 2 stays slow throughout.
	for i := int64(0); i < 5; i++ {
		rel.MustAppend(relation.Tuple{i * 60, 1, 50}, relation.Unlabeled, 500)
		rel.MustAppend(relation.Tuple{i*60 + 30, 2, 50}, relation.Unlabeled, 500)
	}
	burstStart := int64(5 * 60)
	for i := int64(0); i < 5; i++ {
		rel.MustAppend(relation.Tuple{burstStart + i*2, 1, 50}, relation.Unlabeled, 500)
	}
	r := MustParse(s, "COUNT(user, 10m) >= 5")
	rs := NewSet(r)

	capt := r.Captures(rel)
	if got := elems(capt); len(got) != 1 || got[0] != rel.Len()-1 {
		t.Fatalf("captures %v, want only the burst's last tuple (%d)", got, rel.Len()-1)
	}
	if !r.MatchesAt(rel, rel.Len()-1) {
		t.Error("MatchesAt misses the burst's 5th event")
	}
	if r.MatchesAt(rel, rel.Len()-2) {
		t.Error("MatchesAt fires on the burst's 4th event")
	}
	ev := rs.Eval(rel)
	if !ev.Equal(capt) {
		t.Errorf("Set.Eval disagrees with Rule.Captures: %v vs %v", elems(ev), elems(capt))
	}
	if got := rs.CapturingRulesAt(rel, rel.Len()-1); len(got) != 1 || got[0] != 0 {
		t.Errorf("CapturingRulesAt = %v, want [0]", got)
	}
}

func TestWindowedContainsAndNormalize(t *testing.T) {
	s := velocitySchema()
	loose := MustParse(s, "COUNT(user, 10m) >= 3")
	tight := MustParse(s, "COUNT(user, 10m) >= 5")
	plain := MustParse(s, "amount >= 100")
	if !loose.Contains(s, tight) {
		t.Error("COUNT >= 3 should contain COUNT >= 5")
	}
	if tight.Contains(s, loose) {
		t.Error("COUNT >= 5 must not contain COUNT >= 3")
	}
	if plain.Windows() != nil && len(plain.Windows()) != 0 {
		t.Error("plain rule grew windows")
	}
	if tight.Contains(s, plain) {
		t.Error("windowed rule must not contain a window-less rule")
	}
	if !MustParse(s, "true").Contains(s, tight) {
		t.Error("the trivial rule contains every rule")
	}
	// Normalize must not merge rules that differ in windowed conditions.
	rs := NewSet(
		MustParse(s, "amount in [0,50] && COUNT(user, 10m) >= 5"),
		MustParse(s, "amount in [51,100] && COUNT(user, 1h) >= 5"),
	)
	if removed := Normalize(s, rs); removed != 0 || rs.Len() != 2 {
		t.Errorf("Normalize merged across differing windows (removed %d, len %d)", removed, rs.Len())
	}
	// ... but does merge identical-window adjacent fragments.
	rs2 := NewSet(
		MustParse(s, "amount in [0,50] && COUNT(user, 10m) >= 5"),
		MustParse(s, "amount in [51,100] && COUNT(user, 10m) >= 5"),
	)
	if removed := Normalize(s, rs2); removed != 1 || rs2.Len() != 1 {
		t.Errorf("Normalize failed to merge same-window fragments (removed %d, len %d)", removed, rs2.Len())
	}
}

func TestWindowedExplain(t *testing.T) {
	s := velocitySchema()
	rel := relation.New(s)
	for i := int64(0); i < 5; i++ {
		rel.MustAppend(relation.Tuple{100 + i, 1, 50}, relation.Unlabeled, 500)
	}
	rs := NewSet(MustParse(s, "COUNT(user, 10m) >= 5"))
	ex := Explain(rs, rel, rel.Len()-1)
	if len(ex) != 1 || !ex[0].Captured {
		t.Fatalf("explain: %+v, want captured", ex)
	}
	found := false
	for _, c := range ex[0].Conditions {
		if c.Attr == -2 {
			found = true
			if c.Value != "5" || !c.Satisfied {
				t.Errorf("windowed condition explanation = %+v, want value 5 satisfied", c)
			}
		}
	}
	if !found {
		t.Error("explanation lacks the windowed condition entry")
	}
	ex0 := Explain(rs, rel, 0)
	if ex0[0].Captured {
		t.Error("first event of the burst must not be captured (count 1 < 5)")
	}
}

func TestWindowSpecsDedup(t *testing.T) {
	s := velocitySchema()
	rs := NewSet(
		MustParse(s, "COUNT(user, 10m) >= 5"),
		MustParse(s, "COUNT(user, 10m) >= 9 && amount >= 10"),
		MustParse(s, "SUM(amount, user, 24h) >= 1000"),
	)
	specs := rs.WindowSpecs(nil)
	if len(specs) != 2 {
		t.Fatalf("WindowSpecs = %v, want 2 deduped specs", specs)
	}
	if specs[0] != (window.Spec{Agg: window.Count, Key: 1, Val: -1, Window: 10}) {
		t.Errorf("first spec = %+v", specs[0])
	}
}
