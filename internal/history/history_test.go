package history

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/expert"
	"repro/internal/paperdata"
	"repro/internal/rules"
)

func fixedClock() func() time.Time {
	t0 := time.Date(2016, 3, 26, 12, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Minute)
	}
}

func TestCommitAndCheckout(t *testing.T) {
	s := paperdata.Schema()
	st := NewStore(s)
	st.now = fixedClock()
	if _, ok := st.Latest(); ok {
		t.Error("empty store has a latest version")
	}

	rs := paperdata.ExistingRules(s)
	v1 := st.Commit(rs, nil, "initial FI rules")
	if v1.ID != 1 || len(v1.Rules) != 3 || v1.Comment != "initial FI rules" {
		t.Fatalf("v1 = %+v", v1)
	}

	rs2 := rs.Clone()
	rs2.Replace(0, rules.MustParse(s, "time in [18:00,18:05] && amount >= $100"))
	mods := []core.Modification{{
		Kind: cost.CondRefine, RuleIndex: 0, Attr: 1,
		Description: "amount: [$110,∞) -> [$100,∞)",
	}}
	v2 := st.Commit(rs2, mods, "Elena's rounding")
	if v2.ID != 2 || len(v2.Changes) != 1 || v2.Changes[0].Attr != "amount" {
		t.Fatalf("v2 = %+v", v2)
	}
	if !v2.Time.After(v1.Time) {
		t.Error("version times not increasing")
	}

	back, err := st.Checkout(0)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Rule(0).Equal(s, rs.Rule(0)) {
		t.Error("checkout of v1 differs from the committed rules")
	}
	latest, ok := st.Latest()
	if !ok || latest.ID != 2 {
		t.Error("Latest wrong")
	}
	if _, err := st.Checkout(5); err == nil {
		t.Error("checkout of missing version succeeded")
	}
}

func TestDiff(t *testing.T) {
	s := paperdata.Schema()
	st := NewStore(s)
	st.now = fixedClock()
	rs := paperdata.ExistingRules(s)
	st.Commit(rs, nil, "")
	rs2 := rs.Clone()
	rs2.Remove(2)
	rs2.Add(rules.MustParse(s, `location <= "Gas Station" && amount >= $40`))
	st.Commit(rs2, nil, "")

	diff, err := st.Diff(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var adds, dels int
	for _, line := range diff {
		switch {
		case strings.HasPrefix(line, "+ "):
			adds++
		case strings.HasPrefix(line, "- "):
			dels++
		default:
			t.Errorf("unexpected diff line %q", line)
		}
	}
	if adds != 1 || dels != 1 {
		t.Errorf("diff = %v, want one addition and one removal", diff)
	}
	if same, _ := st.Diff(1, 1); len(same) != 0 {
		t.Errorf("self-diff = %v", same)
	}
	if _, err := st.Diff(0, 9); err == nil {
		t.Error("out-of-range diff succeeded")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := paperdata.Schema()
	st := NewStore(s)
	st.now = fixedClock()
	st.Commit(paperdata.ExistingRules(s), nil, "v1")
	st.Commit(paperdata.ExistingRules(s), []core.Modification{
		{Kind: cost.RuleSplit, RuleIndex: 1, Attr: 0, Forced: true, Description: "split"},
	}, "v2")

	var buf strings.Builder
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(strings.NewReader(buf.String()), s)
	if err != nil {
		t.Fatalf("ReadJSON: %v\njson:\n%s", err, buf.String())
	}
	if got.Len() != 2 {
		t.Fatalf("round trip has %d versions", got.Len())
	}
	v2 := got.version(1)
	if v2.Comment != "v2" || len(v2.Changes) != 1 || !v2.Changes[0].Forced || v2.Changes[0].Attr != "time" {
		t.Errorf("v2 after round trip = %+v", v2)
	}
	// Unparseable rules are rejected at load time.
	if _, err := ReadJSON(strings.NewReader(`[{"id":1,"rules":["ghost = 1"]}]`), s); err == nil {
		t.Error("history with bad rules loaded")
	}
	if _, err := ReadJSON(strings.NewReader("{"), s); err == nil {
		t.Error("garbage JSON loaded")
	}
}

// TestSessionHistoryIntegration commits after each refinement phase and
// replays the evolution.
func TestSessionHistoryIntegration(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	sess := core.NewSession(paperdata.ExistingRules(s), &expert.AutoAccept{}, core.Options{})
	st := NewStore(s)
	st.now = fixedClock()

	st.Commit(sess.Rules(), nil, "incumbent")
	mark := 0
	sess.Generalize(rel)
	st.Commit(sess.Rules(), sess.Log().All()[mark:], "after generalization")
	mark = sess.Log().Len()
	sess.Specialize(rel)
	st.Commit(sess.Rules(), sess.Log().All()[mark:], "after specialization")

	if st.Len() != 3 {
		t.Fatalf("versions = %d", st.Len())
	}
	if len(st.version(1).Changes) == 0 || len(st.version(2).Changes) == 0 {
		t.Error("refinement phases recorded no changes")
	}
	// The final version checks out to the session's current rules.
	final, err := st.Checkout(2)
	if err != nil {
		t.Fatal(err)
	}
	if final.Len() != sess.Rules().Len() {
		t.Errorf("checkout has %d rules, session has %d", final.Len(), sess.Rules().Len())
	}
	diff, _ := st.Diff(0, 2)
	if len(diff) == 0 {
		t.Error("no diff between incumbent and refined rules")
	}
}
