package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/expert"
	"repro/internal/metrics"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/rules"
)

func TestNoChange(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	rs := paperdata.ExistingRules(s)
	m := NoChange{Rules: rs}
	if m.Name() == "" {
		t.Error("empty name")
	}
	if c := m.Refine(rel); c.Modifications != 0 || c.ExpertSeconds != 0 {
		t.Error("NoChange refined something")
	}
	if !m.Predict(rel).Equal(rs.Eval(rel)) {
		t.Error("Predict differs from rule evaluation")
	}
}

func TestThresholdFitsSeparableScores(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Size: 4000, Seed: 9, ScoreSeparation: 0.9, FraudPct: 2.5})
	th := &Threshold{}
	c := th.Refine(ds.Rel)
	if c.Modifications != 1 {
		t.Errorf("first fit should count one modification, got %d", c.Modifications)
	}
	// With strong separation the fitted threshold classifies well.
	conf := metrics.Evaluate(th.Predict(ds.Rel), ds.TrueFraud, 0, ds.Rel.Len())
	if got := conf.BalancedErrorPct(); got > 15 {
		t.Errorf("threshold error = %.1f%% with separation 0.9", got)
	}
	// Refitting on the same data does not change the threshold again.
	if c := th.Refine(ds.Rel); c.Modifications != 0 {
		t.Errorf("stable refit counted %d modifications", c.Modifications)
	}
	if th.theta == 0 {
		t.Error("threshold stayed at zero")
	}
}

func TestThresholdPoorScoresPoorError(t *testing.T) {
	weak := datagen.Generate(datagen.Config{Size: 4000, Seed: 9, ScoreSeparation: 0.2, FraudPct: 2.5})
	th := &Threshold{}
	th.Refine(weak.Rel)
	conf := metrics.Evaluate(th.Predict(weak.Rel), weak.TrueFraud, 0, weak.Rel.Len())
	strong := datagen.Generate(datagen.Config{Size: 4000, Seed: 9, ScoreSeparation: 0.9, FraudPct: 2.5})
	th2 := &Threshold{}
	th2.Refine(strong.Rel)
	conf2 := metrics.Evaluate(th2.Predict(strong.Rel), strong.TrueFraud, 0, strong.Rel.Len())
	if conf.BalancedErrorPct() <= conf2.BalancedErrorPct() {
		t.Errorf("weak separation error %.1f%% not above strong %.1f%%",
			conf.BalancedErrorPct(), conf2.BalancedErrorPct())
	}
}

func TestThresholdEmptyRelation(t *testing.T) {
	s := paperdata.Schema()
	th := &Threshold{}
	if c := th.Refine(relation.New(s)); c.Modifications != 1 {
		// First fit always establishes the rule.
		t.Logf("modifications on empty = %d", c.Modifications)
	}
}

func TestRudolfAdapterTracksCosts(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	oracle := expert.NewOracle(rules.NewSet())
	m := NewRudolf("RUDOLF", paperdata.ExistingRules(s), oracle, core.Options{})
	if m.Name() != "RUDOLF" {
		t.Error("name wrong")
	}
	c1 := m.Refine(rel)
	if c1.Modifications == 0 {
		t.Error("no modifications recorded on first refine")
	}
	if c1.ExpertSeconds <= 0 {
		t.Error("no expert time recorded")
	}
	// A second refine over the same data should cost little or nothing.
	c2 := m.Refine(rel)
	if c2.Modifications > c1.Modifications {
		t.Errorf("second refine cost more than the first: %d > %d", c2.Modifications, c1.Modifications)
	}
	if m.Session().Log().Len() != c1.Modifications+c2.Modifications {
		t.Error("session log length does not match reported deltas")
	}
	pred := m.Predict(rel)
	for _, i := range rel.Indices(relation.Fraud) {
		if !pred.Has(i) {
			t.Errorf("fraud %d not predicted after refinement", i)
		}
	}
}

func TestManualCoversFraudsWithinBudget(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	truth := rules.NewSet(
		rules.MustParse(s, `time in [18:00,18:05] && amount >= $100 && type <= "Online, no CCV"`),
		rules.MustParse(s, `time in [18:55,19:15] && amount >= $100 && type <= "Online, no CCV"`),
		rules.MustParse(s, `time in [20:45,21:15] && amount >= $40 && location <= "Gas Station" && type <= "Offline"`),
	)
	m := &Manual{Rules: paperdata.ExistingRules(s).Clone(), Truth: truth}
	c := m.Refine(rel)
	if c.Modifications == 0 {
		t.Fatal("manual expert did nothing")
	}
	if c.ExpertSeconds <= 0 || m.SimulatedSeconds() != c.ExpertSeconds {
		t.Error("manual time accounting wrong")
	}
	pred := m.Predict(rel)
	for _, i := range rel.Indices(relation.Fraud) {
		if !pred.Has(i) {
			t.Errorf("fraud %d uncovered after manual round", i)
		}
	}
	if m.FixesDone() == 0 {
		t.Error("no fixes counted")
	}
}

// TestManualBudgetLimitsWork: with a tiny budget the expert cannot finish,
// reproducing the paper's observation that no expert completed all manual
// fixes.
func TestManualBudgetLimitsWork(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Size: 4000, Seed: 21, FraudPct: 2.5})
	tiny := &Manual{Rules: datagen.InitialRules(ds, 0, 21), Truth: ds.Truth, Budget: 60}
	big := &Manual{Rules: datagen.InitialRules(ds, 0, 21), Truth: ds.Truth, Budget: 1e9}
	ct := tiny.Refine(ds.Rel)
	cb := big.Refine(ds.Rel)
	if ct.Modifications >= cb.Modifications {
		t.Errorf("tiny budget did as much as unlimited: %d vs %d", ct.Modifications, cb.Modifications)
	}
	predTiny := tiny.Predict(ds.Rel)
	predBig := big.Predict(ds.Rel)
	missed := func(p interface{ Has(int) bool }) int {
		n := 0
		for _, i := range ds.Rel.Indices(relation.Fraud) {
			if !p.Has(i) {
				n++
			}
		}
		return n
	}
	if missed(predTiny) <= missed(predBig) && missed(predBig) > 0 {
		t.Logf("note: tiny budget missed %d, big %d", missed(predTiny), missed(predBig))
	}
	if missed(predBig) != 0 {
		t.Errorf("unlimited manual expert still missed %d reported frauds", missed(predBig))
	}
}

// TestManualNarrowsLegitCaptures: a verified legitimate transaction captured
// by a rule gets excluded without losing frauds.
func TestManualNarrowsLegitCaptures(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	m := &Manual{
		Rules: rules.NewSet(rules.MustParse(s, "time in [18:00,18:05] && amount >= $100")),
	}
	m.Refine(rel)
	pred := m.Predict(rel)
	if pred.Has(2) {
		t.Error("legitimate tuple still captured after manual narrowing")
	}
	if !pred.Has(0) || !pred.Has(1) {
		t.Error("manual narrowing lost frauds")
	}
}

// TestManualDropsFraudlessRule: a spurious rule capturing a verified
// legitimate transaction and no frauds is removed.
func TestManualDropsFraudlessRule(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	spurious := rules.MustParse(s, `time in [21:00,21:05] && location = "Gas Station A"`)
	// A large budget: the default 4-5 minutes may run out before the
	// legitimate-capture pass (which the paper observes for manual experts).
	m := &Manual{Rules: rules.NewSet(spurious), Budget: 1e6}
	m.Refine(rel)
	// The spurious rule is gone: nothing captures the verified legitimate
	// transaction at Gas Station A anymore (the expert also wrote proper
	// rules for the reported frauds during the same round).
	if got := m.Rules.CapturingRules(s, rel.Tuple(9)); len(got) != 0 {
		t.Errorf("legitimate tuple still captured by %v:\n%s", got, m.Rules.Format(s))
	}
	pred := m.Predict(rel)
	for _, i := range rel.Indices(relation.Fraud) {
		if !pred.Has(i) {
			t.Errorf("fraud %d uncovered", i)
		}
	}
}
