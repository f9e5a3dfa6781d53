package expert

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/rules"
)

func truth(s *relation.Schema) *rules.Set {
	return rules.NewSet(
		rules.MustParse(s, `time in [18:00,18:05] && amount >= $100 && type <= "Online, no CCV"`),
		rules.MustParse(s, `time in [18:55,19:15] && amount >= $100 && type <= "Online, no CCV"`),
		rules.MustParse(s, `time in [20:45,21:15] && amount >= $40 && location <= "Gas Station" && type <= "Offline"`),
	)
}

// genProposal builds the Example 4.4 rule-1 proposal: generalize
// "amount >= 110" to "amount >= 106" for the first fraud cluster.
func genProposal(t *testing.T) (*core.GenProposal, *relation.Schema) {
	t.Helper()
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	original := rules.MustParse(s, "time in [18:00,18:05] && amount >= $110")
	rep := cluster.MakeRepresentative(rel, []int{0, 1})
	proposed, changed := rules.GeneralizeToCover(s, original, rep.Conds)
	return &core.GenProposal{
		Schema:    s,
		Rel:       rel,
		RuleIndex: 0,
		Original:  original,
		Proposed:  proposed,
		Changed:   changed,
		Rep:       rep,
	}, s
}

func TestAutoAcceptEverything(t *testing.T) {
	p, _ := genProposal(t)
	a := &AutoAccept{}
	if d := a.ReviewGeneralization(p); !d.Accept || d.Edited != nil {
		t.Error("AutoAccept should accept unmodified")
	}
	if d := a.ReviewSplit(&core.SplitProposal{}); !d.Accept {
		t.Error("AutoAccept should accept splits")
	}
	if a.Satisfied(core.RoundStats{FraudTotal: 1}) {
		t.Error("AutoAccept satisfied while a fraud is missed")
	}
	if !a.Satisfied(core.RoundStats{FraudTotal: 1, FraudCaptured: 1}) {
		t.Error("AutoAccept not satisfied when perfect")
	}
}

// TestOracleRoundsToPattern: the oracle accepts the rule-1 proposal and
// rounds the amount bound out to the true pattern's $100 (Elena's edit).
func TestOracleRoundsToPattern(t *testing.T) {
	p, s := genProposal(t)
	o := NewOracle(truth(s))
	d := o.ReviewGeneralization(p)
	if !d.Accept {
		t.Fatal("oracle rejected a pattern-consistent proposal")
	}
	if d.Edited == nil {
		t.Fatal("oracle did not round the boundary")
	}
	if got := d.Edited.Cond(1).Iv.Lo; got != 100 {
		t.Errorf("rounded amount bound = %d, want 100", got)
	}
	if o.SimulatedSeconds() <= 0 {
		t.Error("no simulated time charged")
	}
}

// TestOracleRejectsUnrelatedRuleStretch: generalizing the gas-station rule
// across the space to capture the online cluster must be rejected.
func TestOracleRejectsUnrelatedRuleStretch(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	original := rules.MustParse(s, `time in [20:45,21:15] && amount >= $40 && location = "Gas Station A"`)
	rep := cluster.MakeRepresentative(rel, []int{0, 1})
	proposed, changed := rules.GeneralizeToCover(s, original, rep.Conds)
	p := &core.GenProposal{
		Schema: s, Rel: rel, RuleIndex: 2,
		Original: original, Proposed: proposed, Changed: changed, Rep: rep,
	}
	o := NewOracle(truth(s))
	d := o.ReviewGeneralization(p)
	if d.Accept {
		t.Error("oracle accepted stretching an unrelated rule")
	}
	if len(d.RevertAttrs) != len(changed) {
		t.Errorf("oracle reverted %d of %d modifications", len(d.RevertAttrs), len(changed))
	}
}

func TestOracleAcceptsWithoutPattern(t *testing.T) {
	p, s := genProposal(t)
	o := NewOracle(rules.NewSet()) // no known patterns
	if d := o.ReviewGeneralization(p); !d.Accept || d.Edited != nil {
		t.Error("patternless oracle should accept the system's proposal as-is")
	}
	_ = s
}

// TestOracleRejectsFraudLosingSplit: a split that loses a fraud is rejected;
// one that only trims the legitimate tuple is accepted.
func TestOracleRejectsFraudLosingSplit(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	original := rules.MustParse(s, "time in [18:00,18:05] && amount >= $100")
	o := NewOracle(truth(s))

	// A bad "split": an empty replacement list loses the two frauds.
	bad := &core.SplitProposal{
		Schema: s, Rel: rel, Original: original, Attr: 3,
		Replacements: nil, LegitIndex: 2,
	}
	if d := o.ReviewSplit(bad); d.Accept {
		t.Error("oracle accepted a fraud-losing split")
	}

	// The good split on type keeps both frauds.
	goodReps := []*rules.Rule{
		original.Clone().SetCond(2, rules.ConceptCond(s.Attr(2).Ontology.MustLookup("Offline"))),
		original.Clone().SetCond(2, rules.ConceptCond(s.Attr(2).Ontology.MustLookup("Online, no CCV"))),
	}
	good := &core.SplitProposal{
		Schema: s, Rel: rel, Original: original, Attr: 2,
		Replacements: goodReps, LegitIndex: 2,
	}
	d := o.ReviewSplit(good)
	if !d.Accept {
		t.Fatal("oracle rejected a fraud-preserving split")
	}
	// The offline branch captures no fraud and overlaps only the
	// gas-station pattern in type — but its time window [18:00,18:05] does
	// not overlap pattern 3's window, so the oracle trims it.
	if d.Keep == nil {
		t.Fatal("oracle kept the dead offline branch")
	}
	if len(d.Keep) != 1 || d.Keep[0] != 1 {
		t.Errorf("Keep = %v, want [1] (the Online, no CCV branch)", d.Keep)
	}
}

func TestOracleSatisfiedOnlyWhenPerfect(t *testing.T) {
	o := NewOracle(rules.NewSet())
	if o.Satisfied(core.RoundStats{FraudTotal: 2, FraudCaptured: 1}) {
		t.Error("satisfied while frauds missed")
	}
	if !o.Satisfied(core.RoundStats{FraudTotal: 2, FraudCaptured: 2}) {
		t.Error("not satisfied when perfect")
	}
}

func TestNoviceNoiseAndTiming(t *testing.T) {
	p, s := genProposal(t)
	inner := NewOracle(truth(s))
	n := NewNovice(inner, 7)
	sawNoRound, sawReject, sawRound := false, false, false
	for i := 0; i < 200; i++ {
		d := n.ReviewGeneralization(p)
		switch {
		case !d.Accept:
			sawReject = true
		case d.Edited == nil:
			sawNoRound = true
		default:
			sawRound = true
		}
	}
	if !sawNoRound || !sawReject || !sawRound {
		t.Errorf("novice noise missing a mode: noRound=%v reject=%v round=%v",
			sawNoRound, sawReject, sawRound)
	}
	if n.SimulatedSeconds() != 200*DefaultNoviceTiming().PerGeneralization {
		t.Errorf("novice time = %v", n.SimulatedSeconds())
	}
	if !n.Satisfied(core.RoundStats{}) {
		t.Error("novice Satisfied should delegate to the oracle (perfect empty stats)")
	}
}

func TestNoviceSplitNoise(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	original := rules.MustParse(s, "time in [18:00,18:05] && amount >= $100")
	goodReps := []*rules.Rule{
		original.Clone().SetCond(2, rules.ConceptCond(s.Attr(2).Ontology.MustLookup("Offline"))),
		original.Clone().SetCond(2, rules.ConceptCond(s.Attr(2).Ontology.MustLookup("Online, no CCV"))),
	}
	p := &core.SplitProposal{
		Schema: s, Rel: rel, Original: original, Attr: 2,
		Replacements: goodReps, LegitIndex: 2,
	}
	n := NewNovice(NewOracle(truth(s)), 11)
	sawTrim, sawNoTrim := false, false
	for i := 0; i < 200; i++ {
		d := n.ReviewSplit(p)
		if !d.Accept {
			continue
		}
		if d.Keep == nil {
			sawNoTrim = true
		} else {
			sawTrim = true
		}
	}
	if !sawTrim || !sawNoTrim {
		t.Errorf("novice split noise missing a mode: trim=%v noTrim=%v", sawTrim, sawNoTrim)
	}
}

func TestInteractiveGeneralization(t *testing.T) {
	p, s := genProposal(t)
	in := strings.NewReader("x\na\n")
	var out strings.Builder
	ie := NewInteractive(in, &out)
	d := ie.ReviewGeneralization(p)
	if !d.Accept {
		t.Error("interactive accept failed")
	}
	if !strings.Contains(out.String(), "proposed:") {
		t.Error("proposal not printed")
	}
	if !strings.Contains(out.String(), "unrecognized") {
		t.Error("bad input not reported")
	}

	// Edit path with a parse error first.
	in = strings.NewReader("e\nghost = 1\ne\namount >= $100\n")
	ie = NewInteractive(in, &out)
	d = ie.ReviewGeneralization(p)
	if !d.Accept || d.Edited == nil {
		t.Fatal("interactive edit failed")
	}
	if d.Edited.Cond(1).Iv.Lo != 100 {
		t.Error("edited rule not parsed")
	}

	// Revert path.
	in = strings.NewReader("v\namount ghost\n")
	ie = NewInteractive(in, &out)
	d = ie.ReviewGeneralization(p)
	if d.Accept || len(d.RevertAttrs) != 1 || d.RevertAttrs[0] != s.MustIndex("amount") {
		t.Errorf("revert decision = %+v", d)
	}

	// Reject path.
	in = strings.NewReader("r\n")
	ie = NewInteractive(in, &out)
	if d := ie.ReviewGeneralization(p); d.Accept {
		t.Error("interactive reject failed")
	}
}

func TestInteractiveSplitAndSatisfied(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	original := rules.MustParse(s, "time in [18:00,18:05] && amount >= $100")
	reps := []*rules.Rule{
		original.Clone().SetCond(2, rules.ConceptCond(s.Attr(2).Ontology.MustLookup("Offline"))),
		original.Clone().SetCond(2, rules.ConceptCond(s.Attr(2).Ontology.MustLookup("Online, no CCV"))),
	}
	p := &core.SplitProposal{Schema: s, Rel: rel, Original: original, Attr: 2,
		Replacements: reps, LegitIndex: 2}

	var out strings.Builder
	ie := NewInteractive(strings.NewReader("k\n2\n"), &out)
	d := ie.ReviewSplit(p)
	if !d.Accept || len(d.Keep) != 1 || d.Keep[0] != 1 {
		t.Errorf("keep decision = %+v", d)
	}
	ie = NewInteractive(strings.NewReader("r\n"), &out)
	if d := ie.ReviewSplit(p); d.Accept {
		t.Error("interactive split reject failed")
	}
	ie = NewInteractive(strings.NewReader("\n"), &out)
	if d := ie.ReviewSplit(p); !d.Accept {
		t.Error("default answer should accept")
	}

	ie = NewInteractive(strings.NewReader("n\ny\n"), &out)
	if ie.Satisfied(core.RoundStats{}) {
		t.Error("answer n should continue")
	}
	if !ie.Satisfied(core.RoundStats{}) {
		t.Error("answer y should stop")
	}
}

func TestTimingDefaults(t *testing.T) {
	o := &Oracle{Truth: rules.NewSet()}
	if o.timing() != DefaultExpertTiming() {
		t.Error("zero oracle timing should default")
	}
	n := &Novice{Inner: o}
	if n.timing() != DefaultNoviceTiming() {
		t.Error("zero novice timing should default")
	}
	if n.random() == nil {
		t.Error("nil rng not lazily created")
	}
}

// TestRecordingExpert: the audit wrapper passes decisions through unchanged
// and writes one line per interaction.
func TestRecordingExpert(t *testing.T) {
	p, s := genProposal(t)
	var out strings.Builder
	rec := NewRecording(NewOracle(truth(s)), &out)
	dec := rec.ReviewGeneralization(p)
	if !dec.Accept || dec.Edited == nil {
		t.Error("recording changed the inner decision")
	}
	if !strings.HasPrefix(out.String(), "[1] generalize") || !strings.Contains(out.String(), "ACCEPTED") || !strings.Contains(out.String(), "edited to") {
		t.Errorf("audit line = %q", out.String())
	}
	// Split lines and satisfaction lines appear too.
	rel := p.Rel
	original := p.Original
	rec.ReviewSplit(&core.SplitProposal{
		Schema: s, Rel: rel, Original: original, Attr: 0,
		Replacements: nil, LegitIndex: 2,
	})
	if !strings.Contains(out.String(), "split rule") {
		t.Error("no split audit line")
	}
	rec.Satisfied(core.RoundStats{FraudTotal: 1, FraudCaptured: 1})
	if !strings.Contains(out.String(), "satisfied=true") {
		t.Error("no satisfaction audit line")
	}
	if rec.SimulatedSeconds() <= 0 {
		t.Error("time tracking not delegated")
	}
}

// TestCommitteeMajority: mixed committees resolve by majority; edits come
// from the first accepting editor; reverts union over rejectors.
func TestCommitteeMajority(t *testing.T) {
	p, s := genProposal(t)
	oracle := NewOracle(truth(s))
	accept := &AutoAccept{}
	reject := rejectAll{}

	// 2 accepts vs 1 reject: accepted, with the oracle's edit.
	c := NewCommittee(oracle, accept, reject)
	d := c.ReviewGeneralization(p)
	if !d.Accept || d.Edited == nil {
		t.Errorf("majority-accept committee: %+v", d)
	}
	// 1 accept vs 2 rejects: rejected with the union of reverts.
	c2 := NewCommittee(accept, reject, reject)
	d2 := c2.ReviewGeneralization(p)
	if d2.Accept || len(d2.RevertAttrs) == 0 {
		t.Errorf("majority-reject committee: %+v", d2)
	}
	// Satisfaction: two always-satisfied members outvote one never-satisfied.
	if !NewCommittee(accept, accept, &neverSatisfied{}).Satisfied(core.RoundStats{}) {
		t.Error("majority satisfaction failed")
	}
	if NewCommittee(accept, &neverSatisfied{}, &neverSatisfied{}).Satisfied(core.RoundStats{}) {
		t.Error("minority satisfaction passed")
	}
}

func TestCommitteeSplitVote(t *testing.T) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	original := rules.MustParse(s, "time in [18:00,18:05] && amount >= $100")
	goodReps := []*rules.Rule{
		original.Clone().SetCond(2, rules.ConceptCond(s.Attr(2).Ontology.MustLookup("Offline"))),
		original.Clone().SetCond(2, rules.ConceptCond(s.Attr(2).Ontology.MustLookup("Online, no CCV"))),
	}
	prop := &core.SplitProposal{Schema: s, Rel: rel, Original: original, Attr: 2,
		Replacements: goodReps, LegitIndex: 2}
	oracle := NewOracle(truth(s))
	c := NewCommittee(oracle, &AutoAccept{}, &AutoAccept{})
	d := c.ReviewSplit(prop)
	if !d.Accept {
		t.Fatal("committee rejected a good split")
	}
	if d.Keep == nil {
		t.Error("oracle's trim not adopted by the committee")
	}
	if NewCommittee(rejectAll{}, rejectAll{}, &AutoAccept{}).ReviewSplit(prop).Accept {
		t.Error("minority accept passed")
	}
}

func TestCommitteeTimeIsSlowestMember(t *testing.T) {
	p, s := genProposal(t)
	fast := NewOracle(truth(s))
	slow := NewNovice(NewOracle(truth(s)), 3)
	c := NewCommittee(fast, slow)
	c.ReviewGeneralization(p)
	if c.SimulatedSeconds() != slow.SimulatedSeconds() {
		t.Errorf("committee time %v, want the slowest member's %v",
			c.SimulatedSeconds(), slow.SimulatedSeconds())
	}
}

func TestCommitteePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty committee did not panic")
		}
	}()
	NewCommittee()
}

type rejectAll struct{}

func (rejectAll) ReviewGeneralization(p *core.GenProposal) core.GenDecision {
	return core.GenDecision{Accept: false, RevertAttrs: p.Changed}
}
func (rejectAll) ReviewSplit(*core.SplitProposal) core.SplitDecision {
	return core.SplitDecision{Accept: false}
}
func (rejectAll) Satisfied(core.RoundStats) bool { return true }

type neverSatisfied struct{ AutoAccept }

func (*neverSatisfied) Satisfied(core.RoundStats) bool { return false }
