package datagen

import (
	"math/rand"
	"testing"

	"repro/internal/ontology"
	"repro/internal/relation"
	"repro/internal/rules"
)

func TestGeoOntologyShape(t *testing.T) {
	o := GeoOntology(DefaultGeoConfig())
	// 3 × 3 × 3 cities × 5 venues = 135 leaves.
	if got := len(o.Leaves()); got != 135 {
		t.Errorf("leaves = %d, want 135", got)
	}
	// Cross-cutting venue-kind concepts exist and cover one leaf per city.
	anyGas, ok := o.Lookup("Any Gas Station")
	if !ok {
		t.Fatal("no 'Any Gas Station' concept")
	}
	if got := o.LeafCount(anyGas); got != 27 {
		t.Errorf("Any Gas Station covers %d leaves, want 27", got)
	}
	// A venue leaf has two parents: its city and its kind — the DAG shape.
	leaf := o.MustLookup("Gas Station @ City 1.1.1")
	parents := 0
	for c := ontology.Concept(0); int(c) < o.Len(); c++ {
		for _, ch := range o.Children(c) {
			if ch == leaf {
				parents++
			}
		}
	}
	if parents != 2 {
		t.Errorf("venue leaf has %d parents, want 2", parents)
	}
}

func TestClientOntology(t *testing.T) {
	o := ClientOntology()
	if got := len(o.Leaves()); got != 4 {
		t.Errorf("client leaves = %d, want 4", got)
	}
	if !o.Contains(o.MustLookup("Individual"), o.MustLookup("Premium")) {
		t.Error("Individual should contain Premium")
	}
}

func TestSchemaShape(t *testing.T) {
	s := Schema(DefaultGeoConfig(), 30)
	if s.Arity() != 7 {
		t.Fatalf("arity = %d, want 7", s.Arity())
	}
	if s.Attr(AttrDay).Domain.Max != 29 {
		t.Errorf("day domain max = %d, want 29", s.Attr(AttrDay).Domain.Max)
	}
	for _, tc := range []struct {
		idx  int
		name string
	}{
		{AttrDay, "day"}, {AttrTime, "time"}, {AttrAmount, "amount"},
		{AttrType, "type"}, {AttrLocation, "location"},
		{AttrClient, "client"}, {AttrPrevTxns, "prev_txns"},
	} {
		if got := s.Attr(tc.idx).Name; got != tc.name {
			t.Errorf("attr %d = %q, want %q", tc.idx, got, tc.name)
		}
	}
}

func TestConfigDefault(t *testing.T) {
	c := Config{}.Default()
	if c.Size == 0 || c.FraudPct == 0 || c.Days == 0 || c.Patterns == 0 ||
		c.DriftFraction == 0 || c.FraudReportRate == 0 || c.LegitVerifyRate == 0 ||
		c.ScoreSeparation == 0 || c.Geo == (GeoConfig{}) {
		t.Errorf("Default left zero fields: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{Size: 123, FraudPct: 2.5}.Default()
	if c2.Size != 123 || c2.FraudPct != 2.5 {
		t.Error("Default clobbered explicit fields")
	}
}

func TestGenerateBasicInvariants(t *testing.T) {
	cfg := Config{Size: 3000, Seed: 42}
	ds := Generate(cfg)
	if ds.Rel.Len() != 3000 {
		t.Fatalf("size = %d", ds.Rel.Len())
	}
	if len(ds.TrueFraud) != 3000 {
		t.Fatalf("truth length = %d", len(ds.TrueFraud))
	}
	// Time-sorted by (day, minute).
	for i := 1; i < ds.Rel.Len(); i++ {
		a, b := ds.Rel.Tuple(i-1), ds.Rel.Tuple(i)
		if a[AttrDay] > b[AttrDay] || (a[AttrDay] == b[AttrDay] && a[AttrTime] > b[AttrTime]) {
			t.Fatalf("not time sorted at %d", i)
		}
	}
	// Fraud rate near the 1.5% default (binomial tolerance).
	frauds := 0
	for _, f := range ds.TrueFraud {
		if f {
			frauds++
		}
	}
	rate := 100 * float64(frauds) / 3000
	if rate < 0.7 || rate > 3.0 {
		t.Errorf("fraud rate = %.2f%%, want near 1.5%%", rate)
	}
	// Every fraud lies inside its pattern region: each truly fraudulent
	// tuple is captured by at least one truth rule.
	for i, f := range ds.TrueFraud {
		if f && len(ds.Truth.CapturingRules(ds.Schema, ds.Rel.Tuple(i))) == 0 {
			t.Fatalf("fraud %d outside every pattern", i)
		}
	}
	// Labels only on reported/verified transactions; FRAUD labels only on
	// true frauds.
	for i := 0; i < ds.Rel.Len(); i++ {
		if ds.Rel.Label(i) == relation.Fraud && !ds.TrueFraud[i] {
			t.Fatalf("tuple %d labeled FRAUD but not truly fraudulent", i)
		}
		if ds.Rel.Label(i) == relation.Legitimate && ds.TrueFraud[i] {
			t.Fatalf("tuple %d labeled LEGITIMATE but truly fraudulent", i)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(Config{Size: 500, Seed: 7})
	b := Generate(Config{Size: 500, Seed: 7})
	if a.Rel.Len() != b.Rel.Len() {
		t.Fatal("nondeterministic size")
	}
	for i := 0; i < a.Rel.Len(); i++ {
		ta, tb := a.Rel.Tuple(i), b.Rel.Tuple(i)
		for j := range ta {
			if ta[j] != tb[j] {
				t.Fatalf("tuple %d differs", i)
			}
		}
		if a.Rel.Label(i) != b.Rel.Label(i) || a.Rel.Score(i) != b.Rel.Score(i) {
			t.Fatalf("label/score %d differs", i)
		}
	}
	c := Generate(Config{Size: 500, Seed: 8})
	same := true
	for i := 0; i < 500 && same; i++ {
		for j := range a.Rel.Tuple(i) {
			if a.Rel.Tuple(i)[j] != c.Rel.Tuple(i)[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestDriftPatternsStartLate(t *testing.T) {
	ds := Generate(Config{Size: 2000, Seed: 3, Patterns: 10, DriftFraction: 0.4})
	var early, late int
	for _, p := range ds.Patterns {
		if p.StartDay == 0 {
			early++
		} else {
			late++
			if p.StartDay < ds.Config.Days/2 {
				t.Errorf("drift pattern starts on day %d, before midpoint", p.StartDay)
			}
		}
	}
	if early != 6 || late != 4 {
		t.Errorf("pattern split = %d early / %d late, want 6/4", early, late)
	}
}

func TestScoreSeparationOrdersClasses(t *testing.T) {
	ds := Generate(Config{Size: 5000, Seed: 5, FraudPct: 2.5, ScoreSeparation: 0.8})
	var fSum, lSum, fN, lN float64
	for i := 0; i < ds.Rel.Len(); i++ {
		if ds.TrueFraud[i] {
			fSum += float64(ds.Rel.Score(i))
			fN++
		} else {
			lSum += float64(ds.Rel.Score(i))
			lN++
		}
	}
	if fN == 0 || lN == 0 {
		t.Fatal("degenerate class counts")
	}
	if fSum/fN <= lSum/lN+100 {
		t.Errorf("fraud mean score %.0f not well above legit mean %.0f", fSum/fN, lSum/lN)
	}
}

// TestInitialRulesMisclassify checks the paper's starting condition: the
// incumbent rules misclassify a substantial share of the labeled
// transactions (the paper reports 35-50%; we assert a generous band).
func TestInitialRulesMisclassify(t *testing.T) {
	ds := Generate(Config{Size: 6000, Seed: 11})
	rs := InitialRules(ds, 0, 11)
	if rs.Len() < 5 {
		t.Fatalf("only %d initial rules", rs.Len())
	}
	captured := rs.Eval(ds.Rel)
	var missedFrauds, frauds int
	for i := 0; i < ds.Rel.Len(); i++ {
		if ds.Rel.Label(i) != relation.Fraud {
			continue
		}
		frauds++
		if !captured.Has(i) {
			missedFrauds++
		}
	}
	if frauds == 0 {
		t.Fatal("no labeled frauds")
	}
	pct := 100 * float64(missedFrauds) / float64(frauds)
	if pct < 20 || pct > 80 {
		t.Errorf("initial missed-fraud share = %.1f%%, want a substantial share (paper: 35-50%% misclassified)", pct)
	}
}

func TestInitialRulesPadding(t *testing.T) {
	ds := Generate(Config{Size: 1000, Seed: 13})
	rs := InitialRules(ds, 40, 13)
	if rs.Len() < 40 {
		t.Errorf("padded rule count = %d, want >= 40", rs.Len())
	}
}

func TestSplitIndex(t *testing.T) {
	ds := Generate(Config{Size: 1000, Seed: 1})
	if got := ds.SplitIndex(0.5); got != 500 {
		t.Errorf("SplitIndex(0.5) = %d", got)
	}
	if got := ds.SplitIndex(0); got != 0 {
		t.Errorf("SplitIndex(0) = %d", got)
	}
}

func TestPatternSamplesInsideRegion(t *testing.T) {
	ds := Generate(Config{Size: 100, Seed: 2})
	s := ds.Schema
	for pi, p := range ds.Patterns {
		// Sampled tuples (with a valid day) must satisfy the pattern rule.
		day := int64(p.StartDay)
		for k := 0; k < 20; k++ {
			tup := sampleInPattern(randFor(pi*100+k), s, p, day)
			if !p.Rule.Matches(s, tup) {
				t.Fatalf("pattern %d sample %v escapes its region %s",
					pi, tup, p.Rule.Format(s))
			}
		}
	}
}

func TestBackgroundSamplesValid(t *testing.T) {
	s := Schema(DefaultGeoConfig(), 30)
	rel := relation.New(s)
	for k := 0; k < 200; k++ {
		tup := sampleBackground(randFor(k), s, int64(k%30))
		if _, err := rel.Append(tup, relation.Unlabeled, 0); err != nil {
			t.Fatalf("background sample invalid: %v", err)
		}
	}
}

// randFor returns a deterministic rng for subtest k.
func randFor(k int) *rand.Rand { return rand.New(rand.NewSource(int64(k) + 1)) }

// TestInitialRulesScoreThresholds: the opt-in score-threshold knob produces
// rules that parse, round-trip and gate capture by score.
func TestInitialRulesScoreThresholds(t *testing.T) {
	ds := Generate(Config{Size: 2000, Seed: 31, InitialRuleScoreRate: 1})
	rs := InitialRules(ds, 0, 31)
	withScore := 0
	for _, r := range rs.Rules() {
		if r.MinScore() > 0 {
			withScore++
		}
	}
	if withScore == 0 {
		t.Fatal("no initial rule carries a score threshold at rate 1")
	}
	// Score-aware evaluation captures no more than condition-only matching.
	captured := rs.Eval(ds.Rel)
	for i := 0; i < ds.Rel.Len(); i++ {
		if captured.Has(i) && len(rs.CapturingRulesAt(ds.Rel, i)) == 0 {
			t.Fatalf("Eval and CapturingRulesAt disagree at %d", i)
		}
	}
	// Zero rate (the default) leaves rules threshold-free.
	ds0 := Generate(Config{Size: 500, Seed: 31})
	for _, r := range InitialRules(ds0, 0, 31).Rules() {
		if r.MinScore() != 0 {
			t.Fatal("default config produced a score threshold")
		}
	}
}

// TestVelocityBursts: planted card-testing bursts ride along as extra
// fraudulent rows, every burst is caught by a windowed velocity rule, and
// disabling bursts keeps the background generation untouched.
func TestVelocityBursts(t *testing.T) {
	cfg := Config{Size: 2000, Seed: 7, Days: 1, VelocityBursts: 3}
	ds := Generate(cfg)
	if len(ds.Bursts) != 3 {
		t.Fatalf("planted %d bursts, want 3", len(ds.Bursts))
	}
	planted := 0
	for _, b := range ds.Bursts {
		if b.Size < 6 {
			t.Fatalf("burst size %d below the catchable minimum", b.Size)
		}
		planted += b.Size
	}
	if ds.Rel.Len() != cfg.Size+planted {
		t.Fatalf("relation has %d rows, want %d background + %d burst probes",
			ds.Rel.Len(), cfg.Size, planted)
	}

	// Each burst's fastest probe sees a COUNT(location, 10m) aggregate of at
	// least the burst size, so the velocity rule fires inside every burst.
	r := rules.MustParse(ds.Schema, "COUNT(location, 10m) >= 6")
	for bi, b := range ds.Bursts {
		hit := false
		for i := 0; i < ds.Rel.Len() && !hit; i++ {
			tu := ds.Rel.Tuple(i)
			if tu[AttrLocation] == b.Location && tu[AttrTime] >= b.Start &&
				tu[AttrTime] < b.Start+b.Span && r.MatchesAt(ds.Rel, i) {
				hit = true
			}
		}
		if !hit {
			t.Errorf("burst %d (%+v) not caught by the windowed rule", bi, b)
		}
	}

	// Burst probes are true frauds (subject to the usual reporting rate for
	// labels), and they are amount-small: per-tuple they blend into the
	// background, which is the point.
	fraud := 0
	for _, f := range ds.TrueFraud {
		if f {
			fraud++
		}
	}
	if fraud < planted {
		t.Fatalf("%d true frauds, want at least the %d planted probes", fraud, planted)
	}

	// With bursts disabled the generator draws nothing extra: the background
	// tuple stream is reproduced exactly (bursts are appended after it).
	base := Generate(Config{Size: 2000, Seed: 7, Days: 1})
	if base.Rel.Len() != cfg.Size {
		t.Fatalf("baseline has %d rows, want %d", base.Rel.Len(), cfg.Size)
	}
	if len(base.Bursts) != 0 {
		t.Fatalf("baseline has %d bursts, want none", len(base.Bursts))
	}
}
