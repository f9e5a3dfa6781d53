package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/datagen"
)

// testSetup keeps experiment tests fast: smaller datasets, two repeats.
func testSetup() Setup {
	return Setup{
		Data:    datagen.Config{Size: 2500},
		Repeats: 2,
	}
}

func mean(ys []float64) float64 {
	var s float64
	for _, y := range ys {
		s += y
	}
	return s / float64(len(ys))
}

func seriesByName(f Figure, name string) Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return Series{}
}

// TestFig3aShape asserts the paper's Figure 3(a) finding: RUDOLF performs
// fewer modifications than both the fully-manual expert and RUDOLF⁻, and
// every cumulative series is non-decreasing.
func TestFig3aShape(t *testing.T) {
	fig := Fig3a(testSetup())
	if fig.ID != "3a" || len(fig.Series) != 3 {
		t.Fatalf("unexpected figure: %+v", fig)
	}
	rud := seriesByName(fig, string(MethodRudolf))
	man := seriesByName(fig, string(MethodManual))
	minus := seriesByName(fig, string(MethodRudolfMinus))
	if mean(rud.Y) >= mean(man.Y) {
		t.Errorf("RUDOLF mods %v not below manual %v", mean(rud.Y), mean(man.Y))
	}
	if mean(rud.Y) >= mean(minus.Y) {
		t.Errorf("RUDOLF mods %v not below RUDOLF⁻ %v", mean(rud.Y), mean(minus.Y))
	}
	for _, s := range fig.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("%s cumulative mods decreased at round %d", s.Name, i+1)
			}
		}
	}
}

// TestFig3bShape asserts the Figure 3(b) ordering on mean error: RUDOLF
// best, fully-manual second among rule methods, RUDOLF⁻ ahead of the
// automatic baselines, No Change worst.
func TestFig3bShape(t *testing.T) {
	fig := Fig3b(testSetup())
	if len(fig.Series) != 5 {
		t.Fatalf("want 5 series, got %d", len(fig.Series))
	}
	rud := mean(seriesByName(fig, string(MethodRudolf)).Y)
	man := mean(seriesByName(fig, string(MethodManual)).Y)
	minus := mean(seriesByName(fig, string(MethodRudolfMinus)).Y)
	thr := mean(seriesByName(fig, string(MethodThreshold)).Y)
	noc := mean(seriesByName(fig, string(MethodNoChange)).Y)
	if !(rud <= man+1e-9) {
		t.Errorf("RUDOLF error %.2f above manual %.2f", rud, man)
	}
	if !(man < minus) {
		t.Errorf("manual error %.2f not below RUDOLF⁻ %.2f", man, minus)
	}
	if !(minus < noc) {
		t.Errorf("RUDOLF⁻ error %.2f not below No Change %.2f", minus, noc)
	}
	if !(rud < thr && man < thr) {
		t.Errorf("expert methods (%.2f, %.2f) not below threshold %.2f", rud, man, thr)
	}
}

// TestFig3cShape: RUDOLF stays lowest across dataset sizes.
func TestFig3cShape(t *testing.T) {
	fig := Fig3c(testSetup(), []int{1000, 2500, 5000})
	rud := seriesByName(fig, string(MethodRudolf))
	for _, other := range []MethodID{MethodRudolfMinus, MethodThreshold} {
		o := seriesByName(fig, string(other))
		if mean(rud.Y) >= mean(o.Y) {
			t.Errorf("RUDOLF mean error %.2f not below %s %.2f", mean(rud.Y), other, mean(o.Y))
		}
	}
}

// TestFig3dShape: more fraud means more rule updates, and RUDOLF needs the
// fewest (the paper's Figure 3(d)).
func TestFig3dShape(t *testing.T) {
	fig := Fig3d(testSetup(), []float64{0.5, 1.5, 2.5})
	rud := seriesByName(fig, string(MethodRudolf))
	man := seriesByName(fig, string(MethodManual))
	if rud.Y[len(rud.Y)-1] <= rud.Y[0] {
		t.Errorf("RUDOLF updates did not grow with fraud%%: %v", rud.Y)
	}
	if mean(rud.Y) >= mean(man.Y) {
		t.Errorf("RUDOLF updates %.1f not below manual %.1f", mean(rud.Y), mean(man.Y))
	}
}

// TestFig3eShape: RUDOLF achieves the lowest error across fraud rates.
func TestFig3eShape(t *testing.T) {
	fig := Fig3e(testSetup(), []float64{0.5, 1.5, 2.5})
	rud := seriesByName(fig, string(MethodRudolf))
	minus := seriesByName(fig, string(MethodRudolfMinus))
	if mean(rud.Y) >= mean(minus.Y) {
		t.Errorf("RUDOLF error %.2f not below RUDOLF⁻ %.2f", mean(rud.Y), mean(minus.Y))
	}
}

// TestFig3fShape: RUDOLF rounds are several times faster than manual rounds
// and the manual expert does not finish the fixes (the paper reports a 4-5×
// speedup and that no expert completed all 50 manual fixes).
func TestFig3fShape(t *testing.T) {
	rows := Fig3f(testSetup(), 50, 1800)
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	rud, man := rows[0], rows[1]
	if rud.Method != string(MethodRudolf) || man.Method != string(MethodManual) {
		t.Fatalf("unexpected row order: %+v", rows)
	}
	if man.SecondsPerRound < 2.5*rud.SecondsPerRound {
		t.Errorf("manual %.0fs/round not ≥2.5× RUDOLF %.0fs/round",
			man.SecondsPerRound, rud.SecondsPerRound)
	}
	if man.FixesCompleted >= man.FixesAsked {
		t.Errorf("manual expert finished all %d fixes; the paper's never did", man.FixesAsked)
	}
	if rud.FixesCompleted <= man.FixesCompleted {
		t.Errorf("RUDOLF fixed %d, manual %d; want RUDOLF ahead",
			rud.FixesCompleted, man.FixesCompleted)
	}
}

// TestModificationMix: condition refinements dominate (the paper reports
// ~75% refinements, ~20% splits, ~5% additions).
func TestModificationMix(t *testing.T) {
	mix := ModificationMix(testSetup())
	if len(mix) == 0 {
		t.Fatal("empty modification mix")
	}
	refine := mix[cost.CondRefine]
	if refine < 40 {
		t.Errorf("condition refinements = %.1f%%, want the dominant share", refine)
	}
	var total float64
	for _, pct := range mix {
		total += pct
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("mix does not sum to 100%%: %v", mix)
	}
}

// TestNoviceStudy: novices with RUDOLF land close behind experts and far
// ahead of novices working alone (the paper's in-text study).
func TestNoviceStudy(t *testing.T) {
	r := NoviceStudy(testSetup())
	if r.NoviceRudolf+1e-9 < r.ExpertRudolf {
		t.Errorf("novice+RUDOLF %.2f better than expert %.2f", r.NoviceRudolf, r.ExpertRudolf)
	}
	if r.NoviceRudolf >= r.NoviceAlone*0.7 {
		t.Errorf("novice+RUDOLF %.2f not far below novice alone %.2f", r.NoviceRudolf, r.NoviceAlone)
	}
}

// TestRudolfS: without ontologies, RUDOLF-s lands in the RUDOLF⁻/manual
// quality region, at or behind full RUDOLF.
func TestRudolfS(t *testing.T) {
	r := RudolfS(testSetup())
	if r[MethodRudolf] > r[MethodRudolfS]+1e-9 {
		// Full RUDOLF must not be worse than its restricted variant.
		t.Errorf("RUDOLF %.2f worse than RUDOLF-s %.2f", r[MethodRudolf], r[MethodRudolfS])
	}
}

// TestProposalLatency: proposal computation stays near the paper's "at most
// one second" on the scaled datasets (we allow 2s for slow CI machines).
func TestProposalLatency(t *testing.T) {
	d := ProposalLatency(testSetup())
	if d > 2*time.Second {
		t.Errorf("proposal latency %v exceeds 2s", d)
	}
}

// TestHopSweep: larger hops mean fewer refinement rounds.
func TestHopSweep(t *testing.T) {
	fig := HopSweep(testSetup(), []float64{10, 25})
	rounds := seriesByName(fig, "rounds to converge")
	if len(rounds.Y) != 2 {
		t.Fatalf("rounds series = %v", rounds)
	}
	if rounds.Y[1] > rounds.Y[0] {
		t.Errorf("larger hop converged in more rounds: %v", rounds.Y)
	}
}

// TestAblations exercise the design-choice benches end to end.
func TestAblations(t *testing.T) {
	setup := testSetup()
	setup.Repeats = 1
	if got := AblationClustering(setup); len(got) != 2 {
		t.Errorf("clustering ablation = %v", got)
	}
	fig := AblationTopK(setup, []int{1, 3})
	if len(fig.Series) != 2 || len(fig.Series[0].Y) != 2 {
		t.Errorf("topk ablation = %+v", fig)
	}
	wfig := AblationWeights(setup, []float64{0, 1})
	if len(wfig.Series[0].Y) != 2 {
		t.Errorf("weights ablation = %+v", wfig)
	}
	if got := AblationWeightedCost(setup); len(got) != 2 {
		t.Errorf("weighted-cost ablation = %v", got)
	}
}

// TestRunDeterminism: the driver is reproducible for a fixed setup.
func TestRunDeterminism(t *testing.T) {
	setup := testSetup()
	ds := datagen.Generate(setup.Data)
	a := Run(ds, setup, MethodRudolf)[MethodRudolf]
	b := Run(ds, setup, MethodRudolf)[MethodRudolf]
	if len(a) != len(b) {
		t.Fatal("round counts differ")
	}
	for i := range a {
		if a[i].CumulativeMods != b[i].CumulativeMods || a[i].ErrorPct != b[i].ErrorPct {
			t.Fatalf("round %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestNewMethodUnknownPanics guards the method registry.
func TestNewMethodUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown method did not panic")
		}
	}()
	ds := datagen.Generate(datagen.Config{Size: 100, Seed: 1})
	NewMethod(MethodID("bogus"), ds, testSetup())
}

// TestFigureRendering covers the table output path.
func TestFigureRendering(t *testing.T) {
	fig := Figure{
		ID: "x", Title: "demo", XLabel: "k", YLabel: "v",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{1}, Y: []float64{30}},
		},
	}
	out := fig.String()
	for _, want := range []string{"Figure x: demo", "k", "a", "b", "10.00", "30.00", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestFleet: the FI roster study produces one plausible row per institute.
func TestFleet(t *testing.T) {
	setup := testSetup()
	fleet := Fleet(setup, 5, 1000)
	if len(fleet) != 5 {
		t.Fatalf("fleet size = %d", len(fleet))
	}
	if fleet[0].Size >= fleet[1].Size {
		t.Error("FI 1 should be the smallest and FI 2 the largest")
	}
	for _, fi := range fleet {
		if fi.FraudPct < 0.5 || fi.FraudPct > 2.5 {
			t.Errorf("FI %d fraud%% = %.2f outside the paper's 0.5-2.5", fi.ID, fi.FraudPct)
		}
		if fi.InitialRules < 10 || fi.InitialRules > 130 {
			t.Errorf("FI %d rules = %d outside the paper's 10-130", fi.ID, fi.InitialRules)
		}
		if fi.ErrorPct < 0 || fi.ErrorPct > 100 {
			t.Errorf("FI %d error = %.2f", fi.ID, fi.ErrorPct)
		}
	}
	var buf strings.Builder
	RenderFleet(&buf, fleet)
	if !strings.Contains(buf.String(), "Fleet study") {
		t.Error("fleet table missing header")
	}
}

// TestReportAndMarkdown: the markdown report contains every reproduced
// result section.
func TestReportAndMarkdown(t *testing.T) {
	setup := testSetup()
	setup.Data.Size = 1200
	setup.Repeats = 1
	var buf strings.Builder
	Report(&buf, setup)
	out := buf.String()
	for _, want := range []string{
		"Figure 3a", "Figure 3b", "Figure 3c", "Figure 3d", "Figure 3e",
		"sec/round", "condition refinements", "novice alone",
		"proposal latency", "RUDOLF-s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Markdown tables are well-formed (header separator per figure).
	if !strings.Contains(out, "|---|") {
		t.Error("no markdown tables in report")
	}
}
