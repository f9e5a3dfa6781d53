package experiment

import (
	"math"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/expert"
	"repro/internal/metrics"
	"repro/internal/relation"
)

// Fig3a reproduces Figure 3(a): the cumulative number of rule modifications
// as time advances, for RUDOLF, the fully-manual expert, and RUDOLF⁻.
// Expected shape: RUDOLF performs the fewest modifications.
func Fig3a(setup Setup) Figure {
	setup = setup.Defaults()
	ids := []MethodID{MethodRudolf, MethodManual, MethodRudolfMinus}
	fig := Figure{
		ID: "3a", Title: "cumulative # of rule modifications over time",
		XLabel: "round", YLabel: "cumulative modifications",
	}
	fig.Series = averagedRounds(setup, ids,
		func(r RoundResult) float64 { return float64(r.CumulativeMods) })
	return fig
}

// Fig3b reproduces Figure 3(b): prediction quality over time (percentage of
// misclassified future transactions; lower is better) for RUDOLF,
// fully-manual, RUDOLF⁻, the ML threshold and No Change. Expected shape:
// RUDOLF best, manual second, RUDOLF⁻ third, the automatic baselines worst.
func Fig3b(setup Setup) Figure {
	setup = setup.Defaults()
	ids := []MethodID{MethodRudolf, MethodManual, MethodRudolfMinus, MethodThreshold, MethodNoChange}
	fig := Figure{
		ID: "3b", Title: "prediction quality over time",
		XLabel: "round", YLabel: "% misclassified future transactions",
	}
	fig.Series = averagedRounds(setup, ids,
		func(r RoundResult) float64 { return r.ErrorPct })
	return fig
}

// averagedRounds runs the round protocol on setup.Repeats datasets with
// consecutive seeds and returns per-method series averaged point-wise.
func averagedRounds(setup Setup, ids []MethodID, y func(RoundResult) float64) []Series {
	setup = setup.Defaults()
	type acc struct {
		sum   []float64
		sumsq []float64
		n     []int
	}
	accs := make(map[MethodID]*acc, len(ids))
	for _, id := range ids {
		accs[id] = &acc{}
	}
	for rep := 0; rep < setup.Repeats; rep++ {
		s := setup
		s.Data.Seed = setup.Data.Seed + int64(rep)
		s.Seed = setup.Seed + int64(rep)
		ds := datagen.Generate(s.Data)
		results := Run(ds, s, ids...)
		for _, id := range ids {
			a := accs[id]
			for i, r := range results[id] {
				if i >= len(a.sum) {
					a.sum = append(a.sum, 0)
					a.sumsq = append(a.sumsq, 0)
					a.n = append(a.n, 0)
				}
				v := y(r)
				a.sum[i] += v
				a.sumsq[i] += v * v
				a.n[i]++
			}
		}
	}
	out := make([]Series, 0, len(ids))
	for _, id := range ids {
		a := accs[id]
		s := Series{Name: string(id)}
		for i := range a.sum {
			n := float64(a.n[i])
			mean := a.sum[i] / n
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, mean)
			variance := a.sumsq[i]/n - mean*mean
			if variance < 0 {
				variance = 0
			}
			s.YDev = append(s.YDev, math.Sqrt(variance))
		}
		out = append(out, s)
	}
	return out
}

// Fig3c reproduces Figure 3(c): prediction error after the first refinement
// round for datasets of growing size (same fraud percentage). Expected
// shape: RUDOLF lowest everywhere; all methods improve slightly with size.
func Fig3c(setup Setup, sizes []int) Figure {
	setup = setup.Defaults()
	ids := []MethodID{MethodRudolf, MethodManual, MethodRudolfMinus, MethodThreshold}
	fig := Figure{
		ID: "3c", Title: "prediction quality for varying dataset size",
		XLabel: "dataset size", YLabel: "% misclassified after first round",
	}
	series := make(map[MethodID]*Series, len(ids))
	for _, id := range ids {
		series[id] = &Series{Name: string(id)}
	}
	for _, size := range sizes {
		sums := make(map[MethodID]float64, len(ids))
		for rep := 0; rep < setup.Repeats; rep++ {
			cfg := setup.Data
			cfg.Size = size
			cfg.Seed = setup.Data.Seed + int64(rep)
			ds := datagen.Generate(cfg)
			results := firstRound(ds, setup, ids)
			for _, id := range ids {
				sums[id] += results[id].ErrorPct
			}
		}
		for _, id := range ids {
			series[id].X = append(series[id].X, float64(size))
			series[id].Y = append(series[id].Y, sums[id]/float64(setup.Repeats))
		}
	}
	for _, id := range ids {
		fig.Series = append(fig.Series, *series[id])
	}
	return fig
}

// Fig3d reproduces Figure 3(d): the number of rule updates after the first
// refinement round for varying fraud percentages. Expected shape: more
// fraud, more modifications; RUDOLF needs the fewest.
func Fig3d(setup Setup, fraudPcts []float64) Figure {
	return fraudSweep(setup, fraudPcts, Figure{
		ID: "3d", Title: "rule updates for varying fraud percentage",
		XLabel: "% fraud", YLabel: "modifications after first round",
	}, func(r RoundResult) float64 { return float64(r.CumulativeMods) })
}

// Fig3e reproduces Figure 3(e): prediction error after the first round for
// varying fraud percentages. Expected shape: error grows mildly with fraud
// share; RUDOLF lowest.
func Fig3e(setup Setup, fraudPcts []float64) Figure {
	return fraudSweep(setup, fraudPcts, Figure{
		ID: "3e", Title: "prediction quality for varying fraud percentage",
		XLabel: "% fraud", YLabel: "% misclassified after first round",
	}, func(r RoundResult) float64 { return r.ErrorPct })
}

func fraudSweep(setup Setup, fraudPcts []float64, fig Figure, y func(RoundResult) float64) Figure {
	setup = setup.Defaults()
	ids := []MethodID{MethodRudolf, MethodManual, MethodRudolfMinus}
	series := make(map[MethodID]*Series, len(ids))
	for _, id := range ids {
		series[id] = &Series{Name: string(id)}
	}
	for _, pct := range fraudPcts {
		sums := make(map[MethodID]float64, len(ids))
		for rep := 0; rep < setup.Repeats; rep++ {
			cfg := setup.Data
			cfg.FraudPct = pct
			cfg.Seed = setup.Data.Seed + int64(rep)
			ds := datagen.Generate(cfg)
			results := firstRound(ds, setup, ids)
			for _, id := range ids {
				sums[id] += y(results[id])
			}
		}
		for _, id := range ids {
			series[id].X = append(series[id].X, pct)
			series[id].Y = append(series[id].Y, sums[id]/float64(setup.Repeats))
		}
	}
	for _, id := range ids {
		fig.Series = append(fig.Series, *series[id])
	}
	return fig
}

// firstRound refines each method once on the first SplitFrac of the data and
// evaluates on the rest.
func firstRound(ds *datagen.Dataset, setup Setup, ids []MethodID) map[MethodID]RoundResult {
	one := setup
	one.HopFrac = 1 // a single round
	all := Run(ds, one, ids...)
	out := make(map[MethodID]RoundResult, len(ids))
	for _, id := range ids {
		out[id] = all[id][0]
	}
	return out
}

// Fig3fResult is one row of the expert-time study of Figure 3(f).
type Fig3fResult struct {
	Method          string
	FixesAsked      int
	FixesCompleted  int
	Rounds          int
	Seconds         float64
	SecondsPerRound float64
}

// Fig3f reproduces Figure 3(f): experts are asked to fix up to `fixes`
// problematic transactions with and without RUDOLF, working in refinement
// rounds until done or until the session cap runs out. Expected shape:
// RUDOLF rounds take a fraction of manual rounds (the paper reports ~50
// seconds against 4-5 minutes, a 4-5× speedup) and no expert finishes all 50
// fixes manually within the session.
func Fig3f(setup Setup, fixes int, capSeconds float64) []Fig3fResult {
	setup = setup.Defaults()
	ds := datagen.Generate(setup.Data)
	rel := ds.Rel.Prefix(ds.SplitIndex(setup.SplitFrac))

	run := func(name string, m baseline.Method, fixesDone func() int) Fig3fResult {
		r := Fig3fResult{Method: name, FixesAsked: fixes}
		start := countProblematic(rel, m, fixes)
		for r.Seconds < capSeconds && r.FixesCompleted < fixes {
			cost := m.Refine(rel)
			r.Rounds++
			r.Seconds += cost.ExpertSeconds
			if fixesDone != nil {
				r.FixesCompleted = fixesDone()
			} else {
				r.FixesCompleted = start - countProblematic(rel, m, fixes)
			}
			if cost.Modifications == 0 {
				break // nothing left the method can do
			}
		}
		if r.FixesCompleted > fixes {
			r.FixesCompleted = fixes
		}
		if r.Rounds > 0 {
			r.SecondsPerRound = r.Seconds / float64(r.Rounds)
		}
		return r
	}

	oracle := expert.NewOracle(ds.Truth)
	rud := baseline.NewRudolf(string(MethodRudolf),
		datagen.InitialRules(ds, setup.MinRules, setup.Seed+100), oracle,
		core.Options{Clusterer: datagen.Clusterer(), Weights: cost.FraudWeights()})
	man := &baseline.Manual{Rules: datagen.InitialRules(ds, setup.MinRules, setup.Seed+100),
		Truth: ds.Truth, Seed: setup.Seed + 13, Clusterer: datagen.Clusterer(),
		Budget: baseline.DefaultManualBudget}

	return []Fig3fResult{
		run(string(MethodRudolf), rud, nil),
		run(string(MethodManual), man, man.FixesDone),
	}
}

// countProblematic counts labeled transactions the method currently
// misclassifies, up to the limit: uncaptured reported frauds and captured
// verified-legitimate transactions.
func countProblematic(rel *relation.Relation, m baseline.Method, limit int) int {
	pred := m.Predict(rel)
	n := 0
	for i := 0; i < rel.Len() && n < limit; i++ {
		switch rel.Label(i) {
		case relation.Fraud:
			if !pred.Has(i) {
				n++
			}
		case relation.Legitimate:
			if pred.Has(i) {
				n++
			}
		}
	}
	return n
}

// NoviceStudyResult summarizes the in-text novice experiment.
type NoviceStudyResult struct {
	ExpertRudolf float64 // final error %, trained expert with RUDOLF
	NoviceRudolf float64 // final error %, novice with RUDOLF
	NoviceAlone  float64 // final error %, novice without RUDOLF
}

// NoviceStudy reproduces the in-text result: novices assisted by RUDOLF land
// close behind the trained experts (paper: ~5% worse) and far ahead of what
// they achieve alone (paper: ~25% better than novices alone).
func NoviceStudy(setup Setup) NoviceStudyResult {
	setup = setup.Defaults()
	ds := datagen.Generate(setup.Data)
	results := Run(ds, setup, MethodRudolf, MethodRudolfNovice, MethodNoviceAlone)
	last := func(id MethodID) float64 {
		rs := results[id]
		return rs[len(rs)-1].ErrorPct
	}
	return NoviceStudyResult{
		ExpertRudolf: last(MethodRudolf),
		NoviceRudolf: last(MethodRudolfNovice),
		NoviceAlone:  last(MethodNoviceAlone),
	}
}

// ModificationMix reproduces the in-text statistic that roughly 75% of
// RUDOLF's modifications are condition refinements, 20% rule splits and 5%
// rule additions. It returns the percentage per modification kind after a
// full run.
func ModificationMix(setup Setup) map[cost.ModKind]float64 {
	setup = setup.Defaults()
	ds := datagen.Generate(setup.Data)
	rud := NewMethod(MethodRudolf, ds, setup).(*baseline.Rudolf)
	n := ds.Rel.Len()
	hop := int(float64(n) * setup.HopFrac)
	for seen := ds.SplitIndex(setup.SplitFrac); seen < n; seen += hop {
		rud.Refine(ds.Rel.Prefix(seen))
	}
	counts := rud.Session().Log().CountByKind()
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make(map[cost.ModKind]float64, len(counts))
	if total == 0 {
		return out
	}
	for k, c := range counts {
		out[k] = 100 * float64(c) / float64(total)
	}
	return out
}

// HopSweep reproduces the in-text observation that larger refinement hops
// converge in proportionally fewer rounds: for each hop size it reports the
// number of rounds until the error stops improving and the final error.
func HopSweep(setup Setup, hops []float64) Figure {
	setup = setup.Defaults()
	fig := Figure{
		ID: "T-hops", Title: "rounds to converge for varying hop size",
		XLabel: "hop %", YLabel: "rounds to converge / final error %",
	}
	rounds := Series{Name: "rounds to converge"}
	final := Series{Name: "final error %"}
	for _, hop := range hops {
		s := setup
		s.HopFrac = hop / 100
		ds := datagen.Generate(s.Data)
		results := Run(ds, s, MethodRudolf)[MethodRudolf]
		// Converged = first round whose error is within half a point of the
		// best error reached over the whole run (the plateau).
		best := results[0].ErrorPct
		for _, r := range results {
			if r.ErrorPct < best {
				best = r.ErrorPct
			}
		}
		conv := len(results)
		for i, r := range results {
			if r.ErrorPct <= best+0.5 {
				conv = i + 1
				break
			}
		}
		rounds.X = append(rounds.X, hop)
		rounds.Y = append(rounds.Y, float64(conv))
		final.X = append(final.X, hop)
		final.Y = append(final.Y, results[len(results)-1].ErrorPct)
	}
	fig.Series = []Series{rounds, final}
	return fig
}

// ProposalLatency measures the wall-clock time RUDOLF needs to compute one
// round of proposals (the paper reports at most one second on its datasets).
// It returns the elapsed time for a full Generalize+Specialize pass with an
// auto-accepting expert (so no human think-time is included).
func ProposalLatency(setup Setup) time.Duration {
	setup = setup.Defaults()
	ds := datagen.Generate(setup.Data)
	sess := core.NewSession(datagen.InitialRules(ds, setup.MinRules, setup.Seed+100),
		&expert.AutoAccept{}, core.Options{MaxRounds: 1, Clusterer: datagen.Clusterer(), Weights: cost.FraudWeights()})
	rel := ds.Rel.Prefix(ds.SplitIndex(setup.SplitFrac))
	start := time.Now()
	sess.Refine(rel)
	return time.Since(start)
}

// RudolfS reproduces the in-text RUDOLF-s comparison: restricted to numeric
// refinements, RUDOLF-s lands in the same quality region as the fully-manual
// and RUDOLF⁻ baselines, well behind full RUDOLF. Returns the final errors.
func RudolfS(setup Setup) map[MethodID]float64 {
	setup = setup.Defaults()
	ds := datagen.Generate(setup.Data)
	results := Run(ds, setup, MethodRudolf, MethodRudolfS, MethodManual, MethodRudolfMinus)
	out := make(map[MethodID]float64, len(results))
	for id, rs := range results {
		out[id] = rs[len(rs)-1].ErrorPct
	}
	return out
}

// AblationClustering compares the leader clusterer against streaming
// k-means inside RUDOLF (a design choice called out in DESIGN.md).
func AblationClustering(setup Setup) map[string]float64 {
	setup = setup.Defaults()
	ds := datagen.Generate(setup.Data)
	out := make(map[string]float64, 2)
	for name, alg := range map[string]cluster.Algorithm{
		"leader":            cluster.Leader{},
		"streaming-k-means": cluster.StreamingKMeans{K: setup.Data.Patterns, Seed: setup.Seed},
	} {
		init := datagen.InitialRules(ds, setup.MinRules, setup.Seed+100)
		m := baseline.NewRudolf("RUDOLF/"+name, init, expert.NewOracle(ds.Truth),
			core.Options{Clusterer: alg, Weights: cost.FraudWeights()})
		out[name] = lastError(ds, setup, m)
	}
	return out
}

// AblationTopK sweeps the top-k width of Algorithm 1.
func AblationTopK(setup Setup, ks []int) Figure {
	setup = setup.Defaults()
	ds := datagen.Generate(setup.Data)
	fig := Figure{ID: "A-topk", Title: "ablation: top-k width",
		XLabel: "k", YLabel: "final error % / modifications"}
	errS := Series{Name: "final error %"}
	modS := Series{Name: "modifications"}
	for _, k := range ks {
		init := datagen.InitialRules(ds, setup.MinRules, setup.Seed+100)
		m := baseline.NewRudolf("RUDOLF", init, expert.NewOracle(ds.Truth), core.Options{TopK: k, Clusterer: datagen.Clusterer(), Weights: cost.FraudWeights()})
		err := lastError(ds, setup, m)
		errS.X = append(errS.X, float64(k))
		errS.Y = append(errS.Y, err)
		modS.X = append(modS.X, float64(k))
		modS.Y = append(modS.Y, float64(m.Session().Log().Len()))
	}
	fig.Series = []Series{errS, modS}
	return fig
}

// AblationWeights sweeps the γ coefficient (the weight of excluding
// unlabeled transactions) to show the cost model's sensitivity.
func AblationWeights(setup Setup, gammas []float64) Figure {
	setup = setup.Defaults()
	ds := datagen.Generate(setup.Data)
	fig := Figure{ID: "A-weights", Title: "ablation: γ sensitivity",
		XLabel: "gamma", YLabel: "final error %"}
	s := Series{Name: "RUDOLF"}
	for _, g := range gammas {
		init := datagen.InitialRules(ds, setup.MinRules, setup.Seed+100)
		m := baseline.NewRudolf("RUDOLF", init, expert.NewOracle(ds.Truth),
			core.Options{Weights: cost.Weights{Alpha: 1, Beta: 1, Gamma: g}})
		s.X = append(s.X, g)
		s.Y = append(s.Y, lastError(ds, setup, m))
	}
	fig.Series = []Series{s}
	return fig
}

// AblationWeightedCost compares unit modification costs against the learned
// weighted cost model (the paper's future-work extension).
func AblationWeightedCost(setup Setup) map[string]float64 {
	setup = setup.Defaults()
	ds := datagen.Generate(setup.Data)
	out := make(map[string]float64, 2)
	for name, model := range map[string]cost.Model{
		"unit":     cost.UnitModel{},
		"weighted": cost.NewWeightedModel(),
	} {
		init := datagen.InitialRules(ds, setup.MinRules, setup.Seed+100)
		m := baseline.NewRudolf("RUDOLF/"+name, init, expert.NewOracle(ds.Truth),
			core.Options{CostModel: model, Clusterer: datagen.Clusterer(), Weights: cost.FraudWeights()})
		out[name] = lastError(ds, setup, m)
	}
	return out
}

// lastError drives the method across all rounds and returns the final
// future-window error.
func lastError(ds *datagen.Dataset, setup Setup, m baseline.Method) float64 {
	n := ds.Rel.Len()
	hop := int(float64(n) * setup.HopFrac)
	if hop < 1 {
		hop = 1
	}
	var lastSeen int
	for seen := ds.SplitIndex(setup.SplitFrac); seen < n; seen += hop {
		m.Refine(ds.Rel.Prefix(seen))
		lastSeen = seen
	}
	conf := metrics.Evaluate(m.Predict(ds.Rel), ds.TrueFraud, lastSeen, n)
	return conf.BalancedErrorPct()
}
