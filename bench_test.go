// Benchmarks regenerating the paper's evaluation: one benchmark per figure
// and in-text table of Section 5 (see DESIGN.md §4 for the experiment
// index), the ablation benches of DESIGN.md §5, and micro-benchmarks of the
// core machinery. Metrics that matter for the reproduction (error
// percentages, modification counts, speedups) are attached to each benchmark
// via b.ReportMetric; wall-clock ns/op measures the harness itself.
//
// Benchmark datasets are scaled down (the paper's 100K-10M-row datasets ran
// on a server; these defaults keep `go test -bench=.` under a few minutes).
// Scale up with -benchtime or by editing benchSetup.
package rudolf_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	rudolf "repro"
	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/exact"
	"repro/internal/experiment"
	"repro/internal/index"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/window"
)

// benchSetup keeps benchmark runs fast while preserving the figures' shapes.
func benchSetup() experiment.Setup {
	return experiment.Setup{
		Data:    datagen.Config{Size: 1500},
		Repeats: 1,
	}
}

func reportSeries(b *testing.B, fig experiment.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Y) == 0 {
			continue
		}
		b.ReportMetric(s.Y[len(s.Y)-1], "final_"+metricName(s.Name))
	}
}

func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkFig3a regenerates Figure 3(a): cumulative modifications per
// method (final round reported as metrics).
func BenchmarkFig3a(b *testing.B) {
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig3a(benchSetup())
	}
	reportSeries(b, fig)
}

// BenchmarkFig3b regenerates Figure 3(b): prediction error per method.
func BenchmarkFig3b(b *testing.B) {
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig3b(benchSetup())
	}
	reportSeries(b, fig)
}

// BenchmarkFig3c regenerates Figure 3(c): error vs dataset size.
func BenchmarkFig3c(b *testing.B) {
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig3c(benchSetup(), []int{500, 1500, 3000})
	}
	reportSeries(b, fig)
}

// BenchmarkFig3d regenerates Figure 3(d): rule updates vs fraud percentage.
func BenchmarkFig3d(b *testing.B) {
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig3d(benchSetup(), []float64{0.5, 1.5, 2.5})
	}
	reportSeries(b, fig)
}

// BenchmarkFig3e regenerates Figure 3(e): error vs fraud percentage.
func BenchmarkFig3e(b *testing.B) {
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig3e(benchSetup(), []float64{0.5, 1.5, 2.5})
	}
	reportSeries(b, fig)
}

// BenchmarkFig3f regenerates Figure 3(f): the expert-time study. The
// speedup metric is manual seconds-per-round over RUDOLF seconds-per-round
// (the paper reports 4-5×).
func BenchmarkFig3f(b *testing.B) {
	var rows []experiment.Fig3fResult
	for i := 0; i < b.N; i++ {
		rows = experiment.Fig3f(benchSetup(), 50, 1800)
	}
	if len(rows) == 2 && rows[0].SecondsPerRound > 0 {
		b.ReportMetric(rows[1].SecondsPerRound/rows[0].SecondsPerRound, "time_speedup_x")
		b.ReportMetric(float64(rows[1].FixesCompleted), "manual_fixes_of_50")
	}
}

// BenchmarkNoviceStudy regenerates the in-text novice comparison.
func BenchmarkNoviceStudy(b *testing.B) {
	var r experiment.NoviceStudyResult
	for i := 0; i < b.N; i++ {
		r = experiment.NoviceStudy(benchSetup())
	}
	b.ReportMetric(r.ExpertRudolf, "expert_rudolf_errpct")
	b.ReportMetric(r.NoviceRudolf, "novice_rudolf_errpct")
	b.ReportMetric(r.NoviceAlone, "novice_alone_errpct")
}

// BenchmarkModificationMix regenerates the in-text 75/20/5 modification-mix
// statistic.
func BenchmarkModificationMix(b *testing.B) {
	var mix map[cost.ModKind]float64
	for i := 0; i < b.N; i++ {
		mix = experiment.ModificationMix(benchSetup())
	}
	b.ReportMetric(mix[cost.CondRefine], "refine_pct")
	b.ReportMetric(mix[cost.RuleSplit], "split_pct")
	b.ReportMetric(mix[cost.RuleAdd], "add_pct")
}

// BenchmarkHopSweep regenerates the in-text hop-size observation.
func BenchmarkHopSweep(b *testing.B) {
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.HopSweep(benchSetup(), []float64{10, 20})
	}
	rounds := fig.Series[0].Y
	if len(rounds) == 2 {
		b.ReportMetric(rounds[0], "rounds_hop10")
		b.ReportMetric(rounds[1], "rounds_hop20")
	}
}

// BenchmarkProposalLatency regenerates the in-text "at most one second"
// proposal-latency measurement.
func BenchmarkProposalLatency(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = float64(experiment.ProposalLatency(benchSetup()).Milliseconds())
	}
	b.ReportMetric(last, "proposal_ms")
}

// BenchmarkRudolfS regenerates the in-text RUDOLF-s comparison.
func BenchmarkRudolfS(b *testing.B) {
	var r map[experiment.MethodID]float64
	for i := 0; i < b.N; i++ {
		r = experiment.RudolfS(benchSetup())
	}
	b.ReportMetric(r[experiment.MethodRudolf], "rudolf_errpct")
	b.ReportMetric(r[experiment.MethodRudolfS], "rudolfs_errpct")
	b.ReportMetric(r[experiment.MethodRudolfMinus], "rudolfminus_errpct")
}

// BenchmarkAblationClustering compares the clustering algorithms inside
// RUDOLF (DESIGN.md §5).
func BenchmarkAblationClustering(b *testing.B) {
	var r map[string]float64
	for i := 0; i < b.N; i++ {
		r = experiment.AblationClustering(benchSetup())
	}
	b.ReportMetric(r["leader"], "leader_errpct")
	b.ReportMetric(r["streaming-k-means"], "kmeans_errpct")
}

// BenchmarkAblationTopK sweeps the top-k width of Algorithm 1.
func BenchmarkAblationTopK(b *testing.B) {
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.AblationTopK(benchSetup(), []int{1, 3})
	}
	reportSeries(b, fig)
}

// BenchmarkAblationWeights sweeps the γ coefficient.
func BenchmarkAblationWeights(b *testing.B) {
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.AblationWeights(benchSetup(), []float64{0.25, 1})
	}
	reportSeries(b, fig)
}

// BenchmarkAblationWeightedCost compares unit and learned modification
// costs (the paper's future-work extension).
func BenchmarkAblationWeightedCost(b *testing.B) {
	var r map[string]float64
	for i := 0; i < b.N; i++ {
		r = experiment.AblationWeightedCost(benchSetup())
	}
	b.ReportMetric(r["unit"], "unit_errpct")
	b.ReportMetric(r["weighted"], "weighted_errpct")
}

// --- Micro-benchmarks of the core machinery ---

// BenchmarkRuleSetEval measures Φ(I) evaluation throughput.
func BenchmarkRuleSetEval(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 5000, Seed: 1})
	rs := datagen.InitialRules(ds, 30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Eval(ds.Rel)
	}
	b.ReportMetric(float64(ds.Rel.Len()*rs.Len()), "tuple_rule_pairs/op")
}

// BenchmarkClusterLeader measures the leader clusterer over the fraud set.
func BenchmarkClusterLeader(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 20000, FraudPct: 2.5, Seed: 1})
	frauds := ds.Rel.Indices(relation.Fraud)
	alg := datagen.Clusterer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Cluster(ds.Rel, frauds)
	}
	b.ReportMetric(float64(len(frauds)), "frauds/op")
}

// BenchmarkClusterStreamingKMeans measures the streaming k-means variant.
func BenchmarkClusterStreamingKMeans(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 20000, FraudPct: 2.5, Seed: 1})
	frauds := ds.Rel.Indices(relation.Fraud)
	alg := cluster.StreamingKMeans{K: 8, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Cluster(ds.Rel, frauds)
	}
}

// BenchmarkGeneralizationScore measures the Equation 2 scoring of one rule
// against one representative (the inner loop of top-k ranking).
func BenchmarkGeneralizationScore(b *testing.B) {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	rs := paperdata.ExistingRules(s)
	rep := cluster.MakeRepresentative(rel, []int{0, 1})
	w := cost.DefaultWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost.GeneralizationScore(s, rel, rs.Rule(0), nil, rep.Conds, w)
	}
}

// BenchmarkOntologyUpDistance measures semantic distance queries on the
// synthetic geo ontology.
func BenchmarkOntologyUpDistance(b *testing.B) {
	o := datagen.GeoOntology(datagen.DefaultGeoConfig())
	leaves := o.Leaves()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.UpDistance(leaves[i%len(leaves)], leaves[(i*7+3)%len(leaves)])
	}
}

// BenchmarkDatasetGenerate measures synthetic FI dataset generation.
func BenchmarkDatasetGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		datagen.Generate(datagen.Config{Size: 5000, Seed: int64(i)})
	}
}

// BenchmarkFullOracleSession measures one complete interactive refinement
// (generalize + specialize to convergence) with the oracle expert.
func BenchmarkFullOracleSession(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 2000, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := rudolf.NewSession(rudolf.InitialRules(ds, 0, 2),
			rudolf.NewOracleExpert(ds.Truth),
			rudolf.Options{Clusterer: rudolf.DatasetClusterer()})
		sess.Refine(ds.Rel)
	}
}

// BenchmarkTraceOverhead quantifies what the span instrumentation threaded
// through the refinement hot path costs. The "nil" sub-benchmark runs a full
// oracle session with no tracer (the production default for library use) —
// it must match BenchmarkFullOracleSession within noise and report zero
// allocations attributable to tracing, because every span call on a nil
// tracer returns the zero Span and no-ops. The "enabled" sub-benchmark runs
// the same session with a live ring-buffer tracer; the delta is the real
// cost of recording every round, phase, expert query and modification
// (reported in DESIGN.md §10).
func BenchmarkTraceOverhead(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 2000, Seed: 2})
	run := func(b *testing.B, tr *rudolf.Tracer) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess := rudolf.NewSession(rudolf.InitialRules(ds, 0, 2),
				rudolf.NewOracleExpert(ds.Truth),
				rudolf.Options{Clusterer: rudolf.DatasetClusterer(), Tracer: tr})
			sess.Refine(ds.Rel)
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) {
		tr := rudolf.NewTracer(1 << 15)
		run(b, tr)
		if tr.Len() == 0 {
			b.Fatal("enabled tracer recorded no spans")
		}
	})
}

// BenchmarkExactHittingSet measures the exact solver on a 16-element
// instance (the machinery behind the Theorem 4.1/4.5 validations).
func BenchmarkExactHittingSet(b *testing.B) {
	hs := exact.HittingSet{N: 16, Sets: [][]int{
		{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {6, 7, 8},
		{8, 9, 10}, {10, 11, 12}, {12, 13, 14}, {14, 15, 0},
		{1, 5, 9, 13}, {3, 7, 11, 15},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.Exact()
	}
}

// BenchmarkReductionRoundTrip measures the executable Theorem 4.1 reduction
// plus its exact solution.
func BenchmarkReductionRoundTrip(b *testing.B) {
	hs := exact.HittingSet{N: 5, Sets: [][]int{{0, 1, 2}, {1, 2, 3, 4}, {3, 4}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gi := exact.ReduceToGeneralization(hs)
		gi.SolveGeneralizationExact()
	}
}

// BenchmarkCompiledEval measures the compiled parallel evaluator against
// the same workload as BenchmarkRuleSetEval.
func BenchmarkCompiledEval(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 5000, Seed: 1})
	rs := datagen.InitialRules(ds, 30, 1)
	e := index.Compile(ds.Schema, rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(ds.Rel)
	}
	b.ReportMetric(float64(ds.Rel.Len()*rs.Len()), "tuple_rule_pairs/op")
}

// BenchmarkCompiledEvalFirst measures the serving hot path's first-match
// variant against BenchmarkCompiledEval's workload: the same short-circuit
// loop writing an int32 per tuple instead of a bit, so per-rule fire
// accounting must stay within noise of plain Eval (the attribution-off
// regression guard, together with BenchmarkServeScore). The dst slice is
// reused across iterations, as the pooled serving path reuses it — the
// pre-EvalFirstInto form re-allocated the result every call (20,600 B/op
// against plain Eval's 776); TestCompiledEvalFirstBytesPerOp pins the fix.
func BenchmarkCompiledEvalFirst(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 5000, Seed: 1})
	rs := datagen.InitialRules(ds, 30, 1)
	e := index.Compile(ds.Schema, rs)
	dst := e.EvalFirstInto(ds.Rel, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.EvalFirstInto(ds.Rel, dst)
	}
	b.ReportMetric(float64(ds.Rel.Len()*rs.Len()), "tuple_rule_pairs/op")
}

// TestCompiledEvalFirstBytesPerOp pins the EvalFirstInto scratch fix in
// bytes, not just allocation counts: steady-state first-match evaluation
// over a 5000-tuple relation must not re-allocate its result (the 20,600
// B/op leak), leaving only the chunk goroutines and the bitset-free
// bookkeeping. The budget is a loose roof far under one int32 per tuple.
func TestCompiledEvalFirstBytesPerOp(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Size: 5000, Seed: 1})
	rs := datagen.InitialRules(ds, 30, 1)
	e := index.Compile(ds.Schema, rs)
	dst := e.EvalFirstInto(ds.Rel, nil) // warm: dst reaches full capacity
	const runs = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		dst = e.EvalFirstInto(ds.Rel, dst)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 4096 {
		t.Fatalf("EvalFirstInto steady state = %d B/op, want <= 4096 (result slice is leaking again)", perOp)
	}
}

// BenchmarkCompiledEvalAttributedLazy measures the lazy variant behind plain
// `"explain": true`: matched rules get their full check breakdown from the
// arena, non-matched rules only their flags (margins re-derived on demand by
// AttributeRuleAppend). On fraud-shaped data almost nothing matches, so this
// should sit near EvalFirstInto, far below the full table above.
func BenchmarkCompiledEvalAttributedLazy(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 5000, Seed: 1})
	rs := datagen.InitialRules(ds, 30, 1)
	e := index.Compile(ds.Schema, rs)
	var buf index.AttributionBuffer
	e.EvalAttributedLazyInto(ds.Rel, &buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvalAttributedLazyInto(ds.Rel, &buf)
	}
	b.ReportMetric(float64(ds.Rel.Len()*rs.Len()), "tuple_rule_pairs/op")
}

// BenchmarkCompiledEvalLarge measures the evaluator at a scale closer to
// the paper's smallest FI (100K transactions).
func BenchmarkCompiledEvalLarge(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 100000, Seed: 1})
	rs := datagen.InitialRules(ds, 55, 1)
	e := index.Compile(ds.Schema, rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(ds.Rel)
	}
}

// BenchmarkIncrementalCapture measures the tentpole's hot path: one rule
// edit per round with the incremental capture cache — recompile and
// re-evaluate only the touched rule, then re-read the union. Compare with
// BenchmarkCaptureFullRescan, which pays a full interpreted Φ(I) rescan for
// the same edit (what every Stats/repHandled/splitCandidates call inside a
// refinement round used to cost).
func BenchmarkIncrementalCapture(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 20000, Seed: 1})
	rs := datagen.InitialRules(ds, 55, 1)
	c := capture.New()
	c.Bind(ds.Rel, rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ri := i % rs.Len()
		nr := rs.Rule(ri).Clone().SetMinScore(int16(i % 2))
		rs.Replace(ri, nr)
		c.RuleReplaced(ri, nr)
		c.Union()
	}
	b.ReportMetric(float64(ds.Rel.Len()*rs.Len()), "tuple_rule_pairs/op")
}

// BenchmarkCaptureFullRescan is the pre-cache baseline for the same edit
// sequence: every edit invalidates everything and Φ(I) is recomputed by the
// interpreted Set.Eval.
func BenchmarkCaptureFullRescan(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 20000, Seed: 1})
	rs := datagen.InitialRules(ds, 55, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ri := i % rs.Len()
		nr := rs.Rule(ri).Clone().SetMinScore(int16(i % 2))
		rs.Replace(ri, nr)
		rs.Eval(ds.Rel)
	}
	b.ReportMetric(float64(ds.Rel.Len()*rs.Len()), "tuple_rule_pairs/op")
}

// BenchmarkFleet runs the 15-FI roster study (scaled) and reports the
// fleet-wide mean error.
func BenchmarkFleet(b *testing.B) {
	var fleet []experiment.FleetFI
	for i := 0; i < b.N; i++ {
		fleet = experiment.Fleet(benchSetup(), 15, 1000)
	}
	var sum float64
	for _, fi := range fleet {
		sum += fi.ErrorPct
	}
	b.ReportMetric(sum/float64(len(fleet)), "fleet_mean_errpct")
}

// BenchmarkWindowObserve measures the sliding-window store's steady-state
// ingest — the per-transaction cost the serving daemon adds to /v1/score
// once windowed rules are published. Three registered specs (COUNT, SUM,
// DISTINCT) over 512 rotating keys, time advancing so buckets rotate and
// expire; steady state must stay alloc-free for COUNT/SUM
// (TestObserveSteadyStateAllocs in internal/window pins that exactly).
func BenchmarkWindowObserve(b *testing.B) {
	specs := []window.Spec{
		{Agg: window.Count, Key: 1, Val: -1, Window: 10},
		{Agg: window.Sum, Key: 1, Val: 2, Window: 60},
		{Agg: window.Distinct, Key: 1, Val: 2, Window: 30},
	}
	st := window.New(window.Config{TimeAttr: 0})
	st.EnsureSpecs(specs)
	tup := relation.Tuple{0, 0, 25}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup[0] = int64(i / 64)
		tup[1] = int64(i % 512)
		tup[2] = int64(i % 97)
		st.Observe(tup)
	}
}

// BenchmarkServeScore measures end-to-end serving latency of the online
// scoring daemon (internal/serve): HTTP round trip + JSON decode + schema
// validation + compiled evaluation against a 50-rule set, for a single
// transaction and for a batch of 64 — the perf trajectory of the serving
// layer itself, alongside the evaluator-internal benches above.
func BenchmarkServeScore(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 2000, Seed: 1})
	ruleSet := datagen.InitialRules(ds, 50, 1)
	srv, err := rudolf.NewServer(rudolf.ServerConfig{Schema: ds.Schema, Rules: ruleSet})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Real tuples from the generated dataset, rendered in the wire form.
	mkBody := func(n int, mode string) []byte {
		txs := make([]map[string]any, n)
		for i := range txs {
			t := ds.Rel.Tuple(i % ds.Rel.Len())
			attrs := make(map[string]any, ds.Schema.Arity())
			for a := 0; a < ds.Schema.Arity(); a++ {
				attrs[ds.Schema.Attr(a).Name] = ds.Schema.FormatValue(a, t[a])
			}
			txs[i] = map[string]any{"attrs": attrs, "score": ds.Rel.Score(i % ds.Rel.Len())}
		}
		req := map[string]any{"transactions": txs}
		if mode != "" {
			req[mode] = true
		}
		raw, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}

	for _, bc := range []struct {
		name string
		n    int
		mode string
	}{
		{"single", 1, ""},
		{"batch64", 64, ""},
		{"batch64_explain", 64, "explain"},
		{"batch64_explain_all", 64, "explain_all"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			body := mkBody(bc.n, bc.mode)
			client := ts.Client()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(bc.n)*float64(b.N)/b.Elapsed().Seconds(), "tx/s")
		})
	}
}

// BenchmarkServeScoreVelocity is BenchmarkServeScore with a windowed rule in
// the published set: every scored batch additionally takes the observe lock,
// feeds the window store, and stamps aggregate columns for the evaluator.
// The delta against BenchmarkServeScore's matching sub-benches is the full
// serving cost of stateful velocity rules.
func BenchmarkServeScoreVelocity(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Size: 2000, Seed: 1})
	ruleSet := datagen.InitialRules(ds, 50, 1)
	ruleSet.Add(rudolf.MustParseRule(ds.Schema, "COUNT(location, 10m) >= 5"))
	srv, err := rudolf.NewServer(rudolf.ServerConfig{Schema: ds.Schema, Rules: ruleSet})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mkBody := func(n int) []byte {
		txs := make([]map[string]any, n)
		for i := range txs {
			t := ds.Rel.Tuple(i % ds.Rel.Len())
			attrs := make(map[string]any, ds.Schema.Arity())
			for a := 0; a < ds.Schema.Arity(); a++ {
				attrs[ds.Schema.Attr(a).Name] = ds.Schema.FormatValue(a, t[a])
			}
			txs[i] = map[string]any{"attrs": attrs, "score": ds.Rel.Score(i % ds.Rel.Len())}
		}
		raw, err := json.Marshal(map[string]any{"transactions": txs})
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}

	for _, bc := range []struct {
		name string
		n    int
	}{
		{"single", 1},
		{"batch64", 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			body := mkBody(bc.n)
			client := ts.Client()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(bc.n)*float64(b.N)/b.Elapsed().Seconds(), "tx/s")
		})
	}
}
