package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/window"
)

// The oracle. Answers are checked against the interpreted rules.Set.Eval —
// never against the compiled evaluator the daemon itself uses.

// explainDoc is the part of an explain score response the checks read.
type explainDoc struct {
	Explanations []struct {
		Flagged bool  `json:"flagged"`
		Matched []int `json:"matched"`
		Rules   []struct {
			Rule    int  `json:"rule"`
			Matched bool `json:"matched"`
			Checks  []struct {
				Attr   string `json:"attr"`
				Kind   string `json:"kind"`
				Pass   bool   `json:"pass"`
				Margin int64  `json:"margin"`
			} `json:"checks"`
		} `json:"rules"`
	} `json:"explanations"`
}

// verifyAnswers checks every sampled answer against the rule set of the
// version it was evaluated under. versions must hold every version the
// daemon published during the run.
func verifyAnswers(in *inputs, versions map[int]*rules.Set, answers []answer) (failed int, first error) {
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for _, a := range answers {
		set := versions[a.Version]
		if set == nil {
			fail(fmt.Errorf("request %d answered under unknown rules version %d", a.K, a.Version))
			continue
		}
		rel := in.relFor(a.K)
		want := set.Eval(rel)
		var mask uint64
		for i := 0; i < rel.Len(); i++ {
			if want.Has(i) {
				mask |= 1 << uint(i)
			}
		}
		switch {
		case mask != a.Flagged:
			fail(fmt.Errorf("request %d (version %d): flagged %064b, oracle says %064b", a.K, a.Version, a.Flagged, mask))
		case !a.ExplainOK:
			fail(fmt.Errorf("request %d: explain response breaks pass ⇔ margin ≥ 0", a.K))
		case a.Raw != nil:
			if err := verifyExplainTable(set, rel, a.Raw); err != nil {
				fail(fmt.Errorf("request %d: %w", a.K, err))
			}
		}
	}
	return failed, first
}

// verifyExplainTable decodes one explain_all response in full and checks its
// structure: one explanation per transaction, one rule entry per rule in
// index order, the matched list equal to the oracle's capturing rules, and
// a rule marked matched exactly when all its checks pass.
func verifyExplainTable(set *rules.Set, rel *relation.Relation, raw []byte) error {
	var doc explainDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("explain response is not JSON: %w", err)
	}
	if len(doc.Explanations) != rel.Len() {
		return fmt.Errorf("%d explanations for %d transactions", len(doc.Explanations), rel.Len())
	}
	for i, ex := range doc.Explanations {
		want := set.CapturingRulesAt(rel, i)
		if fmt.Sprint(ex.Matched) != fmt.Sprint(want) && !(len(ex.Matched) == 0 && len(want) == 0) {
			return fmt.Errorf("transaction %d: matched rules %v, oracle says %v", i, ex.Matched, want)
		}
		if len(ex.Rules) != set.Len() {
			return fmt.Errorf("transaction %d: explain_all lists %d rules, the set has %d", i, len(ex.Rules), set.Len())
		}
		for ri, r := range ex.Rules {
			if r.Rule != ri {
				return fmt.Errorf("transaction %d: rule table out of order at %d", i, ri)
			}
			all := true
			for _, c := range r.Checks {
				if c.Pass != (c.Margin >= 0) {
					return fmt.Errorf("transaction %d rule %d: pass=%v with margin %d", i, ri, c.Pass, c.Margin)
				}
				all = all && c.Pass
			}
			if r.Matched != all {
				return fmt.Errorf("transaction %d rule %d: matched=%v but checks say %v", i, ri, r.Matched, all)
			}
		}
	}
	return nil
}

// windowAggregates extracts, from a probe's decoded explain_all response, the
// aggregate each windowed atom saw for each probe transaction: margin +
// threshold. aggs[s][j] is spec s at transaction j.
func windowAggregates(in *inputs, doc *explainDoc) ([][]int64, error) {
	if len(doc.Explanations) != probeTx {
		return nil, fmt.Errorf("probe: %d explanations, want %d", len(doc.Explanations), probeTx)
	}
	aggs := make([][]int64, len(in.winSpecs))
	for s, sp := range in.winSpecs {
		atom := rules.FormatWindowAtom(in.schema, sp)
		aggs[s] = make([]int64, probeTx)
		for j, ex := range doc.Explanations {
			found := false
			for _, r := range ex.Rules {
				for _, c := range r.Checks {
					if c.Kind == "window" && c.Attr == atom {
						if c.Pass != (c.Margin >= 0) {
							return nil, fmt.Errorf("probe tx %d %s: pass=%v with margin %d", j, atom, c.Pass, c.Margin)
						}
						aggs[s][j] = c.Margin + in.winThresh[s]
						found = true
					}
				}
			}
			if !found {
				return nil, fmt.Errorf("probe tx %d: no window check for %s in the explain_all table", j, atom)
			}
		}
	}
	return aggs, nil
}

// freshProbeAggregates is what a probe burst must read on an empty window
// store: window.ComputeColumns over exactly what has been sent.
func freshProbeAggregates(in *inputs, minute int64) [][]int64 {
	rel := bodyRelation(in.schema, &in.probe, minute)
	return window.ComputeColumns(rel, in.winSpecs).Cols
}

// nextProbeAggregates is what the same probe burst, repeated at the same
// minute, must read given what the previous one read: each repeat adds
// probeTx events and their amounts at the probe's location, and no new
// distinct amount. This holds whatever order the concurrent traffic before
// it reached the store in, and it must survive a kill -9: a restarted daemon
// that rebuilt anything else from its WAL fails it.
func nextProbeAggregates(in *inputs, prev [][]int64) [][]int64 {
	amount := in.schema.MustIndex("amount")
	var sum int64
	for _, t := range in.probe.Tuples {
		sum += t[amount]
	}
	next := make([][]int64, len(prev))
	for s, sp := range in.winSpecs {
		next[s] = make([]int64, probeTx)
		for j := range next[s] {
			switch sp.Agg {
			case window.Count:
				next[s][j] = prev[s][j] + probeTx
			case window.Sum:
				next[s][j] = prev[s][j] + sum
			default: // Distinct: every probe amount is already in the window
				next[s][j] = prev[s][probeTx-1]
			}
		}
	}
	return next
}

func equalAggregates(a, b [][]int64) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// statsDoc is GET /v1/stats.
type statsDoc struct {
	Version       int `json:"version"`
	Rules         int `json:"rules"`
	Feedback      int `json:"feedback"`
	Fraud         int `json:"fraud"`
	FraudCaptured int `json:"fraud_captured"`
	Legit         int `json:"legit"`
	LegitCaptured int `json:"legit_captured"`
	Unlabeled     int `json:"unlabeled"`
}

// oracleStats is what /v1/stats must report for the given rules over the
// first rows feedback transactions.
func oracleStats(set *rules.Set, fb *relation.Relation, rows int) statsDoc {
	prefix := fb.Prefix(rows)
	captured := set.Eval(prefix)
	st := statsDoc{Rules: set.Len(), Feedback: rows}
	for i := 0; i < rows; i++ {
		switch prefix.Label(i) {
		case relation.Fraud:
			st.Fraud++
			if captured.Has(i) {
				st.FraudCaptured++
			}
		case relation.Legitimate:
			st.Legit++
			if captured.Has(i) {
				st.LegitCaptured++
			}
		default:
			st.Unlabeled++
		}
	}
	return st
}
