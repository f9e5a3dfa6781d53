package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/window"
)

// Generalize runs Algorithm 1: cluster the fraudulent transactions, and for
// each cluster's representative tuple interactively generalize the best
// candidate rules until some rule captures it, falling back to creating a
// representative-specific rule when every candidate is exhausted.
func (s *Session) Generalize(rel *relation.Relation) {
	schema := rel.Schema()
	frauds := rel.Indices(relation.Fraud)
	if len(frauds) == 0 {
		return
	}
	sp, done := s.startPhase("refine.generalize")
	defer done()
	reps := cluster.Representatives(s.opts.clusterer(), rel, frauds)
	sp.Int("frauds", int64(len(frauds))).Int("clusters", int64(len(reps)))
	for _, rep := range reps {
		s.generalizeForRep(rel, schema, rep)
	}
}

// repHandled reports whether the cluster no longer needs work: either some
// rule's conditions contain the whole representative pattern ("there exists
// a rule r such that f(C) ∈ r(I)") or every member transaction is already
// captured by the rule set. The second disjunct matters after
// specialization: a split cuts single values out of a rule, so the rule no
// longer contains the full representative even though every fraudulent
// member stays captured — re-generalizing would just oscillate against the
// split.
func (s *Session) repHandled(rel *relation.Relation, schema *relation.Schema, rep cluster.Representative) bool {
	for _, r := range s.ruleSet.Rules() {
		if ruleContainsRep(schema, r, rep) {
			return true
		}
	}
	cache := s.captureFor(rel)
	for _, m := range rep.Members {
		if !cache.Captured(m) {
			return false
		}
	}
	return len(rep.Members) > 0
}

func ruleContainsRep(schema *relation.Schema, r *rules.Rule, rep cluster.Representative) bool {
	if len(r.Windows()) > 0 {
		// A windowed rule constrains time-dependent aggregates that the
		// purely per-attribute representative pattern cannot express, so
		// attribute containment alone proves nothing; repHandled falls back
		// to its member-capture check.
		return false
	}
	for i := 0; i < schema.Arity(); i++ {
		if !r.Cond(i).ContainsCond(schema.Attr(i), rep.Conds[i]) {
			return false
		}
	}
	return true
}

// generalizeForRep runs the per-cluster loop of Algorithm 1 (lines 5-18).
//
// Top-k(f(C)) is computed only for a cluster that needs work, which is where
// Algorithm 1 computes it too. Ranking reads the capture cache and changes
// nothing, so placing it behind the check cannot alter a decision; most
// clusters are handled on arrival and are never ranked.
func (s *Session) generalizeForRep(rel *relation.Relation, schema *relation.Schema, rep cluster.Representative) {
	if s.stopped() || s.repHandled(rel, schema, rep) {
		return
	}
	topK := s.rankRules(rel, schema, rep)
	for handled := false; !handled; handled = s.repHandled(rel, schema, rep) {
		if len(topK) == 0 {
			// Line 18: create a rule selecting exactly the representative.
			// The new rule is also shown to the expert, who may widen it
			// with domain knowledge before it is added (the paper's experts
			// refine every proposal; a brand-new attack pattern is exactly
			// where their knowledge matters most).
			s.addExactRule(rel, schema, rep)
			return
		}
		cand := topK[0]
		topK = topK[1:]
		// Candidates are tracked by rule identity, not by the index they had
		// when ranked: a mid-loop removal (a split, a prune, an expert
		// mutation) shifts every later index, and a stale index would
		// silently apply the expert's decision to the wrong rule. IndexOf
		// revalidates the candidate against the current set.
		r := cand.rule
		idx := s.ruleSet.IndexOf(r)
		if idx < 0 {
			continue // the ranked rule was removed since ranking
		}
		gen, changed := rules.GeneralizeToCover(schema, r, rep.Conds)
		winChanged := widenWindowsToCover(rel, gen, rep)
		if len(changed) == 0 && !winChanged {
			return // already capturing (rule set changed since ranking)
		}
		if s.opts.NumericOnly && touchesCategorical(schema, changed) {
			continue // RUDOLF-s cannot modify categorical conditions
		}
		proposal := &GenProposal{
			Schema:    schema,
			Rel:       rel,
			RuleIndex: idx,
			Original:  r,
			Proposed:  gen,
			Changed:   changed,
			Rep:       rep,
			Score:     cand.score,
			DF:        cand.dF,
			DL:        cand.dL,
			DR:        cand.dR,
		}
		dec, ok := s.reviewGeneralization(proposal)
		if !ok {
			return
		}
		result := s.resolveGenDecision(r, gen, changed, dec)
		if s.opts.NumericOnly {
			s.enforceNumericOnly(schema, result, r)
		}
		if result != nil && !result.Equal(schema, r) {
			// Re-resolve after the expert interaction: reviewing is exactly
			// the window in which the set can shrink under the candidate.
			if idx = s.ruleSet.IndexOf(r); idx >= 0 {
				s.applyRuleEdit(schema, idx, r, result)
			}
		}
	}
}

// widenWindowsToCover lowers the aggregate thresholds of gen's windowed
// conditions so that every member of the representative's cluster satisfies
// them — the windowed analog of GeneralizeToCover's interval extension. The
// representative pattern is a per-attribute abstraction with no aggregate
// values of its own, so the members' actual aggregates stand in: the lowest
// member aggregate becomes the new lower bound. Reports whether any
// condition changed. gen is modified in place (it is already a clone).
func widenWindowsToCover(rel *relation.Relation, gen *rules.Rule, rep cluster.Representative) bool {
	wins := gen.Windows()
	if len(wins) == 0 || len(rep.Members) == 0 {
		return false
	}
	specs := make([]window.Spec, len(wins))
	for i, wc := range wins {
		specs[i] = wc.Spec
	}
	cs := rules.WindowColumnsFor(rel, specs)
	changed := false
	for _, wc := range wins {
		col := cs.Column(wc.Spec)
		if col == nil {
			continue
		}
		lo := wc.Iv.Lo
		for _, m := range rep.Members {
			if col[m] < lo {
				lo = col[m]
			}
		}
		if lo < wc.Iv.Lo {
			gen.AddWindow(rules.WindowCond{Spec: wc.Spec, Iv: order.Interval{Lo: lo, Hi: wc.Iv.Hi}})
			changed = true
		}
	}
	return changed
}

// resolveGenDecision combines the proposal with the expert's decision
// (Algorithm 1 lines 11-16): acceptance adopts the (possibly edited)
// proposal; rejection reverts the undesired attribute modifications and then
// applies any further expert generalizations.
func (s *Session) resolveGenDecision(original, proposed *rules.Rule, changed []int, dec GenDecision) *rules.Rule {
	if dec.Accept {
		if dec.Edited != nil {
			return dec.Edited
		}
		return proposed
	}
	result := proposed.Clone()
	for _, a := range dec.RevertAttrs {
		result.SetCond(a, original.Cond(a))
	}
	if dec.Edited != nil {
		result = dec.Edited
	}
	return result
}

// reviewGeneralization consults the expert on a generalization proposal,
// wrapping the (potentially human-paced) interaction in an
// "expert.review_generalization" span that records which rule was shown, its
// Equation 2 score and Definition 3.1 deltas, and whether the expert accepted.
// A stopped session asks nothing and reports false.
func (s *Session) reviewGeneralization(p *GenProposal) (GenDecision, bool) {
	if s.stopped() {
		return GenDecision{}, false
	}
	sp := trace.StartUnder(s.opts.Tracer, s.cur, "expert.review_generalization")
	sp.Int("rule", int64(p.RuleIndex)).Float("score", p.Score).
		Int("dF", int64(p.DF)).Int("dL", int64(p.DL)).Int("dR", int64(p.DR))
	dec := s.expert.ReviewGeneralization(p)
	sp.Bool("accept", dec.Accept)
	sp.End()
	return dec, true
}

// applyRuleEdit installs the new version of a rule and logs one condition
// refinement per attribute — and per windowed condition — that actually
// changed. Windowed refinements log with Attr -1: they touch no schema
// attribute, only an aggregate threshold or window.
func (s *Session) applyRuleEdit(schema *relation.Schema, idx int, old, new *rules.Rule) {
	s.setReplace(idx, new)
	for i := 0; i < schema.Arity(); i++ {
		if old.Cond(i).Equal(schema.Attr(i), new.Cond(i)) {
			continue
		}
		s.logMod(Modification{
			Kind:      cost.CondRefine,
			RuleIndex: idx,
			Attr:      i,
			Cost:      s.opts.costModel().ModificationCost(cost.CondRefine, i),
			Description: fmt.Sprintf("%s: %s -> %s", schema.Attr(i).Name,
				condString(schema, i, old.Cond(i)), condString(schema, i, new.Cond(i))),
		})
	}
	logWin := func(desc string) {
		s.logMod(Modification{
			Kind:        cost.CondRefine,
			RuleIndex:   idx,
			Attr:        -1,
			Cost:        s.opts.costModel().ModificationCost(cost.CondRefine, -1),
			Description: desc,
		})
	}
	for _, wc := range new.Windows() {
		o, ok := old.WindowOn(wc.Spec)
		switch {
		case ok && o.Iv.Equal(wc.Iv):
		case ok:
			logWin(fmt.Sprintf("%s -> %s",
				rules.FormatWindowCond(schema, o), rules.FormatWindowCond(schema, wc)))
		default:
			logWin("added " + rules.FormatWindowCond(schema, wc))
		}
	}
	for _, wc := range old.Windows() {
		if _, ok := new.WindowOn(wc.Spec); !ok {
			logWin("removed " + rules.FormatWindowCond(schema, wc))
		}
	}
}

// addExactRule creates the representative-specific rule of line 18, after
// offering it to the expert for widening (RuleIndex -1 marks a new rule).
func (s *Session) addExactRule(rel *relation.Relation, schema *relation.Schema, rep cluster.Representative) {
	r := rules.RuleFromConditions(schema, rep.Conds)
	changed := make([]int, schema.Arity())
	for i := range changed {
		changed[i] = i
	}
	dec, ok := s.reviewGeneralization(&GenProposal{
		Schema:    schema,
		Rel:       rel,
		RuleIndex: -1,
		Proposed:  r,
		Changed:   changed,
		Rep:       rep,
	})
	if !ok {
		return
	}
	if dec.Accept && dec.Edited != nil && !dec.Edited.IsEmpty(schema) {
		if s.opts.NumericOnly {
			s.enforceNumericOnly(schema, dec.Edited, r)
		}
		r = dec.Edited
	}
	idx := s.setAdd(r)
	s.logMod(Modification{
		Kind:        cost.RuleAdd,
		RuleIndex:   idx,
		Attr:        -1,
		Cost:        s.opts.costModel().ModificationCost(cost.RuleAdd, -1),
		Description: "new rule: " + r.Format(schema),
	})
}

// rankedRule pairs a rule (tracked by identity, since indices shift under
// mid-loop removals) with its Equation 2 score and the Definition 3.1 deltas
// of its minimal generalization, kept so the proposal (and its trace span)
// can report them without re-scanning the relation. index is the rule's
// position when ranked, which breaks score ties.
type rankedRule struct {
	rule       *rules.Rule
	index      int
	score      float64
	dF, dL, dR int
}

// rankRules computes Top-k(f(C)) of Algorithm 1 line 4: the k rules with the
// lowest Equation 2 score for the representative, ties going to the lower
// rule index.
//
// Scoring a rule exactly costs a scan of the relation for its hypothetical
// generalization, and only k rules are kept, so the scan is spent on the
// rules that can still make the cut: every rule first gets the scan-free
// lower bound of cost.GeneralizationBound (its current capture set is read
// off the incremental cache), rules are scored in ascending-bound order, and
// scoring stops at the first rule whose bound is strictly above the k-th
// best exact score so far — it, and everything after it, can neither beat
// that score nor tie it. The result is the one an exhaustive
// score-everything-then-stable-sort ranking gives.
func (s *Session) rankRules(rel *relation.Relation, schema *relation.Schema, rep cluster.Representative) []rankedRule {
	sp, done := s.startPhase("generalize.rank")
	defer done()
	w, k := s.opts.weights(), s.opts.topK()
	cache := s.captureFor(rel)
	all := s.ruleSet.Rules()
	frauds := rel.Indices(relation.Fraud)
	bounds := make([]float64, len(all))
	order := make([]int, len(all))
	for i, r := range all {
		bounds[i] = cost.GeneralizationBound(schema, rel, r, cache.RuleCaptures(i), frauds, rep.Conds, w)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return bounds[order[a]] < bounds[order[b]] })

	top := make([]rankedRule, 0, k+1)
	scanned := 0
	for _, i := range order {
		if len(top) == k && bounds[i] > top[k-1].score {
			break
		}
		scanned++
		sc, _, dF, dL, dR := cost.GeneralizationScore(schema, rel, all[i], cache.RuleCaptures(i), rep.Conds, w)
		at := sort.Search(len(top), func(j int) bool {
			return top[j].score > sc || top[j].score == sc && top[j].index > i
		})
		top = slices.Insert(top, at, rankedRule{rule: all[i], index: i, score: sc, dF: dF, dL: dL, dR: dR})
		if len(top) > k {
			top = top[:k]
		}
	}
	sp.Int("rules", int64(len(all))).Int("top_k", int64(len(top))).
		Int("scanned", int64(scanned)).Int("pruned", int64(len(all)-scanned))
	return top
}

// enforceNumericOnly reverts any categorical condition of r that differs
// from base: the RUDOLF-s variant has no ontology support and can neither
// generalize nor accept edits on categorical attributes.
func (s *Session) enforceNumericOnly(schema *relation.Schema, r, base *rules.Rule) {
	if r == nil {
		return
	}
	for i := 0; i < schema.Arity(); i++ {
		if schema.Attr(i).Kind != relation.Categorical {
			continue
		}
		if !r.Cond(i).Equal(schema.Attr(i), base.Cond(i)) {
			r.SetCond(i, base.Cond(i))
		}
	}
}

func touchesCategorical(schema *relation.Schema, attrs []int) bool {
	for _, a := range attrs {
		if schema.Attr(a).Kind == relation.Categorical {
			return true
		}
	}
	return false
}

func condString(schema *relation.Schema, attr int, c rules.Condition) string {
	a := schema.Attr(attr)
	if a.Kind == relation.Categorical {
		return a.Ontology.ConceptName(c.C)
	}
	return a.Format.FormatInterval(c.Iv)
}
