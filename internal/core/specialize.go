package core

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/ontology"
	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/window"
)

// Specialize runs Algorithm 2: for every legitimate transaction captured by
// the rules, split each capturing rule on the attribute whose split has the
// greatest benefit, interactively with the expert, until the transaction is
// excluded. Afterwards, rules subsumed by other rules are pruned — splits
// duplicate rules, and dropping a rule whose captures are a subset of
// another's never changes Φ(I).
func (s *Session) Specialize(rel *relation.Relation) {
	schema := rel.Schema()
	legit := rel.Indices(relation.Legitimate)
	sp, done := s.startPhase("refine.specialize")
	defer done()
	sp.Int("legitimate", int64(len(legit)))
	for _, l := range legit {
		s.excludeLegit(rel, schema, l)
	}
	s.pruneSubsumed(schema)
}

// pruneSubsumed removes rules contained (condition-wise) in another rule.
// Containment pruning is semantics-preserving, so it is not logged as a
// modification.
func (s *Session) pruneSubsumed(schema *relation.Schema) {
	for i := 0; i < s.ruleSet.Len(); i++ {
		for j := s.ruleSet.Len() - 1; j >= 0; j-- {
			if i == j || i >= s.ruleSet.Len() || j >= s.ruleSet.Len() {
				continue
			}
			if s.ruleSet.Rule(i).Contains(schema, s.ruleSet.Rule(j)) {
				s.setRemove(j)
				if j < i {
					i--
				}
			}
		}
	}
}

// excludeLegit adapts every rule capturing the legitimate tuple l so that it
// is no longer captured (the outer loops of Algorithm 2).
func (s *Session) excludeLegit(rel *relation.Relation, schema *relation.Schema, l int) {
	// Rules change as we split, so re-discover capturing rules until none
	// remain. Every iteration removes the processed rule and its machine-built
	// replacements exclude l, so this terminates — unless an expert edit
	// reintroduces a capturing rule, which the iteration bound cuts off.
	maxIter := 2*s.ruleSet.Len() + 8
	for iter := 0; iter < maxIter && !s.stopped(); iter++ {
		capturing := s.captureFor(rel).CapturingRulesAt(l)
		if len(capturing) == 0 {
			return
		}
		s.splitRule(rel, schema, capturing[0], l)
	}
}

// splitCandidate is one possible split of a rule on one attribute or one
// windowed condition.
type splitCandidate struct {
	// attr is the attribute being split on, or -1 for a windowed split.
	attr int
	// win indexes the rule's Windows() when the split tightens a windowed
	// condition — raising its aggregate threshold or shortening its window —
	// instead of splitting an attribute condition; -1 otherwise.
	win          int
	replacements []*rules.Rule
	benefit      float64
	// score is benefit minus the modification cost of the split. The paper
	// sketches attribute selection under a fixed modification cost, but its
	// own categorical splits "may duplicate r more than twice"; charging the
	// real cost of the replacement rules keeps the selection aligned with
	// the cost(M) − benefit objective of Definition 3.1 and stops broad DAG
	// covers from exploding the rule set.
	score float64
}

// splitRule runs the repeat-loop of Algorithm 2 for one rule: propose splits
// in order of decreasing benefit until the expert accepts one; if every
// attribute is rejected the best split is applied anyway, since the
// legitimate transaction has to be excluded (the paper notes one of the
// splits must be deemed correct).
func (s *Session) splitRule(rel *relation.Relation, schema *relation.Schema, ruleIdx, l int) {
	r := s.ruleSet.Rule(ruleIdx)
	cands := s.splitCandidates(rel, schema, r, ruleIdx, l)
	if len(cands) == 0 {
		// No attribute can be split (the rule is exactly the legitimate
		// tuple); the rule itself must go.
		s.removeRule(schema, ruleIdx, "no attribute can exclude the legitimate tuple")
		return
	}
	for i, cand := range cands {
		proposal := &SplitProposal{
			Schema:       schema,
			Rel:          rel,
			RuleIndex:    ruleIdx,
			Original:     r,
			Attr:         cand.attr,
			Win:          cand.win,
			Replacements: cand.replacements,
			LegitIndex:   l,
			Benefit:      cand.benefit,
		}
		dec, ok := s.reviewSplit(proposal)
		if !ok {
			return
		}
		if dec.Accept || i == len(cands)-1 {
			s.applySplit(schema, r, cand, dec, !dec.Accept)
			return
		}
	}
}

// reviewSplit consults the expert on a split proposal, wrapping the
// interaction in an "expert.review_split" span recording the rule, the split
// attribute, its benefit and the verdict. A stopped session asks nothing and
// reports false.
func (s *Session) reviewSplit(p *SplitProposal) (SplitDecision, bool) {
	if s.stopped() {
		return SplitDecision{}, false
	}
	sp := trace.StartUnder(s.opts.Tracer, s.cur, "expert.review_split")
	sp.Int("rule", int64(p.RuleIndex)).Int("attr", int64(p.Attr)).
		Float("benefit", p.Benefit).Int("legit", int64(p.LegitIndex))
	if p.Win >= 0 {
		sp.Int("win", int64(p.Win))
	}
	dec := s.expert.ReviewSplit(p)
	sp.Bool("accept", dec.Accept)
	sp.End()
	return dec, true
}

// splitCandidates enumerates the possible splits of rule r to exclude the
// value of each attribute of tuple l, ordered by decreasing benefit
// (Algorithm 2, line 5). Ties preserve attribute order, a deterministic
// stand-in for the paper's random tie-break.
func (s *Session) splitCandidates(rel *relation.Relation, schema *relation.Schema, r *rules.Rule, ruleIdx, l int) []splitCandidate {
	lt := rel.Tuple(l)
	cache := s.captureFor(rel)
	captured := cache.RuleCaptures(ruleIdx)
	others := cache.UnionExcept(ruleIdx)
	var cands []splitCandidate
	for attr := 0; attr < schema.Arity(); attr++ {
		a := schema.Attr(attr)
		if s.opts.NumericOnly && a.Kind == relation.Categorical {
			continue
		}
		replacements, ok := splitOnAttr(schema, r, attr, lt[attr])
		if !ok {
			continue
		}
		removed := removedBySplit(rel, captured, attr, lt[attr])
		benefit := cost.SplitBenefit(rel, removed, others, s.opts.weights())
		splitCost := float64(len(replacements)) * s.opts.costModel().ModificationCost(cost.RuleSplit, attr)
		cands = append(cands, splitCandidate{
			attr:         attr,
			win:          -1,
			replacements: replacements,
			benefit:      benefit,
			score:        benefit - splitCost,
		})
	}
	cands = append(cands, s.windowSplitCandidates(rel, schema, r, l, captured, others)...)
	// Sort by decreasing benefit-minus-cost, stable in attribute order.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].score > cands[j-1].score; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	return cands
}

// SplitRuleOnAttr exposes the split construction of Algorithm 2 (see
// splitOnAttr) for reuse by the fully-manual baseline, which narrows rules
// the same way a session does but without expert interaction.
func SplitRuleOnAttr(schema *relation.Schema, r *rules.Rule, attr int, v int64) ([]*rules.Rule, bool) {
	return splitOnAttr(schema, r, attr, v)
}

// splitOnAttr builds the replacement rules for splitting r on attr to
// exclude value v: the prev/succ interval split for numeric attributes
// (lines 6-9), or one rule per concept of the greedy cover for categorical
// attributes. ok is false when the attribute cannot exclude v (the
// condition is a single point equal to v and nothing would remain — in that
// case the caller may still drop the rule, which splitOnAttr reports as an
// empty replacement list with ok true).
func splitOnAttr(schema *relation.Schema, r *rules.Rule, attr int, v int64) ([]*rules.Rule, bool) {
	a := schema.Attr(attr)
	if a.Kind == relation.Categorical {
		cover := a.Ontology.CoverExcluding(r.Cond(attr).C, ontology.Concept(v))
		replacements := make([]*rules.Rule, 0, len(cover))
		for _, c := range cover {
			nr := r.Clone()
			nr.SetCond(attr, rules.ConceptCond(c))
			replacements = append(replacements, nr)
		}
		return replacements, true
	}
	left, right := r.Cond(attr).Iv.SplitAround(a.Domain, v)
	var replacements []*rules.Rule
	if !left.IsEmpty() {
		replacements = append(replacements, r.Clone().SetCond(attr, rules.NumericCond(left)))
	}
	if !right.IsEmpty() {
		replacements = append(replacements, r.Clone().SetCond(attr, rules.NumericCond(right)))
	}
	if len(replacements) == 1 && replacements[0].Equal(schema, r) {
		return nil, false // v outside the condition: splitting changes nothing
	}
	return replacements, true
}

// windowSplitCandidates proposes tightenings of r's windowed conditions that
// exclude the legitimate tuple l — the windowed analog of the numeric
// interval split. Velocity rules are often right about the pattern but wrong
// about the rate, so the refinement loop can adjust both knobs of a
// condition like COUNT(user, 10m) >= 4: raise the aggregate threshold just
// above l's aggregate value, or halve the window length when the legitimate
// activity is spread out enough that the shorter window's aggregate falls
// below the existing threshold. Each candidate yields a single replacement
// rule; benefit is charged exactly like an attribute split.
func (s *Session) windowSplitCandidates(rel *relation.Relation, schema *relation.Schema, r *rules.Rule, l int, captured, others *bitset.Set) []splitCandidate {
	wins := r.Windows()
	if len(wins) == 0 {
		return nil
	}
	specs := make([]window.Spec, len(wins))
	for i, wc := range wins {
		specs[i] = wc.Spec
	}
	cs := rules.WindowColumnsFor(rel, specs)
	var cands []splitCandidate
	add := func(wi int, nr *rules.Rule, removed *bitset.Set) {
		benefit := cost.SplitBenefit(rel, removed, others, s.opts.weights())
		splitCost := s.opts.costModel().ModificationCost(cost.RuleSplit, -1)
		cands = append(cands, splitCandidate{
			attr:         -1,
			win:          wi,
			replacements: []*rules.Rule{nr},
			benefit:      benefit,
			score:        benefit - splitCost,
		})
	}
	for wi, wc := range wins {
		col := cs.Column(wc.Spec)
		if col == nil {
			continue
		}
		// Raise the threshold above l's aggregate: the tightened interval
		// keeps every capture whose aggregate genuinely exceeds the
		// legitimate tuple's rate.
		if v := col[l]; v < wc.Iv.Hi && v < math.MaxInt64 {
			iv := order.Interval{Lo: v + 1, Hi: wc.Iv.Hi}
			nr := r.Clone().AddWindow(rules.WindowCond{Spec: wc.Spec, Iv: iv})
			add(wi, nr, removedByWindowSplit(rel, captured, col, iv))
		}
		// Halve the window: a shorter window distinguishes a burst from the
		// same volume spread over time. Only proposed when it actually
		// excludes l (otherwise the split would not make progress).
		if half := wc.Spec.Window / 2; half >= 1 && half != wc.Spec.Window {
			hspec := wc.Spec
			hspec.Window = half
			hcol := window.ComputeColumns(rel, []window.Spec{hspec}).Column(hspec)
			if hcol != nil && !wc.Iv.Contains(hcol[l]) {
				nr := r.Clone()
				nr.RemoveWindow(wc.Spec)
				nr.AddWindow(rules.WindowCond{Spec: hspec, Iv: wc.Iv})
				add(wi, nr, removedByWindowSplit(rel, captured, hcol, wc.Iv))
			}
		}
	}
	return cands
}

// removedByWindowSplit returns the captured transactions whose aggregate
// value (read off col) falls outside the tightened interval — exactly what
// the windowed split stops capturing.
func removedByWindowSplit(rel *relation.Relation, captured *bitset.Set, col []int64, iv order.Interval) *bitset.Set {
	removed := bitset.New(rel.Len())
	captured.ForEach(func(i int) {
		if !iv.Contains(col[i]) {
			removed.Add(i)
		}
	})
	return removed
}

// removedBySplit returns the transactions captured by the rule whose attr
// value matches the excluded value (numeric) or falls under the excluded
// leaf (categorical) — exactly what the split stops capturing.
func removedBySplit(rel *relation.Relation, captured *bitset.Set, attr int, v int64) *bitset.Set {
	removed := bitset.New(rel.Len())
	captured.ForEach(func(i int) {
		if rel.Tuple(i)[attr] == v {
			removed.Add(i)
		}
	})
	return removed
}

// applySplit installs the accepted (or forced) split: the kept replacement
// rules are added and the original rule is removed (Algorithm 2 lines
// 12-16). The original is tracked by identity and re-resolved after the
// expert review — the same stale-index family as Algorithm 1's candidates:
// indices can shift while the expert deliberates.
func (s *Session) applySplit(schema *relation.Schema, original *rules.Rule, cand splitCandidate, dec SplitDecision, forced bool) {
	replacements := cand.replacements
	if !forced {
		if dec.Keep != nil {
			kept := make([]*rules.Rule, 0, len(dec.Keep))
			for _, k := range dec.Keep {
				if k >= 0 && k < len(replacements) {
					kept = append(kept, replacements[k])
				}
			}
			replacements = kept
		}
		if dec.Edited != nil {
			replacements = dec.Edited
		}
	}
	ruleIdx := s.ruleSet.IndexOf(original)
	if ruleIdx < 0 {
		return // the rule vanished during review; nothing to split
	}
	s.setRemove(ruleIdx)
	for _, nr := range replacements {
		if nr.IsEmpty(schema) {
			continue
		}
		s.setAdd(nr)
	}
	target := ""
	if cand.win >= 0 {
		target = rules.FormatWindowAtom(schema, original.Windows()[cand.win].Spec)
	} else {
		target = schema.Attr(cand.attr).Name
	}
	s.logMod(Modification{
		Kind:      cost.RuleSplit,
		RuleIndex: ruleIdx,
		Attr:      cand.attr,
		Cost:      s.opts.costModel().ModificationCost(cost.RuleSplit, cand.attr),
		Forced:    forced,
		Description: fmt.Sprintf("split %q on %s into %d rule(s)",
			original.Format(schema), target, len(replacements)),
	})
}

// removeRule deletes a rule outright and logs the removal.
func (s *Session) removeRule(schema *relation.Schema, ruleIdx int, why string) {
	r := s.ruleSet.Rule(ruleIdx)
	s.setRemove(ruleIdx)
	s.logMod(Modification{
		Kind:        cost.RuleRemove,
		RuleIndex:   ruleIdx,
		Attr:        -1,
		Cost:        s.opts.costModel().ModificationCost(cost.RuleRemove, -1),
		Description: fmt.Sprintf("removed %q: %s", r.Format(schema), why),
	})
}
