// Package cost implements the cost model of Sections 3 and 4 of the paper:
// the per-attribute and per-rule distances of Equation 1, the benefit term
// α·ΔF + β·ΔL + γ·ΔR of Definition 3.1, the rule-ranking score of
// Equation 2, and pluggable per-modification costs (unit costs as in the
// paper's hardness proofs, plus the weighted variant the paper lists as
// future work).
package cost

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/relation"
	"repro/internal/rules"
)

// Weights are the non-negative coefficients α, β, γ of Definition 3.1,
// weighting the importance of capturing frauds, avoiding legitimate
// transactions, and excluding unlabeled transactions.
type Weights struct {
	Alpha float64
	Beta  float64
	Gamma float64
}

// DefaultWeights returns α = β = γ = 1, the setting used in the paper's
// worked examples (Example 4.7).
func DefaultWeights() Weights { return Weights{Alpha: 1, Beta: 1, Gamma: 1} }

// FraudWeights returns the production-style weighting used by the
// experiments: capturing frauds matters an order of magnitude more than
// excluding unlabeled transactions (α ≫ β > γ). Definition 3.1 leaves the
// coefficients to the user "to tune the relative importance of each
// category"; with uniform weights an unattended refinement loop will gladly
// trade a few captured frauds for many excluded unlabeled transactions,
// which is the wrong trade in fraud detection.
func FraudWeights() Weights { return Weights{Alpha: 10, Beta: 2, Gamma: 0.25} }

// Benefit returns α·ΔF + β·ΔL + γ·ΔR.
func (w Weights) Benefit(dF, dL, dR int) float64 {
	return w.Alpha*float64(dF) + w.Beta*float64(dL) + w.Gamma*float64(dR)
}

// CondDistance is the per-attribute distance of Equation 1: how much the
// rule's condition must be generalized to contain the target condition.
// For numeric attributes it is the interval-extension distance; for
// categorical attributes it is the ontological up-distance.
func CondDistance(a relation.Attribute, rule, target rules.Condition) float64 {
	if a.Kind == relation.Categorical {
		d, ok := a.Ontology.UpDistance(rule.C, target.C)
		if !ok {
			return float64(a.Ontology.LeafCount(a.Ontology.Top()))
		}
		return float64(d)
	}
	return float64(rule.Iv.ExtensionDistance(target.Iv))
}

// RuleDistance is |f − r| of Equation 1: the sum over attributes of the
// condition distances between rule r and the target pattern (typically the
// representative tuple of a cluster).
func RuleDistance(s *relation.Schema, r *rules.Rule, target []rules.Condition) float64 {
	var sum float64
	for i := 0; i < s.Arity(); i++ {
		sum += CondDistance(s.Attr(i), r.Cond(i), target[i])
	}
	return sum
}

// Deltas computes ΔF, ΔL and ΔR of Definition 3.1 for replacing the rule
// set old by new over relation rel:
//
//	ΔF = |F ∩ new(I)| − |F ∩ old(I)|   (increase in captured frauds)
//	ΔL = |L ∩ old(I)| − |L ∩ new(I)|   (decrease in captured legitimate)
//	ΔR = |R ∩ old(I)| − |R ∩ new(I)|   (decrease in captured unlabeled)
//
// (The printed definition of ΔL in the paper has a typo — both operands are
// Φ — which we resolve by symmetry with ΔF and the prose.)
func Deltas(old, new *rules.Set, rel *relation.Relation) (dF, dL, dR int) {
	return deltasFromSets(old.Eval(rel), new.Eval(rel), rel)
}

func deltasFromSets(oldCap, newCap *bitset.Set, rel *relation.Relation) (dF, dL, dR int) {
	// Walk only the symmetric difference: a rule edit is local, so the two
	// capture sets typically differ in a handful of transactions out of the
	// whole relation, and the word-level XOR skips identical stretches 64
	// transactions at a time.
	diff := oldCap.Clone()
	diff.SymmetricDifferenceWith(newCap)
	diff.ForEach(func(i int) {
		inc := 1
		if !newCap.Has(i) {
			inc = -1
		}
		switch rel.Label(i) {
		case relation.Fraud:
			dF += inc
		case relation.Legitimate:
			dL -= inc
		default:
			dR -= inc
		}
	})
	return dF, dL, dR
}

// GeneralizationScore is Equation 2: the cost of modifying rule r so that it
// captures the target pattern, computed as the Equation 1 distance minus the
// benefit of the minimal generalization (with deltas evaluated on the rule
// in isolation, as in Example 4.4). Lower is better. Alongside the score it
// returns the minimal generalization itself and its Definition 3.1 deltas —
// ΔF (frauds gained), ΔL (legitimate captures avoided; negative when the
// widening captures more) and ΔR (unlabeled captures avoided) — so callers
// ranking rules neither recompute the rule nor re-scan the relation to
// report them.
//
// oldCap is the rule's current capture set over rel, typically read off an
// incremental capture cache, which saves one of the two full-relation scans;
// nil falls back to evaluating r.
func GeneralizationScore(s *relation.Schema, rel *relation.Relation,
	r *rules.Rule, oldCap *bitset.Set, target []rules.Condition, w Weights) (score float64, gen *rules.Rule, dF, dL, dR int) {
	gen, changed := rules.GeneralizeToCover(s, r, target)
	if len(changed) == 0 {
		// Already capturing: distance 0, and no behaviour change.
		return 0, gen, 0, 0, 0
	}
	if oldCap == nil {
		oldCap = r.Captures(rel)
	}
	dF, dL, dR = deltasFromSets(oldCap, gen.Captures(rel), rel)
	return RuleDistance(s, r, target) - w.Benefit(dF, dL, dR), gen, dF, dL, dR
}

// GeneralizationBound returns a lower bound on GeneralizationScore for the
// same arguments without scanning the relation, so a top-k ranking can skip
// the full scan of every rule whose bound already exceeds its k-th best
// score. oldCap is r's capture set over rel (required here) and frauds
// lists the fraudulent transactions of rel.
//
// It rests on two preconditions. A minimal generalization only widens
// conditions, so gen(I) ⊇ r(I): no capture is lost, hence ΔL ≤ 0 and
// ΔR ≤ 0, and ΔF is exactly the number of frauds outside oldCap that gen
// admits — a handful of rows. And β, γ ≥ 0 (Definition 3.1), so the two
// non-positive terms can only lower the benefit: score ≥ distance − α·ΔF.
// The bound is that expression, computed through the same Weights.Benefit
// so that floating-point rounding keeps it ≤ the score. With a negative β or
// γ the inequality fails and the bound is −Inf: still valid, prunes nothing.
func GeneralizationBound(s *relation.Schema, rel *relation.Relation,
	r *rules.Rule, oldCap *bitset.Set, frauds []int, target []rules.Condition, w Weights) float64 {
	if w.Beta < 0 || w.Gamma < 0 {
		return math.Inf(-1)
	}
	gen, changed := rules.GeneralizeToCover(s, r, target)
	if len(changed) == 0 {
		return 0
	}
	missed := make([]int, 0, len(frauds))
	for _, f := range frauds {
		if !oldCap.Has(f) {
			missed = append(missed, f)
		}
	}
	dF := gen.CountMatchesAt(rel, missed)
	return RuleDistance(s, r, target) - w.Benefit(dF, 0, 0)
}

// SplitBenefit returns the benefit of removing the given transactions from a
// rule's capture set (the attribute-selection criterion of Algorithm 2).
// removed is the set of transaction indices the split would no longer
// capture, counted only if no other rule still captures them (coveredByOthers).
func SplitBenefit(rel *relation.Relation, removed *bitset.Set,
	coveredByOthers *bitset.Set, w Weights) float64 {
	var dF, dL, dR int
	removed.ForEach(func(i int) {
		if coveredByOthers != nil && coveredByOthers.Has(i) {
			return // still captured by another rule: no behaviour change
		}
		switch rel.Label(i) {
		case relation.Fraud:
			dF-- // a fraud is lost
		case relation.Legitimate:
			dL++ // a legitimate transaction is excluded
		default:
			dR++ // an unlabeled transaction is excluded
		}
	})
	return w.Benefit(dF, dL, dR)
}
