package rules

import (
	"repro/internal/bitset"
	"repro/internal/relation"
	"repro/internal/window"
)

// The paper notes that "in practice each rule also includes some threshold
// condition on the score" (the ML risk score in [0, 1000]) alongside the
// semantic conditions its examples focus on. Rules here carry an optional
// minimum-score threshold: a transaction is captured only if it satisfies
// every attribute condition AND its risk score reaches the threshold.
// Thresholds are part of a rule's identity (copied by Clone, compared by
// Equal, printed and parsed as "score >= N") but are never touched by the
// refinement algorithms, matching the paper's treatment of them as static
// side conditions.

// MinScore returns the rule's risk-score threshold (0 = none).
func (r *Rule) MinScore() int16 { return r.minScore }

// SetMinScore sets the risk-score threshold and returns the rule for
// chaining. Values are clamped to [0, relation.MaxScore].
func (r *Rule) SetMinScore(s int16) *Rule {
	if s < 0 {
		s = 0
	}
	if s > relation.MaxScore {
		s = relation.MaxScore
	}
	r.minScore = s
	return r
}

// MatchesAt reports whether transaction i of rel satisfies the rule,
// including the score threshold and any windowed conditions. Matches
// (tuple-only) ignores both; use MatchesAt whenever the transaction's
// position in the relation is available.
func (r *Rule) MatchesAt(rel *relation.Relation, i int) bool {
	if rel.Score(i) < r.minScore {
		return false
	}
	if !r.Matches(rel.Schema(), rel.Tuple(i)) {
		return false
	}
	if len(r.wins) == 0 {
		return true
	}
	return r.windowsAdmitAt(winColumns(rel, r.ruleSpecs()), i)
}

// matchesWith is MatchesAt given the rule's aggregate columns (nil for a
// purely per-tuple rule), which a scan resolves once instead of per row.
func (r *Rule) matchesWith(rel *relation.Relation, cs *window.ColumnSet, i int) bool {
	return rel.Score(i) >= r.minScore && r.Matches(rel.Schema(), rel.Tuple(i)) &&
		(len(r.wins) == 0 || r.windowsAdmitAt(cs, i))
}

// CapturingRulesAt returns the indices of the rules capturing transaction i
// of rel, score thresholds and windowed conditions included — the
// relation-positional form of CapturingRules.
func (rs *Set) CapturingRulesAt(rel *relation.Relation, i int) []int {
	var out []int
	for ri, r := range rs.rules {
		if r.MatchesAt(rel, i) {
			out = append(out, ri)
		}
	}
	return out
}

// capturesInto adds to out every transaction of rel the rule captures
// (conditions, score threshold and windowed conditions).
func (r *Rule) capturesInto(rel *relation.Relation, out *bitset.Set) {
	cs := winColumns(rel, r.ruleSpecs())
	for i := 0; i < rel.Len(); i++ {
		if r.matchesWith(rel, cs, i) {
			out.Add(i)
		}
	}
}

// CountMatchesAt returns how many of the given transactions of rel the rule
// captures: MatchesAt over a handful of rows, resolving the aggregate
// columns once.
func (r *Rule) CountMatchesAt(rel *relation.Relation, rows []int) int {
	cs := winColumns(rel, r.ruleSpecs())
	n := 0
	for _, i := range rows {
		if r.matchesWith(rel, cs, i) {
			n++
		}
	}
	return n
}
