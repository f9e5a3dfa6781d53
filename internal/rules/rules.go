// Package rules implements the RUDOLF rule language of Section 2 of the
// paper: a rule is a conjunction of one condition per attribute of the
// transaction relation, where a numeric condition is an interval A ∈ [s, e]
// (the forms A op s are interval shorthands) and a categorical condition is
// a concept bound A ≤ c. A rule set is a disjunction of rules; Φ(I) is the
// union of the tuples each rule captures.
package rules

import (
	"repro/internal/bitset"
	"repro/internal/ontology"
	"repro/internal/order"
	"repro/internal/relation"
)

// Condition restricts one attribute. For a numeric attribute the interval
// Iv is used; for a categorical attribute the concept C is used (meaning
// A ≤ C). The trivial condition admits every value of the attribute.
type Condition struct {
	Iv order.Interval
	C  ontology.Concept
}

// NumericCond returns the condition A ∈ iv.
func NumericCond(iv order.Interval) Condition {
	return Condition{Iv: iv, C: ontology.Invalid}
}

// ConceptCond returns the condition A ≤ c.
func ConceptCond(c ontology.Concept) Condition { return Condition{C: c} }

// TrivialCond returns the condition admitting every value of attribute a.
func TrivialCond(a relation.Attribute) Condition {
	if a.Kind == relation.Categorical {
		return ConceptCond(a.Ontology.Top())
	}
	return NumericCond(a.Domain.Full())
}

// IsTrivial reports whether the condition admits every value of attribute a.
func (c Condition) IsTrivial(a relation.Attribute) bool {
	if a.Kind == relation.Categorical {
		return c.C == a.Ontology.Top()
	}
	return c.Iv.ContainsInterval(a.Domain.Full())
}

// IsEmpty reports whether the condition admits no value at all (the ⊥
// condition produced by an impossible split).
func (c Condition) IsEmpty(a relation.Attribute) bool {
	if a.Kind == relation.Categorical {
		return c.C == ontology.Invalid
	}
	return c.Iv.IsEmpty()
}

// Admits reports whether value v of attribute a satisfies the condition.
func (c Condition) Admits(a relation.Attribute, v int64) bool {
	if a.Kind == relation.Categorical {
		if c.C == ontology.Invalid {
			return false
		}
		return a.Ontology.Contains(c.C, ontology.Concept(v))
	}
	return c.Iv.Contains(v)
}

// ContainsCond reports whether every value admitted by other is admitted by
// c (condition containment within attribute a).
func (c Condition) ContainsCond(a relation.Attribute, other Condition) bool {
	if a.Kind == relation.Categorical {
		return a.Ontology.Contains(c.C, other.C)
	}
	return c.Iv.ContainsInterval(other.Iv)
}

// Equal reports whether the two conditions over attribute a admit exactly
// the same values.
func (c Condition) Equal(a relation.Attribute, other Condition) bool {
	if a.Kind == relation.Categorical {
		return c.C == other.C
	}
	return c.Iv.Equal(other.Iv)
}

// Rule is a conjunction of one condition per schema attribute, optionally
// guarded by a minimum risk-score threshold (see score.go) and by windowed
// aggregate conditions such as COUNT(user, 10m) > 5 (see window.go).
type Rule struct {
	conds    []Condition
	wins     []WindowCond
	minScore int16
}

// NewRule returns the trivial rule over the schema (every condition ⊤),
// which captures every transaction.
func NewRule(s *relation.Schema) *Rule {
	r := &Rule{conds: make([]Condition, s.Arity())}
	for i := 0; i < s.Arity(); i++ {
		r.conds[i] = TrivialCond(s.Attr(i))
	}
	return r
}

// Cond returns the condition on attribute i.
func (r *Rule) Cond(i int) Condition { return r.conds[i] }

// SetCond replaces the condition on attribute i and returns the rule for
// chaining during construction.
func (r *Rule) SetCond(i int, c Condition) *Rule {
	r.conds[i] = c
	return r
}

// Clone returns an independent copy of the rule.
func (r *Rule) Clone() *Rule {
	c := &Rule{conds: make([]Condition, len(r.conds)), minScore: r.minScore}
	copy(c.conds, r.conds)
	if len(r.wins) > 0 {
		c.wins = make([]WindowCond, len(r.wins))
		copy(c.wins, r.wins)
	}
	return c
}

// Equal reports whether two rules admit the same tuples condition by
// condition under schema s.
func (r *Rule) Equal(s *relation.Schema, other *Rule) bool {
	if r.minScore != other.minScore || !windowsEqual(r, other) {
		return false
	}
	for i := range r.conds {
		if !r.conds[i].Equal(s.Attr(i), other.conds[i]) {
			return false
		}
	}
	return true
}

// Matches reports whether tuple t satisfies every per-tuple condition of
// the rule. A bare tuple has no position in time, so windowed conditions
// (and the score threshold) are NOT evaluated here — use MatchesAt whenever
// the tuple's relation and index are available.
func (r *Rule) Matches(s *relation.Schema, t relation.Tuple) bool {
	for i, c := range r.conds {
		if !c.Admits(s.Attr(i), t[i]) {
			return false
		}
	}
	return true
}

// IsEmpty reports whether some condition admits no value, so the rule can
// never capture a transaction.
func (r *Rule) IsEmpty(s *relation.Schema) bool {
	for i, c := range r.conds {
		if c.IsEmpty(s.Attr(i)) {
			return true
		}
	}
	for _, wc := range r.wins {
		if wc.Iv.IsEmpty() {
			return true
		}
	}
	return false
}

// Captures evaluates the rule over the relation and returns the set of
// captured transaction indices.
func (r *Rule) Captures(rel *relation.Relation) *bitset.Set {
	out := bitset.New(rel.Len())
	r.capturesInto(rel, out)
	return out
}

// Contains reports whether rule r captures every tuple that rule other
// captures, judged condition-wise (a sufficient, schema-independent check):
// r's threshold must not exceed other's and every condition must contain
// other's.
func (r *Rule) Contains(s *relation.Schema, other *Rule) bool {
	if r.minScore > other.minScore || !windowsContain(r, other) {
		return false
	}
	for i := range r.conds {
		if !r.conds[i].ContainsCond(s.Attr(i), other.conds[i]) {
			return false
		}
	}
	return true
}

// Set is an ordered set of rules, interpreted disjunctively: Φ(I) is the
// union of the captures of its rules.
type Set struct {
	rules []*Rule
}

// NewSet returns a rule set over the given rules (which it does not copy).
func NewSet(rs ...*Rule) *Set { return &Set{rules: rs} }

// Len returns the number of rules.
func (rs *Set) Len() int { return len(rs.rules) }

// Rule returns the i-th rule.
func (rs *Set) Rule(i int) *Rule { return rs.rules[i] }

// Rules returns the underlying slice; callers must treat it as read-only.
func (rs *Set) Rules() []*Rule { return rs.rules }

// Add appends a rule and returns its index.
func (rs *Set) Add(r *Rule) int {
	rs.rules = append(rs.rules, r)
	return len(rs.rules) - 1
}

// Remove deletes the i-th rule, preserving the order of the rest.
func (rs *Set) Remove(i int) {
	rs.rules = append(rs.rules[:i], rs.rules[i+1:]...)
}

// IndexOf returns the current index of exactly the rule r (pointer
// identity), or -1 when r is no longer in the set. Refinement tracks ranked
// candidates by identity rather than by index: indices shift whenever a rule
// is removed mid-loop, and a stale index would silently address a different
// rule.
func (rs *Set) IndexOf(r *Rule) int {
	for i, x := range rs.rules {
		if x == r {
			return i
		}
	}
	return -1
}

// Replace swaps the i-th rule for r.
func (rs *Set) Replace(i int, r *Rule) { rs.rules[i] = r }

// Clone returns a deep copy of the rule set.
func (rs *Set) Clone() *Set {
	c := &Set{rules: make([]*Rule, len(rs.rules))}
	for i, r := range rs.rules {
		c.rules[i] = r.Clone()
	}
	return c
}

// Eval returns Φ(I): the union of the captures of every rule (score
// thresholds and windowed conditions included). This is the reference
// evaluator the compiled index is differentially tested against; windowed
// aggregates come from the relation's cached column set when it covers the
// set's specs, otherwise from an exact offline replay.
func (rs *Set) Eval(rel *relation.Relation) *bitset.Set {
	out := bitset.New(rel.Len())
	s := rel.Schema()
	cs := winColumns(rel, rs.WindowSpecs(nil))
	for i := 0; i < rel.Len(); i++ {
		t := rel.Tuple(i)
		score := rel.Score(i)
		for _, r := range rs.rules {
			if score >= r.minScore && r.Matches(s, t) &&
				(len(r.wins) == 0 || r.windowsAdmitAt(cs, i)) {
				out.Add(i)
				break
			}
		}
	}
	return out
}

// CapturingRules returns the indices of the rules that capture tuple t
// (the set Ω_l of Algorithm 2). Like Rule.Matches it is per-tuple only —
// windowed conditions and score thresholds are not evaluated; use
// CapturingRulesAt when the tuple's relation and index are available.
func (rs *Set) CapturingRules(s *relation.Schema, t relation.Tuple) []int {
	var out []int
	for i, r := range rs.rules {
		if r.Matches(s, t) {
			out = append(out, i)
		}
	}
	return out
}
