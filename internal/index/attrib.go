package index

import (
	"repro/internal/bitset"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// This file is the attribution path of the compiled evaluator: the same
// chunk-parallel machinery as Eval, but instead of short-circuiting on the
// first matching rule it records, per tuple, which rules fired and how far
// every non-trivial condition was from flipping — the decision provenance
// the serving layer's `"explain": true` mode and the offline CLI's -explain
// flag surface to analysts. Plain Eval/EvalFirstInto are untouched, so scoring
// with attribution off pays nothing (BenchmarkServeScore guards this).
//
// Margins are signed and satisfy one invariant, proven differentially in
// attrib_test.go: a check passes if and only if its margin is >= 0.
//
//   - numeric condition v ∈ [lo, hi]: pass margin is min(v-lo, hi-v), the
//     distance to the nearest boundary; fail margin is -(lo-v) or -(v-hi),
//     the (negated) distance back into the interval.
//   - categorical condition A ≤ C over observed leaf l: pass margin is the
//     minimal number of generalization steps from l up to a concept
//     containing C (how much specificity the rule has to spare); fail margin
//     is the negated number of generalization steps C would need before it
//     admitted l (Equation 1's ontological distance).
//   - score threshold: margin is score - minScore.
//
// The allocation story (DESIGN.md §13): attribution over a relation never
// allocates per rule or per tuple. An AttributionBuffer owns three flat
// arenas — RuleAttributions, matched indices and CheckAttributions — and
// every tuple's storage is carved at a deterministic offset (tuple i's
// checks live at i×perTuple), so the 64-aligned parallel chunks write
// disjoint arena regions without synchronization and a buffer is reused
// across calls without clearing. Checks render in schema-attribute order
// via the compile-time emit permutation; nothing sorts at attribution time.

// CheckAttribution is the outcome of one non-trivial compiled check of one
// rule against one tuple.
type CheckAttribution struct {
	// Attr is the schema attribute index, ScoreAttr for the rule's
	// minimum-score threshold, or WindowAttr − spec for a windowed aggregate
	// check (see IsWindow/Win). The struct deliberately stays at four fields:
	// the compiler only keeps struct values in registers up to four fields
	// (ssa.MaxStruct), and attribution copies these by value in its hottest
	// loop — a fifth field for the spec index measured 2.3x slower there.
	Attr int
	// Categorical marks ontological (concept-bound) checks.
	Categorical bool
	// Pass reports whether the tuple satisfies the check. Pass holds if and
	// only if Margin >= 0.
	Pass bool
	// Margin is the signed distance to the decision boundary (see the file
	// comment for the exact per-kind definition). For a windowed check with a
	// one-sided threshold like COUNT(...) >= K the margin is exactly
	// aggregate − K: how far past (or short of) the velocity threshold the
	// key's recent activity is.
	Margin int64
}

// ScoreAttr is the CheckAttribution.Attr value of a rule's minimum-score
// threshold check (it guards the whole rule, not one schema attribute).
const ScoreAttr = -1

// WindowAttr is the top of the CheckAttribution.Attr range occupied by
// windowed aggregate checks: a check for window spec s carries
// Attr = WindowAttr − s, so spec 0 is WindowAttr itself and every windowed
// check satisfies Attr <= WindowAttr (they address sliding-window
// aggregates, not schema attributes).
const WindowAttr = -2

// IsWindow reports whether the check is a windowed aggregate check.
func (c CheckAttribution) IsWindow() bool { return c.Attr <= WindowAttr }

// Win returns the window spec index (into the evaluator's WindowSpecs) of a
// windowed check; meaningless unless IsWindow.
func (c CheckAttribution) Win() int32 { return int32(WindowAttr - c.Attr) }

// RuleAttribution is one rule's verdict on one tuple with the full check
// breakdown (no short-circuiting: every non-trivial condition is attributed
// even after the first failure, so analysts see every margin).
type RuleAttribution struct {
	// Rule is the rule's index in the compiled set.
	Rule int
	// Matched reports whether the rule captures the tuple — every check
	// passed (and the rule is not empty).
	Matched bool
	// Empty marks rules that can never match (an empty condition); such
	// rules carry no checks.
	Empty bool
	// Checks holds one attribution per non-trivial condition, ordered by
	// ascending attribute index, with the score-threshold check (Attr ==
	// ScoreAttr) last when the rule has one. Under lazy evaluation
	// (EvalAttributedLazyInto) Checks is nil for rules that did not match;
	// AttributeRuleAppend re-derives the full breakdown on demand.
	Checks []CheckAttribution
}

// TupleAttribution is the decision provenance of one tuple: which rules
// matched, and the per-rule condition breakdown.
type TupleAttribution struct {
	// Matched lists the indices of the rules capturing the tuple, ascending.
	Matched []int
	// Rules holds one attribution per compiled rule, index-aligned with the
	// rule set.
	Rules []RuleAttribution
}

// Flagged reports whether any rule captured the tuple.
func (a TupleAttribution) Flagged() bool { return len(a.Matched) > 0 }

// attributeCond computes one condition's pass/fail and signed margin for
// value v.
func (e *Evaluator) attributeCond(c *compiledCond, v int64) CheckAttribution {
	out := CheckAttribution{Attr: c.attr, Categorical: c.isCat}
	if c.isCat {
		pos := c.leafPos[v]
		if pos >= 0 {
			// The compile-time margin table covers every observed leaf; a
			// passing leaf's margin is >= 0 and a failing one's <= -1, so the
			// table encodes Pass too.
			out.Margin = c.margins[pos]
			out.Pass = out.Margin >= 0
			return out
		}
		// Non-leaf observed value: outside the table (and the leaf set), so
		// the check fails with the minimal violation the DAG supports.
		d, ok := e.schema.Attr(c.attr).Ontology.UpDistance(c.concept, ontology.Concept(v))
		if !ok || d < 1 {
			d = 1 // no chain: minimal violation
		}
		out.Margin = -int64(d)
		return out
	}
	switch {
	case v < c.lo:
		out.Margin = -(c.lo - v)
	case v > c.hi:
		out.Margin = -(v - c.hi)
	default:
		out.Pass = true
		if m := c.hi - v; m < v-c.lo {
			out.Margin = m
		} else {
			out.Margin = v - c.lo
		}
	}
	return out
}

// attributeRuleAppend evaluates every check of compiled rule ri against
// tuple i without short-circuiting, appending the checks (in the compiled
// emit order: schema attributes ascending, score threshold last) to dst.
// The returned attribution's Checks aliases the appended region, so dst
// must not be shared between live attributions unless each append stays
// within its own pre-carved capacity (the arena discipline of
// AttributionBuffer) or dst never reallocates underneath an earlier result.
func (e *Evaluator) attributeRuleAppend(ri int, rel *relation.Relation, i int, dst []CheckAttribution, wc [][]int64) RuleAttribution {
	cr := &e.rules[ri]
	out := RuleAttribution{Rule: ri, Matched: true}
	if cr.empty {
		out.Empty = true
		out.Matched = false
		return out
	}
	t := rel.Tuple(i)
	base := len(dst)
	for _, ci := range cr.emit {
		ca := e.attributeCond(&cr.conds[ci], t[cr.conds[ci].attr])
		if !ca.Pass {
			out.Matched = false
		}
		dst = append(dst, ca)
	}
	for _, w := range cr.wins {
		var v int64
		if wc != nil {
			v = wc[w.spec][i]
		}
		ca := attributeWin(w, v)
		if wc == nil {
			ca.Pass = false // no columns: fail closed, like winMatches
			out.Matched = false
		}
		if !ca.Pass {
			out.Matched = false
		}
		dst = append(dst, ca)
	}
	if cr.minScore > 0 {
		ca := CheckAttribution{
			Attr:   ScoreAttr,
			Margin: int64(rel.Score(i)) - int64(cr.minScore),
		}
		ca.Pass = ca.Margin >= 0
		if !ca.Pass {
			out.Matched = false
		}
		dst = append(dst, ca)
	}
	out.Checks = dst[base:]
	return out
}

// AttributeRuleAppend re-derives the full attribution of compiled rule ri
// against tuple i — the compact on-demand companion of the lazy evaluation
// path: EvalAttributedLazyInto leaves non-matching rules' Checks nil, and
// callers that need a specific rule's margins anyway (a "how close was rule
// 7?" query) recompute exactly that rule here instead of paying for all of
// them. Checks are appended to dst (pass dst[:0] to reuse its capacity, nil
// to allocate) and the returned attribution's Checks aliases the appended
// region. A steady-state caller reuses one scratch slice across many rules
// and never allocates.
func (e *Evaluator) AttributeRuleAppend(ri int, rel *relation.Relation, i int, dst []CheckAttribution) RuleAttribution {
	return e.attributeRuleAppend(ri, rel, i, dst, e.winCols(rel))
}

// MaxRuleChecks returns the largest check count any single compiled rule
// emits — the scratch capacity that makes AttributeRuleAppend allocation-free
// for every rule in the set.
func (e *Evaluator) MaxRuleChecks() int {
	maxn := 0
	for ri := range e.rules {
		if n := e.rules[ri].checkCount(); n > maxn {
			maxn = n
		}
	}
	return maxn
}

// AttributeTuple returns the full decision provenance of tuple i: every
// rule's every non-trivial check, with no short-circuiting. cmd/rudolf's
// -explain flag prints it, and the lazy batch path is tested against it.
// All checks are carved from one arena (three allocations per call, not per
// rule); batch callers should use EvalAttributedLazyInto with a reused
// buffer.
func (e *Evaluator) AttributeTuple(rel *relation.Relation, i int) TupleAttribution {
	perTuple := 0
	for ri := range e.rules {
		perTuple += e.rules[ri].checkCount()
	}
	arena := make([]CheckAttribution, 0, perTuple)
	out := TupleAttribution{Rules: make([]RuleAttribution, len(e.rules))}
	wc := e.winCols(rel)
	for ri := range e.rules {
		base := len(arena)
		out.Rules[ri] = e.attributeRuleAppend(ri, rel, i, arena, wc)
		arena = arena[:base+len(out.Rules[ri].Checks)]
		if out.Rules[ri].Matched {
			out.Matched = append(out.Matched, ri)
		}
	}
	return out
}

// AttributionBuffer is caller-owned, reusable storage for
// EvalAttributedLazyInto. The zero value is ready to use; the first call
// sizes the arenas and later calls reuse them (growing only when the
// relation or rule set outgrows the previous high-water mark), so a pooled
// buffer makes repeated attribution allocation-free.
//
// Ownership rules: Tuples — and every Matched/Rules/Checks slice hanging off
// it — aliases the buffer's arenas and is valid only until the next
// EvalAttributedLazyInto call on the same buffer. Callers that hand the
// buffer back to a pool must finish reading (or copy out) first; two
// concurrent evaluations need two buffers.
type AttributionBuffer struct {
	// Tuples holds one attribution per transaction of the last evaluated
	// relation (length rel.Len()), index-aligned with it.
	Tuples []TupleAttribution

	rules   []RuleAttribution  // flat: tuple-major, nRules per tuple
	matched []int              // flat: nRules capacity per tuple
	checks  []CheckAttribution // flat: perTuple capacity per tuple

	// geometry of the current rule set (recomputed every Ensure: the
	// evaluator mutates in place via Add/Replace/Remove).
	checkOff []int // per rule: offset of its checks inside a tuple's block
	perTuple int   // Σ checkCount over rules
}

// ensure sizes the arenas for evaluating n tuples against e's current rules.
func (b *AttributionBuffer) ensure(e *Evaluator, n int) {
	nr := len(e.rules)
	if cap(b.checkOff) < nr {
		b.checkOff = make([]int, nr)
	}
	b.checkOff = b.checkOff[:nr]
	b.perTuple = 0
	for ri := range e.rules {
		b.checkOff[ri] = b.perTuple
		b.perTuple += e.rules[ri].checkCount()
	}
	if need := n * nr; cap(b.rules) < need {
		b.rules = make([]RuleAttribution, need)
	} else {
		b.rules = b.rules[:need]
	}
	if need := n * nr; cap(b.matched) < need {
		b.matched = make([]int, need)
	} else {
		b.matched = b.matched[:need]
	}
	if need := n * b.perTuple; cap(b.checks) < need {
		b.checks = make([]CheckAttribution, need)
	} else {
		b.checks = b.checks[:need]
	}
	if cap(b.Tuples) < n {
		b.Tuples = make([]TupleAttribution, n)
	} else {
		b.Tuples = b.Tuples[:n]
	}
}

// EvalAttributedLazyInto evaluates the relation with decision provenance
// into buf and returns Eval's Φ(I) bitset. Condition-level margins are
// materialized only for rules that fire: non-matching rules are rejected by
// the same short-circuiting check as Eval and carry a nil Checks (Matched,
// Empty and the per-tuple Matched list stay exact — proven against
// AttributeTuple by TestEvalAttributedLazyDifferential). Callers needing a
// non-matching rule's margins re-derive just that rule via
// AttributeRuleAppend. This is the serving layer's explain path: analysts
// ask "why was this flagged", which only the firing rules answer.
//
// Tuple i's storage lives at fixed buffer offsets (rules/matched at
// i×nRules, checks at i×perTuple), so the parallel chunks touch disjoint
// arena regions and nothing synchronizes. See AttributionBuffer for the
// aliasing/ownership rules.
func (e *Evaluator) EvalAttributedLazyInto(rel *relation.Relation, buf *AttributionBuffer) *bitset.Set {
	n := rel.Len()
	buf.ensure(e, n)
	nr := len(e.rules)
	out := bitset.New(n)
	wc := e.winCols(rel)
	e.parallelChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rules := buf.rules[i*nr : (i+1)*nr]
			matched := buf.matched[i*nr : i*nr : (i+1)*nr]
			base := i * buf.perTuple
			for ri := range e.rules {
				if !e.matches(&e.rules[ri], rel, i, wc) {
					rules[ri] = RuleAttribution{Rule: ri, Empty: e.rules[ri].empty}
					continue
				}
				off := base + buf.checkOff[ri]
				cnt := e.rules[ri].checkCount()
				rules[ri] = e.attributeRuleAppend(ri, rel, i, buf.checks[off:off:off+cnt], wc)
				if rules[ri].Matched {
					matched = append(matched, ri)
				}
			}
			buf.Tuples[i] = TupleAttribution{Matched: matched, Rules: rules}
			if len(matched) > 0 {
				out.Add(i)
			}
		}
	})
	return out
}

// EvalFirstInto returns, per transaction, the index of the first matching
// rule (or NoRule when none matches) — the same short-circuiting loop as
// Eval, writing an int32 per tuple instead of a bit. The serving hot path
// uses it so per-rule fire accounting costs nothing beyond the write:
// first-match attribution is the standard fire semantics of an ordered rule
// list. The result is written into dst, which is resized (reallocating only
// when the relation outgrows its capacity, or when dst is nil) and returned,
// so a pooled slice makes repeated first-match scoring allocation-free
// (TestAttributionIntoAllocs guards it).
func (e *Evaluator) EvalFirstInto(rel *relation.Relation, dst []int32) []int32 {
	n := rel.Len()
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	out := dst[:n]
	wc := e.winCols(rel)
	e.parallelChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = NoRule
			for ri := range e.rules {
				if e.matches(&e.rules[ri], rel, i, wc) {
					out[i] = int32(ri)
					break
				}
			}
		}
	})
	return out
}

// NoRule is the EvalFirstInto marker for "no rule matched".
const NoRule int32 = -1
