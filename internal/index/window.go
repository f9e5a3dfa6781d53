package index

import (
	"math"

	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/window"
)

// Windowed conditions in the compiled evaluator. A rule's velocity atoms
// (COUNT(user, 10m) > 5, ...) compile to interval checks over materialized
// aggregate columns: the evaluator keeps a deduplicated spec list and every
// evaluation entry point resolves, once per call, a column slice per spec
// (winCols). The serving daemon stamps live columns onto each scored batch
// from its window.Store; offline paths fall back to an exact replay
// (window.ComputeColumns). Rule sets without windowed conditions resolve a
// nil column table and pay nothing — the pinned allocation budgets
// (TestAttributionIntoAllocs) hold unchanged.

// compiledWin is one windowed condition: the spec's index in the
// evaluator's winSpecs and the admitted aggregate interval (one-sided
// thresholds carry math.MinInt64/MaxInt64 sentinels).
type compiledWin struct {
	spec   int32
	lo, hi int64
}

// WindowSpecs returns the deduplicated window specs of every rule compiled
// into the evaluator, in first-use order; callers must treat the slice as
// read-only. The list is append-only across Add/Replace/Remove — a spec
// stays registered even if its last rule goes away — so it may be a strict
// superset of the live rules' needs (stale columns are computed but never
// read; the set resets at the next full Compile).
func (e *Evaluator) WindowSpecs() []window.Spec { return e.winSpecs }

// winSpecIndex returns the index of sp in e.winSpecs, registering it if new.
func (e *Evaluator) winSpecIndex(sp window.Spec) int32 {
	for i, s := range e.winSpecs {
		if s == sp {
			return int32(i)
		}
	}
	e.winSpecs = append(e.winSpecs, sp)
	return int32(len(e.winSpecs) - 1)
}

// compileWins compiles r's windowed conditions into cr, registering specs.
func (e *Evaluator) compileWins(cr *compiledRule, r *rules.Rule) {
	for _, wc := range r.Windows() {
		if wc.Iv.IsEmpty() {
			cr.empty = true
			cr.wins = nil
			return
		}
		cr.wins = append(cr.wins, compiledWin{
			spec: e.winSpecIndex(wc.Spec), lo: wc.Iv.Lo, hi: wc.Iv.Hi,
		})
	}
}

// winCols resolves the aggregate column table for evaluating rel: one
// []int64 per registered spec, index-aligned with e.winSpecs, or nil when
// the evaluator has no windowed conditions (the common case — and the fast
// path: no column set is consulted or computed).
//
// A column set already stamped on the relation with exactly this spec list
// (the serving daemon's per-batch stamp, or a previous resolution here) is
// reused as-is. Anything else — no cache, or a cache with different specs —
// triggers an exact offline replay which is then cached on the relation;
// concurrent resolutions race benignly (equivalent sets, last writer wins).
func (e *Evaluator) winCols(rel *relation.Relation) [][]int64 {
	if len(e.winSpecs) == 0 {
		return nil
	}
	if cs, ok := rel.WindowColumns().(*window.ColumnSet); ok && cs.Matches(e.winSpecs, rel.Len()) {
		return cs.Cols
	}
	cs := window.ComputeColumns(rel, e.winSpecs)
	rel.SetWindowColumns(cs)
	return cs.Cols
}

// winMatches reports whether tuple i passes every windowed check, given the
// resolved column table. A nil table with checks present fails closed (it
// can only arise from programmatic misuse — every entry point resolves the
// table when specs exist).
func winMatches(cr *compiledRule, wc [][]int64, i int) bool {
	for _, w := range cr.wins {
		if wc == nil {
			return false
		}
		v := wc[w.spec][i]
		if v < w.lo || v > w.hi {
			return false
		}
	}
	return true
}

// attributeWin computes one windowed check's pass/fail and signed margin:
// the same near-miss semantics as numeric conditions (pass ⟺ margin >= 0),
// with one-sided thresholds measured against their only real bound so a
// "COUNT(...) >= K" check's margin is exactly aggregate − K.
func attributeWin(w compiledWin, v int64) CheckAttribution {
	out := CheckAttribution{Attr: WindowAttr - int(w.spec)}
	switch {
	case v < w.lo:
		out.Margin = -(w.lo - v)
	case v > w.hi:
		out.Margin = -(v - w.hi)
	default:
		out.Pass = true
		switch {
		case w.hi == math.MaxInt64:
			out.Margin = v - w.lo
		case w.lo == math.MinInt64:
			out.Margin = w.hi - v
		default:
			if m := w.hi - v; m < v-w.lo {
				out.Margin = m
			} else {
				out.Margin = v - w.lo
			}
		}
	}
	return out
}
