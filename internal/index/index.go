// Package index provides a compiled, parallel evaluator for rule sets over
// large transaction relations. The straightforward Set.Eval checks every
// condition through the generic ontology machinery; the paper's production
// setting (100K-10M transactions per FI, rules re-evaluated after every
// refinement round) wants better. The evaluator compiles each rule once —
// resolving categorical conditions to leaf bitsets and ordering conditions
// by estimated selectivity so the cheapest rejections come first — and
// evaluates chunks of the relation on parallel workers.
//
// The evaluator starts as a snapshot — compile it after the rule set changes
// — but it also supports incremental maintenance: Add, Replace and Remove
// mirror the corresponding rules.Set mutations so a caller (notably the
// capture.Cache) can recompile only the one rule an edit touched instead of
// re-snapshotting the whole set.
package index

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/ontology"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/window"
)

// compiledCond is one condition in evaluation-ready form.
type compiledCond struct {
	attr int
	// numeric: value must lie in [lo, hi].
	isCat  bool
	lo, hi int64
	// categorical: the value's leaf position must be in leaves. leafPos is
	// the attribute's concept id → leaf position table (the evaluator's,
	// resolved here at compile time so the per-tuple check is a slice index).
	leaves  *bitset.Set
	leafPos []int
	// concept is the original bound A ≤ concept, retained for the
	// attribution path (ontological margins need the concept, not just its
	// leaf set). Unused during plain evaluation.
	concept ontology.Concept
	// margins caches, per leaf position, the signed ontological margin of
	// this condition for that observed leaf (see attributeCond). Computed at
	// compile time so attribution never walks the ontology DAG per tuple —
	// UpDistance is a BFS that allocates, and the pre-table attribution path
	// paid it per categorical check per tuple.
	margins []int64
	// selectivity estimates the fraction of the domain the condition admits
	// (smaller = more selective = checked earlier).
	selectivity float64
}

// compiledRule is a rule with pre-resolved, selectivity-ordered conditions.
type compiledRule struct {
	conds []compiledCond
	// wins holds the rule's windowed aggregate checks (see window.go),
	// evaluated after the per-tuple conditions against resolved columns.
	wins     []compiledWin
	minScore int16
	// empty marks rules that can never match (an empty condition).
	empty bool
	// emit lists the cond indices in ascending schema-attribute order — the
	// presentation order of the attribution path, precomputed here so
	// attributing a tuple never sorts (each rule holds at most one condition
	// per attribute, so the order is total and stable across recompiles).
	emit []int32
}

// checkCount returns how many CheckAttributions attributing this rule emits
// (every non-trivial condition, every windowed check, plus the optional
// score-threshold check).
func (cr *compiledRule) checkCount() int {
	if cr.empty {
		return 0
	}
	n := len(cr.conds) + len(cr.wins)
	if cr.minScore > 0 {
		n++
	}
	return n
}

// Evaluator is a compiled rule set.
type Evaluator struct {
	schema *relation.Schema
	rules  []compiledRule
	// leafPos holds, per categorical attribute (nil for numeric ones), the
	// concept id → leaf position table (-1 for non-leaves).
	leafPos [][]int
	// winSpecs is the deduplicated, append-only registry of window specs the
	// compiled rules reference (see window.go); compiledWin.spec indexes it.
	winSpecs []window.Spec
	// marginCache shares the immutable attribution margin tables across
	// compiled conditions with the same bound, so incremental Add/Replace of
	// a rule whose concepts were seen before re-derives nothing. Only the
	// single-goroutine compile paths touch it; the parallel attribution
	// workers read the cached slices without writing.
	marginCache map[marginKey][]int64
	// Workers bounds the evaluation parallelism; 0 means GOMAXPROCS.
	Workers int
}

// marginKey identifies one condition bound A ≤ concept for margin caching.
type marginKey struct {
	attr    int
	concept ontology.Concept
}

// Compile builds an evaluator for the rule set. The rule set is snapshotted:
// later changes to it are not reflected.
func Compile(schema *relation.Schema, rs *rules.Set) *Evaluator {
	e := &Evaluator{
		schema:      schema,
		leafPos:     make([][]int, schema.Arity()),
		marginCache: make(map[marginKey][]int64),
	}
	for i := 0; i < schema.Arity(); i++ {
		a := schema.Attr(i)
		if a.Kind != relation.Categorical {
			continue
		}
		pos := make([]int, a.Ontology.Len())
		for c := range pos {
			if p, ok := a.Ontology.LeafPos(ontology.Concept(c)); ok {
				pos[c] = p
			} else {
				pos[c] = -1
			}
		}
		e.leafPos[i] = pos
	}
	for _, r := range rs.Rules() {
		e.rules = append(e.rules, e.compileRule(r))
	}
	return e
}

func (e *Evaluator) compileRule(r *rules.Rule) compiledRule {
	out := compiledRule{minScore: r.MinScore()}
	e.compileWins(&out, r)
	if out.empty {
		return out
	}
	for i := 0; i < e.schema.Arity(); i++ {
		a := e.schema.Attr(i)
		c := r.Cond(i)
		if c.IsTrivial(a) {
			continue // admits everything: no check needed
		}
		if c.IsEmpty(a) {
			out.empty = true
			return out
		}
		// Selectivity defaults to 1.0 ("admits everything"): a zero-leaf
		// ontology or zero-size domain would otherwise divide by zero and
		// the resulting NaN/Inf poisons the sort.SliceStable ordering below
		// (NaN compares false both ways, so cheap rejections stop coming
		// first — and with NaNs the order depends on the input permutation).
		cc := compiledCond{attr: i, selectivity: 1}
		if a.Kind == relation.Categorical {
			cc.isCat = true
			cc.concept = c.C
			cc.leaves = a.Ontology.LeafSet(c.C)
			cc.leafPos = e.leafPos[i]
			if total := len(a.Ontology.Leaves()); total > 0 {
				cc.selectivity = float64(cc.leaves.Count()) / float64(total)
			}
			key := marginKey{attr: i, concept: c.C}
			if m, ok := e.marginCache[key]; ok {
				cc.margins = m
			} else {
				cc.margins = condMargins(a.Ontology, c.C, cc.leaves)
				e.marginCache[key] = cc.margins
			}
		} else {
			cc.lo, cc.hi = c.Iv.Lo, c.Iv.Hi
			if size := a.Domain.Size(); size > 0 {
				cc.selectivity = float64(c.Iv.Size()) / float64(size)
			}
		}
		out.conds = append(out.conds, cc)
	}
	sort.SliceStable(out.conds, func(x, y int) bool {
		return out.conds[x].selectivity < out.conds[y].selectivity
	})
	out.emit = make([]int32, len(out.conds))
	for i := range out.emit {
		out.emit[i] = int32(i)
	}
	sort.Slice(out.emit, func(x, y int) bool {
		return out.conds[out.emit[x]].attr < out.conds[out.emit[y]].attr
	})
	return out
}

// condMargins precomputes the signed ontological margin of condition
// A ≤ concept for every observed leaf of the attribute's ontology, indexed
// by leaf position: a passing leaf's margin is its up-distance to a concept
// containing the bound (specificity to spare), a failing leaf's is the
// negated up-distance the bound would need before admitting it (Equation 1),
// floored at one step. One BFS per leaf at compile time replaces one per
// categorical check per tuple at attribution time.
func condMargins(o *ontology.Ontology, concept ontology.Concept, leaves *bitset.Set) []int64 {
	out := make([]int64, len(o.Leaves()))
	for pos, leaf := range o.Leaves() {
		if leaves.Has(pos) {
			d, _ := o.UpDistance(leaf, concept)
			out[pos] = int64(d)
		} else {
			d, ok := o.UpDistance(concept, leaf)
			if !ok || d < 1 {
				d = 1
			}
			out[pos] = -int64(d)
		}
	}
	return out
}

// CompileUnder is Compile wrapped in an "index.compile" span nested under
// parent (no span when parent is the zero Span — compilation is then
// untraced and free). The capture cache and the serving daemon's publish
// path use it so rule-set compilation shows up on the same track as the
// operation that triggered it.
func CompileUnder(parent trace.Span, schema *relation.Schema, rs *rules.Set) *Evaluator {
	sp := parent.Child("index.compile")
	e := Compile(schema, rs)
	sp.Int("rules", int64(rs.Len()))
	sp.End()
	return e
}

// Add compiles rule r and appends it, returning its index — the mirror of
// rules.Set.Add for callers maintaining the evaluator incrementally.
func (e *Evaluator) Add(r *rules.Rule) int {
	e.rules = append(e.rules, e.compileRule(r))
	return len(e.rules) - 1
}

// Replace recompiles only the rule at index ri — the mirror of
// rules.Set.Replace.
func (e *Evaluator) Replace(ri int, r *rules.Rule) {
	e.rules[ri] = e.compileRule(r)
}

// Remove deletes the compiled rule at ri, preserving the order of the rest —
// the mirror of rules.Set.Remove.
func (e *Evaluator) Remove(ri int) {
	e.rules = append(e.rules[:ri], e.rules[ri+1:]...)
}

// matches reports whether transaction i satisfies the compiled rule. wc is
// the window-aggregate column table resolved once per evaluation by
// winCols (nil when the evaluator has no windowed conditions).
func (e *Evaluator) matches(cr *compiledRule, rel *relation.Relation, i int, wc [][]int64) bool {
	if cr.empty || rel.Score(i) < cr.minScore {
		return false
	}
	t := rel.Tuple(i)
	for k := range cr.conds {
		c := &cr.conds[k]
		v := t[c.attr]
		if c.isCat {
			pos := c.leafPos[v]
			if pos < 0 || !c.leaves.Has(pos) {
				return false
			}
			continue
		}
		if v < c.lo || v > c.hi {
			return false
		}
	}
	if len(cr.wins) > 0 {
		return winMatches(cr, wc, i)
	}
	return true
}

// chunkSize returns the 64-aligned chunk length parallelChunks splits n rows
// into: about n/Workers rows, rounded up to a whole bitset word.
func (e *Evaluator) chunkSize(n int) int {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const align = 64
	chunk := (n/workers + align) / align * align
	if chunk < align {
		chunk = align
	}
	return chunk
}

// parallelChunks splits [0, n) into 64-aligned chunks and runs fn over them
// on parallel workers. The 64-alignment means no two workers ever touch the
// same word of a *bitset.Set indexed by transaction, so chunk bodies may
// write per-transaction bits without synchronization.
func (e *Evaluator) parallelChunks(n int, fn func(lo, hi int)) {
	chunk := e.chunkSize(n)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Eval returns the set of transactions captured by any rule, equal to
// rules.Set.Eval on the snapshotted rule set but evaluated with compiled
// conditions on parallel workers.
func (e *Evaluator) Eval(rel *relation.Relation) *bitset.Set {
	out := bitset.New(rel.Len())
	wc := e.winCols(rel)
	e.parallelChunks(rel.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for ri := range e.rules {
				if e.matches(&e.rules[ri], rel, i, wc) {
					out.Add(i)
					break
				}
			}
		}
	})
	return out
}

// EvalUnder is Eval wrapped in an "index.eval" chunk-evaluation span nested
// under parent, carrying the row and rule counts. The zero parent Span makes
// it exactly Eval.
func (e *Evaluator) EvalUnder(parent trace.Span, rel *relation.Relation) *bitset.Set {
	sp := parent.Child("index.eval")
	out := e.Eval(rel)
	sp.Int("rows", int64(rel.Len())).Int("rules", int64(len(e.rules))).Int("chunks", int64(e.ChunkCount(rel.Len())))
	sp.End()
	return out
}

// EvalPerRuleUnder is EvalPerRule wrapped in an "index.eval_per_rule" span
// nested under parent.
func (e *Evaluator) EvalPerRuleUnder(parent trace.Span, rel *relation.Relation) []*bitset.Set {
	sp := parent.Child("index.eval_per_rule")
	out := e.EvalPerRule(rel)
	sp.Int("rows", int64(rel.Len())).Int("rules", int64(len(e.rules))).Int("chunks", int64(e.ChunkCount(rel.Len())))
	sp.End()
	return out
}

// ChunkCount reports how many 64-aligned chunks the parallel evaluations use
// over n rows (span attribution only).
func (e *Evaluator) ChunkCount(n int) int {
	chunk := e.chunkSize(n)
	return (n + chunk - 1) / chunk
}

// EvalRule evaluates only the compiled rule at ri over the relation,
// returning its capture set — the incremental-recompute primitive of the
// capture cache (one rule changed, so only one bitset must be refreshed).
func (e *Evaluator) EvalRule(ri int, rel *relation.Relation) *bitset.Set {
	out := bitset.New(rel.Len())
	cr := &e.rules[ri]
	wc := e.winCols(rel)
	e.parallelChunks(rel.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if e.matches(cr, rel, i, wc) {
				out.Add(i)
			}
		}
	})
	return out
}

// EvalPerRule returns one capture bitset per compiled rule, computed in a
// single chunk-parallel pass over the relation (cheaper than one EvalRule
// scan per rule: each tuple is loaded once and tested against
// every rule while hot). Chunks are 64-aligned, so workers write disjoint
// words of every per-rule bitset.
func (e *Evaluator) EvalPerRule(rel *relation.Relation) []*bitset.Set {
	out := make([]*bitset.Set, len(e.rules))
	for ri := range out {
		out[ri] = bitset.New(rel.Len())
	}
	wc := e.winCols(rel)
	e.parallelChunks(rel.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for ri := range e.rules {
				if e.matches(&e.rules[ri], rel, i, wc) {
					out[ri].Add(i)
				}
			}
		}
	})
	return out
}
