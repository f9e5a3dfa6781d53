// Package capture maintains Φ(I) — the set of transactions captured by a
// rule set — incrementally across rule edits. The refinement loop of the
// paper re-evaluates the full rule set over the transaction log after every
// modification (Section 5's production setting runs 100K-10M transactions
// per institute), but a single refinement step touches exactly one rule:
// a generalization replaces it, a split removes it and adds replacements,
// line 18 adds a fresh rule. Re-scanning every rule against every
// transaction for each such step is the dominant cost of a refinement round.
//
// The Cache keeps one compiled-rule capture bitset per rule plus their lazy
// running union. Binding to a (relation, rule set) pair does one parallel
// chunk-evaluated pass (see index.Evaluator); afterwards each edit
// recompiles and re-evaluates only the touched rule and refreshes the union
// with word-level ORs. The cache is always observationally equal to
// rules.Set.Eval over the bound relation — capture_test.go proves this
// differentially over randomized edit sequences.
//
// Invalidation model: the cache is bound to a relation snapshot (pointer +
// length). Stats, capture queries and rule edits against the bound relation
// are incremental; touching a different relation (or detecting a rule-set
// length drift from an unnotified mutation) triggers a full rebind.
// Windowed rules add a time dimension: a rule like COUNT(user, 10m) > 5
// captures different transactions as the window-aggregate columns stamped
// on the relation change (the serving daemon re-stamps live aggregates).
// The cache therefore also snapshots the relation's window-column pointer
// at bind time; a relation whose columns were re-stamped since no longer
// counts as bound and rebinding re-evaluates against the fresh aggregates.
package capture

import (
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/trace"
)

// Cache is an incrementally-maintained capture index of a rule set over one
// relation. The zero value (and New) is unbound: Bind it before querying.
// A Cache is not safe for concurrent mutation; the parallel work happens
// inside each call.
type Cache struct {
	rel    *relation.Relation
	relLen int
	// aux is the relation's window-aggregate column set (an opaque pointer)
	// as of the last bind or rule edit; a mismatch against the relation's
	// current one means time moved under the cache (re-stamped aggregates)
	// and the bound bitsets may be stale. Always nil for window-less setups.
	aux any
	ev  *index.Evaluator
	// bits[i] is the capture set of rule i over rel, maintained in lockstep
	// with the bound rule set's indices.
	bits []*bitset.Set
	// union caches the running Φ(I); unionOK marks it current. Additions
	// update it in place (union only grows); replacements and removals
	// invalidate it, and Union rebuilds it from the per-rule bitsets with
	// word-level ORs (no relation re-scan).
	union   *bitset.Set
	unionOK bool
	// Workers bounds evaluation parallelism; 0 means GOMAXPROCS.
	Workers int
	// Tracer, when non-nil, receives a "capture.bind" span per full rebind
	// and a "capture.invalidate" instant per wholesale invalidation —
	// exactly the expensive events a hit-ratio investigation needs. Nil
	// (the default) is free.
	Tracer *trace.Tracer

	// Operational counters (atomic, readable while another goroutine owns
	// the cache): Ensure hits, full rebinds, and explicit invalidations.
	hits        atomic.Uint64
	rebinds     atomic.Uint64
	invalidates atomic.Uint64
}

// Stats reports the cache's lifetime hit/rebind/invalidate counters: Ensure
// calls answered incrementally, Ensure calls that forced a full Bind, and
// explicit Invalidate calls. The serving daemon exports these per caller as
// rudolf_capture_cache_* metrics.
func (c *Cache) Stats() (hits, rebinds, invalidates uint64) {
	return c.hits.Load(), c.rebinds.Load(), c.invalidates.Load()
}

// New returns an unbound cache.
func New() *Cache { return &Cache{} }

// Bound reports whether the cache currently mirrors rel. Identity is the
// relation pointer plus its length plus its window-column stamp: labels may
// change between rounds (they do not affect captures), but appended
// transactions do, and so do re-stamped window aggregates (windowed rules
// capture by time, not just by value).
func (c *Cache) Bound(rel *relation.Relation) bool {
	return rel != nil && c.rel == rel && c.relLen == rel.Len() && c.aux == rel.WindowColumns()
}

// Len returns the number of rules tracked.
func (c *Cache) Len() int { return len(c.bits) }

// Invalidate unbinds the cache; the next Bind rebuilds it from scratch.
// Callers that mutated the rule set without notifying the cache must call
// this (Session's mutation helpers do it automatically on drift).
func (c *Cache) Invalidate() {
	c.invalidates.Add(1)
	c.Tracer.Instant("capture.invalidate")
	c.rel = nil
	c.relLen = 0
	c.aux = nil
	c.ev = nil
	c.bits = nil
	c.union = nil
	c.unionOK = false
}

// Bind (re)builds the cache for the rule set over rel: one compile plus one
// chunk-parallel pass producing every per-rule capture bitset.
func (c *Cache) Bind(rel *relation.Relation, rs *rules.Set) {
	sp := c.Tracer.Start("capture.bind")
	sp.Int("rows", int64(rel.Len())).Int("rules", int64(rs.Len()))
	c.rel = rel
	c.relLen = rel.Len()
	c.ev = index.CompileUnder(sp, rel.Schema(), rs)
	c.ev.Workers = c.Workers
	c.bits = c.ev.EvalPerRuleUnder(sp, rel)
	// Snapshot the window-column stamp AFTER evaluating: a windowed rule set
	// over a bare relation makes the evaluator compute and cache the columns
	// during the pass above, and that set is the one these bitsets reflect.
	c.aux = rel.WindowColumns()
	c.union = nil
	c.unionOK = false
	sp.End()
}

// Ensure makes the cache mirror (rel, rs), rebinding only when it has
// drifted — the shared check-then-bind idiom of Session.captureFor and the
// serving daemon. It reports whether a full rebind (a miss) was needed and
// maintains the hit/rebind counters read by Stats.
func (c *Cache) Ensure(rel *relation.Relation, rs *rules.Set) (rebound bool) {
	if c.Bound(rel) && c.Len() == rs.Len() {
		c.hits.Add(1)
		return false
	}
	c.rebinds.Add(1)
	c.Bind(rel, rs)
	return true
}

// RuleAdded appends rule r (which the caller just appended to the rule set):
// it is compiled and evaluated alone. The running union is updated in place
// when current, since an addition can only grow Φ(I).
func (c *Cache) RuleAdded(r *rules.Rule) {
	if c.rel == nil {
		return
	}
	ri := c.ev.Add(r)
	b := c.ev.EvalRule(ri, c.rel)
	// A windowed rule bringing new specs re-stamps the relation's columns;
	// adopt the fresh stamp so the next Bound check doesn't force a rebind.
	c.aux = c.rel.WindowColumns()
	c.bits = append(c.bits, b)
	if c.unionOK {
		c.union.UnionWith(b)
	}
}

// RuleReplaced recompiles and re-evaluates only rule i, which the caller
// just replaced in the rule set.
func (c *Cache) RuleReplaced(i int, r *rules.Rule) {
	if c.rel == nil {
		return
	}
	c.ev.Replace(i, r)
	c.bits[i] = c.ev.EvalRule(i, c.rel)
	c.aux = c.rel.WindowColumns()
	c.union = nil
	c.unionOK = false
}

// RuleRemoved drops rule i's bitset, mirroring rules.Set.Remove.
func (c *Cache) RuleRemoved(i int) {
	if c.rel == nil {
		return
	}
	c.ev.Remove(i)
	c.bits = append(c.bits[:i], c.bits[i+1:]...)
	c.union = nil
	c.unionOK = false
}

// Union returns Φ(I) over the bound relation — always equal to
// rules.Set.Eval(rel) for the mirrored rule set. The returned set is owned
// by the cache and valid until the next mutation; callers must treat it as
// read-only (Clone for a private copy).
func (c *Cache) Union() *bitset.Set {
	if !c.unionOK {
		u := bitset.New(c.relLen)
		for _, b := range c.bits {
			u.UnionWith(b)
		}
		c.union = u
		c.unionOK = true
	}
	return c.union
}

// UnionExcept returns the union of every rule's captures except rule skip —
// the "covered by others" set of Algorithm 2's split-benefit computation.
// The returned set is freshly allocated.
func (c *Cache) UnionExcept(skip int) *bitset.Set {
	out := bitset.New(c.relLen)
	for i, b := range c.bits {
		if i == skip {
			continue
		}
		out.UnionWith(b)
	}
	return out
}

// RuleCaptures returns the capture set of rule i. Owned by the cache;
// callers must treat it as read-only.
func (c *Cache) RuleCaptures(i int) *bitset.Set { return c.bits[i] }

// Captured reports whether transaction i is captured by any rule.
func (c *Cache) Captured(i int) bool { return c.Union().Has(i) }

// CapturingRulesAt returns the indices of the rules capturing transaction i
// (the Ω_l set of Algorithm 2), read off the per-rule bitsets in O(rules)
// bit probes instead of O(rules × arity) condition checks.
func (c *Cache) CapturingRulesAt(i int) []int {
	var out []int
	for ri, b := range c.bits {
		if b.Has(i) {
			out = append(out, ri)
		}
	}
	return out
}
