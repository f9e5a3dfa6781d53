// Package ontology implements the concept hierarchies (partial orders) that
// RUDOLF uses for categorical attributes: containment of concepts, the
// ontological distance of Equation 1, minimal semantic generalization of a
// rule condition, least covering concepts for representative tuples, and the
// greedy concept covers used by the rule specialization algorithm.
//
// Hierarchies are DAGs, not just trees: the paper's transaction-type example
// needs cross-cutting concepts (such as "No code" covering both "Online, no
// CCV" and "Offline, without PIN") for its published ontological distances to
// hold. Containment is semantic: concept a contains concept b exactly when
// every leaf under b is also under a. Tuple values are always leaf concepts.
package ontology

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
)

// Concept identifies a node of an Ontology. Concepts are only meaningful
// together with the ontology that produced them.
type Concept int32

// Invalid is the zero-meaning concept returned alongside failed lookups.
const Invalid Concept = -1

type node struct {
	name     string
	parents  []Concept
	children []Concept
	leaves   *bitset.Set // leaf indices under (or equal to) this node
	depth    int         // length of the shortest parent chain to ⊤
}

// Ontology is an immutable concept DAG with a single greatest element ⊤.
// Build one with a Builder.
type Ontology struct {
	name      string
	nodes     []node
	byName    map[string]Concept
	top       Concept
	leaves    []Concept       // all leaves in id order
	leafIndex map[Concept]int // leaf concept → bit position
	maxDepth  int
}

// MaxDepth returns the largest depth of any concept: the length of the
// longest shortest-chain from ⊤ to a node. It bounds every up-distance and
// is used to normalize categorical distances for clustering.
func (o *Ontology) MaxDepth() int { return o.maxDepth }

// Name returns the ontology's name (e.g. "location").
func (o *Ontology) Name() string { return o.name }

// Len returns the number of concepts, including ⊤.
func (o *Ontology) Len() int { return len(o.nodes) }

// Top returns the greatest element ⊤ of the partial order.
func (o *Ontology) Top() Concept { return o.top }

// ConceptName returns the name of c.
func (o *Ontology) ConceptName(c Concept) string {
	if c == Invalid {
		return "⊥"
	}
	return o.nodes[c].name
}

// Lookup returns the concept with the given name.
func (o *Ontology) Lookup(name string) (Concept, bool) {
	c, ok := o.byName[name]
	return c, ok
}

// MustLookup is Lookup for names known to exist (test and builder code);
// it panics on a missing name.
func (o *Ontology) MustLookup(name string) Concept {
	c, ok := o.byName[name]
	if !ok {
		panic(fmt.Sprintf("ontology %s: unknown concept %q", o.name, name))
	}
	return c
}

// Children returns the direct children of c in the DAG.
func (o *Ontology) Children(c Concept) []Concept { return o.nodes[c].children }

// Depth returns the length of the shortest chain from ⊤ down to c.
func (o *Ontology) Depth(c Concept) int { return o.nodes[c].depth }

// IsLeaf reports whether c has no children. Tuple values are leaves.
func (o *Ontology) IsLeaf(c Concept) bool { return len(o.nodes[c].children) == 0 }

// Leaves returns all leaf concepts in id order. The slice is shared; callers
// must not modify it.
func (o *Ontology) Leaves() []Concept { return o.leaves }

// LeafCount returns the number of leaves under (or equal to) c.
func (o *Ontology) LeafCount(c Concept) int {
	if c == Invalid {
		return 0
	}
	return o.nodes[c].leaves.Count()
}

// LeavesUnder returns the leaf concepts under (or equal to) c.
func (o *Ontology) LeavesUnder(c Concept) []Concept {
	if c == Invalid {
		return nil
	}
	var out []Concept
	o.nodes[c].leaves.ForEach(func(i int) { out = append(out, o.leaves[i]) })
	return out
}

// LeafSet returns a copy of the set of leaf positions under (or equal to)
// c; positions index the Leaves() slice. Used by the fast evaluator to test
// leaf membership with one bit probe.
func (o *Ontology) LeafSet(c Concept) *bitset.Set {
	if c == Invalid {
		return bitset.New(len(o.leaves))
	}
	return o.nodes[c].leaves.Clone()
}

// LeafPos returns the position of leaf concept c within leaf sets.
func (o *Ontology) LeafPos(c Concept) (int, bool) {
	p, ok := o.leafIndex[c]
	return p, ok
}

// Contains reports whether a ≥ b in the partial order, i.e. every leaf under
// b is also under a. By convention every concept contains Invalid (⊥).
func (o *Ontology) Contains(a, b Concept) bool {
	if b == Invalid {
		return true
	}
	if a == Invalid {
		return false
	}
	return o.nodes[a].leaves.ContainsAll(o.nodes[b].leaves)
}

// UpDistance returns the ontological distance of Equation 1: the length of
// the shortest parent chain from `from` to a concept that contains target.
// The distance is 0 when `from` already contains target. The boolean result
// is false only for the Invalid concept combinations that have no chain.
func (o *Ontology) UpDistance(from, target Concept) (int, bool) {
	c, d := o.MinimalGeneralization(from, target)
	return d, c != Invalid
}

// MinimalGeneralization returns the concept reached by the shortest parent
// chain from `from` that contains target, together with the chain length.
// When several concepts at the same (minimal) distance qualify, the one
// covering the fewest leaves is chosen, with the smallest id as the final
// tie-break, so the generalization stays as specific as possible and the
// result is deterministic. Generalizing from Invalid (an absent condition is
// never represented this way, but representatives of empty clusters can be)
// yields the target itself at distance equal to its leaf count.
func (o *Ontology) MinimalGeneralization(from, target Concept) (Concept, int) {
	if target == Invalid {
		return from, 0
	}
	if from == Invalid {
		return target, o.LeafCount(target)
	}
	if o.Contains(from, target) {
		return from, 0
	}
	// Breadth-first search over parent edges.
	seen := make(map[Concept]bool, 16)
	frontier := []Concept{from}
	seen[from] = true
	for dist := 1; len(frontier) > 0; dist++ {
		var next []Concept
		best := Invalid
		for _, c := range frontier {
			for _, p := range o.nodes[c].parents {
				if seen[p] {
					continue
				}
				seen[p] = true
				next = append(next, p)
				if o.Contains(p, target) {
					if best == Invalid || o.better(p, best) {
						best = p
					}
				}
			}
		}
		if best != Invalid {
			return best, dist
		}
		frontier = next
	}
	return Invalid, 0 // unreachable in a well-formed ontology: ⊤ contains everything
}

// better reports whether candidate a should be preferred over b when both
// are at the same BFS distance: fewer leaves first, then smaller id.
func (o *Ontology) better(a, b Concept) bool {
	la, lb := o.LeafCount(a), o.LeafCount(b)
	if la != lb {
		return la < lb
	}
	return a < b
}

// LeastCover returns the concept with the fewest leaves that contains every
// concept in cs (the "smallest" covering concept used for representative
// tuples). Ties are broken by greater depth and then by smaller id. It
// returns Invalid for an empty input.
func (o *Ontology) LeastCover(cs []Concept) Concept {
	if len(cs) == 0 {
		return Invalid
	}
	need := o.nodes[cs[0]].leaves.Clone()
	for _, c := range cs[1:] {
		need.UnionWith(o.nodes[c].leaves)
	}
	best := Invalid
	for id := range o.nodes {
		c := Concept(id)
		if !o.nodes[c].leaves.ContainsAll(need) {
			continue
		}
		if best == Invalid {
			best = c
			continue
		}
		lc, lb := o.LeafCount(c), o.LeafCount(best)
		switch {
		case lc < lb:
			best = c
		case lc == lb && o.nodes[c].depth > o.nodes[best].depth:
			best = c
		case lc == lb && o.nodes[c].depth == o.nodes[best].depth && c < best:
			best = c
		}
	}
	return best
}

// CoverExcluding computes the concept cover used by the specialization
// algorithm: a set of concepts that together contain every leaf under
// `under` except those under `exclude`, while no chosen concept contains any
// excluded leaf. The greedy heuristic repeatedly picks the concept covering
// the most uncovered leaves (ties: fewer total leaves, then smaller id),
// mirroring the greedy minimum set cover strategy described in Section 4.2.
// The result is empty when every leaf under `under` is excluded.
func (o *Ontology) CoverExcluding(under, exclude Concept) []Concept {
	need := o.nodes[under].leaves.Clone()
	if exclude != Invalid {
		need.SubtractWith(o.nodes[exclude].leaves)
	}
	var cover []Concept
	for !need.IsEmpty() {
		best, bestGain := Invalid, 0
		for id := range o.nodes {
			c := Concept(id)
			cl := o.nodes[c].leaves
			if !o.nodes[under].leaves.ContainsAll(cl) {
				continue // candidate must stay within the original condition
			}
			if exclude != Invalid && cl.Intersects(o.nodes[exclude].leaves) {
				continue // candidate must not reintroduce an excluded leaf
			}
			gain := need.IntersectionCount(cl)
			if gain == 0 {
				continue
			}
			if best == Invalid || gain > bestGain ||
				(gain == bestGain && o.better(c, best)) {
				best, bestGain = c, gain
			}
		}
		if best == Invalid {
			break // cannot happen: every leaf covers itself
		}
		cover = append(cover, best)
		need.SubtractWith(o.nodes[best].leaves)
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i] < cover[j] })
	return cover
}
