package ontology

import (
	"math/rand"
	"testing"
)

// geo returns a small geographic ontology mirroring the paper's example
// (Gas Station A and B under Gas Station).
func geo(t *testing.T) *Ontology {
	t.Helper()
	o, err := NewBuilder("location").
		Add("World").
		Add("Gas Station", "World").
		Add("Retail", "World").
		Add("Gas Station A", "Gas Station").
		Add("Gas Station B", "Gas Station").
		Add("Online Store", "Retail").
		Add("Supermarket", "Retail").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("x").Build(); err == nil {
		t.Error("empty ontology should fail")
	}
	if _, err := NewBuilder("x").Add("root").Add("root", "root").Build(); err == nil {
		t.Error("duplicate concept should fail")
	}
	if _, err := NewBuilder("x").Add("root").Add("a", "nope").Build(); err == nil {
		t.Error("unknown parent should fail")
	}
	if _, err := NewBuilder("x").Add("root", "ghost").Build(); err == nil {
		t.Error("root with parent should fail")
	}
	if _, err := NewBuilder("x").Add("root").Add("orphan").Build(); err == nil {
		t.Error("non-root without parent should fail")
	}
}

func TestBasicAccessors(t *testing.T) {
	o := geo(t)
	if o.Name() != "location" {
		t.Errorf("Name = %q", o.Name())
	}
	if o.Len() != 7 {
		t.Errorf("Len = %d, want 7", o.Len())
	}
	top := o.Top()
	if o.ConceptName(top) != "World" {
		t.Errorf("top = %q", o.ConceptName(top))
	}
	if o.ConceptName(Invalid) != "⊥" {
		t.Errorf("ConceptName(Invalid) = %q", o.ConceptName(Invalid))
	}
	gs := o.MustLookup("Gas Station")
	if o.Depth(gs) != 1 || o.Depth(o.MustLookup("Gas Station A")) != 2 || o.Depth(top) != 0 {
		t.Error("depths wrong")
	}
	if _, ok := o.Lookup("Mars"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	if len(o.Leaves()) != 4 {
		t.Errorf("Leaves = %d, want 4", len(o.Leaves()))
	}
	if !o.IsLeaf(o.MustLookup("Supermarket")) || o.IsLeaf(gs) {
		t.Error("IsLeaf wrong")
	}
	if got := o.LeafCount(gs); got != 2 {
		t.Errorf("LeafCount(Gas Station) = %d, want 2", got)
	}
	if got := o.LeafCount(Invalid); got != 0 {
		t.Errorf("LeafCount(Invalid) = %d, want 0", got)
	}
	if got := len(o.LeavesUnder(top)); got != 4 {
		t.Errorf("LeavesUnder(top) = %d, want 4", got)
	}
	if o.LeavesUnder(Invalid) != nil {
		t.Error("LeavesUnder(Invalid) should be nil")
	}
}

func TestMustLookupPanics(t *testing.T) {
	o := geo(t)
	defer func() {
		if recover() == nil {
			t.Error("MustLookup of unknown concept did not panic")
		}
	}()
	o.MustLookup("Atlantis")
}

func TestContains(t *testing.T) {
	o := geo(t)
	top, gs := o.Top(), o.MustLookup("Gas Station")
	a, b := o.MustLookup("Gas Station A"), o.MustLookup("Gas Station B")
	shop := o.MustLookup("Online Store")
	for _, tc := range []struct {
		x, y Concept
		want bool
	}{
		{top, gs, true}, {top, a, true}, {gs, a, true}, {gs, b, true},
		{gs, shop, false}, {a, gs, false}, {a, b, false}, {a, a, true},
		{gs, Invalid, true}, {Invalid, a, false},
	} {
		if got := o.Contains(tc.x, tc.y); got != tc.want {
			t.Errorf("Contains(%s, %s) = %v, want %v",
				o.ConceptName(tc.x), o.ConceptName(tc.y), got, tc.want)
		}
	}
}

// TestPaperOntologicalDistances verifies the two worked distances of
// Section 4.1: |Offline with PIN − Online with CCV| = 1 (via the
// cross-cutting "With code" concept) and |Offline without PIN − Online with
// CCV| = 2 (only ⊤ contains both).
func TestPaperOntologicalDistances(t *testing.T) {
	o := PaperTypeOntology()
	from := o.MustLookup("Online, with CCV")
	if d, ok := o.UpDistance(from, o.MustLookup("Offline, with PIN")); !ok || d != 1 {
		t.Errorf("|Offline with PIN − Online with CCV| = %d, want 1", d)
	}
	if d, ok := o.UpDistance(from, o.MustLookup("Offline, without PIN")); !ok || d != 2 {
		t.Errorf("|Offline without PIN − Online with CCV| = %d, want 2", d)
	}
}

func TestGasStationDistance(t *testing.T) {
	o := geo(t)
	a, b := o.MustLookup("Gas Station A"), o.MustLookup("Gas Station B")
	if d, ok := o.UpDistance(a, b); !ok || d != 1 {
		t.Errorf("|Gas Station B − Gas Station A| = %d, want 1 (paper Example 4.4)", d)
	}
	if d, _ := o.UpDistance(a, a); d != 0 {
		t.Errorf("distance to self = %d, want 0", d)
	}
	if d, _ := o.UpDistance(a, o.MustLookup("Online Store")); d != 2 {
		t.Errorf("|Online Store − Gas Station A| = %d, want 2", d)
	}
}

func TestMinimalGeneralization(t *testing.T) {
	o := geo(t)
	a, b := o.MustLookup("Gas Station A"), o.MustLookup("Gas Station B")
	g, d := o.MinimalGeneralization(a, b)
	if o.ConceptName(g) != "Gas Station" || d != 1 {
		t.Errorf("MinimalGeneralization(A, B) = %s,%d want Gas Station,1", o.ConceptName(g), d)
	}
	// Already containing: no change.
	gs := o.MustLookup("Gas Station")
	g, d = o.MinimalGeneralization(gs, a)
	if g != gs || d != 0 {
		t.Errorf("MinimalGeneralization(GS, A) = %s,%d want Gas Station,0", o.ConceptName(g), d)
	}
	// Invalid target: unchanged.
	g, d = o.MinimalGeneralization(a, Invalid)
	if g != a || d != 0 {
		t.Error("generalizing to ⊥ should be a no-op")
	}
	// From Invalid: returns target.
	g, _ = o.MinimalGeneralization(Invalid, b)
	if g != b {
		t.Error("generalizing from ⊥ should return target")
	}
}

// TestMinimalGeneralizationPrefersFewerLeaves ensures that among concepts at
// the same up-distance the most specific (fewest leaves) is chosen: in the
// paper type DAG, generalizing "Online, with CCV" to capture "Offline, with
// PIN" must pick "With code" (2 leaves) over "Any" even though "Any" is not
// yet reachable at distance 1 — and over any same-level wider node.
func TestMinimalGeneralizationPrefersFewerLeaves(t *testing.T) {
	o := PaperTypeOntology()
	g, d := o.MinimalGeneralization(o.MustLookup("Online, with CCV"), o.MustLookup("Offline, with PIN"))
	if o.ConceptName(g) != "With code" || d != 1 {
		t.Errorf("got %s,%d want 'With code',1", o.ConceptName(g), d)
	}
}

func TestLeastCover(t *testing.T) {
	o := geo(t)
	a, b := o.MustLookup("Gas Station A"), o.MustLookup("Gas Station B")
	shop := o.MustLookup("Online Store")
	if got := o.LeastCover([]Concept{a, b}); o.ConceptName(got) != "Gas Station" {
		t.Errorf("LeastCover(A,B) = %s, want Gas Station", o.ConceptName(got))
	}
	if got := o.LeastCover([]Concept{a, shop}); o.ConceptName(got) != "World" {
		t.Errorf("LeastCover(A,Online Store) = %s, want World", o.ConceptName(got))
	}
	if got := o.LeastCover([]Concept{a}); got != a {
		t.Errorf("LeastCover(A) = %s, want Gas Station A itself", o.ConceptName(got))
	}
	if got := o.LeastCover(nil); got != Invalid {
		t.Error("LeastCover(nil) should be Invalid")
	}
}

// TestCoverExcludingPaperExample reproduces Example 4.7: excluding
// "Online, with CCV" from ⊤ must yield the cover {Offline, Online, no CCV}.
func TestCoverExcludingPaperExample(t *testing.T) {
	o := PaperTypeOntology()
	cover := o.CoverExcluding(o.Top(), o.MustLookup("Online, with CCV"))
	names := make(map[string]bool)
	for _, c := range cover {
		names[o.ConceptName(c)] = true
	}
	if len(cover) != 2 || !names["Offline"] || !names["Online, no CCV"] {
		t.Errorf("cover = %v, want {Offline, Online, no CCV}", names)
	}
}

func TestCoverExcludingWithinConcept(t *testing.T) {
	o := geo(t)
	gs := o.MustLookup("Gas Station")
	cover := o.CoverExcluding(gs, o.MustLookup("Gas Station A"))
	if len(cover) != 1 || o.ConceptName(cover[0]) != "Gas Station B" {
		t.Errorf("cover = %v", cover)
	}
	// Excluding everything leaves nothing to cover.
	if got := o.CoverExcluding(gs, gs); len(got) != 0 {
		t.Errorf("cover of nothing = %v", got)
	}
	// Excluding nothing covers with the concept itself.
	cover = o.CoverExcluding(gs, Invalid)
	if len(cover) != 1 || cover[0] != gs {
		t.Errorf("cover excluding ⊥ = %v, want the concept itself", cover)
	}
}

// TestAncestors pins the concepts strictly containing a leaf of the
// paper's type ontology, and that nothing strictly contains the top.
func TestAncestors(t *testing.T) {
	o := PaperTypeOntology()
	ancestors := func(c Concept) map[string]bool {
		names := make(map[string]bool)
		for a := Concept(0); int(a) < o.Len(); a++ {
			if a != c && o.Contains(a, c) {
				names[o.ConceptName(a)] = true
			}
		}
		return names
	}
	names := ancestors(o.MustLookup("Online, no CCV"))
	if len(names) != 3 || !names["Online"] || !names["No code"] || !names["Any"] {
		t.Errorf("ancestors = %v", names)
	}
	if got := ancestors(o.Top()); len(got) != 0 {
		t.Errorf("ancestors(top) = %v, want empty", got)
	}
}

// randomOntology builds a random layered DAG for property testing.
func randomOntology(rng *rand.Rand) *Ontology {
	b := NewBuilder("rand").Add("c0")
	names := []string{"c0"}
	n := 2 + rng.Intn(30)
	for i := 1; i <= n; i++ {
		name := "c" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		nparents := 1 + rng.Intn(2)
		if nparents > len(names) {
			nparents = len(names)
		}
		seen := map[string]bool{}
		var parents []string
		for len(parents) < nparents {
			p := names[rng.Intn(len(names))]
			if !seen[p] {
				seen[p] = true
				parents = append(parents, p)
			}
		}
		b.Add(name, parents...)
		names = append(names, name)
	}
	return b.MustBuild()
}

// Property: containment is reflexive and transitive; parents contain
// children; ⊤ contains everything; minimal generalization contains both
// endpoints and has distance 0 exactly on containment.
func TestOntologyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		o := randomOntology(rng)
		top := o.Top()
		for id := 0; id < o.Len(); id++ {
			c := Concept(id)
			if !o.Contains(c, c) {
				t.Fatalf("trial %d: Contains not reflexive at %s", trial, o.ConceptName(c))
			}
			if !o.Contains(top, c) {
				t.Fatalf("trial %d: top does not contain %s", trial, o.ConceptName(c))
			}
			for _, ch := range o.Children(c) {
				if !o.Contains(c, ch) {
					t.Fatalf("trial %d: parent does not contain child", trial)
				}
			}
		}
		for trial2 := 0; trial2 < 20; trial2++ {
			x := Concept(rng.Intn(o.Len()))
			y := Concept(rng.Intn(o.Len()))
			g, d := o.MinimalGeneralization(x, y)
			if g == Invalid {
				t.Fatalf("trial %d: no generalization of %s to cover %s", trial, o.ConceptName(x), o.ConceptName(y))
			}
			if !o.Contains(g, y) || !o.Contains(g, x) {
				t.Fatalf("trial %d: generalization does not contain endpoints", trial)
			}
			if (d == 0) != o.Contains(x, y) {
				t.Fatalf("trial %d: distance-0 mismatch", trial)
			}
		}
	}
}

// Property: CoverExcluding covers exactly the non-excluded leaves and never
// a concept containing an excluded leaf.
func TestCoverExcludingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		o := randomOntology(rng)
		under := Concept(rng.Intn(o.Len()))
		leavesUnder := o.LeavesUnder(under)
		if len(leavesUnder) == 0 {
			continue
		}
		exclude := leavesUnder[rng.Intn(len(leavesUnder))]
		cover := o.CoverExcluding(under, exclude)
		covered := map[Concept]bool{}
		for _, c := range cover {
			if o.Contains(c, exclude) {
				t.Fatalf("trial %d: cover concept %s contains excluded leaf", trial, o.ConceptName(c))
			}
			if !o.Contains(under, c) {
				t.Fatalf("trial %d: cover concept %s escapes %s", trial, o.ConceptName(c), o.ConceptName(under))
			}
			for _, l := range o.LeavesUnder(c) {
				covered[l] = true
			}
		}
		for _, l := range leavesUnder {
			if l == exclude {
				continue
			}
			if !covered[l] {
				t.Fatalf("trial %d: leaf %s not covered", trial, o.ConceptName(l))
			}
		}
	}
}

// Property: LeastCover yields a concept with minimal leaf count among all
// concepts containing the inputs.
func TestLeastCoverMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		o := randomOntology(rng)
		k := 1 + rng.Intn(3)
		var cs []Concept
		for i := 0; i < k; i++ {
			cs = append(cs, Concept(rng.Intn(o.Len())))
		}
		got := o.LeastCover(cs)
		for _, c := range cs {
			if !o.Contains(got, c) {
				t.Fatalf("trial %d: LeastCover does not contain input", trial)
			}
		}
		for id := 0; id < o.Len(); id++ {
			cand := Concept(id)
			all := true
			for _, c := range cs {
				if !o.Contains(cand, c) {
					all = false
					break
				}
			}
			if all && o.LeafCount(cand) < o.LeafCount(got) {
				t.Fatalf("trial %d: found smaller cover %s (%d leaves) than %s (%d)",
					trial, o.ConceptName(cand), o.LeafCount(cand), o.ConceptName(got), o.LeafCount(got))
			}
		}
	}
}
