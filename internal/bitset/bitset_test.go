package bitset

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Errorf("fresh set Has(%d)", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Errorf("after Add, !Has(%d)", i)
		}
	}
	s.Remove(64)
	if s.Has(64) {
		t.Error("after Remove(64), Has(64)")
	}
	if s.Has(-1) || s.Has(130) {
		t.Error("out-of-range Has should be false")
	}
}

func TestCountAndIsEmpty(t *testing.T) {
	s := New(100)
	if !s.IsEmpty() || s.Count() != 0 {
		t.Error("new set not empty")
	}
	for i := 0; i < 100; i += 3 {
		s.Add(i)
	}
	if s.Count() != 34 {
		t.Errorf("Count = %d, want 34", s.Count())
	}
	if s.IsEmpty() {
		t.Error("nonempty set reported empty")
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := New(200), New(200)
	for i := 0; i < 100; i++ {
		a.Add(i)
	}
	for i := 50; i < 150; i++ {
		b.Add(i)
	}
	u := a.Clone()
	u.UnionWith(b)
	if u.Count() != 150 {
		t.Errorf("union count = %d, want 150", u.Count())
	}
	diff := a.Clone()
	diff.SubtractWith(b)
	if diff.Count() != 50 || diff.Has(50) || !diff.Has(49) {
		t.Errorf("difference wrong: count=%d", diff.Count())
	}
	if !u.ContainsAll(a) || !u.ContainsAll(b) || a.ContainsAll(b) {
		t.Error("ContainsAll wrong")
	}
	if !a.Intersects(b) {
		t.Error("a and b should intersect")
	}
	if got := a.IntersectionCount(b); got != 50 {
		t.Errorf("IntersectionCount = %d, want 50", got)
	}
	empty := New(200)
	if empty.Intersects(a) {
		t.Error("empty set intersects")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(70), New(70)
	a.Add(5)
	b.Add(5)
	if !a.Equal(b) {
		t.Error("equal sets unequal")
	}
	b.Add(6)
	if a.Equal(b) {
		t.Error("unequal sets equal")
	}
	if a.Equal(New(71)) {
		t.Error("sets of different capacity equal")
	}
}

// elems lists the members of s in the order ForEach visits them.
func elems(s *Set) []int {
	var out []int
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// TestElemsAndForEach: ForEach visits exactly the elements, ascending.
func TestElemsAndForEach(t *testing.T) {
	s := New(300)
	want := []int{0, 63, 64, 200, 299}
	for _, i := range want {
		s.Add(i)
	}
	if got := elems(s); !slices.Equal(got, want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
}

// Property: Clone is independent and ForEach round-trips membership.
func TestCloneIndependence(t *testing.T) {
	f := func(elems []uint16) bool {
		s := New(1 << 16)
		for _, e := range elems {
			s.Add(int(e))
		}
		c := s.Clone()
		c.Add(0)
		c.Remove(1)
		s2 := New(1 << 16)
		s.ForEach(s2.Add)
		return s.Equal(s2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: |A ∪ B| + |A ∩ B| = |A| + |B|.
func TestInclusionExclusion(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		u := a.Clone()
		u.UnionWith(b)
		return u.Count()+a.IntersectionCount(b) == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSymmetricDifference pins the word-level XOR used by the cost deltas to
// enumerate only the transactions whose capture status changed.
func TestSymmetricDifference(t *testing.T) {
	a, b := New(300), New(300)
	for _, i := range []int{0, 63, 64, 200} {
		a.Add(i)
	}
	for _, i := range []int{63, 64, 128, 299} {
		b.Add(i)
	}
	d := a.Clone()
	d.SymmetricDifferenceWith(b)
	want := []int{0, 128, 200, 299}
	if got := elems(d); !slices.Equal(got, want) {
		t.Fatalf("A △ B = %v, want %v", got, want)
	}
	// Self-difference is empty, and the other operand is untouched.
	d.SymmetricDifferenceWith(d)
	if !d.IsEmpty() {
		t.Error("A △ A not empty")
	}
	if b.Count() != 4 {
		t.Error("operand mutated")
	}
}

// Property: i ∈ A △ B ⇔ (i ∈ A) xor (i ∈ B), via the identity
// A △ B = (A \ B) ∪ (B \ A).
func TestSymmetricDifferenceProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		d := a.Clone()
		d.SymmetricDifferenceWith(b)
		aOnly, bOnly := a.Clone(), b.Clone()
		aOnly.SubtractWith(b)
		bOnly.SubtractWith(a)
		aOnly.UnionWith(bOnly)
		return d.Equal(aOnly)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
