// Package bitset provides a fixed-size bit set used for leaf-containment
// queries in ontologies and for captured-transaction sets during rule
// evaluation. Only the operations needed by this repository are provided;
// all of them treat sets of the same length.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity zero; use New to allocate capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for n elements (0..n-1).
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the set.
func (s *Set) Len() int { return s.n }

// Add inserts i into the set. It panics if i is out of range, as indices
// come from internal tables and an out-of-range index is a programming error.
func (s *Set) Add(i int) {
	s.words[i>>6] |= 1 << uint(i&63)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.words[i>>6] &^= 1 << uint(i&63)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// UnionWith adds every element of other to s.
func (s *Set) UnionWith(other *Set) {
	for i := range other.words {
		s.words[i] |= other.words[i]
	}
}

// SymmetricDifferenceWith replaces s by s △ other: the elements in exactly
// one of the two sets. Used to enumerate only the transactions whose capture
// status changed between two rule-set versions.
func (s *Set) SymmetricDifferenceWith(other *Set) {
	for i := range other.words {
		s.words[i] ^= other.words[i]
	}
}

// SubtractWith removes every element of other from s.
func (s *Set) SubtractWith(other *Set) {
	for i := range other.words {
		s.words[i] &^= other.words[i]
	}
}

// ContainsAll reports whether other ⊆ s.
func (s *Set) ContainsAll(other *Set) bool {
	for i := range other.words {
		if other.words[i]&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and other share at least one element.
func (s *Set) Intersects(other *Set) bool {
	for i := range s.words {
		if s.words[i]&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |s ∩ other|.
func (s *Set) IntersectionCount(other *Set) int {
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] & other.words[i])
	}
	return c
}

// Equal reports whether the two sets contain exactly the same elements.
func (s *Set) Equal(other *Set) bool {
	if s.n != other.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}
