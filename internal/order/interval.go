package order

import "fmt"

// Interval is a closed interval [Lo, Hi] over a discrete numeric domain.
// An interval with Lo > Hi is empty and plays the role of the ⊥ element.
type Interval struct {
	Lo Value
	Hi Value
}

// Point returns the degenerate interval [v, v].
func Point(v Value) Interval { return Interval{Lo: v, Hi: v} }

// Empty returns a canonical empty interval.
func Empty() Interval { return Interval{Lo: 1, Hi: 0} }

// IsEmpty reports whether the interval contains no values.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// Size returns the number of values in the interval (0 when empty).
func (iv Interval) Size() int64 {
	if iv.IsEmpty() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v Value) bool { return iv.Lo <= v && v <= iv.Hi }

// ContainsInterval reports whether other ⊆ iv. The empty interval is
// contained in every interval.
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.IsEmpty() {
		return true
	}
	return iv.Lo <= other.Lo && other.Hi <= iv.Hi
}

// Equal reports whether the two intervals denote the same set of values.
// All empty intervals are equal to each other.
func (iv Interval) Equal(other Interval) bool {
	if iv.IsEmpty() || other.IsEmpty() {
		return iv.IsEmpty() && other.IsEmpty()
	}
	return iv == other
}

// Intersect returns the intersection of the two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if other.Lo > lo {
		lo = other.Lo
	}
	if other.Hi < hi {
		hi = other.Hi
	}
	if lo > hi {
		return Empty()
	}
	return Interval{Lo: lo, Hi: hi}
}

// Overlaps reports whether the two intervals share at least one value.
func (iv Interval) Overlaps(other Interval) bool {
	return !iv.Intersect(other).IsEmpty()
}

// Cover returns the smallest interval containing both iv and other. Covering
// with an empty interval returns the other interval unchanged.
func (iv Interval) Cover(other Interval) Interval {
	if iv.IsEmpty() {
		return other
	}
	if other.IsEmpty() {
		return iv
	}
	lo, hi := iv.Lo, iv.Hi
	if other.Lo < lo {
		lo = other.Lo
	}
	if other.Hi > hi {
		hi = other.Hi
	}
	return Interval{Lo: lo, Hi: hi}
}

// ExtensionDistance implements the interval distance of Equation 1: the sum
// of sizes of the smallest interval(s) that must be added to iv (the rule's
// condition) so that it contains target (the representative tuple's value
// range). For example |[1,5] − [5,100]| = 4, |[1,100] − [1,5]| = 95 and
// |[5,10] − [1,100]| = 0, matching the paper's examples (the paper writes the
// distance as |target − rule|).
//
// Extending an empty condition to a non-empty target costs the full size of
// the target.
func (iv Interval) ExtensionDistance(target Interval) int64 {
	if target.IsEmpty() {
		return 0
	}
	if iv.IsEmpty() {
		return target.Size()
	}
	var d int64
	if target.Lo < iv.Lo {
		d += iv.Lo - target.Lo
	}
	if target.Hi > iv.Hi {
		d += target.Hi - iv.Hi
	}
	return d
}

// Extend returns the smallest interval that contains both iv and target:
// the minimal generalization of the condition iv needed to capture target.
func (iv Interval) Extend(target Interval) Interval { return iv.Cover(target) }

// SplitAround removes the single value v from the interval, returning the
// (possibly empty) left part [Lo, v-1] and right part [v+1, Hi] restricted to
// the domain d. This is the numeric split of Algorithm 2, using prev(v) and
// succ(v) of the attribute's domain.
func (iv Interval) SplitAround(d Domain, v Value) (left, right Interval) {
	left, right = Empty(), Empty()
	if !iv.Contains(v) {
		return iv, Empty()
	}
	if p, ok := d.Prev(v); ok && p >= iv.Lo {
		left = Interval{Lo: iv.Lo, Hi: p}
	}
	if s, ok := d.Succ(v); ok && s <= iv.Hi {
		right = Interval{Lo: s, Hi: iv.Hi}
	}
	return left, right
}

// String renders the interval in the paper's notation.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "⊥"
	}
	if iv.Lo == iv.Hi {
		return fmt.Sprintf("[%d]", iv.Lo)
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}
