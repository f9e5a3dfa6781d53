// Package order models the totally ordered, discrete attribute domains used
// by the RUDOLF rule language: bounded integer domains with predecessor and
// successor, closed intervals, and the interval-extension distance of
// Equation 1 of the paper (Milo, Novgorodov, Tan: "Interactive Rule
// Refinement for Fraud Detection", EDBT 2018).
//
// All numeric attribute values are represented as int64 after discretization
// (minutes for time, whole dollars for amounts, counts for counters). The
// greatest element ⊤ of a domain is the full interval [Min, Max]; the least
// element ⊥ is the empty interval, which by assumption never appears as a
// tuple value.
package order

import "fmt"

// Value is a point in a discrete numeric domain.
type Value = int64

// Domain is a bounded discrete numeric domain [Min, Max] with unit step.
// The zero value is the degenerate domain [0, 0].
type Domain struct {
	Min Value
	Max Value
}

// NewDomain returns the domain [min, max]. It panics if min > max; domains
// are built from static schema declarations, so a bad bound is a programming
// error rather than a runtime condition.
func NewDomain(min, max Value) Domain {
	if min > max {
		panic(fmt.Sprintf("order: invalid domain [%d, %d]", min, max))
	}
	return Domain{Min: min, Max: max}
}

// Contains reports whether v lies within the domain bounds.
func (d Domain) Contains(v Value) bool { return d.Min <= v && v <= d.Max }

// Size returns the number of values in the domain.
func (d Domain) Size() int64 { return d.Max - d.Min + 1 }

// Full returns the interval covering the entire domain (the ⊤ element).
func (d Domain) Full() Interval { return Interval{Lo: d.Min, Hi: d.Max} }

// Prev returns the predecessor of v in the domain and whether one exists.
// It is used by the rule specialization algorithm (Algorithm 2) to split a
// condition A ∈ [b, e] into [b, prev(v)] and [succ(v), e].
func (d Domain) Prev(v Value) (Value, bool) {
	if v <= d.Min {
		return 0, false
	}
	return v - 1, true
}

// Succ returns the successor of v in the domain and whether one exists.
func (d Domain) Succ(v Value) (Value, bool) {
	if v >= d.Max {
		return 0, false
	}
	return v + 1, true
}
