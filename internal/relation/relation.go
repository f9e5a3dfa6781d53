package relation

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ontology"
)

// Label is the ground-truth annotation of a transaction.
type Label uint8

const (
	// Unlabeled transactions are assumed correct until reported otherwise.
	Unlabeled Label = iota
	// Fraud marks a transaction reported as fraudulent.
	Fraud
	// Legitimate marks a transaction verified as legitimate.
	Legitimate
)

// String returns the paper's annotation for the label.
func (l Label) String() string {
	switch l {
	case Fraud:
		return "FRAUD"
	case Legitimate:
		return "LEGITIMATE"
	default:
		return ""
	}
}

// MaxScore is the upper bound of the ML risk score range used by the paper's
// dataset (scores lie in [0, 1000]).
const MaxScore = 1000

// Tuple is one transaction: one value per schema attribute. Numeric
// attributes store domain values; categorical attributes store leaf concept
// ids of the attribute's ontology.
type Tuple []int64

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Relation is an append-only transaction relation. Tuples are kept in
// arrival (time) order; labels and risk scores are stored alongside.
type Relation struct {
	schema *Schema
	tuples []Tuple
	labels []Label
	scores []int16
	// winCols caches derived sliding-window aggregate columns for this
	// relation (an opaque *window.ColumnSet; typed any to keep the relation
	// package free of the dependency). The compiled evaluator computes and
	// stores columns here so repeated windowed evaluation — and explain-time
	// margin re-derivation — never recomputes them; the serving daemon stamps
	// live aggregates for each scored batch. Concurrent writers race benignly
	// (both store equivalent immutable column sets; last writer wins), and
	// views made by Prefix/Slice start with an empty slot, so a cached set
	// can never leak onto a relation of a different length.
	winCols atomic.Value
}

// New returns an empty relation over the schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of transactions.
func (r *Relation) Len() int { return len(r.tuples) }

// Append adds a transaction with its label and risk score and returns its
// index. It validates the tuple against the schema.
func (r *Relation) Append(t Tuple, label Label, score int16) (int, error) {
	if len(t) != r.schema.Arity() {
		return 0, fmt.Errorf("relation: tuple arity %d, schema arity %d", len(t), r.schema.Arity())
	}
	for i, v := range t {
		a := r.schema.Attr(i)
		switch a.Kind {
		case Numeric:
			if !a.Domain.Contains(v) {
				return 0, fmt.Errorf("relation: attribute %q: value %d outside domain [%d,%d]",
					a.Name, v, a.Domain.Min, a.Domain.Max)
			}
		case Categorical:
			c := ontology.Concept(v)
			if v < 0 || int(v) >= a.Ontology.Len() {
				return 0, fmt.Errorf("relation: attribute %q: invalid concept id %d", a.Name, v)
			}
			if !a.Ontology.IsLeaf(c) {
				return 0, fmt.Errorf("relation: attribute %q: value %q is not a leaf concept",
					a.Name, a.Ontology.ConceptName(c))
			}
		}
	}
	if score < 0 || score > MaxScore {
		return 0, fmt.Errorf("relation: risk score %d outside [0,%d]", score, MaxScore)
	}
	r.tuples = append(r.tuples, t)
	r.labels = append(r.labels, label)
	r.scores = append(r.scores, score)
	return len(r.tuples) - 1, nil
}

// MustAppend is Append for programmatically generated, known-valid tuples.
func (r *Relation) MustAppend(t Tuple, label Label, score int16) int {
	i, err := r.Append(t, label, score)
	if err != nil {
		panic(err)
	}
	return i
}

// Tuple returns the i-th transaction. The returned slice is shared; callers
// must not modify it.
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Label returns the ground-truth label of transaction i.
func (r *Relation) Label(i int) Label { return r.labels[i] }

// SetLabel updates the label of transaction i (transactions get reported as
// fraudulent or verified legitimate over time).
func (r *Relation) SetLabel(i int, l Label) { r.labels[i] = l }

// Score returns the ML risk score of transaction i.
func (r *Relation) Score(i int) int16 { return r.scores[i] }

// Indices returns the transaction indices with the given label, in order.
func (r *Relation) Indices(l Label) []int {
	var out []int
	for i, lab := range r.labels {
		if lab == l {
			out = append(out, i)
		}
	}
	return out
}

// Count returns the number of transactions with the given label.
func (r *Relation) Count(l Label) int {
	n := 0
	for _, lab := range r.labels {
		if lab == l {
			n++
		}
	}
	return n
}

// Prefix returns a view of the first n transactions. The view shares storage
// with the original relation; appends to the view are not allowed to keep
// sharing sound, so Prefix is only for read paths (evaluation, refinement).
func (r *Relation) Prefix(n int) *Relation {
	if n > len(r.tuples) {
		n = len(r.tuples)
	}
	return &Relation{
		schema: r.schema,
		tuples: r.tuples[:n:n],
		labels: r.labels[:n:n],
		scores: r.scores[:n:n],
	}
}

// WindowColumns returns the cached window-aggregate column set (nil when
// none has been stored). The value is opaque to this package; the window
// package defines the concrete *ColumnSet and the index evaluator checks it
// still matches its spec list before trusting it.
func (r *Relation) WindowColumns() any {
	return r.winCols.Load()
}

// SetWindowColumns stores a window-aggregate column set for reuse by later
// evaluations over this relation. Storing a new set is also the
// time-invalidation signal for caches keyed on this relation (the capture
// cache compares the stored pointer against the one it bound against).
func (r *Relation) SetWindowColumns(v any) {
	r.winCols.Store(v)
}

// FormatTuple renders a tuple for display, attribute by attribute.
func (r *Relation) FormatTuple(i int) string {
	t := r.tuples[i]
	s := ""
	for a := range t {
		if a > 0 {
			s += ", "
		}
		s += r.schema.Attr(a).Name + "=" + r.schema.FormatValue(a, t[a])
	}
	if lab := r.labels[i]; lab != Unlabeled {
		s += " [" + lab.String() + "]"
	}
	return s
}
