// Package trace is a stdlib-only, low-overhead span tracer for the
// refinement hot path. The paper's evaluation is entirely about where the
// interactive loop spends its effort — expert questions asked, modifications
// applied, cost accrued per round — and a production rule-management system
// needs the same story live: every refinement round, expert query, capture
// rebind and scoring request attributable and exportable.
//
// Design:
//
//   - A Tracer owns a fixed-capacity ring buffer of completed span Records.
//     Span-ID allocation is a single atomic fetch-add; finishing a span
//     copies one fixed-size Record into the ring under a short mutex (the
//     record is plain data — no allocation, no I/O). On overflow the oldest
//     records are overwritten and counted (Dropped), never blocking the
//     hot path.
//   - Spans are hierarchical: Child spans carry their parent's ID and
//     inherit its Track (the Chrome-trace tid), so one request or one
//     refinement session renders as one nested track in Perfetto.
//   - Attrs are typed key/values stored inline in a fixed array (MaxAttrs);
//     setting more drops the surplus and counts it. No maps, no interfaces
//     on the hot path.
//   - A nil *Tracer is fully supported and free: every method is
//     nil-receiver-safe, Start returns the zero Span, and every Span method
//     no-ops on the zero value without allocating (BenchmarkNilTracer
//     proves 0 allocs/op). Library code therefore threads an optional
//     tracer unconditionally.
//
// Completed spans are read back with Snapshot and exported as JSONL
// (WriteJSONL) or the Chrome trace_event format (WriteChrome) loadable in
// chrome://tracing and Perfetto. See DESIGN.md §10.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// MaxAttrs is the number of attributes stored inline per span. Attributes
// set beyond the limit are dropped (and counted by the tracer) so the ring
// buffer stays allocation-free.
const MaxAttrs = 8

// DefaultCapacity is the ring-buffer size used when Options.Capacity is 0.
const DefaultCapacity = 4096

// attr kinds.
const (
	kindNone = iota
	kindInt
	kindFloat
	kindStr
	kindBool
)

// Attr is one typed span attribute.
type Attr struct {
	Key  string
	kind uint8
	i    int64
	f    float64
	s    string
}

// Value returns the attribute's value as an any (for exporters).
func (a Attr) Value() any {
	switch a.kind {
	case kindInt:
		return a.i
	case kindFloat:
		return a.f
	case kindStr:
		return a.s
	case kindBool:
		return a.i != 0
	default:
		return nil
	}
}

// Record is one completed span (or instant event), as stored in the ring
// buffer. It is plain copyable data: fixed-size, no pointers beyond strings.
type Record struct {
	// ID is the span's unique id within its tracer; Parent is the enclosing
	// span's ID (0 for roots).
	ID, Parent uint64
	// Track groups spans for rendering: children inherit the root span's
	// track, so one request/session is one timeline row (the Chrome tid).
	Track uint64
	// Name is the span name, e.g. "refine.round".
	Name string
	// Start is wall-clock nanoseconds since the Unix epoch: the tracer's
	// wall anchor plus a monotonic offset, so a child ended before its
	// parent also lies inside it however the wall clock steps.
	Start int64
	// Dur is the span duration (0 for instant events).
	Dur time.Duration
	// Instant marks zero-duration point events (Chrome phase "i").
	Instant bool
	// NAttrs attributes are valid in Attrs.
	NAttrs int
	Attrs  [MaxAttrs]Attr
}

// Options parameterizes a Tracer.
type Options struct {
	// Capacity is the ring-buffer size in records; 0 means DefaultCapacity.
	Capacity int
	// OnEnd, when set, is invoked synchronously with every completed record
	// (after it is placed in the ring). The serving daemon uses it to feed
	// span-derived metrics (per-round refinement duration, expert-query
	// counts) without a second instrumentation layer. Must be fast and
	// goroutine-safe; set it before the tracer is shared.
	OnEnd func(Record)
	// SlowCapacity, when > 0, enables the tail-sampled slow ring with that
	// many retained entries: root spans slower than the live p99-tracking
	// threshold (or SlowFloor) have their whole span tree promoted out of
	// the main ring and kept until overwritten by later promotions.
	SlowCapacity int
	// SlowFloor promotes any candidate root span at least this slow,
	// regardless of the adaptive threshold. 0 means adaptive-only.
	SlowFloor time.Duration
	// SlowRootPrefix restricts promotion candidates to root spans whose
	// name starts with this prefix (the serving daemon passes "request.").
	// Empty matches every root span.
	SlowRootPrefix string
}

// Tracer collects spans into a fixed-capacity ring buffer. All methods are
// safe for concurrent use, and safe on a nil receiver (which disables
// tracing at zero cost).
type Tracer struct {
	opts Options

	// epoch is the wall anchor (with its monotonic reading) every Start is
	// measured from; epochNS is its Unix nanoseconds.
	epoch   time.Time
	epochNS int64

	ids atomic.Uint64 // span-id allocator

	mu  sync.Mutex
	buf []Record // ring storage, len == capacity
	n   uint64   // total records ever emitted

	attrDrops atomic.Uint64

	slow *slowRing // nil unless Options.SlowCapacity > 0

	pool sync.Pool // *spanData
}

// New returns a Tracer with the given options.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	now := time.Now()
	t := &Tracer{opts: opts, buf: make([]Record, opts.Capacity), epoch: now, epochNS: now.UnixNano()}
	if opts.SlowCapacity > 0 {
		t.slow = newSlowRing(opts.SlowCapacity, opts.SlowFloor, opts.SlowRootPrefix)
	}
	t.pool.New = func() any { return new(spanData) }
	return t
}

// spanData is the mutable state of a live span, pooled to keep the enabled
// path allocation-light.
type spanData struct {
	rec   Record
	start time.Time
	done  bool
}

// Span is a handle on a live span. The zero Span is valid and inert: every
// method no-ops (and Child returns another zero Span), so instrumented code
// never branches on whether tracing is on.
type Span struct {
	t *Tracer
	d *spanData
}

// Start begins a root span. On a nil tracer it returns the zero Span.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return t.start(name, 0, 0)
}

// StartUnder begins a child of parent when parent is live, else a root span
// of t (which may be nil) — the idiom for code that traces under an
// optional caller-provided span.
func StartUnder(t *Tracer, parent Span, name string) Span {
	if parent.d != nil {
		return parent.Child(name)
	}
	return t.Start(name)
}

func (t *Tracer) start(name string, parent, track uint64) Span {
	d := t.pool.Get().(*spanData)
	id := t.ids.Add(1)
	if track == 0 {
		track = id
	}
	d.rec = Record{ID: id, Parent: parent, Track: track, Name: name}
	d.start = time.Now()
	d.rec.Start = t.wallNS(d.start)
	d.done = false
	return Span{t: t, d: d}
}

// Child begins a span nested under s, inheriting its track. On a zero (or
// ended) Span it returns the zero Span.
func (s Span) Child(name string) Span {
	if s.d == nil || s.d.done {
		return Span{}
	}
	return s.t.start(name, s.d.rec.ID, s.d.rec.Track)
}

// Instant emits a root zero-duration point event. Safe on a nil tracer.
func (t *Tracer) Instant(name string) {
	if t == nil {
		return
	}
	id := t.ids.Add(1)
	rec := Record{ID: id, Track: id, Name: name, Start: t.wallNS(time.Now()), Instant: true}
	t.emit(&rec)
}

// wallNS stamps now as the wall anchor plus now's monotonic offset from it,
// the clock End measures durations on.
func (t *Tracer) wallNS(now time.Time) int64 {
	return t.epochNS + int64(now.Sub(t.epoch))
}

// setAttr appends one attribute, dropping (and counting) past MaxAttrs.
func (s Span) setAttr(a Attr) Span {
	if s.d == nil || s.d.done {
		return s
	}
	if s.d.rec.NAttrs >= MaxAttrs {
		s.t.attrDrops.Add(1)
		return s
	}
	s.d.rec.Attrs[s.d.rec.NAttrs] = a
	s.d.rec.NAttrs++
	return s
}

// Int sets an integer attribute. All attribute setters are chainable and
// no-ops on the zero Span.
func (s Span) Int(key string, v int64) Span {
	return s.setAttr(Attr{Key: key, kind: kindInt, i: v})
}

// Float sets a float attribute.
func (s Span) Float(key string, v float64) Span {
	return s.setAttr(Attr{Key: key, kind: kindFloat, f: v})
}

// Str sets a string attribute.
func (s Span) Str(key, v string) Span {
	return s.setAttr(Attr{Key: key, kind: kindStr, s: v})
}

// Bool sets a boolean attribute.
func (s Span) Bool(key string, v bool) Span {
	var i int64
	if v {
		i = 1
	}
	return s.setAttr(Attr{Key: key, kind: kindBool, i: i})
}

// End completes the span: its record is stamped with the duration and
// placed in the ring buffer. End on the zero Span (or a second End) no-ops.
func (s Span) End() {
	if s.d == nil || s.d.done {
		return
	}
	d := s.d
	d.done = true
	d.rec.Dur = time.Since(d.start)
	s.t.emit(&d.rec)
	d.rec = Record{} // drop string references before pooling
	s.t.pool.Put(d)
}

// emit places one completed record in the ring.
func (t *Tracer) emit(r *Record) {
	t.mu.Lock()
	t.buf[t.n%uint64(len(t.buf))] = *r
	t.n++
	t.mu.Unlock()
	if t.opts.OnEnd != nil {
		t.opts.OnEnd(*r)
	}
	if t.slow != nil {
		t.maybePromote(r)
	}
}

// Len returns the number of records currently held (≤ capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n < uint64(len(t.buf)) {
		return int(t.n)
	}
	return len(t.buf)
}

// Dropped returns how many records have been overwritten by ring overflow.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n <= uint64(len(t.buf)) {
		return 0
	}
	return t.n - uint64(len(t.buf))
}

// AttrsDropped returns how many attributes were discarded for exceeding
// MaxAttrs.
func (t *Tracer) AttrsDropped() uint64 {
	if t == nil {
		return 0
	}
	return t.attrDrops.Load()
}

// Snapshot copies the retained records, oldest first. Safe to call
// concurrently with span emission; the snapshot is a consistent copy of the
// ring at one instant.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	capU := uint64(len(t.buf))
	if t.n <= capU {
		out := make([]Record, t.n)
		copy(out, t.buf[:t.n])
		return out
	}
	out := make([]Record, capU)
	head := t.n % capU // oldest record position
	copy(out, t.buf[head:])
	copy(out[capU-head:], t.buf[:head])
	return out
}
