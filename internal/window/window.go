// Package window implements bounded-memory sliding-window aggregates keyed
// by an attribute value — the state behind the rule language's velocity
// atoms (COUNT(key, 10m) > 5, SUM(amount, card, 24h) >= 1000). Production
// fraud platforms live on such signals; the paper's per-tuple conjunctions
// cannot express "more than K transactions from this user in W minutes".
//
// # Design
//
// A Store maintains, per (Spec, key value) pair, a ring of time buckets with
// running totals, sharded and lock-striped for the serving hot path. Every
// event lands in the bucket of its clamped timestamp; expiring a bucket
// subtracts its contribution from the running totals, so reading an
// aggregate is O(1) and allocation-free in the steady state (pinned by
// TestObserveSteadyStateAllocs).
//
// # Determinism contract
//
// The store never reads a wall clock. Time flows in exclusively through
// Observe (an event's timestamp), in whole minutes — the unit of the
// schema's time attribute. The watermark is monotone; an event older than
// the watermark is clamped to it, so every entry's bucket cursor only moves
// forward and replaying the same Observe sequence rebuilds byte-identical
// aggregate state (the WAL replay path of the serving daemon depends on
// this).
//
// # Exact semantics
//
// Each spec uses buckets of width w = ceil(Window/bucketsPerWindow) minutes
// and a ring of n = ceil(Window/w) buckets. At watermark m, the aggregate
// over a key is taken over exactly the events whose clamped timestamp t
// satisfies floor(t/w) > floor(m/w) - n — the last n buckets including the
// current one. The effective horizon therefore lies between Window and
// Window + w minutes, a standard bucketed approximation; the differential
// tests hold the store to this definition exactly, against a naive replay of
// the raw event list.
//
// # Memory bound
//
// MaxEntries caps the number of live (spec, key) entries. When a new key
// would exceed the cap, the owning shard first drops entries whose windows
// have fully expired (semantically invisible — their aggregates are already
// zero) and, if none have, drops its least-recently-observed entry. Evicting
// a live entry forgets that key's history; its aggregates restart from zero.
package window

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// Agg selects the aggregate function of a Spec.
type Agg uint8

const (
	// Count counts events per key in the window.
	Count Agg = iota
	// Sum sums a value attribute per key in the window.
	Sum
	// Distinct counts distinct values of a value attribute per key.
	Distinct
)

// String returns the rule-language name of the aggregate.
func (a Agg) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Distinct:
		return "DISTINCT"
	default:
		return fmt.Sprintf("Agg(%d)", uint8(a))
	}
}

// Spec identifies one sliding-window aggregate: the function, the grouping
// key attribute, the aggregated value attribute (-1 for Count) and the
// window length in minutes. Specs are comparable values; equal specs share
// state in a Store.
type Spec struct {
	Agg Agg
	// Key is the schema attribute whose value groups events.
	Key int
	// Val is the schema attribute aggregated by Sum/Distinct; -1 for Count.
	Val int
	// Window is the window length in minutes (the time attribute's unit).
	Window int64
}

// Validate checks the spec against a schema, mirroring the checks
// rules.Parse applies to windowed atoms.
func (sp Spec) Validate(schema *relation.Schema) error {
	if sp.Window <= 0 {
		return fmt.Errorf("window: spec window %dm must be positive", sp.Window)
	}
	if sp.Key < 0 || sp.Key >= schema.Arity() {
		return fmt.Errorf("window: spec key attribute %d out of range", sp.Key)
	}
	switch sp.Agg {
	case Count:
		if sp.Val != -1 {
			return fmt.Errorf("window: COUNT takes no value attribute (got %d)", sp.Val)
		}
	case Sum, Distinct:
		if sp.Val < 0 || sp.Val >= schema.Arity() {
			return fmt.Errorf("window: spec value attribute %d out of range", sp.Val)
		}
		if sp.Agg == Sum && schema.Attr(sp.Val).Kind != relation.Numeric {
			return fmt.Errorf("window: SUM over categorical attribute %q", schema.Attr(sp.Val).Name)
		}
	default:
		return fmt.Errorf("window: unknown aggregate %d", sp.Agg)
	}
	return nil
}

// bucketsPerWindow bounds the ring size per entry; the bucket width grows
// with the window instead (see the package comment's exact semantics).
const bucketsPerWindow = 16

// geometry is the precomputed bucket layout of one spec.
type geometry struct {
	width int64 // bucket width in minutes
	n     int64 // ring length in buckets
}

func specGeometry(windowMin int64) geometry {
	w := (windowMin + bucketsPerWindow - 1) / bucketsPerWindow
	if w < 1 {
		w = 1
	}
	n := (windowMin + w - 1) / w
	if n < 1 {
		n = 1
	}
	return geometry{width: w, n: n}
}

// specState is one registered spec with its layout.
type specState struct {
	spec Spec
	geo  geometry
}

// specSet is the immutable registered-spec snapshot swapped atomically on
// EnsureSpecs, so Observe reads it without taking the registry lock.
type specSet struct {
	specs []specState
	index map[Spec]int32
}

// DefaultMaxEntries bounds live (spec, key) entries when Config.MaxEntries
// is zero: at ~100 bytes per COUNT entry this keeps a fully-loaded store in
// the low hundreds of MB while still holding millions of keys.
const DefaultMaxEntries = 1 << 21

const nShards = 64

// Config parameterizes a Store.
type Config struct {
	// TimeAttr is the schema attribute carrying event time in minutes.
	// Negative means the schema has no time attribute; every event then
	// lands at minute 0 (a degenerate single-window mode that only
	// programmatic misuse can reach — rules.Parse refuses windowed atoms on
	// such schemas).
	TimeAttr int
	// MaxEntries caps live (spec, key) entries; 0 means DefaultMaxEntries.
	MaxEntries int
}

// Store is a sharded sliding-window aggregate store. All methods are safe
// for concurrent use.
type Store struct {
	timeAttr   int
	maxEntries int

	mu    sync.Mutex // guards spec registration (EnsureSpecs)
	specs atomic.Pointer[specSet]

	watermark atomic.Int64 // current time in minutes; monotone
	hasTime   atomic.Bool  // false until the first watermark lift
	entries   atomic.Int64 // live entry count across shards (memory budget)

	// Lifetime evicted-entry counts by cause (observability): expired
	// entries whose window aggregates to zero, and live entries dropped
	// least-recently-observed-first under memory pressure.
	evictExpired atomic.Int64
	evictLRU     atomic.Int64

	shards [nShards]shard
}

type shard struct {
	mu sync.Mutex
	m  map[entryKey]*entry
}

type entryKey struct {
	spec int32
	key  int64
}

// entry is the ring state of one (spec, key) pair. All fields are guarded
// by the owning shard's mutex.
type entry struct {
	lastBucket int64 // bucket index the ring cursor is at
	lastTouch  int64 // watermark minute of the last observe (eviction order)
	count      []int32
	totalCount int64
	// Sum only:
	sum      []int64
	totalSum int64
	// Distinct only: per-bucket observed values (with multiplicity) and the
	// window-wide value refcounts; the aggregate is len(vals).
	slotVals [][]int64
	vals     map[int64]int32
}

// New returns an empty store. Specs are registered with EnsureSpecs; events
// for unregistered specs are simply not aggregated.
func New(cfg Config) *Store {
	s := &Store{timeAttr: cfg.TimeAttr, maxEntries: cfg.MaxEntries}
	if s.maxEntries <= 0 {
		s.maxEntries = DefaultMaxEntries
	}
	s.specs.Store(&specSet{index: map[Spec]int32{}})
	for i := range s.shards {
		s.shards[i].m = make(map[entryKey]*entry)
	}
	return s
}

// EnsureSpecs registers every spec not yet known to the store. Registration
// is append-only: a spec published once keeps accumulating state even if a
// later rule set drops it (its entries age out via the eviction path), so
// republishing a windowed rule never restarts its aggregates from zero.
func (s *Store) EnsureSpecs(specs []Spec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.specs.Load()
	missing := 0
	for _, sp := range specs {
		if _, ok := cur.index[sp]; !ok {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	next := &specSet{
		specs: make([]specState, len(cur.specs), len(cur.specs)+missing),
		index: make(map[Spec]int32, len(cur.index)+missing),
	}
	copy(next.specs, cur.specs)
	for k, v := range cur.index {
		next.index[k] = v
	}
	for _, sp := range specs {
		if _, ok := next.index[sp]; ok {
			continue
		}
		next.index[sp] = int32(len(next.specs))
		next.specs = append(next.specs, specState{spec: sp, geo: specGeometry(sp.Window)})
	}
	s.specs.Store(next)
}

// Specs returns the registered specs in registration order.
func (s *Store) Specs() []Spec {
	set := s.specs.Load()
	out := make([]Spec, len(set.specs))
	for i, st := range set.specs {
		out[i] = st.spec
	}
	return out
}

// Watermark returns the store's current time in minutes.
func (s *Store) Watermark() int64 { return s.watermark.Load() }

// Entries returns the live (spec, key) entry count.
func (s *Store) Entries() int64 { return s.entries.Load() }

// EvictionsByCause splits the lifetime eviction count: expired entries
// (window aggregated to zero — dropping them never changes a result) vs
// live entries evicted least-recently-observed-first under the MaxEntries
// memory budget.
func (s *Store) EvictionsByCause() (expired, lru int64) {
	return s.evictExpired.Load(), s.evictLRU.Load()
}

// MaxEntries returns the configured live-entry budget.
func (s *Store) MaxEntries() int { return s.maxEntries }

// ShardOccupancy returns the live-entry count of every shard, in shard
// order. The per-shard view exposes key skew: a hot shard near the top of
// an otherwise-empty histogram means one key (not volume) is driving
// evictions.
func (s *Store) ShardOccupancy() []int {
	out := make([]int, nShards)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out[i] = len(sh.m)
		sh.mu.Unlock()
	}
	return out
}

// liftWatermark lifts the watermark to t (in minutes) and returns the
// result; it never moves backward. Bucket expiry is lazy — entries rotate
// forward the next time they are observed or read.
func (s *Store) liftWatermark(t int64) int64 {
	for {
		cur := s.watermark.Load()
		if s.hasTime.Load() && t <= cur {
			return cur
		}
		if !s.hasTime.Load() {
			// First time signal: adopt it even if negative/zero.
			s.mu.Lock()
			if !s.hasTime.Load() {
				s.watermark.Store(t)
				s.hasTime.Store(true)
				s.mu.Unlock()
				return t
			}
			s.mu.Unlock()
			continue
		}
		if s.watermark.CompareAndSwap(cur, t) {
			return t
		}
	}
}

// Observe folds one event (a schema-shaped tuple) into every registered
// spec, reading its timestamp from the store's time attribute. The
// timestamp lifts the watermark; an event older than the watermark is
// clamped to it (see the determinism contract in the package comment).
func (s *Store) Observe(t relation.Tuple) {
	ts := int64(0)
	if s.timeAttr >= 0 && s.timeAttr < len(t) {
		ts = t[s.timeAttr]
	}
	wm := s.liftWatermark(ts)
	set := s.specs.Load()
	for si := range set.specs {
		st := &set.specs[si]
		key := t[st.spec.Key]
		val := int64(0)
		if st.spec.Val >= 0 {
			val = t[st.spec.Val]
		}
		s.observeOne(int32(si), st, key, val, wm)
	}
}

func (s *Store) shardFor(spec int32, key int64) *shard {
	// Mix spec and key; the multiplier is the 64-bit FNV prime.
	h := (uint64(key) ^ uint64(spec)<<32) * 1099511628211
	return &s.shards[h%nShards]
}

func (s *Store) observeOne(spec int32, st *specState, key, val, wm int64) {
	sh := s.shardFor(spec, key)
	sh.mu.Lock()
	k := entryKey{spec: spec, key: key}
	e := sh.m[k]
	if e == nil {
		if s.entries.Load() >= int64(s.maxEntries) && s.evictShard(sh, wm) == 0 {
			// The owning shard had nothing to give; scan the others, locking
			// one shard at a time (never two, so concurrent observers in
			// other shards cannot deadlock against this path).
			sh.mu.Unlock()
			s.evictElsewhere(sh, wm)
			sh.mu.Lock()
			e = sh.m[k] // re-check: a concurrent observer may have created it
		}
		if e == nil {
			e = newEntry(st)
			sh.m[k] = e
			s.entries.Add(1)
		}
	}
	b := bucketOf(wm, st.geo.width)
	e.rotate(st, b)
	slot := int(b % st.geo.n)
	if slot < 0 {
		slot += int(st.geo.n)
	}
	e.lastTouch = wm
	e.count[slot]++
	e.totalCount++
	switch st.spec.Agg {
	case Sum:
		e.sum[slot] += val
		e.totalSum += val
	case Distinct:
		e.slotVals[slot] = append(e.slotVals[slot], val)
		e.vals[val]++
	}
	sh.mu.Unlock()
}

// aggregate returns the current value of spec over key at the store's
// watermark: the event count, value sum, or distinct-value count in the
// window. Unknown specs and unseen keys read as zero. Steady-state reads
// are allocation-free.
func (s *Store) aggregate(spec Spec, key int64) int64 {
	set := s.specs.Load()
	si, ok := set.index[spec]
	if !ok {
		return 0
	}
	return s.aggregateAt(si, &set.specs[si], key, s.watermark.Load())
}

func (s *Store) aggregateAt(spec int32, st *specState, key, wm int64) int64 {
	sh := s.shardFor(spec, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.m[entryKey{spec: spec, key: key}]
	if e == nil {
		return 0
	}
	e.rotate(st, bucketOf(wm, st.geo.width))
	switch st.spec.Agg {
	case Sum:
		return e.totalSum
	case Distinct:
		return int64(len(e.vals))
	default:
		return e.totalCount
	}
}

func bucketOf(t, width int64) int64 {
	b := t / width
	if t < 0 && t%width != 0 {
		b-- // floor division for negative minutes
	}
	return b
}

func newEntry(st *specState) *entry {
	n := st.geo.n
	e := &entry{lastBucket: -1 << 62, count: make([]int32, n)}
	switch st.spec.Agg {
	case Sum:
		e.sum = make([]int64, n)
	case Distinct:
		e.slotVals = make([][]int64, n)
		e.vals = make(map[int64]int32)
	}
	return e
}

// rotate advances the entry's ring cursor to bucket b, expiring every
// bucket that falls out of the window and subtracting its contribution
// from the running totals. Cursor movement is monotone (callers clamp time
// to the watermark).
func (e *entry) rotate(st *specState, b int64) {
	if b <= e.lastBucket {
		return
	}
	n := st.geo.n
	steps := b - e.lastBucket
	if steps >= n || e.lastBucket == -1<<62 {
		// Everything expired: reset in place, keeping capacity.
		for i := range e.count {
			e.count[i] = 0
		}
		e.totalCount = 0
		if e.sum != nil {
			for i := range e.sum {
				e.sum[i] = 0
			}
			e.totalSum = 0
		}
		if e.slotVals != nil {
			for i := range e.slotVals {
				e.slotVals[i] = e.slotVals[i][:0]
			}
			clear(e.vals)
		}
		e.lastBucket = b
		return
	}
	for nb := e.lastBucket + 1; nb <= b; nb++ {
		// Bucket nb enters the window; the bucket it displaces (nb - n,
		// stored in the same slot) expires.
		slot := int(nb % n)
		if slot < 0 {
			slot += int(n)
		}
		e.totalCount -= int64(e.count[slot])
		e.count[slot] = 0
		if e.sum != nil {
			e.totalSum -= e.sum[slot]
			e.sum[slot] = 0
		}
		if e.slotVals != nil {
			for _, v := range e.slotVals[slot] {
				if c := e.vals[v] - 1; c > 0 {
					e.vals[v] = c
				} else {
					delete(e.vals, v)
				}
			}
			e.slotVals[slot] = e.slotVals[slot][:0]
		}
	}
	e.lastBucket = b
}

// evictElsewhere frees room in some shard other than the caller's, scanning
// in a fixed order so single-threaded replay makes the same eviction
// decisions. Called with no shard lock held.
func (s *Store) evictElsewhere(except *shard, wm int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		if sh == except {
			continue
		}
		sh.mu.Lock()
		removed := 0
		if len(sh.m) > 0 {
			removed = s.evictShard(sh, wm)
		}
		sh.mu.Unlock()
		if removed > 0 {
			return
		}
	}
}

// evictShard frees room in one shard and returns the number of entries
// dropped: dead entries (fully expired windows) go first — dropping them
// never changes an aggregate — then the least-recently-observed live entry.
// Called with the shard lock held.
func (s *Store) evictShard(sh *shard, wm int64) int {
	set := s.specs.Load()
	removed := 0
	var lruKey entryKey
	var lruTouch int64 = 1<<63 - 1
	haveLRU := false
	for k, e := range sh.m {
		st := &set.specs[k.spec]
		e.rotate(st, bucketOf(wm, st.geo.width))
		if e.totalCount == 0 {
			delete(sh.m, k)
			removed++
			continue
		}
		if e.lastTouch < lruTouch || (e.lastTouch == lruTouch && (!haveLRU || lessKey(k, lruKey))) {
			lruKey, lruTouch, haveLRU = k, e.lastTouch, true
		}
	}
	if removed > 0 {
		s.evictExpired.Add(int64(removed))
	} else if haveLRU {
		delete(sh.m, lruKey)
		removed++
		s.evictLRU.Add(1)
	}
	s.entries.Add(-int64(removed))
	return removed
}

func lessKey(a, b entryKey) bool {
	if a.spec != b.spec {
		return a.spec < b.spec
	}
	return a.key < b.key
}
