package window

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/order"
	"repro/internal/relation"
)

// testSchema: time (the time attribute), user (key), amount (value).
func testSchema(t testing.TB) *relation.Schema {
	t.Helper()
	s, err := relation.NewSchema(
		relation.Attribute{Name: "t", Kind: relation.Numeric, Domain: order.NewDomain(0, 1_000_000), Time: true},
		relation.Attribute{Name: "user", Kind: relation.Numeric, Domain: order.NewDomain(0, 1_000)},
		relation.Attribute{Name: "amount", Kind: relation.Numeric, Domain: order.NewDomain(0, 10_000)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testSpecs() []Spec {
	return []Spec{
		{Agg: Count, Key: 1, Val: -1, Window: 10},
		{Agg: Sum, Key: 1, Val: 2, Window: 60},
		{Agg: Distinct, Key: 1, Val: 2, Window: 25},
	}
}

// naiveStore is the O(n) reference: it keeps every event's clamped
// timestamp and recomputes aggregates from the raw list using the package's
// exact bucketed semantics (events in the last n buckets including the
// watermark's). The bucketed ring store must match it on every read.
type naiveStore struct {
	timeAttr int
	specs    []Spec
	wm       int64
	hasTime  bool
	events   map[Spec]map[int64][]naiveEvent
}

type naiveEvent struct {
	t, val int64
}

func newNaive(timeAttr int, specs []Spec) *naiveStore {
	n := &naiveStore{timeAttr: timeAttr, specs: specs, events: map[Spec]map[int64][]naiveEvent{}}
	for _, sp := range specs {
		n.events[sp] = map[int64][]naiveEvent{}
	}
	return n
}

func (n *naiveStore) lift(t int64) {
	if !n.hasTime || t > n.wm {
		n.wm, n.hasTime = t, true
	}
}

func (n *naiveStore) observe(t relation.Tuple) {
	n.lift(t[n.timeAttr])
	for _, sp := range n.specs {
		val := int64(0)
		if sp.Val >= 0 {
			val = t[sp.Val]
		}
		n.events[sp][t[sp.Key]] = append(n.events[sp][t[sp.Key]], naiveEvent{t: n.wm, val: val})
	}
}

func (n *naiveStore) aggregate(sp Spec, key int64) int64 {
	geo := specGeometry(sp.Window)
	cutoff := bucketOf(n.wm, geo.width) - geo.n
	switch sp.Agg {
	case Sum:
		var total int64
		for _, e := range n.events[sp][key] {
			if bucketOf(e.t, geo.width) > cutoff {
				total += e.val
			}
		}
		return total
	case Distinct:
		seen := map[int64]bool{}
		for _, e := range n.events[sp][key] {
			if bucketOf(e.t, geo.width) > cutoff {
				seen[e.val] = true
			}
		}
		return int64(len(seen))
	default:
		var total int64
		for _, e := range n.events[sp][key] {
			if bucketOf(e.t, geo.width) > cutoff {
				total++
			}
		}
		return total
	}
}

func compareAll(t *testing.T, st *Store, naive *naiveStore, keys map[int64]bool) {
	t.Helper()
	for _, sp := range naive.specs {
		for key := range keys {
			if got, want := st.aggregate(sp, key), naive.aggregate(sp, key); got != want {
				t.Fatalf("%v(key=%d) at wm %d: store %d, naive %d", sp.Agg, key, naive.wm, got, want)
			}
		}
	}
}

// TestStoreDifferential drives random interleavings of Observe and bare
// watermark lifts and checks every aggregate against the naive recompute
// after each step.
func TestStoreDifferential(t *testing.T) {
	specs := testSpecs()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := New(Config{TimeAttr: 0})
		st.EnsureSpecs(specs)
		naive := newNaive(0, specs)
		keys := map[int64]bool{}
		now := int64(rng.Intn(1000))
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // observe, sometimes out of order (clamped)
				ts := now - int64(rng.Intn(40)) + int64(rng.Intn(20))
				key := int64(rng.Intn(6))
				amount := int64(rng.Intn(100))
				tup := relation.Tuple{ts, key, amount}
				st.Observe(tup)
				naive.observe(tup)
				keys[key] = true
			default: // advance
				now += int64(rng.Intn(30))
				st.liftWatermark(now)
				naive.lift(now)
			}
			compareAll(t, st, naive, keys)
		}
	}
}

// FuzzStoreDifferential mirrors TestStoreDifferential with fuzz-chosen
// operation sequences (the FuzzEvalAttributedLazy pattern: the fuzzer owns
// the interleaving, the naive model owns the truth).
func FuzzStoreDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 40, 5, 0, 200, 9})
	f.Add([]byte{0, 0, 0, 0, 255, 254, 253, 1, 1, 1})
	specs := testSpecs()
	f.Fuzz(func(t *testing.T, data []byte) {
		st := New(Config{TimeAttr: 0})
		st.EnsureSpecs(specs)
		naive := newNaive(0, specs)
		keys := map[int64]bool{}
		now := int64(0)
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], int64(data[i+1]), int64(data[i+2])
			switch op % 4 {
			case 0, 1:
				ts := now + a - 64 // out-of-order events exercise clamping
				key := b % 5
				tup := relation.Tuple{ts, key, a}
				st.Observe(tup)
				naive.observe(tup)
				keys[key] = true
			default:
				now += a
				st.liftWatermark(now)
				naive.lift(now)
			}
		}
		compareAll(t, st, naive, keys)
	})
}

// TestConcurrentObserveAggregate exercises Observe vs Aggregate races under
// -race: correctness of the values is covered differentially above; this
// test is about the locking.
func TestConcurrentObserveAggregate(t *testing.T) {
	specs := testSpecs()
	st := New(Config{TimeAttr: 0})
	st.EnsureSpecs(specs)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				st.Observe(relation.Tuple{int64(i), int64(rng.Intn(8)), int64(rng.Intn(50))})
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				for _, sp := range specs {
					st.aggregate(sp, int64(i%8))
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestObserveSteadyStateAllocs pins the serve hot path: once a key's entry
// and rings exist, Observe and Aggregate allocate nothing (COUNT and SUM;
// DISTINCT amortizes value-slice growth and is exempt).
func TestObserveSteadyStateAllocs(t *testing.T) {
	specs := []Spec{
		{Agg: Count, Key: 1, Val: -1, Window: 10},
		{Agg: Sum, Key: 1, Val: 2, Window: 60},
	}
	st := New(Config{TimeAttr: 0})
	st.EnsureSpecs(specs)
	now := int64(0)
	tup := relation.Tuple{0, 7, 42}
	for i := 0; i < 100; i++ { // warm up entry + rings
		now++
		tup[0] = now
		st.Observe(tup)
	}
	avg := testing.AllocsPerRun(200, func() {
		now++
		tup[0] = now
		st.Observe(tup)
		for _, sp := range specs {
			if st.aggregate(sp, 7) < 0 {
				t.Fatal("negative aggregate")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Observe+Aggregate allocates %.1f/op, want 0", avg)
	}
}

// TestEviction verifies the memory budget: dead entries go first, then the
// least-recently-observed, and the evictions counter moves.
func TestEviction(t *testing.T) {
	specs := []Spec{{Agg: Count, Key: 1, Val: -1, Window: 10}}
	st := New(Config{TimeAttr: 0, MaxEntries: 8})
	st.EnsureSpecs(specs)
	for k := int64(0); k < 32; k++ {
		st.Observe(relation.Tuple{int64(k), k, 0})
	}
	if got := st.Entries(); got > 9 {
		t.Fatalf("entries %d exceed budget 8 by more than one shard slack", got)
	}
	if exp, lru := st.EvictionsByCause(); exp+lru == 0 {
		t.Fatal("no evictions recorded despite exceeding the budget")
	}
	// The newest key survived with its count intact.
	if got := st.aggregate(specs[0], 31); got != 1 {
		t.Fatalf("surviving key aggregate = %d, want 1", got)
	}
}

// TestEvictionsByCause splits the eviction counter the way the
// observability surface reports it: live entries squeezed out by the
// MaxEntries budget count as LRU, entries whose windows aggregated to zero
// count as expired.
func TestEvictionsByCause(t *testing.T) {
	specs := []Spec{{Agg: Count, Key: 1, Val: -1, Window: 10}}
	st := New(Config{TimeAttr: 0, MaxEntries: 8})
	st.EnsureSpecs(specs)

	// 32 distinct keys, all observed at the same minute: every entry is
	// live, so exceeding the budget can only evict least-recently-observed.
	for k := int64(0); k < 32; k++ {
		st.Observe(relation.Tuple{100, k, 0})
	}
	exp, lru := st.EvictionsByCause()
	if lru == 0 {
		t.Fatal("no LRU evictions despite 32 live keys over an 8-entry budget")
	}
	if exp != 0 {
		t.Fatalf("%d expired evictions from same-minute traffic, want 0 (nothing left any window)", exp)
	}

	// A new key far past every window: the full budget forces an eviction,
	// and since every surviving entry has aggregated to zero, the shard
	// that gives way drops all of its entries as expired, none as LRU.
	before := st.Entries()
	if before == 0 {
		t.Fatal("budget eviction left the store empty")
	}
	st.Observe(relation.Tuple{1000, 99, 0})
	exp, lru2 := st.EvictionsByCause()
	if exp == 0 {
		t.Fatal("no expired evictions after every window expired")
	}
	if lru2 != lru {
		t.Fatalf("LRU evictions moved %d -> %d with only dead entries to drop", lru, lru2)
	}
	if got, want := st.Entries(), before-exp+1; got != want {
		t.Fatalf("entries = %d, want %d (%d survivors - %d expired + 1 fresh)", got, want, before, exp)
	}
}

// TestSnapshotRoundTrip: serialize, restore into a fresh store, and check
// both aggregates and future behavior (continued observation) agree.
func TestSnapshotRoundTrip(t *testing.T) {
	specs := testSpecs()
	rng := rand.New(rand.NewSource(99))
	st := New(Config{TimeAttr: 0})
	st.EnsureSpecs(specs)
	keys := map[int64]bool{}
	now := int64(0)
	for i := 0; i < 500; i++ {
		now += int64(rng.Intn(3))
		key := int64(rng.Intn(6))
		st.Observe(relation.Tuple{now, key, int64(rng.Intn(100))})
		keys[key] = true
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New(Config{TimeAttr: 0})
	if err := restored.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		for _, sp := range specs {
			for key := range keys {
				if got, want := restored.aggregate(sp, key), st.aggregate(sp, key); got != want {
					t.Fatalf("%v(key=%d): restored %d, original %d", sp.Agg, key, got, want)
				}
			}
		}
	}
	check()
	for i := 0; i < 200; i++ { // divergence would show as time advances
		now += int64(rng.Intn(5))
		key := int64(rng.Intn(6))
		tup := relation.Tuple{now, key, int64(rng.Intn(100))}
		st.Observe(tup)
		restored.Observe(tup)
		check()
	}
}

// TestComputeColumns checks the observe-then-read contract: a tuple's
// column value includes the tuple itself.
func TestComputeColumns(t *testing.T) {
	s := testSchema(t)
	rel := relation.New(s)
	// Three events for user 1 within 10 minutes, then one 30 minutes later.
	for _, row := range [][3]int64{{100, 1, 10}, {103, 1, 20}, {105, 1, 30}, {135, 1, 40}} {
		rel.MustAppend(relation.Tuple{row[0], row[1], row[2]}, relation.Unlabeled, 0)
	}
	spec := Spec{Agg: Count, Key: 1, Val: -1, Window: 10}
	cs := ComputeColumns(rel, []Spec{spec})
	col := cs.Column(spec)
	if col == nil {
		t.Fatal("missing column")
	}
	if col[0] != 1 || col[1] != 2 || col[2] != 3 {
		t.Fatalf("burst counts = %v, want prefix 1,2,3", col[:3])
	}
	if col[3] != 1 {
		t.Fatalf("post-gap count = %d, want 1 (window expired)", col[3])
	}
}

func BenchmarkStoreObserve(b *testing.B) {
	specs := []Spec{
		{Agg: Count, Key: 1, Val: -1, Window: 10},
		{Agg: Sum, Key: 1, Val: 2, Window: 1440},
	}
	st := New(Config{TimeAttr: 0})
	st.EnsureSpecs(specs)
	tup := relation.Tuple{0, 0, 25}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tup[0] = int64(i / 64)
		tup[1] = int64(i % 512)
		st.Observe(tup)
	}
}
