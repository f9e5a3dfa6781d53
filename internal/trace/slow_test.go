package trace

import (
	"sync"
	"testing"
	"time"
)

// slowTracer builds a tracer with the slow ring armed: a tiny floor means
// every "request." root promotes deterministically, no timing games.
func slowTracer(capacity int, floor time.Duration) *Tracer {
	return New(Options{
		Capacity:       256,
		SlowCapacity:   capacity,
		SlowFloor:      floor,
		SlowRootPrefix: "request.",
	})
}

// TestSlowFloorPromotesWholeTree: a root over the floor keeps its full span
// tree — root plus children — in the slow ring, and the stats account for it.
func TestSlowFloorPromotesWholeTree(t *testing.T) {
	tr := slowTracer(4, time.Nanosecond)
	root := tr.Start("request.score")
	root.Str("id", "req-000042")
	c1 := root.Child("stage.decode")
	c1.End()
	c2 := root.Child("stage.eval")
	g := c2.Child("eval.rule")
	g.End()
	c2.End()
	root.End()

	entries := tr.SlowSnapshot()
	if len(entries) != 1 {
		t.Fatalf("SlowSnapshot returned %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Root.Name != "request.score" || e.Root.Parent != 0 {
		t.Fatalf("promoted root = %q (parent %d), want request.score root", e.Root.Name, e.Root.Parent)
	}
	names := map[string]bool{}
	for _, r := range e.Spans {
		names[r.Name] = true
		if r.Track != e.Root.ID {
			t.Fatalf("span %q has track %d, want the root's %d", r.Name, r.Track, e.Root.ID)
		}
	}
	for _, want := range []string{"request.score", "stage.decode", "stage.eval", "eval.rule"} {
		if !names[want] {
			t.Fatalf("promoted tree is missing span %q (got %v)", want, names)
		}
	}
	st := tr.SlowStats()
	if st.Promoted != 1 || st.Observed != 1 || st.Len != 1 || st.Capacity != 4 {
		t.Fatalf("SlowStats = %+v, want 1 promoted of 1 observed in a 4-ring", st)
	}
	if st.Floor != time.Nanosecond || st.Threshold != time.Nanosecond {
		t.Fatalf("SlowStats floor/threshold = %v/%v, want 1ns/1ns", st.Floor, st.Threshold)
	}
}

// TestSlowOnlyPrefixedRootsQualify: child spans and roots outside the prefix
// never promote, however slow.
func TestSlowOnlyPrefixedRootsQualify(t *testing.T) {
	tr := slowTracer(4, time.Nanosecond)
	other := tr.Start("refine.session")  // root, wrong prefix
	child := other.Child("request.fake") // right prefix, not a root
	child.End()
	other.End()
	tr.Instant("request.note") // instants never qualify
	if got := tr.SlowSnapshot(); len(got) != 0 {
		t.Fatalf("promoted %d entries from non-qualifying spans, want 0", len(got))
	}
	if st := tr.SlowStats(); st.Observed != 0 {
		t.Fatalf("Observed = %d, want 0: non-qualifying spans must not feed the threshold", st.Observed)
	}
}

// TestSlowRingOverflow: the ring holds the newest `capacity` promotions;
// Promoted keeps counting, Seq stays monotone oldest-first.
func TestSlowRingOverflow(t *testing.T) {
	tr := slowTracer(2, time.Nanosecond)
	for i := 0; i < 5; i++ {
		sp := tr.Start("request.score")
		sp.End()
	}
	entries := tr.SlowSnapshot()
	if len(entries) != 2 {
		t.Fatalf("ring holds %d entries, want capacity 2", len(entries))
	}
	if entries[0].Seq >= entries[1].Seq {
		t.Fatalf("snapshot out of order: seqs %d, %d", entries[0].Seq, entries[1].Seq)
	}
	st := tr.SlowStats()
	if st.Promoted != 5 || st.Len != 2 {
		t.Fatalf("SlowStats = %+v, want 5 promoted, 2 held", st)
	}
}

// TestSlowAdaptiveThreshold: with no floor, nothing promotes during warmup;
// after warmup a root far beyond the observed p99 does.
func TestSlowAdaptiveThreshold(t *testing.T) {
	tr := slowTracer(8, 0)
	for i := 0; i < 128; i++ { // near-zero-duration roots: warm the quantile
		sp := tr.Start("request.score")
		sp.End()
	}
	// A p99 sampler passes the jitter tail of even uniform traffic — that is
	// the point — but it must stay a tail: the bulk of the fast roots do not
	// promote, and nothing at all promotes before warmup.
	baseline := tr.SlowStats().Promoted
	if baseline > 128/8 {
		t.Fatalf("%d of 128 uniform fast roots promoted; the sampler is not selecting a tail", baseline)
	}
	slow := tr.Start("request.score")
	time.Sleep(20 * time.Millisecond) // orders of magnitude above the observed p99
	slow.End()
	if got := tr.SlowStats().Promoted; got != baseline+1 {
		t.Fatalf("slow outlier was not promoted (promoted %d -> %d)", baseline, got)
	}
	found := false
	for _, e := range tr.SlowSnapshot() {
		if e.Root.Dur >= 10*time.Millisecond {
			found = true
		}
	}
	if !found {
		t.Fatal("promoted entries do not include the slow outlier")
	}
	if thr := tr.SlowStats().Threshold; thr <= 0 || thr > 10*time.Millisecond {
		t.Fatalf("adaptive threshold = %v, want a sub-10ms p99 bound over fast traffic", thr)
	}
}

// TestSlowDisabledAndNil: a tracer without a slow ring, and the nil tracer,
// answer the slow API inertly.
func TestSlowDisabledAndNil(t *testing.T) {
	tr := New(Options{Capacity: 16})
	sp := tr.Start("request.score")
	sp.End()
	if got := tr.SlowSnapshot(); got != nil {
		t.Fatalf("disabled ring returned %v, want nil", got)
	}
	if st := tr.SlowStats(); st != (SlowStats{}) {
		t.Fatalf("disabled ring stats = %+v, want zero", st)
	}
	var nilT *Tracer
	if got := nilT.SlowSnapshot(); got != nil {
		t.Fatalf("nil tracer SlowSnapshot = %v, want nil", got)
	}
	if st := nilT.SlowStats(); st != (SlowStats{}) {
		t.Fatalf("nil tracer SlowStats = %+v, want zero", st)
	}
}

// TestConcurrentSlowPromotion hammers promotion and the read API from many
// goroutines; run under -race this is the slow ring's data-race proof.
func TestConcurrentSlowPromotion(t *testing.T) {
	// The main ring holds every record the test emits: a goroutine descheduled
	// between emitting its root and collecting the track (routine on two
	// cores) must still find the root, or the exact Promoted count below is
	// a scheduling lottery.
	tr := New(Options{Capacity: 8 * 200 * 2, SlowCapacity: 16, SlowFloor: time.Nanosecond, SlowRootPrefix: "request."})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start("request.score")
				c := sp.Child("stage.eval")
				c.End()
				sp.End()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.SlowSnapshot()
				tr.SlowStats()
			}
		}()
	}
	wg.Wait()
	st := tr.SlowStats()
	if st.Promoted != 8*200 {
		t.Fatalf("Promoted = %d, want %d (every root is over the floor)", st.Promoted, 8*200)
	}
	if st.Len != 16 {
		t.Fatalf("ring holds %d, want full capacity 16", st.Len)
	}
	for _, e := range tr.SlowSnapshot() {
		if e.Root.Name != "request.score" {
			t.Fatalf("promoted root %q, want request.score", e.Root.Name)
		}
	}
}
