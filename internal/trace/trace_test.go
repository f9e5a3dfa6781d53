package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSpanHierarchyAndAttrs(t *testing.T) {
	tr := New(Options{Capacity: 16})
	root := tr.Start("root")
	root.Int("n", 42).Str("who", "tester").Float("f", 1.5).Bool("ok", true)
	child := root.Child("child")
	child.Int("rule", 3)
	child.End()
	root.End()
	tr.Instant("tick")

	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Records complete in order: child, root, instant.
	child2, root2, tick := recs[0], recs[1], recs[2]
	if tick.Name != "tick" || !tick.Instant || tick.Parent != 0 {
		t.Fatalf("last record = %+v, want root instant tick", tick)
	}
	if child2.Name != "child" || child2.Parent != root2.ID {
		t.Fatalf("child parent = %d, want root id %d", child2.Parent, root2.ID)
	}
	if child2.Track != root2.Track || tick.Track == root2.Track {
		t.Fatalf("tracks: child %d root %d tick %d, want child on root's, tick on its own", child2.Track, root2.Track, tick.Track)
	}
	attrs := attrMap(&root2)
	if attrs["n"] != int64(42) || attrs["who"] != "tester" || attrs["f"] != 1.5 || attrs["ok"] != true {
		t.Fatalf("root attrs = %v", attrs)
	}
}

func TestZeroSpanIsInert(t *testing.T) {
	var s Span
	s.Int("a", 1).Str("b", "x").Float("c", 2).Bool("d", true)
	if c := s.Child("x"); c != (Span{}) {
		t.Fatal("child of zero span is live")
	}
	s.End()
	s.End() // double End must be safe

	var tr *Tracer
	if sp := tr.Start("root"); sp != (Span{}) {
		t.Fatal("nil tracer produced a live span")
	}
	tr.Instant("e")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer holds records")
	}
}

func TestDoubleEndAndEndedChild(t *testing.T) {
	tr := New(Options{Capacity: 8})
	sp := tr.Start("a")
	sp.End()
	sp.End() // must not emit twice or corrupt the pool
	if c := sp.Child("b"); c != (Span{}) {
		t.Fatal("child of ended span is live")
	}
	sp.Int("late", 1) // attr after End must no-op
	if got := tr.Len(); got != 1 {
		t.Fatalf("ring holds %d records, want 1", got)
	}
}

func TestRingOverflow(t *testing.T) {
	tr := New(Options{Capacity: 4})
	for i := 0; i < 10; i++ {
		sp := tr.Start(fmt.Sprintf("s%d", i))
		sp.End()
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot holds %d, want 4", len(recs))
	}
	for i, r := range recs {
		want := fmt.Sprintf("s%d", 6+i)
		if r.Name != want {
			t.Fatalf("record %d = %q, want %q (oldest-first order)", i, r.Name, want)
		}
	}
}

func TestAttrOverflowCounted(t *testing.T) {
	tr := New(Options{Capacity: 4})
	sp := tr.Start("s")
	for i := 0; i < MaxAttrs+3; i++ {
		sp.Int(fmt.Sprintf("k%d", i), int64(i))
	}
	sp.End()
	if got := tr.AttrsDropped(); got != 3 {
		t.Fatalf("AttrsDropped = %d, want 3", got)
	}
	recs := tr.Snapshot()
	if recs[0].NAttrs != MaxAttrs {
		t.Fatalf("NAttrs = %d, want %d", recs[0].NAttrs, MaxAttrs)
	}
}

func TestOnEndCallback(t *testing.T) {
	var mu sync.Mutex
	var names []string
	tr := New(Options{Capacity: 8, OnEnd: func(r Record) {
		mu.Lock()
		names = append(names, r.Name)
		mu.Unlock()
	}})
	sp := tr.Start("outer")
	sp.Child("inner").End()
	sp.End()
	mu.Lock()
	defer mu.Unlock()
	if len(names) != 2 || names[0] != "inner" || names[1] != "outer" {
		t.Fatalf("OnEnd saw %v", names)
	}
}

// TestConcurrentEmission hammers one tracer from many goroutines (the serve
// worker-pool shape) while snapshots run concurrently; run with -race.
func TestConcurrentEmission(t *testing.T) {
	tr := New(Options{Capacity: 128})
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Snapshot()
				_ = tr.Len()
				_ = tr.Dropped()
			}
		}
	}()
	var emitters sync.WaitGroup
	for w := 0; w < workers; w++ {
		emitters.Add(1)
		go func(w int) {
			defer emitters.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Start("req")
				sp.Int("worker", int64(w)).Int("i", int64(i))
				c := sp.Child("eval")
				tr.Instant("hit")
				c.End()
				sp.End()
			}
		}(w)
	}
	emitters.Wait()
	close(stop)
	wg.Wait()
	// 3 records per iteration: instant + child + root.
	wantTotal := uint64(workers * perWorker * 3)
	if got := tr.Dropped() + uint64(tr.Len()); got != wantTotal {
		t.Fatalf("dropped+held = %d, want %d", got, wantTotal)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New(Options{Capacity: 8})
	sp := tr.Start("round")
	sp.Int("round", 1)
	sp.End()
	tr.Instant("invalidate")

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []recordJSON
	for sc.Scan() {
		var r recordJSON
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, r)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Name != "round" || lines[0].Attrs["round"] != float64(1) {
		t.Fatalf("line 0 = %+v", lines[0])
	}
	if !lines[1].Instant {
		t.Fatalf("line 1 not marked instant: %+v", lines[1])
	}
}

func TestWriteChrome(t *testing.T) {
	tr := New(Options{Capacity: 8})
	root := tr.Start("refine.round")
	time.Sleep(time.Millisecond)
	child := root.Child("expert.review_generalization")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTo(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			t.Fatalf("phase = %v, want X", ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("ts missing or not numeric: %v", ev["ts"])
		}
	}
	// The child must share the root's tid and carry its parent id.
	childEv, rootEv := doc.TraceEvents[0], doc.TraceEvents[1]
	if childEv["tid"] != rootEv["tid"] {
		t.Fatalf("tids differ: %v vs %v", childEv["tid"], rootEv["tid"])
	}
	args := childEv["args"].(map[string]any)
	rootArgs := rootEv["args"].(map[string]any)
	if args["parent_id"] != rootArgs["span_id"] {
		t.Fatalf("parent_id %v != root span_id %v", args["parent_id"], rootArgs["span_id"])
	}
}

// BenchmarkNilTracer proves the disabled path is free: starting, attributing
// and ending spans through a nil tracer must not allocate.
func BenchmarkNilTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartUnder(tr, Span{}, "refine.round")
		sp.Int("round", int64(i)).Float("score", 1.5).Bool("accept", true)
		c := sp.Child("expert.review_generalization")
		c.Int("rule", 3)
		c.End()
		tr.Instant("capture.invalidate")
		sp.End()
	}
}

// BenchmarkEnabledSpan measures the enabled hot path (pool + ring append).
func BenchmarkEnabledSpan(b *testing.B) {
	tr := New(Options{Capacity: 1 << 12})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("refine.round")
		sp.Int("round", int64(i)).Float("score", 1.5)
		c := sp.Child("expert.review_generalization")
		c.End()
		sp.End()
	}
}
