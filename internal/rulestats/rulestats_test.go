package rulestats

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a settable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestTracker(cfg Config) (*Tracker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg.Now = clk.Now
	return New(cfg), clk
}

func TestFireCountsAndShares(t *testing.T) {
	tr, _ := newTestTracker(Config{BaselineMinTx: 8})
	ep := tr.NewEpoch(3, 2)
	// 10 tx: rule 0 fires 6 times, rule 1 twice, 2 unmatched.
	ep.RecordFires(10, []uint64{6, 2})
	s := ep.Snapshot()
	if s.Version != 3 || s.TotalTx != 10 {
		t.Fatalf("snapshot version=%d total=%d, want 3/10", s.Version, s.TotalTx)
	}
	if s.Rules[0].Fires != 6 || s.Rules[1].Fires != 2 {
		t.Fatalf("fires = %d/%d, want 6/2", s.Rules[0].Fires, s.Rules[1].Fires)
	}
	if s.Rules[0].Share != 0.6 || s.Rules[1].Share != 0.2 {
		t.Fatalf("shares = %v/%v, want 0.6/0.2", s.Rules[0].Share, s.Rules[1].Share)
	}
	if !s.Baseline {
		t.Fatalf("baseline should freeze at %d tx", 8)
	}
	if s.Rules[0].BaselineShare != 0.6 {
		t.Fatalf("baseline share = %v, want 0.6", s.Rules[0].BaselineShare)
	}
	// Counts past the epoch's rules are ignored, not panics.
	ep.RecordFires(3, []uint64{0, 0, 5})
	if s := ep.Snapshot(); s.TotalTx != 13 || s.Rules[0].Fires != 6 || s.Rules[1].Fires != 2 {
		t.Fatalf("total/fires = %d/%d/%d, want 13/6/2", s.TotalTx, s.Rules[0].Fires, s.Rules[1].Fires)
	}
}

func TestFeedbackJoin(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	ep := tr.NewEpoch(1, 3)
	ep.RecordFeedback(true, false, []int{0, 2})  // fraud captured by rules 0, 2
	ep.RecordFeedback(false, true, []int{0})     // legit captured by rule 0
	ep.RecordFeedback(false, false, []int{0, 1}) // unlabeled: ignored
	ep.RecordFeedback(true, false, nil)          // fraud nothing captured
	s := ep.Snapshot()
	if s.Rules[0].TP != 1 || s.Rules[0].FP != 1 {
		t.Fatalf("rule 0 tp/fp = %d/%d, want 1/1", s.Rules[0].TP, s.Rules[0].FP)
	}
	if s.Rules[0].Precision != 0.5 {
		t.Fatalf("rule 0 precision = %v, want 0.5", s.Rules[0].Precision)
	}
	if s.Rules[1].TP != 0 || s.Rules[1].FP != 0 || s.Rules[1].Precision != -1 {
		t.Fatalf("rule 1 should have no labeled evidence: %+v", s.Rules[1])
	}
	if s.Rules[2].TP != 1 || s.Rules[2].Precision != 1 {
		t.Fatalf("rule 2 tp=%d precision=%v, want 1/1", s.Rules[2].TP, s.Rules[2].Precision)
	}
}

func TestStalenessClock(t *testing.T) {
	tr, clk := newTestTracker(Config{})
	ep := tr.NewEpoch(1, 2)
	ep.RecordFires(1, []uint64{1})
	clk.Advance(90 * time.Second)
	s := ep.Snapshot()
	if got := s.Rules[0].LastFiredAgo; got != 90 {
		t.Fatalf("rule 0 last fired ago = %v, want 90", got)
	}
	if got := s.Rules[1].LastFiredAgo; got != -1 {
		t.Fatalf("rule 1 (never fired) last fired ago = %v, want -1", got)
	}
}

func TestDriftDetectsRateChange(t *testing.T) {
	tr, clk := newTestTracker(Config{BaselineMinTx: 100, HalfLife: time.Minute})
	ep := tr.NewEpoch(1, 2)
	// Phase 1: rule 0 fires on 50% of traffic; freeze the baseline.
	ep.RecordFires(100, []uint64{50})
	s := ep.Snapshot()
	if !s.Baseline || s.Rules[0].BaselineShare != 0.5 {
		t.Fatalf("baseline = %v share %v, want frozen at 0.5", s.Baseline, s.Rules[0].BaselineShare)
	}
	if s.Rules[0].Drift > 0.01 {
		t.Fatalf("drift right after baseline = %v, want ~0", s.Rules[0].Drift)
	}
	// Phase 2: the rule goes silent for many half-lives; the EWMA must
	// collapse toward 0 and the drift toward |0-0.5|/0.5 = 1.
	for i := 0; i < 20; i++ {
		clk.Advance(time.Minute)
		ep.RecordFires(100, nil)
		ep.Snapshot() // fold
	}
	s = ep.Snapshot()
	if s.Rules[0].Drift < 0.9 {
		t.Fatalf("drift after the rule went silent = %v, want > 0.9", s.Rules[0].Drift)
	}
	// Rule 1 never fired: baseline 0, EWMA 0, drift 0 (not NaN/Inf).
	if d := s.Rules[1].Drift; d != 0 {
		t.Fatalf("drift of a never-firing rule = %v, want 0", d)
	}
}

func TestEpochIsVersionAware(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	v1 := tr.NewEpoch(1, 1)
	v1.RecordFires(3, []uint64{3})
	v1.RecordFeedback(true, false, []int{0})
	v2 := tr.NewEpoch(2, 2)
	// A batch and a feedback join that version 1 evaluated, recorded after
	// version 2 was published, stay with version 1.
	v1.RecordFires(2, []uint64{2})
	v1.RecordFeedback(true, false, []int{0})
	s := v2.Snapshot()
	if s.Version != 2 || len(s.Rules) != 2 {
		t.Fatalf("new epoch: version %d rules %d, want 2/2", s.Version, len(s.Rules))
	}
	if s.TotalTx != 0 || s.Rules[0].Fires != 0 || s.Rules[0].TP != 0 {
		t.Fatalf("counters must start from zero on publish: %+v", s)
	}
	if s := v1.Snapshot(); s.Version != 1 || s.TotalTx != 5 || s.Rules[0].Fires != 5 || s.Rules[0].TP != 2 {
		t.Fatalf("version 1 lost its late records: %+v", s)
	}
}

func TestAuditRingBoundedNewestFirst(t *testing.T) {
	tr, _ := newTestTracker(Config{AuditCapacity: 4, SampleEvery: 1})
	for i := 0; i < 10; i++ {
		if !tr.ShouldSample() {
			t.Fatalf("SampleEvery=1 must sample every decision")
		}
		tr.AddAudit(AuditEntry{Version: 7, Rule: i, Flagged: true})
	}
	if tr.AuditLen() != 4 {
		t.Fatalf("audit len = %d, want capacity 4", tr.AuditLen())
	}
	got := tr.AuditEntries(0)
	if len(got) != 4 {
		t.Fatalf("entries = %d, want 4", len(got))
	}
	for i, e := range got {
		if want := 9 - i; e.Rule != want {
			t.Fatalf("entry %d rule = %d, want %d (newest first)", i, e.Rule, want)
		}
		if e.Version != 7 {
			t.Fatalf("entry version = %d, want 7", e.Version)
		}
		if e.Seq == 0 || e.Time.IsZero() {
			t.Fatalf("entry %d missing seq/time: %+v", i, e)
		}
	}
	if got := tr.AuditEntries(2); len(got) != 2 || got[0].Rule != 9 {
		t.Fatalf("limited entries = %+v, want 2 newest", got)
	}
	// Entries survive a publish: the ring is an audit log.
	tr.NewEpoch(8, 1)
	if tr.AuditLen() != 4 {
		t.Fatalf("audit ring must survive a new epoch, len = %d", tr.AuditLen())
	}
	// Version 0 (a follower before bootstrap) is a version, not a blank.
	tr.AddAudit(AuditEntry{Rule: -1})
	if got := tr.AuditEntries(1)[0]; got.Version != 0 || got.Rule != -1 {
		t.Fatalf("newest entry = %+v, want version 0 rule -1", got)
	}
}

func TestSampling(t *testing.T) {
	tr, _ := newTestTracker(Config{SampleEvery: 10})
	n := 0
	for i := 0; i < 1000; i++ {
		if tr.ShouldSample() {
			n++
		}
	}
	if n != 100 {
		t.Fatalf("sampled %d of 1000 at 1-in-10, want exactly 100", n)
	}
	off, _ := newTestTracker(Config{SampleEvery: -1, AuditCapacity: -1})
	if off.ShouldSample() {
		t.Fatal("negative SampleEvery must disable sampling")
	}
	off.AddAudit(AuditEntry{}) // must not panic with a disabled ring
	if off.AuditLen() != 0 {
		t.Fatal("disabled ring retained an entry")
	}
}

func TestConcurrentAccounting(t *testing.T) {
	tr, _ := newTestTracker(Config{AuditCapacity: 64, SampleEvery: 3})
	var cur atomic.Pointer[Epoch]
	cur.Store(tr.NewEpoch(1, 4))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ep := cur.Load()
				switch i % 4 {
				case 0:
					ep.RecordFires(3, []uint64{1, 0, 1})
				case 1:
					ep.RecordFeedback(i%2 == 0, i%2 == 1, []int{i % 4})
				case 2:
					if tr.ShouldSample() {
						tr.AddAudit(AuditEntry{Rule: i % 4})
					}
				default:
					ep.Snapshot()
					tr.AuditEntries(8)
				}
				if i%50 == 0 && w == 0 {
					cur.Store(tr.NewEpoch(2+i, 4))
				}
			}
		}(w)
	}
	wg.Wait()
	s := cur.Load().Snapshot()
	if len(s.Rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(s.Rules))
	}
}
