package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// collect returns a replay callback that copies every delivered payload.
func collect(got *[][]byte, seqs *[]uint64) func(Entry) error {
	return func(e Entry) error {
		*got = append(*got, append([]byte(nil), e.Payload...))
		if seqs != nil {
			*seqs = append(*seqs, e.Seq)
		}
		return nil
	}
}

func mustOpen(t *testing.T, opts Options, replay func(Entry) error) *Log {
	t.Helper()
	l, err := Open(opts, replay)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// TestRoundTrip appends pseudo-random payloads across many small segments and
// asserts that a reopen replays them byte-identically, in order, with dense
// sequence numbers — the differential test between the append path and the
// replay path.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	opts := Options{Dir: dir, SegmentBytes: 256, Sync: SyncNever}

	var want [][]byte
	l := mustOpen(t, opts, nil)
	for i := 0; i < 200; i++ {
		n := rng.Intn(64)
		p := make([]byte, n)
		for j := range p {
			p[j] = byte('a' + rng.Intn(26))
		}
		seq, err := l.Append(p)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if wantSeq := uint64(i + 1); seq != wantSeq {
			t.Fatalf("Append returned seq %d, want %d", seq, wantSeq)
		}
		want = append(want, p)
	}
	st := l.Stats()
	if st.Appends != 200 || st.LastSeq != 200 {
		t.Fatalf("stats = %+v, want 200 appends, last seq 200", st)
	}
	if st.Segments < 2 {
		t.Fatalf("got %d segments, want rotation to have happened", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var got [][]byte
	var seqs []uint64
	l2 := mustOpen(t, opts, collect(&got, &seqs))
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: replayed %q, want %q", i+1, got[i], want[i])
		}
		if seqs[i] != uint64(i+1) {
			t.Fatalf("record %d: seq %d, want %d", i, seqs[i], i+1)
		}
	}
	if l2.LastSeq() != 200 {
		t.Fatalf("LastSeq after reopen = %d, want 200", l2.LastSeq())
	}
	// And the log keeps appending from where it left off.
	if seq, err := l2.Append([]byte("resumed")); err != nil || seq != 201 {
		t.Fatalf("Append after reopen = %d, %v; want 201, nil", seq, err)
	}
}

// TestTornTailTruncation cuts the final segment at every possible byte
// boundary inside the last record and asserts the tail is dropped with a
// warning while every earlier record survives.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Sync: SyncNever}
	l := mustOpen(t, opts, nil)
	payloads := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":22}`), []byte(`{"c":333}`)}
	for _, p := range payloads {
		if _, err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg := segmentPath(dir, 1)
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(pristine, []byte("\n"))
	// lines[0..2] are the records; lines[3] is empty.
	tailStart := len(pristine) - len(lines[2])

	for cut := tailStart + 1; cut < len(pristine); cut++ {
		if err := os.WriteFile(seg, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		l2, err := Open(opts, collect(&got, nil))
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		if len(got) != 2 {
			t.Fatalf("cut at %d: replayed %d records, want 2", cut, len(got))
		}
		if st := l2.Stats(); st.TornTailDrops != 1 {
			t.Fatalf("cut at %d: torn drops = %d, want 1", cut, st.TornTailDrops)
		}
		// The torn tail must be gone from disk and a fresh append must land
		// as record 3 on a clean frame boundary.
		if seq, err := l2.Append([]byte(`{"d":4}`)); err != nil || seq != 3 {
			t.Fatalf("cut at %d: Append = %d, %v; want 3, nil", cut, seq, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		var again [][]byte
		l3, err := Open(opts, collect(&again, nil))
		if err != nil {
			t.Fatalf("cut at %d: reopen after repair: %v", cut, err)
		}
		if len(again) != 3 || !bytes.Equal(again[2], []byte(`{"d":4}`)) {
			t.Fatalf("cut at %d: post-repair replay = %q", cut, again)
		}
		l3.Close()
	}
}

// TestTornTailMissingNewline: a final record that is fully intact except for
// its trailing newline must still be dropped — otherwise the next append
// would concatenate onto its line.
func TestTornTailMissingNewline(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Sync: SyncNever}
	l := mustOpen(t, opts, nil)
	for i := 0; i < 2; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := segmentPath(dir, 1)
	data, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	l2, err := Open(opts, collect(&got, nil))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if len(got) != 1 || string(got[0]) != "rec0" {
		t.Fatalf("replayed %q, want only rec0", got)
	}
	if st := l2.Stats(); st.TornTailDrops != 1 {
		t.Fatalf("torn drops = %d, want 1", st.TornTailDrops)
	}
}

// TestBitFlip flips one byte of the final record (tolerated: torn tail) and
// then one byte of an earlier record (fails loud: not a crash artifact).
func TestBitFlip(t *testing.T) {
	build := func(t *testing.T) (string, Options, []byte) {
		dir := t.TempDir()
		opts := Options{Dir: dir, Sync: SyncNever}
		l := mustOpen(t, opts, nil)
		for i := 0; i < 3; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf(`{"rec":%d}`, i))); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		data, err := os.ReadFile(segmentPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		return dir, opts, data
	}

	t.Run("final record tolerated", func(t *testing.T) {
		dir, opts, data := build(t)
		lines := bytes.SplitAfter(data, []byte("\n"))
		tailStart := len(data) - len(lines[2])
		for off := tailStart; off < len(data)-1; off++ { // spare the newline
			flipped := append([]byte(nil), data...)
			flipped[off] ^= 0xFF // invert: never a case-change that hex parsing forgives
			if err := os.WriteFile(segmentPath(dir, 1), flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			l, err := Open(opts, collect(&got, nil))
			if err != nil {
				t.Fatalf("flip at %d: Open: %v", off, err)
			}
			if len(got) != 2 {
				t.Fatalf("flip at %d: replayed %d, want 2", off, len(got))
			}
			l.Close()
		}
	})

	t.Run("earlier record fails loud", func(t *testing.T) {
		dir, opts, data := build(t)
		lines := bytes.SplitAfter(data, []byte("\n"))
		for off := 0; off < len(lines[0])-1; off++ { // first record, spare newline
			flipped := append([]byte(nil), data...)
			flipped[off] ^= 0xFF
			if err := os.WriteFile(segmentPath(dir, 1), flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(opts, nil)
			if err == nil {
				l.Close()
				t.Fatalf("flip at %d: Open succeeded, want corrupt-record error", off)
			}
			if !strings.Contains(err.Error(), "not a torn tail") {
				t.Fatalf("flip at %d: error %q, want a refusing-to-replay error", off, err)
			}
		}
	})
}

// TestCorruptEarlierSegment: a torn tail is only forgivable in the FINAL
// segment — a truncated record in an earlier segment fails loud.
func TestCorruptEarlierSegment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 1, Sync: SyncNever} // rotate every record
	l := mustOpen(t, opts, nil)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Truncate the middle of segment 2 (records: seg1=rec0, seg2=rec1, ...).
	seg := segmentPath(dir, 2)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts, nil); err == nil {
		t.Fatal("Open succeeded, want an error for a torn record in a non-final segment")
	}
}

// TestMissingSegment: a gap in the segment sequence fails loud.
func TestMissingSegment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 1, Sync: SyncNever}
	l := mustOpen(t, opts, nil)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if err := os.Remove(segmentPath(dir, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts, nil); err == nil || !strings.Contains(err.Error(), "missing segment") {
		t.Fatalf("Open = %v, want a missing-segment error", err)
	}
}

// TestPruneAndReopen prunes snapshot-covered segments and asserts a reopen
// resumes at the right sequence number even though the log no longer starts
// at record 1.
func TestPruneAndReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 1, Sync: SyncNever} // rotate every record
	l := mustOpen(t, opts, nil)
	for i := 1; i <= 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// SegmentBytes 1 rotates after every append: segments 1..5 hold one
	// record each, segment 6 is the empty active segment.
	removed, err := l.Prune(3)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if removed != 3 {
		t.Fatalf("Prune removed %d segments, want 3", removed)
	}
	l.Close()

	var got [][]byte
	var seqs []uint64
	l2, err := Open(opts, collect(&got, &seqs))
	if err != nil {
		t.Fatalf("reopen after prune: %v", err)
	}
	if len(got) != 2 || string(got[0]) != "rec4" || seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("replay after prune = %q (seqs %v), want rec4, rec5 at seqs 4, 5", got, seqs)
	}
	if seq, err := l2.Append([]byte("rec6")); err != nil || seq != 6 {
		t.Fatalf("Append after prune = %d, %v; want 6, nil", seq, err)
	}
	// Pruning past the end removes everything but the active segment.
	if removed, err = l2.Prune(99); err != nil || removed == 0 {
		t.Fatalf("Prune(99) = %d, %v; want everything but the active segment gone", removed, err)
	}
	if st := l2.Stats(); st.Segments != 1 {
		t.Fatalf("segments after full prune = %d, want 1", st.Segments)
	}
	l2.Close()

	// A log whose surviving records all live in the active segment still
	// reopens at the right position.
	l3, err := Open(opts, nil)
	if err != nil {
		t.Fatalf("reopen after full prune: %v", err)
	}
	defer l3.Close()
	if seq, err := l3.Append([]byte("rec7")); err != nil || seq != 7 {
		t.Fatalf("Append after full prune = %d, %v; want 7, nil", seq, err)
	}
}

// TestSyncPolicies exercises the three fsync policies' bookkeeping.
func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		l := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncAlways}, nil)
		defer l.Close()
		l.Append([]byte("a"))
		l.Append([]byte("b"))
		if st := l.Stats(); st.Fsyncs < 2 {
			t.Fatalf("fsyncs = %d, want one per append", st.Fsyncs)
		}
	})
	t.Run("never", func(t *testing.T) {
		l := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever}, nil)
		l.Append([]byte("a"))
		if st := l.Stats(); st.Fsyncs != 0 {
			t.Fatalf("fsyncs = %d, want 0 before Close", st.Fsyncs)
		}
		// Close flushes regardless of policy.
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("interval", func(t *testing.T) {
		l := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncInterval, SyncInterval: time.Millisecond}, nil)
		defer l.Close()
		l.Append([]byte("a"))
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if l.Stats().Fsyncs > 0 {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatal("background fsync never ran")
	})
	t.Run("explicit sync", func(t *testing.T) {
		l := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever}, nil)
		defer l.Close()
		l.Append([]byte("a"))
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Fsyncs != 1 {
			t.Fatalf("fsyncs = %d, want 1 after explicit Sync", st.Fsyncs)
		}
	})
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"", SyncAlways, true},
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"never", SyncNever, true},
		{"sometimes", "", false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestAppendRejectsNewline(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever}, nil)
	defer l.Close()
	if _, err := l.Append([]byte("two\nlines")); err == nil {
		t.Fatal("Append accepted a payload containing a newline")
	}
}

func TestAppendAfterClose(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever}, nil)
	l.Close()
	if _, err := l.Append([]byte("late")); err == nil {
		t.Fatal("Append succeeded on a closed log")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestReplayCallbackError: an error from the replay callback aborts Open.
func TestReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Sync: SyncNever}
	l := mustOpen(t, opts, nil)
	l.Append([]byte(`{"bad":"payload"}`))
	l.Close()
	_, err := Open(opts, func(Entry) error { return fmt.Errorf("schema drift") })
	if err == nil || !strings.Contains(err.Error(), "schema drift") {
		t.Fatalf("Open = %v, want the callback's error", err)
	}
}

// TestJSONPayloadRoundTrip: the intended workload — one JSON document per
// record — survives framing.
func TestJSONPayloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Sync: SyncNever}
	l := mustOpen(t, opts, nil)
	type rec struct {
		Kind string `json:"kind"`
		N    int    `json:"n"`
	}
	for i := 0; i < 10; i++ {
		b, _ := json.Marshal(rec{Kind: "feedback", N: i})
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	n := 0
	l2, err := Open(opts, func(e Entry) error {
		var r rec
		if err := json.Unmarshal(e.Payload, &r); err != nil {
			return err
		}
		if r.N != n {
			return fmt.Errorf("record %d decoded N=%d", n, r.N)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n != 10 {
		t.Fatalf("replayed %d, want 10", n)
	}
}

// FuzzTornTail feeds arbitrary bytes as the final segment of a log and
// asserts Open either fails cleanly or yields a log whose accepted prefix
// round-trips: no panics, no acceptance of corrupt records.
func FuzzTornTail(f *testing.F) {
	good := appendFrame(nil, 1, []byte(`{"seed":true}`))
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), appendFrame(nil, 2, []byte(`x`))...))
	f.Add([]byte("1 3 00000000 abc\n"))
	f.Add([]byte("garbage with no structure"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Skip()
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Skip()
		}
		var got [][]byte
		l, err := Open(Options{Dir: dir, Sync: SyncNever}, collect(&got, nil))
		if err != nil {
			return // loud failure is an acceptable outcome for arbitrary bytes
		}
		// Whatever was accepted must survive an append + reopen verbatim.
		if _, err := l.Append([]byte("probe")); err != nil {
			t.Fatalf("Append on accepted log: %v", err)
		}
		l.Close()
		var again [][]byte
		l2, err := Open(Options{Dir: dir, Sync: SyncNever}, collect(&again, nil))
		if err != nil {
			t.Fatalf("reopen of accepted log: %v", err)
		}
		l2.Close()
		if len(again) != len(got)+1 {
			t.Fatalf("reopen replayed %d records, want %d", len(again), len(got)+1)
		}
		for i := range got {
			if !bytes.Equal(again[i], got[i]) {
				t.Fatalf("record %d changed across reopen", i)
			}
		}
		if string(again[len(got)]) != "probe" {
			t.Fatalf("probe record corrupted: %q", again[len(got)])
		}
	})
}

// TestLatencyCountersAndDiskBytes: the optional latency histograms observe
// every append and fsync, and the disk-footprint stat tracks appends,
// survives a reopen (re-summed from the live segment files) and shrinks
// under Prune.
func TestLatencyCountersAndDiskBytes(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	ctr := Counters{
		AppendSeconds: reg.Histogram("append_seconds", telemetry.StageBuckets),
		FsyncSeconds:  reg.Histogram("fsync_seconds", telemetry.StageBuckets),
	}
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64, Sync: SyncAlways, Counters: ctr}, nil)
	const records = 8
	var lastSeq uint64
	for i := 0; i < records; i++ {
		seq, err := l.Append([]byte(fmt.Sprintf("record-%02d", i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		lastSeq = seq
	}
	if got := ctr.AppendSeconds.Count(); got != records {
		t.Fatalf("AppendSeconds observed %d appends, want %d", got, records)
	}
	// SyncAlways fsyncs at least once per append (rotation adds more).
	if got := ctr.FsyncSeconds.Count(); got < records {
		t.Fatalf("FsyncSeconds observed %d fsyncs, want >= %d", got, records)
	}
	if ctr.AppendSeconds.Sum() < 0 || ctr.FsyncSeconds.Sum() < 0 {
		t.Fatal("negative latency sums")
	}
	st := l.Stats()
	if got := ctr.FsyncSeconds.Count(); got != st.Fsyncs {
		t.Fatalf("fsync histogram count %d != Stats().Fsyncs %d", got, st.Fsyncs)
	}
	if st.DiskBytes <= 0 || st.Segments < 2 {
		t.Fatalf("Stats = %+v, want bytes on disk across rotated segments", st)
	}
	grown := st.DiskBytes
	l.Close()

	// Reopen re-sums the footprint from the live segment files.
	l2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 64, Sync: SyncNever}, nil)
	defer l2.Close()
	st2 := l2.Stats()
	if st2.DiskBytes != grown {
		t.Fatalf("reopen DiskBytes = %d, want %d (same live segments)", st2.DiskBytes, grown)
	}
	if removed, err := l2.Prune(lastSeq); err != nil || removed == 0 {
		t.Fatalf("Prune removed %d segments (err %v), want > 0", removed, err)
	}
	if after := l2.Stats(); after.DiskBytes >= grown || after.DiskBytes <= 0 {
		t.Fatalf("post-prune DiskBytes = %d, want shrunk from %d but non-zero", after.DiskBytes, grown)
	}
}
