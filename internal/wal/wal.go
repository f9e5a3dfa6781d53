// Package wal is the durability layer of the serving stack: an append-only,
// length+CRC32-framed JSONL write-ahead log with segment rotation, a
// configurable fsync policy, and torn-tail tolerance on recovery.
//
// The log stores opaque single-line payloads (the serving daemon writes JSON
// documents) framed one per line as
//
//	<seq> <len> <crc32-hex> <payload>\n
//
// where seq is the record's monotonically increasing sequence number, len is
// the byte length of the payload, and crc32 is the IEEE CRC32 of the payload
// bytes in fixed-width hex. The frame keeps the file greppable (it is still
// one JSON document per line) while making every record independently
// verifiable: a torn final record — truncated mid-write by a crash, or with
// a flipped bit anywhere in its line — fails the length or CRC check and is
// dropped with a warning on replay, whereas corruption anywhere before the
// final record of the final segment fails loud, because it cannot be
// explained by a crash mid-append.
//
// Records are written across rotating segment files named
// wal-<first-seq>.log. Whole segments made redundant by a snapshot are
// removed with Prune. The fsync policy trades durability for throughput:
// "always" fsyncs every append (no acked record is ever lost), "interval"
// fsyncs dirty segments on a background ticker (bounded loss window), and
// "never" leaves flushing to the OS (crash-consistent but lossy). Writes
// always reach the kernel at append time regardless of policy — the policy
// only governs fsync(2).
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// SyncPolicy selects when appended records are fsynced to disk.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every append: an acked record is durable.
	SyncAlways SyncPolicy = "always"
	// SyncInterval fsyncs dirty segments on a background ticker
	// (Options.SyncInterval): crash loss is bounded by the interval.
	SyncInterval SyncPolicy = "interval"
	// SyncNever never fsyncs explicitly; the OS flushes when it pleases.
	SyncNever SyncPolicy = "never"
)

// ParseSyncPolicy maps the textual flag values onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncInterval, SyncNever:
		return SyncPolicy(s), nil
	case "":
		return SyncAlways, nil
	default:
		return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// Counters are optional telemetry hooks; nil fields are simply not counted.
// The log's counts (appends, fsyncs, replayed records, torn tails) are not
// hooks: they live in the log and are read through Stats.
type Counters struct {
	// AppendSeconds observes the latency of each record append (framing and
	// the write(2), excluding any synchronous fsync).
	AppendSeconds *telemetry.Histogram
	// FsyncSeconds observes the latency of each fsync(2) issued by the log.
	FsyncSeconds *telemetry.Histogram
}

func observe(h *telemetry.Histogram, d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// Options parameterizes Open.
type Options struct {
	// Dir is the segment directory; created if missing. Required.
	Dir string
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size. 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is the fsync policy ("" means SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the flush period under SyncInterval. 0 means
	// DefaultSyncInterval.
	SyncInterval time.Duration
	// Logger receives replay warnings (torn-tail drops). Nil discards.
	Logger *slog.Logger
	// Tracer records wal.append / wal.replay spans. Nil disables.
	Tracer *trace.Tracer
	// Counters are the telemetry hooks.
	Counters Counters
}

// Defaults for zero Options values.
const (
	DefaultSegmentBytes = 64 << 20
	DefaultSyncInterval = 100 * time.Millisecond
)

// Entry is one durable record delivered on replay.
type Entry struct {
	// Seq is the record's sequence number (1-based, dense).
	Seq uint64
	// Payload is the record body. The slice is owned by the callback for
	// the duration of the call only; copy it to retain it.
	Payload []byte
}

// Stats is a point-in-time snapshot of the log's lifetime counters.
type Stats struct {
	Appends       uint64 // records appended this process
	Fsyncs        uint64 // fsync(2) calls issued
	Replayed      uint64 // records replayed by Open
	TornTailDrops uint64 // torn final records dropped by Open
	Segments      int    // live segment files
	DiskBytes     int64  // total bytes across live segment files
	LastSeq       uint64 // sequence number of the newest durable record
}

// Log is an open write-ahead log positioned to append. Safe for concurrent
// use.
type Log struct {
	opts Options
	log  *slog.Logger

	mu        sync.Mutex
	f         *os.File // active segment
	size      int64    // active segment size
	diskBytes int64    // bytes across all live segments
	nextSeq   uint64
	dirty     bool
	closed    bool
	segments  []uint64 // first seq of every live segment, ascending
	buf       []byte   // frame scratch, reused across appends
	readers   map[*Reader]struct{}
	notify    chan struct{} // closed+replaced on append; see WaitFor

	stats struct {
		appends, fsyncs, replayed, torn uint64
	}

	stopSync chan struct{}
	syncDone chan struct{}
}

// Open replays every durable record in opts.Dir through replay (in sequence
// order), truncates any torn tail, and returns a Log positioned to append
// the next record. A nil replay skips delivery but still verifies the log.
// If replay returns an error, Open fails with it.
func Open(opts Options, replay func(Entry) error) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Sync == "" {
		opts.Sync = SyncAlways
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts, log: opts.Logger}

	firsts, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	sp := trace.StartUnder(opts.Tracer, trace.Span{}, "wal.replay")
	sp.Str("dir", opts.Dir)
	last := uint64(0) // seq of the last good record seen
	for i, first := range firsts {
		if i == 0 {
			// The oldest surviving segment sets the starting sequence:
			// snapshots prune whole earlier segments, so first need not be 1.
			last = first - 1
		} else if first != last+1 {
			sp.End()
			return nil, fmt.Errorf("wal: segment %s starts at seq %d, want %d (missing segment?)",
				segmentName(first), first, last+1)
		}
		final := i == len(firsts)-1
		goodEnd, lastGood, n, err := l.replaySegment(segmentPath(opts.Dir, first), first, final, replay)
		if err != nil {
			sp.End()
			return nil, err
		}
		if n > 0 {
			last = lastGood
		}
		if final {
			// Continue appending to the final segment, truncated past any
			// torn tail so new frames start on a clean boundary.
			f, err := os.OpenFile(segmentPath(opts.Dir, first), os.O_WRONLY, 0o644)
			if err != nil {
				sp.End()
				return nil, fmt.Errorf("wal: reopening final segment: %w", err)
			}
			if err := f.Truncate(goodEnd); err != nil {
				f.Close()
				sp.End()
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			if _, err := f.Seek(goodEnd, 0); err != nil {
				f.Close()
				sp.End()
				return nil, fmt.Errorf("wal: seeking final segment: %w", err)
			}
			l.f, l.size = f, goodEnd
		}
	}
	l.segments = firsts
	l.nextSeq = last + 1
	for _, first := range firsts {
		// Sized after the torn-tail truncate above, so the sum reflects the
		// durable on-disk footprint exactly.
		if fi, err := os.Stat(segmentPath(opts.Dir, first)); err == nil {
			l.diskBytes += fi.Size()
		}
	}
	sp.Int("replayed", int64(l.stats.replayed))
	sp.Int("torn_tail_drops", int64(l.stats.torn))
	sp.Int("next_seq", int64(l.nextSeq))
	sp.End()

	if l.f == nil {
		// Fresh log: create the first segment eagerly so the directory is
		// recognizably a WAL from the first moment.
		if err := l.rotateLocked(); err != nil {
			return nil, err
		}
	}
	if opts.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// Append frames payload as the next record, writes it to the active segment
// and applies the fsync policy. The payload must be a single line (no '\n');
// the daemon writes one JSON document per record. Returns the record's
// sequence number.
func (l *Log) Append(payload []byte) (uint64, error) {
	for _, b := range payload {
		if b == '\n' {
			return 0, errors.New("wal: payload must not contain newlines (one JSON document per record)")
		}
	}
	sp := trace.StartUnder(l.opts.Tracer, trace.Span{}, "wal.append")
	defer sp.End()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: log is closed")
	}
	start := time.Now()
	seq := l.nextSeq
	l.buf = appendFrame(l.buf[:0], seq, payload)
	if _, err := l.f.Write(l.buf); err != nil {
		return 0, fmt.Errorf("wal: appending record %d: %w", seq, err)
	}
	l.size += int64(len(l.buf))
	l.diskBytes += int64(len(l.buf))
	l.nextSeq++
	l.dirty = true
	l.notifyLocked()
	l.stats.appends++
	observe(l.opts.Counters.AppendSeconds, time.Since(start))
	sp.Int("seq", int64(seq))
	sp.Int("bytes", int64(len(l.buf)))
	if l.opts.Sync == SyncAlways {
		if err := l.fsyncLocked(); err != nil {
			return 0, err
		}
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync forces an fsync of the active segment, whatever the policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.fsyncLocked()
}

// fsyncLocked fsyncs the active segment if dirty. Callers hold l.mu.
func (l *Log) fsyncLocked() error {
	if !l.dirty || l.f == nil {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.stats.fsyncs++
	observe(l.opts.Counters.FsyncSeconds, time.Since(start))
	return nil
}

// rotateLocked fsyncs and closes the active segment (if any) and opens a new
// one starting at nextSeq. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.fsyncLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: closing segment: %w", err)
		}
		l.f = nil
	}
	path := segmentPath(l.opts.Dir, l.nextSeq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	l.f, l.size = f, 0
	l.segments = append(l.segments, l.nextSeq)
	return nil
}

// Prune removes whole segments every record of which has sequence number
// <= seq (typically the WAL position of the latest snapshot). The active
// segment is never removed, and neither is a segment an open Reader has not
// fully consumed — a streaming follower pins its position, so pruning can
// never unlink a file out from under a tailing reader (the satellite race
// this contract closes). Returns the number of segments removed.
func (l *Log) Prune(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segments) > 1 {
		// Segment 0 covers [segments[0], segments[1]-1].
		end := l.segments[1] - 1
		if end > seq {
			break
		}
		pinned := false
		for r := range l.readers {
			if r.pos.Load() <= end {
				pinned = true
				break
			}
		}
		if pinned {
			break
		}
		path := segmentPath(l.opts.Dir, l.segments[0])
		var pruned int64
		if fi, err := os.Stat(path); err == nil {
			pruned = fi.Size()
		}
		if err := os.Remove(path); err != nil {
			return removed, fmt.Errorf("wal: pruning %s: %w", filepath.Base(path), err)
		}
		l.diskBytes -= pruned
		l.segments = l.segments[1:]
		removed++
	}
	return removed, nil
}

// LastSeq returns the sequence number of the newest appended record (0 for
// an empty log).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:       l.stats.appends,
		Fsyncs:        l.stats.fsyncs,
		Replayed:      l.stats.replayed,
		TornTailDrops: l.stats.torn,
		Segments:      len(l.segments),
		DiskBytes:     l.diskBytes,
		LastSeq:       l.nextSeq - 1,
	}
}

// Close flushes and closes the log. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.notifyLocked() // wake WaitFor waiters so streams observe the close
	stop, done := l.stopSync, l.syncDone
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.f != nil {
		if l.dirty {
			if serr := l.f.Sync(); serr == nil {
				l.stats.fsyncs++
			} else {
				err = serr
			}
			l.dirty = false
		}
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// syncLoop is the background flusher for the interval policy.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	tick := time.NewTicker(l.opts.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-tick.C:
			l.mu.Lock()
			if !l.closed {
				if err := l.fsyncLocked(); err != nil {
					l.log.Error("wal: background fsync", "err", err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// appendFrame appends the framed record to dst and returns it.
func appendFrame(dst []byte, seq uint64, payload []byte) []byte {
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(payload)), 10)
	dst = append(dst, ' ')
	crc := crc32.ChecksumIEEE(payload)
	dst = append(dst, fmt.Sprintf("%08x", crc)...)
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	dst = append(dst, '\n')
	return dst
}

// segmentName formats the file name of the segment whose first record is
// seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%020d.log", seq) }

func segmentPath(dir string, seq uint64) string { return filepath.Join(dir, segmentName(seq)) }

// listSegments returns the first-sequence numbers of every segment in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var firsts []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: unrecognized segment file %q", name)
		}
		firsts = append(firsts, n)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}
