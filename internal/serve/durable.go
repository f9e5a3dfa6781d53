// Durable serving state: the write-ahead log and snapshot machinery behind
// Config.DataDir — the leader's commit path, the boot path, and the snapshot
// writer/reader. What a record or a snapshot *means* lives in state.go.
//
// Layout of the data directory:
//
//	<DataDir>/wal/wal-<firstseq>.log   length+CRC32-framed JSONL segments
//	<DataDir>/snap-<walseq>/           one snapshot: the snapshotFiles
//	                                   (manifest.json, feedback.csv,
//	                                   history.json and, when the schema has
//	                                   a time attribute, window.json)
//
// Every acknowledged mutation — a /v1/feedback batch, a rule-set publish
// from /v1/rules or an accepted /v1/refine, and, while windowed rules are
// published, every scored batch (an "observe" record feeding the
// sliding-window aggregate store) — is appended to the WAL *before* the
// in-memory state changes, so the on-disk log is always a superset of what
// clients were told. Snapshots capture the full state and bind it to a WAL
// position so replay time stays bounded: on boot the newest valid snapshot
// is restored and only WAL records past its position are replayed, in
// sequence order, through the same apply the leader committed them with.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/wal"
)

const snapPrefix = "snap-"

// openDurability is the durable boot: restore the newest valid snapshot under
// cfg.DataDir, then replay the WAL past its position into apply — failing if
// the WAL no longer reaches back to it (see walGap). It leaves s.wal open for
// appending and reports whether any previous state was restored (false on a
// first boot, where the caller publishes the initial rules — which becomes
// WAL record 1).
func (s *Server) openDurability() (restored bool, err error) {
	dir := s.cfg.DataDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, fmt.Errorf("serve: data dir: %w", err)
	}
	snapSeq, err := s.loadLatestSnapshot()
	if err != nil {
		return false, err
	}
	policy, err := wal.ParseSyncPolicy(s.cfg.Fsync)
	if err != nil {
		return false, err // unreachable: Validate already parsed it
	}
	applied := 0
	l, err := wal.Open(wal.Options{
		Dir:          filepath.Join(dir, "wal"),
		SegmentBytes: s.cfg.WALSegmentBytes,
		Sync:         policy,
		SyncInterval: s.cfg.FsyncInterval,
		Logger:       s.log,
		Tracer:       s.tracer,
		Counters:     s.walCounters,
	}, func(e wal.Entry) error {
		if e.Seq <= snapSeq {
			return nil // already inside the snapshot
		}
		if applied == 0 && e.Seq > snapSeq+1 {
			return walGap(e.Seq, snapSeq)
		}
		applied++
		return s.applyPayload(e.Seq, e.Payload)
	})
	if err != nil {
		return false, err
	}
	if first := l.Manifest().FirstSeq; first > snapSeq+1 {
		// The same gap in a log with no records past it for replay to see.
		l.Close() //nolint:errcheck // already failing
		return false, walGap(first, snapSeq)
	}
	s.wal = l
	s.lastSnapSeq.Store(snapSeq)
	if s.hist.Len() == 0 {
		s.log.Info("data dir is empty, first boot", "data_dir", dir)
		return false, nil
	}
	s.log.Info("durable state restored",
		"data_dir", dir, "version", s.Version(), "rules", s.Rules().Len(),
		"feedback", s.feedback.Len(), "snapshot_seq", snapSeq,
		"replayed_records", applied, "wal_last_seq", l.LastSeq())
	return true, nil
}

// walGap is the boot error for a WAL that starts at seq first when the newest
// loadable snapshot ends at snapSeq: the segments in between were pruned
// behind a newer snapshot that no longer loads, so replaying the rest would
// serve without acknowledged records.
func walGap(first, snapSeq uint64) error {
	return fmt.Errorf("serve: the WAL starts at seq %d but the newest loadable snapshot ends at seq %d: records %d..%d are missing",
		first, snapSeq, snapSeq+1, first-1)
}

// commit is the leader's whole write path: append rec to the WAL (when
// durable), then apply it. The append comes first — a mutation that cannot be
// made durable is not made at all — and both happen under the record's locks
// (see apply), which the caller holds.
func (s *Server) commit(rec *walRecord) error {
	var seq uint64
	if s.wal != nil {
		var err error
		if seq, err = s.walAppend(rec); err != nil {
			return err
		}
	}
	return s.apply(seq, rec)
}

func (s *Server) walAppend(rec *walRecord) (uint64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("marshaling %s record: %w", rec.Type, err)
	}
	return s.wal.Append(payload)
}

// Snapshot writes a consistent snapshot of the serving state (the
// snapshotFiles, bound to a WAL position by the manifest), then prunes WAL
// segments the snapshot made redundant and removes older snapshots. No-op
// (nil) when nothing has been logged since the last snapshot; an error when
// the server is not durable.
func (s *Server) Snapshot() error {
	if s.wal == nil {
		return fmt.Errorf("serve: Snapshot requires Config.DataDir")
	}
	sp := s.tracer.Start("snapshot")
	defer sp.End()

	// The state is serialized in memory under mu; the (slower) file writes
	// and fsyncs below happen with the control plane unblocked.
	s.mu.Lock()
	if s.wal.LastSeq() == s.lastSnapSeq.Load() {
		s.mu.Unlock()
		sp.Bool("skipped", true)
		return nil
	}
	m, files, err := s.dump(s.wal.LastSeq)
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	seq := m.WALSeq
	final := filepath.Join(s.cfg.DataDir, snapName(seq))
	tmp := final + ".tmp"
	if err := writeSnapshotDir(tmp, files); err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.RemoveAll(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	s.mu.Lock()
	if seq > s.lastSnapSeq.Load() {
		s.lastSnapSeq.Store(seq)
	}
	s.mu.Unlock()
	s.mSnapshots.Inc()
	sp.Int("wal_seq", int64(seq))
	sp.Int("feedback", int64(m.Feedback))
	sp.Int("version", int64(m.Version))

	pruned, err := s.wal.Prune(seq)
	if err != nil {
		return err
	}
	if err := s.removeOldSnapshots(seq); err != nil {
		return err
	}
	s.log.Info("snapshot written", "wal_seq", seq, "version", m.Version,
		"feedback", m.Feedback, "pruned_segments", pruned)
	return nil
}

// writeSnapshotDir writes files into dir (a temp directory later renamed into
// place), each fsynced. The manifest goes last: a snapshot without a valid
// manifest is invisible to the loader, so a crash mid-snapshot can never be
// loaded.
func writeSnapshotDir(dir string, files map[string][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := len(snapshotFiles) - 1; i >= 0; i-- {
		name := snapshotFiles[i]
		data, ok := files[name]
		if !ok {
			continue
		}
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if _, err = f.Write(data); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// errNoManifest marks a snapshot directory whose manifest is missing or does
// not parse.
var errNoManifest = errors.New("unreadable manifest")

// readSnapshotDir reads the snapshotFiles of one snapshot directory — the
// one reader behind the boot loader and GET /v1/wal/snapshot. A file the
// snapshot owes but does not have (the directory is being rotated away under
// the reader, or is corrupt) is an error wrapping fs.ErrNotExist; windowFile
// is owed when the manifest declares it.
func readSnapshotDir(dir string) (map[string][]byte, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	var m manifest
	if err == nil {
		m, err = parseManifest(raw)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errNoManifest, err)
	}
	files := map[string][]byte{manifestFile: raw}
	for _, name := range snapshotFiles[1:] {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if name == windowFile && !m.Window && errors.Is(err, fs.ErrNotExist) {
			continue // a snapshot from before the manifest declared it
		}
		if err != nil {
			return nil, err
		}
		files[name] = data
	}
	return files, nil
}

// loadLatestSnapshot restores the newest valid snapshot and returns its WAL
// position (0 when no snapshot exists). Snapshots without a parseable
// manifest are skipped with a warning; a valid manifest over unreadable state
// is corruption and fails loud. A crash mid-rename leaves a .tmp directory
// the loader never considers.
func (s *Server) loadLatestSnapshot() (uint64, error) {
	ents, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return 0, fmt.Errorf("serve: data dir: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, snapPrefix) || strings.HasSuffix(name, ".tmp") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(name, snapPrefix), 10, 64)
		if err != nil {
			s.log.Warn("ignoring unrecognized snapshot directory", "name", name)
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] }) // newest first
	for _, seq := range seqs {
		dir := filepath.Join(s.cfg.DataDir, snapName(seq))
		files, err := readSnapshotDir(dir)
		if errors.Is(err, errNoManifest) {
			s.log.Warn("skipping snapshot", "dir", dir, "err", err)
			continue
		}
		if err == nil {
			err = s.restore(seq, files)
		}
		if err != nil {
			return 0, fmt.Errorf("serve: snapshot %s: %w", snapName(seq), err)
		}
		s.log.Info("snapshot loaded", "dir", dir, "wal_seq", seq, "version", s.Version(), "feedback", s.feedback.Len())
		return seq, nil
	}
	return 0, nil
}

// removeOldSnapshots deletes every snapshot older than keepSeq and any
// leftover .tmp directories.
func (s *Server) removeOldSnapshots(keepSeq uint64) error {
	ents, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("serve: data dir: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, snapPrefix) {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			os.RemoveAll(filepath.Join(s.cfg.DataDir, name)) //nolint:errcheck // best-effort cleanup
			continue
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(name, snapPrefix), 10, 64)
		if err != nil || n >= keepSeq {
			continue
		}
		if err := os.RemoveAll(filepath.Join(s.cfg.DataDir, name)); err != nil {
			return fmt.Errorf("serve: removing old snapshot %s: %w", name, err)
		}
	}
	return nil
}

func snapName(seq uint64) string { return fmt.Sprintf("%s%020d", snapPrefix, seq) }

// snapshotLoop periodically snapshots until Close.
func (s *Server) snapshotLoop(interval time.Duration) {
	defer close(s.snapDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-tick.C:
			if err := s.Snapshot(); err != nil {
				s.log.Error("periodic snapshot failed", "err", err)
			}
		}
	}
}

// Close flushes the durable state — a final snapshot and a WAL fsync — and
// releases the log. Safe to call more than once; Serve calls it after the
// drain. Servers without a DataDir close trivially.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.alertStop != nil {
			close(s.alertStop)
			<-s.alertDone
		}
		if s.alerts != nil {
			s.alerts.Close()
		}
		if s.snapStop != nil {
			close(s.snapStop)
			<-s.snapDone
		}
		if s.wal == nil {
			return
		}
		if err := s.Snapshot(); err != nil {
			s.closeErr = err
		}
		if err := s.wal.Sync(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
		if err := s.wal.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
		s.log.Info("durable state flushed", "data_dir", s.cfg.DataDir)
	})
	return s.closeErr
}
