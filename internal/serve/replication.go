// The leader side of WAL-shipping replication (DESIGN.md §16): the /v1/wal
// surface a follower bootstraps and tails from. All three endpoints are
// gated on durability — replication ships the write-ahead log, so a leader
// without Config.DataDir has nothing to serve.
//
//	GET /v1/wal/segments        point-in-time manifest: segment list, last
//	                            durable seq, newest snapshot seq
//	GET /v1/wal/snapshot?seq=N  every file of snapshot N, base64-encoded in
//	                            one atomic JSON document
//	GET /v1/wal/stream?from=N   chunked raw WAL frames from seq N, exactly
//	                            the on-disk "<seq> <len> <crc32> <payload>"
//	                            wire format, long-polling at the tail
package serve

import (
	"encoding/base64"
	"errors"
	"io/fs"
	"net/http"
	"path/filepath"
	"strconv"

	"repro/internal/wal"
)

// walSegmentsResponse is the GET /v1/wal/segments document. A follower uses
// snapshot_seq to pick its bootstrap point and last_seq as its catch-up
// target.
type walSegmentsResponse struct {
	RequestID   string            `json:"request_id,omitempty"`
	FirstSeq    uint64            `json:"first_seq"`
	LastSeq     uint64            `json:"last_seq"`
	SnapshotSeq uint64            `json:"snapshot_seq"`
	Segments    []wal.SegmentInfo `json:"segments"`
}

// walSnapshotResponse is the GET /v1/wal/snapshot document: the files of one
// snapshot directory in a single response, so a concurrent snapshot rotation
// can never hand a follower a torn mix of two snapshots.
type walSnapshotResponse struct {
	RequestID string            `json:"request_id,omitempty"`
	Seq       uint64            `json:"seq"`
	Files     map[string]string `json:"files"`
}

// errNoWAL gates the replication surface on durability.
var errNoWAL = errorf(http.StatusNotFound, CodeNotFound, "replication requires a durable leader (start with -data-dir)")

// handleWALSegments serves the WAL manifest.
func (s *Server) handleWALSegments(w http.ResponseWriter, r *http.Request) error {
	if s.wal == nil {
		return errNoWAL
	}
	m := s.wal.Manifest()
	s.writeJSON(w, http.StatusOK, walSegmentsResponse{
		RequestID:   requestMeta(r).id,
		FirstSeq:    m.FirstSeq,
		LastSeq:     m.LastSeq,
		SnapshotSeq: s.lastSnapSeq.Load(),
		Segments:    m.Segments,
	})
	return nil
}

// handleWALSnapshot serves the files of one snapshot (?seq=N; default the
// newest) base64-encoded in a single document. If the requested snapshot was
// rotated away in the meantime the follower gets a 404 and refetches the
// manifest — never a mix of two snapshots, and never a snapshot short of a
// file its manifest declares.
func (s *Server) handleWALSnapshot(w http.ResponseWriter, r *http.Request) error {
	if s.wal == nil {
		return errNoWAL
	}
	seq := s.lastSnapSeq.Load()
	if q := r.URL.Query().Get("seq"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return errorf(http.StatusBadRequest, CodeBadRequest, "bad seq %q (want an unsigned integer)", q)
		}
		seq = v
	}
	if seq == 0 {
		return errorf(http.StatusNotFound, CodeNotFound, "no snapshot yet (bootstrap empty and stream from seq 1)")
	}
	raw, err := readSnapshotDir(filepath.Join(s.cfg.DataDir, snapName(seq)))
	if errors.Is(err, fs.ErrNotExist) {
		// Rotated away, or being rotated away right now (removal unlinks file
		// by file): never hand out the part that is still there.
		return errorf(http.StatusNotFound, CodeNotFound,
			"snapshot %d is gone (rotated away); refetch /v1/wal/segments", seq)
	}
	if err != nil {
		return errorf(http.StatusInternalServerError, CodeInternal, "reading snapshot %d: %v", seq, err)
	}
	files := make(map[string]string, len(raw))
	for name, data := range raw {
		files[name] = base64.StdEncoding.EncodeToString(data)
	}
	s.writeJSON(w, http.StatusOK, walSnapshotResponse{RequestID: requestMeta(r).id, Seq: seq, Files: files})
	return nil
}

// handleWALStream streams raw WAL frames from ?from=<seq>, long-polling at
// the durable tail. The open Reader pins its position, so snapshot pruning
// can never unlink a segment out from under the stream (wal.Log.Prune); a
// `from` that was already pruned answers 409 — the follower's signal to
// re-bootstrap from a snapshot.
//
// The route is mounted without a deadline (the response is long-lived by
// design) and uninstrumented (a stream span would live for
// minutes and always be promoted into the slow ring). The stream ends when
// the client disconnects, the server drains, or the WAL is corrupt.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) error {
	if s.wal == nil {
		return errNoWAL
	}
	from := uint64(1)
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil || v == 0 {
			return errorf(http.StatusBadRequest, CodeBadRequest, "bad from %q (want a sequence number >= 1)", q)
		}
		from = v
	}
	rd, err := s.wal.NewReader(from)
	if err != nil {
		if errors.Is(err, wal.ErrPruned) {
			return errorf(http.StatusConflict, CodeConflict,
				"seq %d was pruned behind a snapshot; re-bootstrap from /v1/wal/snapshot (%v)", from, err)
		}
		return errorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
	defer rd.Close()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	ctx := r.Context()
	var buf []byte
	for {
		e, ok, rerr := rd.Next()
		if rerr != nil {
			// Corruption mid-log or the log closed under us: drop the
			// connection; the follower reconnects and the manifest decides.
			s.log.Warn("wal stream aborted", "from", from, "pos", rd.Pos(), "err", rerr)
			return nil
		}
		if ok {
			buf = wal.AppendFrame(buf[:0], e.Seq, e.Payload)
			if _, werr := w.Write(buf); werr != nil {
				if !isClientGone(werr) {
					s.log.Warn("wal stream write failed", "err", werr)
				}
				return nil
			}
			continue
		}
		// Durable tail: flush what the follower has not seen yet, then
		// long-poll for the next append (or the end of the world).
		rc.Flush() //nolint:errcheck // ErrNotSupported: nothing buffered to push
		select {
		case <-ctx.Done():
			return nil
		case <-s.drainCh:
			return nil // draining: the follower reconnects elsewhere/later
		case <-s.wal.WaitFor(rd.Pos()):
		}
	}
}
