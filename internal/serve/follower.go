// The follower side of WAL-shipping replication (DESIGN.md §16): a server
// constructed with Config.FollowURL never takes writes of its own — its
// entire state is a pure function of the leader's WAL, fed through the same
// restore/apply every other role uses (state.go). The scoring path stamps
// window columns read-only (window.PeekColumns) so local traffic never
// mutates the mirrored aggregates. The follower's /v1/rules ETag therefore
// equals the leader's at the same version — the invariant cluster-smoke
// asserts.
package serve

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/replica"
)

// followerState is the replication-side state of a following server.
type followerState struct {
	leaderURL string

	applied    atomic.Uint64 // last WAL seq applied
	target     atomic.Uint64 // leader's last seq at first connect: the catch-up goal
	leaderSeq  atomic.Uint64 // leader's last seq at the most recent (re)connect
	snapSeq    atomic.Uint64 // seq of the bootstrap snapshot
	reconnects atomic.Uint64
	caughtUp   atomic.Bool
}

// ready reports whether replay has reached the leader's position as of the
// first connect — the /readyz gate: a load balancer never routes to a
// follower still serving a stale version.
func (f *followerState) ready() bool { return f.caughtUp.Load() }

// lag returns how many records the follower trails the last known leader
// position (clamped at 0: the stream can be ahead of the last manifest).
func (f *followerState) lag() uint64 {
	leader, applied := f.leaderSeq.Load(), f.applied.Load()
	if applied >= leader {
		return 0
	}
	return leader - applied
}

// collect emits the replication series from the follower's own position.
func (f *followerState) collect(emit func(string, float64)) {
	emit("rudolf_replica_applied_seq", float64(f.applied.Load()))
	emit("rudolf_replica_lag_records", float64(f.lag()))
	emit("rudolf_replica_reconnects_total", float64(f.reconnects.Load()))
}

// setApplied advances the applied position and flips readiness once the
// catch-up target is reached.
func (s *Server) setApplied(seq uint64) {
	f := s.follower
	f.applied.Store(seq)
	if !f.caughtUp.Load() && f.target.Load() > 0 && seq >= f.target.Load() {
		f.caughtUp.Store(true)
		s.log.Info("follower caught up", "leader", f.leaderURL, "applied", seq, "version", s.Version())
	}
}

// Follow replicates from Config.FollowURL until ctx is cancelled. It blocks;
// run it in its own goroutine next to Serve. A nil return means ctx ended
// the loop. A non-nil return is unrecoverable in place — most notably
// replica.ErrContinuityLost (the leader pruned past our position) — and the
// process should exit so a restart re-bootstraps cleanly.
func (s *Server) Follow(ctx context.Context) error {
	if s.follower == nil {
		return errors.New("serve: Follow requires Config.FollowURL")
	}
	f := s.follower
	rep, err := replica.New(replica.Config{
		LeaderURL: f.leaderURL,
		Target:    followTarget{s},
		Logger:    s.log,
		OnConnect: func(leaderLast, snapSeq uint64) {
			f.leaderSeq.Store(leaderLast)
			// The catch-up target freezes at the first connect: /readyz must
			// not flap back to 503 just because the leader kept writing.
			if f.target.Load() == 0 {
				t := leaderLast
				if t == 0 {
					t = 1 // a durable leader writes its initial publish as seq 1
				}
				f.target.Store(t)
			}
			if f.applied.Load() >= f.target.Load() {
				f.caughtUp.Store(true)
			}
		},
		OnApplied:   func(seq uint64) { s.setApplied(seq) },
		OnReconnect: func(err error) { f.reconnects.Add(1) },
	})
	if err != nil {
		return err
	}
	return rep.Run(ctx)
}

// followTarget is the replica.Target over the state machine: Bootstrap is
// restore, Apply is apply (progress is tracked by OnApplied above).
type followTarget struct{ s *Server }

func (t followTarget) Bootstrap(seq uint64, files map[string][]byte) error {
	if err := t.s.restore(seq, files); err != nil {
		return err
	}
	t.s.follower.snapSeq.Store(seq)
	t.s.setApplied(seq)
	return nil
}

func (t followTarget) Apply(seq uint64, payload []byte) error { return t.s.applyPayload(seq, payload) }

// statusResponse is the GET /v1/status document: one small stable identity
// record shared by leaders and followers, so cluster tooling never scrapes
// /metrics text to learn a node's role.
type statusResponse struct {
	RequestID string `json:"request_id,omitempty"`
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// Version is the published rule-set version.
	Version int `json:"version"`
	// WALLastSeq is the newest durable WAL seq (leader; 0 when not durable)
	// or the last applied seq (follower).
	WALLastSeq uint64 `json:"wal_last_seq"`
	// SnapshotSeq is the WAL seq of the newest local snapshot (leader) or of
	// the bootstrap snapshot (follower).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// UptimeS is seconds since the process constructed the server.
	UptimeS float64 `json:"uptime_s"`
	// Ready mirrors /readyz: false while draining or while a follower is
	// still catching up.
	Ready bool `json:"ready"`
	// AlertsFiring is the number of alert rules currently in the firing
	// state on this node (see GET /v1/alerts).
	AlertsFiring int `json:"alerts_firing"`
}

// handleStatus serves the node identity document.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) error {
	resp := statusResponse{
		RequestID:    requestMeta(r).id,
		Role:         "leader",
		Version:      s.Version(),
		UptimeS:      time.Since(s.started).Seconds(),
		Ready:        !s.draining.Load(),
		AlertsFiring: s.alerts.FiringCount(),
	}
	if f := s.follower; f != nil {
		resp.Role = "follower"
		resp.WALLastSeq = f.applied.Load()
		resp.SnapshotSeq = f.snapSeq.Load()
		resp.Ready = resp.Ready && f.ready()
	} else if s.wal != nil {
		resp.WALLastSeq = s.wal.LastSeq()
		resp.SnapshotSeq = s.lastSnapSeq.Load()
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}

// debugReplicationState is the replication block of GET /v1/debug/state.
type debugReplicationState struct {
	Role       string `json:"role"`
	LeaderURL  string `json:"leader_url,omitempty"`
	AppliedSeq uint64 `json:"applied_seq"`
	LeaderSeq  uint64 `json:"leader_seq,omitempty"`
	LagRecords uint64 `json:"lag_records"`
	Reconnects uint64 `json:"reconnects"`
	CaughtUp   bool   `json:"caught_up"`
}

// replicationDebugState builds the replication block for /v1/debug/state.
func (s *Server) replicationDebugState() *debugReplicationState {
	if f := s.follower; f != nil {
		return &debugReplicationState{
			Role:       "follower",
			LeaderURL:  f.leaderURL,
			AppliedSeq: f.applied.Load(),
			LeaderSeq:  f.leaderSeq.Load(),
			LagRecords: f.lag(),
			Reconnects: f.reconnects.Load(),
			CaughtUp:   f.ready(),
		}
	}
	st := &debugReplicationState{Role: "leader", CaughtUp: true}
	if s.wal != nil {
		st.AppliedSeq = s.wal.LastSeq()
	}
	return st
}
