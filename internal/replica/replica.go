// Package replica is the follower side of WAL-shipping replication
// (DESIGN.md §16): it bootstraps a scoring node from the leader's newest
// snapshot, tails the leader's write-ahead log over HTTP, CRC-verifies every
// frame against the exact on-disk wire format, and hands each record to a
// Target (in the daemon: the serve state machine's restore and apply). The
// loop reconnects with exponential backoff on any transport error; the only
// unrecoverable condition is lost log continuity (the leader pruned past the
// follower's position), which is surfaced as ErrContinuityLost so the
// process can exit and re-bootstrap cleanly on restart.
package replica

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/wal"
)

// ErrContinuityLost reports that the leader no longer has the records the
// follower needs: the stream position was pruned behind a snapshot the
// follower did not bootstrap from. In-place recovery would double-apply
// feedback, so the replicator stops; restarting the process re-bootstraps
// from the leader's newest snapshot.
var ErrContinuityLost = errors.New("replica: leader pruned past our position; restart to re-bootstrap")

// Target consumes the replicated state. Both methods are called from the
// replicator's single goroutine, Bootstrap exactly once and before any
// Apply. An error from either is fatal to the replication loop.
type Target interface {
	// Bootstrap installs the leader snapshot covering WAL records 1..seq.
	// seq 0 with nil files means the leader has no snapshot yet (fresh
	// leader); the target starts empty and every record arrives via Apply.
	Bootstrap(seq uint64, files map[string][]byte) error
	// Apply replays one WAL record. seq is dense: always the previously
	// applied sequence number plus one.
	Apply(seq uint64, payload []byte) error
}

// Config parameterizes New.
type Config struct {
	// LeaderURL is the leader's base URL (e.g. http://10.0.0.1:8080).
	// Required.
	LeaderURL string
	// Target receives the bootstrap snapshot and the replayed records.
	// Required.
	Target Target
	// Client performs the HTTP requests. Nil means a client without an
	// overall timeout (the stream request is long-lived by design;
	// per-request control fetches carry their own context deadlines).
	Client *http.Client
	// Logger receives connection lifecycle logs. Nil discards.
	Logger *slog.Logger
	// BackoffMin and BackoffMax bound the reconnect backoff (defaults
	// 100ms and 5s). The backoff resets whenever a connection makes
	// progress.
	BackoffMin, BackoffMax time.Duration
	// OnConnect is called after each successful manifest fetch with the
	// leader's last durable seq and snapshot seq. Optional.
	OnConnect func(leaderLastSeq, snapshotSeq uint64)
	// OnApplied is called after each applied record. Optional.
	OnApplied func(seq uint64)
	// OnReconnect is called before each backoff sleep with the error that
	// broke the connection. Optional.
	OnReconnect func(err error)
}

// Defaults for zero Config values.
const (
	DefaultBackoffMin = 100 * time.Millisecond
	DefaultBackoffMax = 5 * time.Second
)

// controlTimeout bounds the non-streaming control fetches (manifest,
// snapshot).
const controlTimeout = 30 * time.Second

// Manifest mirrors the leader's GET /v1/wal/segments document.
type Manifest struct {
	FirstSeq    uint64            `json:"first_seq"`
	LastSeq     uint64            `json:"last_seq"`
	SnapshotSeq uint64            `json:"snapshot_seq"`
	Segments    []wal.SegmentInfo `json:"segments"`
}

// snapshotDoc mirrors the leader's GET /v1/wal/snapshot document: the files
// of one snapshot directory, base64-encoded, fetched atomically in a single
// response so a concurrent snapshot rotation can never hand out a torn mix.
type snapshotDoc struct {
	Seq   uint64            `json:"seq"`
	Files map[string]string `json:"files"`
}

// Replicator drives the bootstrap-then-tail loop against one leader.
type Replicator struct {
	cfg     Config
	log     *slog.Logger
	applied uint64 // last seq handed to Target
	booted  bool
}

// New validates the configuration and returns a Replicator ready to Run.
func New(cfg Config) (*Replicator, error) {
	if cfg.LeaderURL == "" {
		return nil, errors.New("replica: Config.LeaderURL is required")
	}
	u, err := url.Parse(cfg.LeaderURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("replica: leader URL %q is not an absolute URL", cfg.LeaderURL)
	}
	if cfg.Target == nil {
		return nil, errors.New("replica: Config.Target is required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = DefaultBackoffMin
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	cfg.LeaderURL = strings.TrimRight(cfg.LeaderURL, "/")
	return &Replicator{cfg: cfg, log: cfg.Logger}, nil
}

// Run blocks replicating from the leader until ctx is cancelled (returns
// nil) or an unrecoverable error occurs: ErrContinuityLost, or a Target
// rejection (corrupt or incompatible leader state). Transport errors are
// retried forever with capped exponential backoff.
func (r *Replicator) Run(ctx context.Context) error {
	backoff := r.cfg.BackoffMin
	for {
		progressed, err := r.connectOnce(ctx)
		if ctx.Err() != nil {
			return nil
		}
		if err == nil {
			// The stream ended cleanly (leader drained). Reconnect.
			err = errors.New("replica: stream closed by leader")
		}
		if errors.Is(err, ErrContinuityLost) || isFatal(err) {
			return err
		}
		if r.cfg.OnReconnect != nil {
			r.cfg.OnReconnect(err)
		}
		if progressed {
			backoff = r.cfg.BackoffMin
		}
		r.log.Info("replica: reconnecting", "leader", r.cfg.LeaderURL, "applied", r.applied, "backoff", backoff, "err", err)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > r.cfg.BackoffMax {
			backoff = r.cfg.BackoffMax
		}
	}
}

// fatalError marks Target rejections: retrying cannot help.
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

func isFatal(err error) bool {
	var fe fatalError
	return errors.As(err, &fe)
}

// connectOnce performs one manifest → (bootstrap) → stream cycle. It
// returns progressed=true when at least one record was applied (or the
// bootstrap completed), so Run can reset the backoff.
func (r *Replicator) connectOnce(ctx context.Context) (progressed bool, err error) {
	man, err := r.fetchManifest(ctx)
	if err != nil {
		return false, err
	}
	if !r.booted {
		if err := r.bootstrap(ctx, man); err != nil {
			return false, err
		}
		progressed = true
	}
	if r.cfg.OnConnect != nil {
		r.cfg.OnConnect(man.LastSeq, man.SnapshotSeq)
	}
	streamed, err := r.stream(ctx)
	return progressed || streamed, err
}

// bootstrap installs the leader's newest snapshot (or an empty state when
// the leader has none) into the Target.
func (r *Replicator) bootstrap(ctx context.Context, man Manifest) error {
	var files map[string][]byte
	seq := man.SnapshotSeq
	if seq > 0 {
		doc, err := r.fetchSnapshot(ctx, seq)
		if err != nil {
			return err
		}
		files = make(map[string][]byte, len(doc.Files))
		for name, b64 := range doc.Files {
			data, err := base64.StdEncoding.DecodeString(b64)
			if err != nil {
				return fatalError{fmt.Errorf("replica: snapshot file %s: %w", name, err)}
			}
			files[name] = data
		}
		seq = doc.Seq
	}
	if err := r.cfg.Target.Bootstrap(seq, files); err != nil {
		return fatalError{fmt.Errorf("replica: bootstrap at seq %d rejected: %w", seq, err)}
	}
	r.applied = seq
	r.booted = true
	r.log.Info("replica: bootstrapped", "leader", r.cfg.LeaderURL, "snapshot_seq", seq, "leader_last_seq", man.LastSeq)
	return nil
}

// stream tails GET /v1/wal/stream from applied+1, verifying and applying
// every frame until the connection breaks.
func (r *Replicator) stream(ctx context.Context) (progressed bool, err error) {
	from := r.applied + 1
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/wal/stream?from=%d", r.cfg.LeaderURL, from), nil)
	if err != nil {
		return false, err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		// The leader's stable signal that `from` was pruned (see the serve
		// handler): continuity is lost.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("%w (stream from seq %d)", ErrContinuityLost, from)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("replica: stream from seq %d: %s: %s", from, resp.Status, strings.TrimSpace(string(body)))
	}

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	want := from
	for {
		line, err := readLine(br)
		if err != nil {
			return progressed, err
		}
		entry, perr := wal.ParseFrame(line, want)
		if perr != nil {
			return progressed, fmt.Errorf("replica: corrupt frame for seq %d: %s", want, perr)
		}
		if err := r.cfg.Target.Apply(entry.Seq, entry.Payload); err != nil {
			return progressed, fatalError{fmt.Errorf("replica: applying record %d: %w", entry.Seq, err)}
		}
		r.applied = entry.Seq
		if r.cfg.OnApplied != nil {
			r.cfg.OnApplied(entry.Seq)
		}
		progressed = true
		want++
	}
}

// readLine reads one '\n'-terminated frame of any length, returned without
// the newline.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		if len(line) > 0 && err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return line[:len(line)-1], nil
}

// fetchManifest retrieves the leader's WAL manifest.
func (r *Replicator) fetchManifest(ctx context.Context) (Manifest, error) {
	var man Manifest
	if err := r.getJSON(ctx, "/v1/wal/segments", &man); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// fetchSnapshot retrieves the files of the leader snapshot at seq in one
// atomic response.
func (r *Replicator) fetchSnapshot(ctx context.Context, seq uint64) (snapshotDoc, error) {
	var doc snapshotDoc
	if err := r.getJSON(ctx, fmt.Sprintf("/v1/wal/snapshot?seq=%d", seq), &doc); err != nil {
		return snapshotDoc{}, err
	}
	if doc.Seq != seq {
		return snapshotDoc{}, fmt.Errorf("replica: snapshot seq %d, requested %d", doc.Seq, seq)
	}
	return doc, nil
}

// getJSON performs one deadline-bounded control GET against the leader.
func (r *Replicator) getJSON(ctx context.Context, path string, out any) error {
	ctx, cancel := context.WithTimeout(ctx, controlTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.LeaderURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("replica: GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
