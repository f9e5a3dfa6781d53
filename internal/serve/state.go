// The replicated state machine (DESIGN.md §11): everything a WAL record can
// change, and the only code that changes it.
//
// The state is the version history, the feedback relation, the
// sliding-window aggregate store and — derived from the newest history
// version — the published ruleState plus the capture-cache binding over it.
// It has exactly two mutators:
//
//	restore(seq, files)  replace the state with the snapshot of records 1..seq
//	apply(seq, record)   apply record seq on top of it
//
// and every role is a thin caller of them. The leader validates a request,
// appends the record to the WAL (when durable) and applies it (Server.commit);
// a durable boot restores the newest snapshot and replays the log past it
// into apply (openDurability); a follower restores the leader's snapshot and
// streams the leader's log into apply (followTarget). A publish record always
// derives the rule set, the compiled evaluator and the window specs from the
// record itself, so leader state == replayed state == follower state holds by
// construction rather than by three implementations agreeing.
//
// This file is deliberately free of HTTP: it is the unit the model-based
// tests drive (state_test.go).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capture"
	"repro/internal/history"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/rulestats"
	"repro/internal/window"
)

// The walRecord types.
const (
	recFeedback = "feedback"
	recPublish  = "publish"
	recObserve  = "observe"
)

// walRecord is the WAL payload: exactly one of Feedback, Publish or Observe
// is set.
type walRecord struct {
	// Type is recFeedback, recPublish or recObserve.
	Type string    `json:"type"`
	Time time.Time `json:"time"`
	// Feedback is one acknowledged /v1/feedback batch.
	Feedback *feedbackWAL `json:"feedback,omitempty"`
	// Publish is one committed rule-set version, verbatim (id, timestamp,
	// rule texts, changes) so replay reconstructs the history exactly.
	Publish *history.Version `json:"publish,omitempty"`
	// Observe is one scored batch fed to the sliding-window aggregate store.
	// Only written while the published rule set has windowed conditions.
	Observe *observeWAL `json:"observe,omitempty"`
}

// feedbackWAL is a feedback batch in durable form: raw tuple values (domain
// values / concept ids), labels and scores, parallel per transaction.
type feedbackWAL struct {
	Tuples [][]int64 `json:"tuples"`
	Labels []uint8   `json:"labels"`
	Scores []int16   `json:"scores"`
}

// observeWAL is one scored batch in durable form: tuple values only — labels
// and scores are irrelevant to window aggregation, and the batch is never
// part of the feedback relation.
type observeWAL struct {
	Tuples [][]int64 `json:"tuples"`
}

// feedbackRecord renders one validated feedback batch as its record.
func feedbackRecord(batch *relation.Relation) *walRecord {
	fb := &feedbackWAL{
		Tuples: make([][]int64, batch.Len()),
		Labels: make([]uint8, batch.Len()),
		Scores: make([]int16, batch.Len()),
	}
	for i := 0; i < batch.Len(); i++ {
		fb.Tuples[i] = batch.Tuple(i)
		fb.Labels[i] = uint8(batch.Label(i))
		fb.Scores[i] = batch.Score(i)
	}
	return &walRecord{Type: recFeedback, Time: time.Now(), Feedback: fb}
}

// observeRecord renders one scored batch as its record.
func observeRecord(batch *relation.Relation) *walRecord {
	ob := &observeWAL{Tuples: make([][]int64, batch.Len())}
	for i := 0; i < batch.Len(); i++ {
		ob.Tuples[i] = batch.Tuple(i)
	}
	return &walRecord{Type: recObserve, Time: time.Now(), Observe: ob}
}

// manifest binds one snapshot to a WAL position and records the state it
// captured, for post-restore assertions.
type manifest struct {
	Format    int    `json:"format"`
	WALSeq    uint64 `json:"wal_seq"`
	Version   int    `json:"ruleset_version"`
	Versions  int    `json:"versions"`
	Feedback  int    `json:"feedback"`
	RuleCount int    `json:"rules"`
	// Window declares that the snapshot carries windowFile. Snapshots written
	// before the field existed omit it; their window file is loaded when
	// present and not missed when absent.
	Window  bool      `json:"window,omitempty"`
	SavedAt time.Time `json:"saved_at"`
}

const (
	manifestFormat = 1
	manifestFile   = "manifest.json"
	feedbackFile   = "feedback.csv"
	historyFile    = "history.json"
	windowFile     = "window.json"
)

// snapshotFiles is the one list of files that make up a snapshot, shared by
// the writer (Snapshot), the reader (readSnapshotDir, behind both the boot
// loader and GET /v1/wal/snapshot) and restore. The manifest comes first so a
// reader knows whether windowFile is owed before it looks for it.
var snapshotFiles = [...]string{manifestFile, feedbackFile, historyFile, windowFile}

// parseManifest decodes and version-checks a manifest.
func parseManifest(raw []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("snapshot manifest: %w", err)
	}
	if m.Format != manifestFormat {
		return m, fmt.Errorf("snapshot manifest format %d, this build reads %d", m.Format, manifestFormat)
	}
	return m, nil
}

// ruleState is one published version: the rule set, its compiled evaluator,
// the history version id and the version's rule-health epoch. Immutable once
// published (only the epoch's counters move) — install builds a new state and
// atomically replaces the pointer.
type ruleState struct {
	version int
	set     *rules.Set
	ev      *index.Evaluator
	// health accounts this version's scored fires and feedback joins. A
	// request records into the epoch of the state it loaded, so a publish
	// mid-request cannot move its counts onto the next version.
	health *rulestats.Epoch
	texts  []string
	// textsJSON holds each rule text pre-escaped as a JSON string literal
	// (quotes included), computed once per publish so the score encode path
	// never re-escapes rule texts per response.
	textsJSON []string
	// winSpecs is the evaluator's window-spec registry (nil for purely
	// per-tuple rule sets). The scoring path observes every transaction into
	// the live aggregate store and stamps these exact specs' columns onto the
	// batch, so the compiled evaluator's exact-match fast path applies.
	winSpecs []window.Spec
	// winJSON holds each spec's atom (e.g. "COUNT(user, 10m)") pre-escaped
	// as a JSON string literal, indexed like winSpecs — the explain encode
	// path's lookup table for windowed checks.
	winJSON []string
}

// replicated is the state machine. Server embeds it, so handlers read its
// fields directly; only this file writes them.
type replicated struct {
	schema *relation.Schema

	// state is the published version. Scoring requests load the pointer
	// exactly once, so every response is consistent with exactly one version.
	state atomic.Pointer[ruleState]
	// stats issues each installed version its health epoch and keeps the
	// sampled decision audit ring.
	stats *rulestats.Tracker

	// mu serializes control-plane state: rule swaps, history commits,
	// feedback appends, their WAL writes, snapshots, the capture cache and
	// refinement. The scoring data plane never takes it.
	mu       ctxMutex
	hist     *history.Store
	feedback *relation.Relation
	cache    *capture.Cache

	// winStore is the live sliding-window aggregate store behind windowed
	// rules (nil when the schema has no time attribute, in which case no
	// windowed rule can parse). obsMu serializes its writers against each
	// other and against the WAL: an observe or publish record's append and
	// its application happen atomically under it, so WAL order always equals
	// application order and the store's spec set at every WAL position is the
	// same live and replayed. Lock order: mu before obsMu; the scoring path
	// takes obsMu alone.
	winStore *window.Store
	obsMu    sync.Mutex

	// onInstall, when set, runs after every install with the new state, the
	// record that produced it and that version's comment. It is the single
	// site for the non-replicated side effects of a publish (gauges, swap
	// counter, log line).
	onInstall func(st *ruleState, seq uint64, comment string)
}

// ctxMutex is a mutex whose waiters can give up: a one-slot channel, full
// while held. Lock and Unlock behave as sync.Mutex's do.
type ctxMutex chan struct{}

func (m ctxMutex) Lock() { m <- struct{}{} }

func (m ctxMutex) Unlock() {
	select {
	case <-m:
	default:
		panic("serve: unlock of unlocked ctxMutex")
	}
}

// lockCtx takes the lock, or returns ctx's error if ctx ends first. When
// both are ready either may win, so a caller that must not act on an ended
// context re-checks it after taking the lock (lockCommit).
func (m ctxMutex) lockCtx(ctx context.Context) error {
	select {
	case m <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// newReplicated returns the empty state over schema — no versions, no
// feedback, an empty version-0 rule set published (scoreable: nothing flags).
func newReplicated(schema *relation.Schema, stats *rulestats.Tracker) (*replicated, error) {
	r := &replicated{
		schema:   schema,
		stats:    stats,
		hist:     history.NewStore(schema),
		mu:       make(ctxMutex, 1),
		feedback: relation.New(schema),
		cache:    capture.New(),
	}
	if schema.TimeAttr() >= 0 {
		r.winStore = window.New(window.Config{TimeAttr: schema.TimeAttr()})
	}
	return r, r.install(0)
}

// applyPayload is apply for callers that hold a record in its wire form and
// no locks: boot replay and the follower.
func (r *replicated) applyPayload(seq uint64, payload []byte) error {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("record %d does not parse: %w", seq, err)
	}
	if rec.Type != recObserve {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if rec.Type != recFeedback {
		r.obsMu.Lock()
		defer r.obsMu.Unlock()
	}
	return r.apply(seq, &rec)
}

// apply applies record seq. Callers hold the record's locks: mu for a
// feedback or publish record (they touch the relation and the history), obsMu
// for a publish or observe record (they touch the window store). Records are
// validated before they are logged, so a failure here means the
// log and the schema have diverged — fail loud, never guess.
//
// The leader's score path is the one caller that does not come through here
// for its record type: it calls winStore.StampColumns, which is Observe per
// tuple plus the per-tuple aggregate read the response needs (the score pipeline).
func (r *replicated) apply(seq uint64, rec *walRecord) error {
	switch rec.Type {
	case recFeedback:
		fb := rec.Feedback
		if fb == nil || len(fb.Tuples) != len(fb.Labels) || len(fb.Tuples) != len(fb.Scores) {
			return fmt.Errorf("record %d: malformed feedback batch", seq)
		}
		for i, vals := range fb.Tuples {
			if _, err := r.feedback.Append(relation.Tuple(vals), relation.Label(fb.Labels[i]), fb.Scores[i]); err != nil {
				return fmt.Errorf("record %d transaction %d: %w", seq, i, err)
			}
		}
	case recPublish:
		if rec.Publish == nil {
			return fmt.Errorf("record %d: publish record without a version", seq)
		}
		if err := r.hist.Append(*rec.Publish); err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		if err := r.install(seq); err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
	case recObserve:
		if rec.Observe == nil {
			return fmt.Errorf("record %d: observe record without tuples", seq)
		}
		if r.winStore == nil {
			return fmt.Errorf("record %d: observe record but the schema has no time attribute", seq)
		}
		for _, vals := range rec.Observe.Tuples {
			r.winStore.Observe(relation.Tuple(vals))
		}
	default:
		return fmt.Errorf("record %d: unknown type %q", seq, rec.Type)
	}
	return nil
}

// install publishes the newest history version (the empty version 0 when
// there is none): check it out, compile it, register its window specs —
// before any later observe record can be applied, since aggregates only
// accumulate for registered specs — and swap the state pointer.
func (r *replicated) install(seq uint64) error {
	v, _ := r.hist.Latest()
	rs := rules.NewSet()
	if n := r.hist.Len(); n > 0 {
		var err error
		if rs, err = r.hist.Checkout(n - 1); err != nil {
			return err
		}
	}
	st := &ruleState{version: v.ID, set: rs, ev: index.Compile(r.schema, rs),
		health: r.stats.NewEpoch(v.ID, rs.Len()), texts: v.Rules}
	st.textsJSON = make([]string, len(v.Rules))
	for i, text := range v.Rules {
		st.textsJSON[i] = string(appendJSONString(nil, text))
	}
	if specs := st.ev.WindowSpecs(); len(specs) > 0 {
		st.winSpecs = specs
		st.winJSON = make([]string, len(specs))
		for i, sp := range specs {
			st.winJSON[i] = string(appendJSONString(nil, rules.FormatWindowAtom(r.schema, sp)))
		}
		if r.winStore != nil {
			r.winStore.EnsureSpecs(specs)
		}
	}
	r.state.Store(st)
	// The capture cache mirrors the published rules over the feedback
	// relation; a publish invalidates it wholesale (rule count may match
	// across a swap, so length-drift detection is not enough).
	r.cache.Invalidate()
	if r.onInstall != nil {
		r.onInstall(st, seq, v.Comment)
	}
	return nil
}

// restore replaces the (empty) state with the snapshot covering records
// 1..seq, given as the snapshotFiles by name. seq 0 is the snapshot of the
// empty log and restores nothing. Unlike apply it takes its own locks: no
// caller needs it atomic with anything else.
func (r *replicated) restore(seq uint64, files map[string][]byte) error {
	if seq == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	m, err := parseManifest(files[manifestFile])
	if err != nil {
		return err
	}
	if m.WALSeq != seq {
		return fmt.Errorf("snapshot manifest covers wal seq %d, expected %d", m.WALSeq, seq)
	}
	hist, err := history.ReadJSON(bytes.NewReader(files[historyFile]), r.schema)
	if err != nil {
		return fmt.Errorf("snapshot history: %w", err)
	}
	feedback, err := relation.ReadCSV(r.schema, bytes.NewReader(files[feedbackFile]))
	if err != nil {
		return fmt.Errorf("snapshot feedback: %w", err)
	}
	if hist.Len() != m.Versions || feedback.Len() != m.Feedback {
		return fmt.Errorf("snapshot disagrees with its manifest: %d versions (manifest %d), %d feedback (manifest %d)",
			hist.Len(), m.Versions, feedback.Len(), m.Feedback)
	}
	win, ok := files[windowFile]
	if m.Window && !ok {
		// Coming up without it would serve, and silently diverge on every
		// later observe record.
		return fmt.Errorf("snapshot manifest declares %s but the snapshot has none", windowFile)
	}
	if ok && r.winStore != nil {
		if err := r.winStore.ReadSnapshot(bytes.NewReader(win)); err != nil {
			return fmt.Errorf("snapshot window state: %w", err)
		}
	}
	r.hist, r.feedback = hist, feedback
	return r.install(seq)
}

// dump serializes the state as the file set restore reads back; the returned
// manifest names the WAL position it is consistent with. Callers hold mu,
// which freezes the history and the feedback relation; the position is read
// and the window store serialized under obsMu, so no observe can land between
// the two.
func (r *replicated) dump(lastSeq func() uint64) (manifest, map[string][]byte, error) {
	files := make(map[string][]byte, len(snapshotFiles))
	write := func(name string, to func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := to(&buf); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		files[name] = buf.Bytes()
		return nil
	}
	st := r.state.Load()
	m := manifest{
		Format:    manifestFormat,
		Version:   st.version,
		Versions:  r.hist.Len(),
		Feedback:  r.feedback.Len(),
		RuleCount: st.set.Len(),
		Window:    r.winStore != nil,
		SavedAt:   time.Now(),
	}
	r.obsMu.Lock()
	m.WALSeq = lastSeq()
	var err error
	if m.Window {
		err = write(windowFile, r.winStore.WriteSnapshot)
	}
	r.obsMu.Unlock()
	if err == nil {
		err = write(feedbackFile, r.feedback.WriteCSV)
	}
	if err == nil {
		err = write(historyFile, r.hist.WriteJSON)
	}
	if err == nil {
		err = write(manifestFile, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(m)
		})
	}
	return m, files, err
}
