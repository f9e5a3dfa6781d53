package serve

import (
	"context"
	"errors"
	"io"
	"net/http"

	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/rulestats"
	"repro/internal/trace"
)

// handleScore evaluates a batch against exactly one published version.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) error {
	sc := scoreStatePool.Get().(*scoreState)
	defer scoreStatePool.Put(sc)
	// The stage clock splits this request's wall time across the stage
	// taxonomy (rudolf_stage_duration_seconds) and, when the request is
	// traced, emits stage.<name> child spans — so a slow-ring promotion
	// carries its own breakdown. Error returns flush whatever was timed.
	meta := requestMeta(r)
	sc.clock = stageClock{parent: meta.span, hist: &s.mStage}
	defer sc.clock.flush()
	out := scoreStream{s: s, w: w, clock: &sc.clock}
	rest, err := s.score(r.Context(), r.Body, meta.id, sc, out.flush)
	if err != nil {
		return err
	}
	out.finish(rest)
	return nil
}

// score is the score pipeline, with no net/http type in its signature: it
// runs one request body through decode → acquire → observe/WAL → eval →
// record → encode into sc, each stage timed on sc.clock. It hands the
// rendered response to flush one whole chunk at a time and returns the rest,
// which lives in sc; flush times its own writes on sc.clock. An error return
// comes before flush is called and is the request's whole answer. ctx bounds
// the request: it is checked at acquire, before the observe commit and before
// the first byte.
func (s *Server) score(ctx context.Context, body io.Reader, requestID string, sc *scoreState, flush func([]byte) []byte) (rest []byte, err error) {
	clock := &sc.clock
	clock.begin(stageDecode)
	var req scoreRequest
	if err := readJSON(ctx, body, &req); err != nil {
		return nil, err
	}
	rel, err := s.relationOf(req.batch(), nil)
	if err != nil {
		return nil, err
	}
	clock.begin(stageAcquire)
	// The first of the three deadline checks: acquire is context-aware.
	if !s.acquire(ctx) {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, timedOut("queued for a worker slot")
		}
		return nil, errorf(http.StatusServiceUnavailable, CodeUnavailable, "canceled while queued for a worker slot")
	}
	st := s.state.Load() // exactly one version per response
	observed, err := s.observe(ctx, clock, st, rel)
	if err != nil {
		s.release()
		return nil, err
	}
	clock.begin(stageEval)
	s.evaluate(clock.sp, st, sc, rel, req.Explain || req.ExplainAll)
	s.release()
	// The third deadline check, before the first response byte. A request
	// that observed its batch skips it: its 503 would claim "not observed",
	// so it answers with what it scored, bounded by the write deadline alone.
	if !observed && ctx.Err() != nil {
		return nil, timedOut("scoring the batch")
	}
	clock.begin(stageEncode)
	s.recordScore(requestID, st, rel, sc.first)
	s.mScoreTx.Add(uint64(rel.Len()))
	clock.total = s.mScoreLat // observed at flush, after the write
	s.mBatchSize.Observe(float64(rel.Len()))
	sc.out = s.appendScoreResponse(sc.out[:0], flush, requestID, st, sc, rel, req.Explain, req.ExplainAll)
	return sc.out, nil
}

// observe applies the batch to the windowed rules' state and reports whether
// it was observed. Windowed rules are stateful: every scored transaction is
// observed into the live aggregate store (WAL first, when durable — the
// observation must survive a crash or replayed aggregates diverge from what
// was served), and the batch is stamped with the published specs' aggregate
// columns, which the compiled evaluator's exact-match fast path then reads.
// Window-less rule sets skip all of it: no lock, no WAL record.
func (s *Server) observe(ctx context.Context, clock *stageClock, st *ruleState, rel *relation.Relation) (bool, error) {
	if len(st.winSpecs) == 0 || s.winStore == nil {
		return false, nil
	}
	clock.begin(stageWindow)
	if s.follower != nil {
		// A follower's window store mirrors the leader's observe stream;
		// local read traffic must not mutate it, so scoring stamps the
		// current aggregates read-only (no observe, no WAL, no obsMu — the
		// store's shard locks make reads safe against the replication
		// goroutine's concurrent Observe applies).
		rel.SetWindowColumns(s.winStore.PeekColumns(rel, st.winSpecs))
		return false, nil
	}
	// The leader's observe commit, and the one mutation that does not go
	// through apply: StampColumns is apply(observe) — Observe per tuple, in
	// order — plus the per-tuple aggregate read this response needs, which a
	// replayed record has no use for. Waiting on obsMu is attributed to the
	// window stage; the durable observe append (including its synchronous
	// fsync) to wal_append.
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	// The second deadline check, the last point where a 503 can still mean
	// "not observed".
	if ctx.Err() != nil {
		return false, timedOut("waiting to observe the batch")
	}
	if s.wal != nil {
		clock.begin(stageWAL)
		_, err := s.walAppend(observeRecord(rel))
		clock.begin(stageWindow)
		if err != nil {
			return false, errorf(http.StatusInternalServerError, CodeInternal, "persisting observations: %v", err)
		}
	}
	rel.SetWindowColumns(s.winStore.StampColumns(rel, st.winSpecs))
	return true, nil
}

// acquire takes a worker-pool slot, respecting request cancellation.
func (s *Server) acquire(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *Server) release() { <-s.sem }

// evaluate scores rel against st into sc and notes the batch's shape on sp,
// the eval stage's span. The default path computes first-match attribution
// instead of the bare union: same short-circuiting loop and chunking as Eval,
// one int32 write per tuple extra, and it is exactly what per-rule fire
// accounting needs. Explain mode runs the lazy attribution pass: margins are
// materialized for the rules that fire (what "why was this flagged" asks);
// explain_all re-derives the non-firing rules' margins at encode time.
func (s *Server) evaluate(sp trace.Span, st *ruleState, sc *scoreState, rel *relation.Relation, explain bool) {
	sp.Int("rows", int64(rel.Len())).Int("rules", int64(st.set.Len())).Int("chunks", int64(st.ev.ChunkCount(rel.Len())))
	if !explain {
		sc.first = st.ev.EvalFirstInto(rel, sc.first)
		return
	}
	st.ev.EvalAttributedLazyInto(rel, &sc.attrib)
	if cap(sc.first) < rel.Len() {
		sc.first = make([]int32, rel.Len())
	}
	sc.first = sc.first[:rel.Len()]
	for i := range sc.attrib.Tuples {
		sc.first[i] = index.NoRule
		if m := sc.attrib.Tuples[i].Matched; len(m) > 0 {
			sc.first[i] = int32(m[0])
		}
	}
}

// recordScore feeds one batch scored under st into st's health epoch and
// (for sampled decisions) the audit ring.
func (s *Server) recordScore(requestID string, st *ruleState, rel *relation.Relation, first []int32) {
	// Aggregate fires per batch so a 4k-tx batch costs the epoch at most one
	// add per distinct fired rule.
	nRules := st.set.Len()
	var counts []uint64
	for i, ri := range first {
		if ri >= 0 && int(ri) < nRules {
			if counts == nil {
				counts = make([]uint64, nRules)
			}
			counts[ri]++
		}
		if s.stats.ShouldSample() {
			s.stats.AddAudit(rulestats.AuditEntry{
				RequestID: requestID,
				Version:   st.version,
				Rule:      int(ri),
				Flagged:   ri != index.NoRule,
				Score:     rel.Score(i),
				Attrs:     renderAttrs(s.schema, rel, i),
			})
		}
	}
	st.health.RecordFires(len(first), counts)
}

// renderAttrs renders one tuple attribute-by-attribute in the schema's
// textual form (audit entries must stay meaningful after the schema's
// numeric encodings change).
func renderAttrs(schema *relation.Schema, rel *relation.Relation, i int) map[string]string {
	t := rel.Tuple(i)
	out := make(map[string]string, schema.Arity())
	for a := 0; a < schema.Arity(); a++ {
		out[schema.Attr(a).Name] = schema.FormatValue(a, t[a])
	}
	return out
}
