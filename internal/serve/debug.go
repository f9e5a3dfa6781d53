package serve

import (
	"math"
	"net/http"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file is the runtime-introspection surface (DESIGN.md §15): the
// runtime/metrics reads behind the rudolf_go_* series, and the two debug
// endpoints — GET /v1/debug/slow (the tail-sampled slow-request ring,
// Chrome-trace or JSON) and GET /v1/debug/state (one consolidated JSON
// document covering every subsystem that used to be blind).

// runtimeStats is one runtime/metrics reading of the rudolf_go_* gauges.
type runtimeStats struct {
	goroutines, heapBytes, heapObjects, gcCycles int64
}

// readRuntime samples the runtime. Each call reads afresh, so the view
// costs nothing between scrapes.
func readRuntime() runtimeStats {
	samples := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/objects:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	v := func(i int) int64 {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return int64(samples[i].Value.Uint64())
	}
	return runtimeStats{goroutines: v(0), heapBytes: v(1), heapObjects: v(2), gcCycles: v(3)}
}

// gcPauses re-buckets the runtime's cumulative GC pause histogram into h:
// each runtime bucket's count lands at the bucket's finite edge (the
// runtime's outermost buckets are unbounded).
func gcPauses(h *telemetry.Histogram) {
	sample := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	rh := sample[0].Value.Float64Histogram()
	for i, c := range rh.Counts {
		v := rh.Buckets[i]
		if math.IsInf(v, 0) {
			v = rh.Buckets[i+1]
		}
		if !math.IsInf(v, 0) {
			h.ObserveN(v, c)
		}
	}
}

// --- GET /v1/debug/slow ----------------------------------------------------

// debugSpan is one span of a retained slow-request tree on the wire.
type debugSpan struct {
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	DurNS   int64          `json:"dur_ns"`
	Instant bool           `json:"instant,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// debugSlowEntry is one promoted slow request: identity, why it qualified,
// the per-stage breakdown re-derived from its stage.<name> child spans, and
// the full span tree.
type debugSlowEntry struct {
	Seq          uint64           `json:"seq"`
	RequestID    string           `json:"request_id,omitempty"`
	Name         string           `json:"name"`
	StartNS      int64            `json:"start_ns"`
	DurNS        int64            `json:"dur_ns"`
	ThresholdNS  int64            `json:"threshold_ns"`
	StagesNS     map[string]int64 `json:"stages_ns,omitempty"`
	StageTotalNS int64            `json:"stage_total_ns"`
	Spans        []debugSpan      `json:"spans"`
}

// debugSlowResponse is the GET /v1/debug/slow JSON document.
type debugSlowResponse struct {
	Count         int              `json:"count"`
	PromotedTotal uint64           `json:"promoted_total"`
	ObservedRoots uint64           `json:"observed_roots"`
	ThresholdNS   int64            `json:"threshold_ns"`
	FloorNS       int64            `json:"floor_ns"`
	Entries       []debugSlowEntry `json:"entries"`
}

func attrsOf(r *trace.Record) map[string]any {
	if r.NAttrs == 0 {
		return nil
	}
	m := make(map[string]any, r.NAttrs)
	for _, a := range r.Attrs[:r.NAttrs] {
		m[a.Key] = a.Value()
	}
	return m
}

func slowEntryWire(e trace.SlowEntry) debugSlowEntry {
	out := debugSlowEntry{
		Seq:         e.Seq,
		Name:        e.Root.Name,
		StartNS:     e.Root.Start,
		DurNS:       int64(e.Root.Dur),
		ThresholdNS: int64(e.Threshold),
		Spans:       make([]debugSpan, 0, len(e.Spans)),
	}
	for _, a := range e.Root.Attrs[:e.Root.NAttrs] {
		if a.Key == "id" {
			if id, ok := a.Value().(string); ok {
				out.RequestID = id
			}
		}
	}
	for i := range e.Spans {
		r := &e.Spans[i]
		out.Spans = append(out.Spans, debugSpan{
			ID: r.ID, Parent: r.Parent, Name: r.Name,
			StartNS: r.Start, DurNS: int64(r.Dur), Instant: r.Instant,
			Attrs: attrsOf(r),
		})
		if r.Parent == e.Root.ID && strings.HasPrefix(r.Name, "stage.") {
			if out.StagesNS == nil {
				out.StagesNS = make(map[string]int64, int(numStages))
			}
			out.StagesNS[strings.TrimPrefix(r.Name, "stage.")] += int64(r.Dur)
			out.StageTotalNS += int64(r.Dur)
		}
	}
	return out
}

// handleDebugSlow exports the tail-sampled slow-request ring: structured
// JSON by default (per-entry stage breakdown included), or the flattened
// Chrome trace_event form with ?format=chrome. Like /v1/trace it is
// deliberately uninstrumented — inspecting the slow ring must not emit
// request spans that could themselves be promoted.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) error {
	entries := s.tracer.SlowSnapshot()
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		ss := s.tracer.SlowStats()
		resp := debugSlowResponse{
			Count:         len(entries),
			PromotedTotal: ss.Promoted,
			ObservedRoots: ss.Observed,
			ThresholdNS:   int64(ss.Threshold),
			FloorNS:       int64(ss.Floor),
			Entries:       make([]debugSlowEntry, 0, len(entries)),
		}
		for _, e := range entries {
			resp.Entries = append(resp.Entries, slowEntryWire(e))
		}
		s.writeJSON(w, http.StatusOK, resp)
	case "chrome":
		var recs []trace.Record
		for _, e := range entries {
			recs = append(recs, e.Spans...)
		}
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChrome(w, recs) //nolint:errcheck // client gone: nothing to do
	default:
		return errorf(http.StatusBadRequest, CodeBadRequest, "unknown format %q (want json or chrome)", f)
	}
	return nil
}

// --- GET /v1/debug/state ---------------------------------------------------

type debugTraceState struct {
	Capacity  int    `json:"capacity"`
	Held      int    `json:"held"`
	Dropped   uint64 `json:"dropped"`
	AttrDrops uint64 `json:"attr_drops"`
}

type debugSlowState struct {
	Capacity    int    `json:"capacity"`
	Len         int    `json:"len"`
	Promoted    uint64 `json:"promoted"`
	Observed    uint64 `json:"observed_roots"`
	FloorNS     int64  `json:"floor_ns"`
	ThresholdNS int64  `json:"threshold_ns"`
}

type debugWindowState struct {
	Entries          int64 `json:"entries"`
	MaxEntries       int   `json:"max_entries"`
	WatermarkMinutes int64 `json:"watermark_minutes"`
	Specs            int   `json:"specs"`
	EvictedExpired   int64 `json:"evicted_expired"`
	EvictedLRU       int64 `json:"evicted_lru"`
	OccupiedShards   int   `json:"occupied_shards"`
	MaxShard         int   `json:"max_shard"`
	ShardOccupancy   []int `json:"shard_occupancy"`
}

type debugWALState struct {
	Segments      int    `json:"segments"`
	DiskBytes     int64  `json:"disk_bytes"`
	LastSeq       uint64 `json:"last_seq"`
	Appends       uint64 `json:"appends"`
	Fsyncs        uint64 `json:"fsyncs"`
	Replayed      uint64 `json:"replayed"`
	TornTailDrops uint64 `json:"torn_tail_drops"`
}

type debugCaptureState struct {
	BoundRules  int    `json:"bound_rules"`
	Hits        uint64 `json:"hits"`
	Rebinds     uint64 `json:"rebinds"`
	Invalidates uint64 `json:"invalidates"`
}

type debugRuntimeState struct {
	Goroutines     int64   `json:"goroutines"`
	HeapBytes      int64   `json:"heap_bytes"`
	HeapObjects    int64   `json:"heap_objects"`
	GCCycles       int64   `json:"gc_cycles"`
	GCPauseP50Secs float64 `json:"gc_pause_p50_seconds"`
	GCPauseP99Secs float64 `json:"gc_pause_p99_seconds"`
}

// debugStateResponse is the GET /v1/debug/state JSON document: one
// consolidated view of the serving process and its subsystems.
type debugStateResponse struct {
	Now           string                 `json:"now"`
	UptimeSeconds float64                `json:"uptime_seconds"`
	Version       int                    `json:"version"`
	Rules         int                    `json:"rules"`
	Workers       int                    `json:"workers"`
	Inflight      int64                  `json:"inflight"`
	Draining      bool                   `json:"draining"`
	ScoredTx      uint64                 `json:"scored_tx"`
	Trace         debugTraceState        `json:"trace"`
	Slow          debugSlowState         `json:"slow"`
	Window        *debugWindowState      `json:"window"`
	WAL           *debugWALState         `json:"wal"`
	Capture       debugCaptureState      `json:"capture"`
	Runtime       debugRuntimeState      `json:"runtime"`
	Replication   *debugReplicationState `json:"replication"`
	Alerts        *debugAlertsState      `json:"alerts"`
}

// handleDebugState consolidates the introspection stats of every subsystem
// into one document. Uninstrumented for the same reason as /v1/trace and
// /v1/debug/slow.
func (s *Server) handleDebugState(w http.ResponseWriter, r *http.Request) error {
	now := time.Now()
	st := s.state.Load()
	ss := s.tracer.SlowStats()
	rt := readRuntime()
	pauses, _ := s.reg.FindHistogram("rudolf_go_gc_pause_seconds")
	traceCap := s.cfg.TraceCapacity
	if traceCap <= 0 {
		traceCap = trace.DefaultCapacity
	}
	resp := debugStateResponse{
		Now:           now.UTC().Format(time.RFC3339Nano),
		UptimeSeconds: now.Sub(s.started).Seconds(),
		Version:       st.version,
		Rules:         st.set.Len(),
		Workers:       s.cfg.Workers,
		Inflight:      int64(len(s.sem)),
		Draining:      s.draining.Load(),
		ScoredTx:      s.mScoreTx.Value(),
		Trace: debugTraceState{
			Capacity:  traceCap,
			Held:      s.tracer.Len(),
			Dropped:   s.tracer.Dropped(),
			AttrDrops: s.tracer.AttrsDropped(),
		},
		Slow: debugSlowState{
			Capacity:    ss.Capacity,
			Len:         ss.Len,
			Promoted:    ss.Promoted,
			Observed:    ss.Observed,
			FloorNS:     int64(ss.Floor),
			ThresholdNS: int64(ss.Threshold),
		},
		Runtime: debugRuntimeState{
			Goroutines:     rt.goroutines,
			HeapBytes:      rt.heapBytes,
			HeapObjects:    rt.heapObjects,
			GCCycles:       rt.gcCycles,
			GCPauseP50Secs: pauses.Quantile(0.50),
			GCPauseP99Secs: pauses.Quantile(0.99),
		},
	}
	if s.winStore != nil {
		occ := s.winStore.ShardOccupancy()
		ws := &debugWindowState{
			Entries:          s.winStore.Entries(),
			MaxEntries:       s.winStore.MaxEntries(),
			WatermarkMinutes: s.winStore.Watermark(),
			Specs:            len(s.winStore.Specs()),
			ShardOccupancy:   occ,
		}
		ws.EvictedExpired, ws.EvictedLRU = s.winStore.EvictionsByCause()
		for _, n := range occ {
			if n > 0 {
				ws.OccupiedShards++
			}
			if n > ws.MaxShard {
				ws.MaxShard = n
			}
		}
		resp.Window = ws
	}
	if s.wal != nil {
		wst := s.wal.Stats()
		resp.WAL = &debugWALState{
			Segments:      wst.Segments,
			DiskBytes:     wst.DiskBytes,
			LastSeq:       wst.LastSeq,
			Appends:       wst.Appends,
			Fsyncs:        wst.Fsyncs,
			Replayed:      wst.Replayed,
			TornTailDrops: wst.TornTailDrops,
		}
	}
	resp.Replication = s.replicationDebugState()
	resp.Alerts = s.alertsDebugState()
	if s.mu.lockCtx(r.Context()) != nil {
		return errControlPlaneWait
	}
	hits, rebinds, invalidates := s.cache.Stats()
	resp.Capture = debugCaptureState{
		BoundRules:  s.cache.Len(),
		Hits:        hits,
		Rebinds:     rebinds,
		Invalidates: invalidates,
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}
