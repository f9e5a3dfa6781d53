package serve

import (
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file is the per-stage latency attribution of the score hot path
// (DESIGN.md §15). rudolf_score_latency_seconds says *that* a request was
// slow; the stage clock says *where*: each request's wall time is split
// across a fixed taxonomy of stages, observed into the
// rudolf_stage_duration_seconds{stage=...} histograms, and — when the
// request is traced — emitted as stage.<name> child spans of the request
// span, so a promoted slow request carries its own breakdown.
//
// The clock is zero-alloc by construction: a stack-local struct of fixed
// arrays, time.Now diffs, and pre-resolved histogram pointers. With a zero
// parent span (nil tracer, or an uninstrumented caller) the span half
// no-ops entirely, preserving the tracer's nil-free invariant
// (TestStageClockAllocs pins 0 B/op).

// stage indexes the score hot path's stage taxonomy.
type stage uint8

const (
	stageDecode  stage = iota // JSON decode + relation build/validation
	stageAcquire              // wait for a worker-pool slot
	stageWAL                  // durable observe append (incl. synchronous fsync)
	stageWindow               // sliding-window observe + aggregate column stamping
	stageEval                 // rule evaluation / attribution
	stageEncode               // response rendering
	stageWrite                // response write to the socket
	numStages
)

// stageNames are the {stage=...} label values, index-aligned with the
// constants above.
var stageNames = [numStages]string{
	"decode", "acquire", "wal_append", "window", "eval", "encode", "write",
}

// stageSpanNames are the trace span names, precomputed so the hot path
// never concatenates.
var stageSpanNames = [numStages]string{
	"stage.decode", "stage.acquire", "stage.wal_append", "stage.window",
	"stage.eval", "stage.encode", "stage.write",
}

// stageClock accumulates one request's per-stage durations. Declare it as a
// local, call begin at each stage boundary (ending the previous stage), and
// flush once at the end; re-entering a stage accumulates. Not safe for
// concurrent use — it times a single request on a single goroutine.
type stageClock struct {
	parent  trace.Span // request span; zero when the request is untraced
	hist    *[numStages]*telemetry.Histogram
	total   *telemetry.Histogram // set once the request is scored: gets the stages' sum
	sp      trace.Span           // live stage span
	t0      time.Time
	cur     stage
	running bool
	dur     [numStages]time.Duration
}

// begin ends the running stage (if any) and starts st.
func (c *stageClock) begin(st stage) {
	if c.running {
		c.dur[c.cur] += time.Since(c.t0)
		c.sp.End()
	}
	c.cur = st
	c.running = true
	c.t0 = time.Now()
	c.sp = c.parent.Child(stageSpanNames[st])
}

// flush ends the running stage and observes every non-zero stage duration
// into the histograms, and their sum into total when set — so the request
// latency is the stages' latency, from the same clock. Safe to call more
// than once (idempotent after the first), so handlers can defer it.
func (c *stageClock) flush() {
	if c.running {
		c.dur[c.cur] += time.Since(c.t0)
		c.sp.End()
		c.running = false
	}
	if c.hist == nil {
		return
	}
	var sum time.Duration
	for i := range c.dur {
		if c.dur[i] > 0 {
			c.hist[i].Observe(c.dur[i].Seconds())
			sum += c.dur[i]
			c.dur[i] = 0
		}
	}
	if c.total != nil {
		c.total.Observe(sum.Seconds())
		c.total = nil
	}
}
