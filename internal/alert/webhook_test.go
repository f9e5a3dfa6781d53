package alert

import (
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
}

// flakySink is a webhook receiver that fails the first failN requests, then
// accepts everything, recording the delivered payloads.
type flakySink struct {
	mu       sync.Mutex
	failN    int
	requests int
	events   []Event
}

func (f *flakySink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.requests++
	if f.requests <= f.failN {
		http.Error(w, "not yet", http.StatusServiceUnavailable)
		return
	}
	var p webhookPayload
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.events = append(f.events, p.Alerts...)
	w.WriteHeader(http.StatusOK)
}

func (f *flakySink) snapshot() (int, []Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests, append([]Event(nil), f.events...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestWebhookRetryBackoff: a delivery that fails twice is retried with
// backoff and eventually lands, with retries counted.
func TestWebhookRetryBackoff(t *testing.T) {
	sink := &flakySink{failN: 2}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	s := newWebhookSink(WebhookConfig{
		URL:        srv.URL,
		MinBackoff: time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
	}, nil, discardLogger())
	defer s.close()

	s.enqueue(Event{Name: "boom", State: StateFiring, At: time.Now()})
	waitFor(t, "delivery after retries", func() bool { return s.sent.Load() == 1 })
	reqs, events := sink.snapshot()
	if reqs != 3 {
		t.Errorf("requests = %d, want 2 failures + 1 success", reqs)
	}
	if len(events) != 1 || events[0].Name != "boom" {
		t.Errorf("delivered events = %+v", events)
	}
	if got := s.retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if st := s.status(); st.Sent != 1 || st.Retries != 2 || st.Dropped != 0 {
		t.Errorf("status = %+v", st)
	}
}

// TestWebhookBatches: events queued while a delivery is in flight coalesce
// into one POST.
func TestWebhookBatches(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(1)
	sink := &flakySink{}
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			gate.Wait() // hold the first delivery open while more events queue
		}
		sink.ServeHTTP(w, r)
	}))
	defer srv.Close()
	s := newWebhookSink(WebhookConfig{URL: srv.URL, MinBackoff: time.Millisecond}, nil, discardLogger())
	defer s.close()

	s.enqueue(Event{Name: "a", State: StateFiring})
	waitFor(t, "first delivery in flight", func() bool { return first.Load() })
	s.enqueue(Event{Name: "b", State: StateFiring})
	s.enqueue(Event{Name: "c", State: StateResolved})
	gate.Done()
	waitFor(t, "all deliveries", func() bool { return s.sent.Load() == 3 })
	reqs, events := sink.snapshot()
	if reqs != 2 {
		t.Errorf("requests = %d, want 2 (first single, then a coalesced batch)", reqs)
	}
	if len(events) != 3 {
		t.Errorf("delivered %d events, want 3", len(events))
	}
}

// TestWebhookQueueDrop: a full queue drops new events instead of blocking
// the evaluation pass, and counts them.
func TestWebhookQueueDrop(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Unroutable URL + tiny queue: nothing ever drains.
	s := newWebhookSink(WebhookConfig{
		URL:        "http://127.0.0.1:1/unreachable",
		QueueCap:   2,
		MinBackoff: time.Hour, // park the sender after the first failure
		MaxBackoff: time.Hour,
		Timeout:    10 * time.Millisecond,
	}, reg, discardLogger())
	defer s.close()

	for i := 0; i < 10; i++ {
		s.enqueue(Event{Name: "spam", State: StateFiring})
	}
	if s.dropped.Load() == 0 {
		t.Fatal("no drops recorded on an over-full queue")
	}
	if v, ok := reg.Value("rudolf_alert_webhook_dropped_total"); !ok || v == 0 {
		t.Fatalf("drop counter series = %v/%v", v, ok)
	}
	if s.sent.Load() != 0 {
		t.Errorf("sent = %d against an unroutable URL", s.sent.Load())
	}
	if q := len(s.ch); q > 2 {
		t.Errorf("queue holds %d events, cap is 2", q)
	}
}

// TestWebhookCloseMidRetry: close() interrupts a backoff sleep promptly and
// counts the stranded queue as dropped.
func TestWebhookCloseMidRetry(t *testing.T) {
	s := newWebhookSink(WebhookConfig{
		URL:        "http://127.0.0.1:1/unreachable",
		QueueCap:   4,
		MinBackoff: time.Hour,
		MaxBackoff: time.Hour,
		Timeout:    10 * time.Millisecond,
	}, nil, discardLogger())
	for i := 0; i < 4; i++ {
		s.enqueue(Event{Name: "stuck", State: StateFiring})
	}
	waitFor(t, "first attempt", func() bool { return s.retries.Load() >= 1 })
	start := time.Now()
	s.close()
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("close blocked %v against an hour-long backoff", took)
	}
	if s.sent.Load() != 0 || s.dropped.Load() == 0 {
		t.Errorf("after close: sent=%d dropped=%d, want stranded events counted dropped",
			s.sent.Load(), s.dropped.Load())
	}
}

// TestEngineWebhookEndToEnd: engine transitions reach the webhook.
func TestEngineWebhookEndToEnd(t *testing.T) {
	sink := &flakySink{}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	reg := telemetry.NewRegistry()
	sig := newSignal(reg, "sig")
	clk := newFakeClock()
	e := NewEngine(Config{
		Rules:   MustParseRules("alert hook severity=page: value(sig) > 1"),
		Sources: Sources{Metrics: reg},
		Webhook: &WebhookConfig{URL: srv.URL, MinBackoff: time.Millisecond},
		Now:     clk.Now,
	})
	defer e.Close()

	sig.Set(5)
	e.Evaluate()
	clk.Advance(time.Second)
	sig.Set(0)
	e.Evaluate()
	waitFor(t, "firing+resolved delivered", func() bool {
		_, events := sink.snapshot()
		return len(events) == 2
	})
	_, events := sink.snapshot()
	if events[0].State != StateFiring || events[1].State != StateResolved {
		t.Fatalf("delivered sequence: %+v", events)
	}
	if snap := e.Snapshot(); snap.Webhook == nil || snap.Webhook.Sent != 2 {
		t.Fatalf("snapshot webhook status: %+v", snap.Webhook)
	}
}

func TestParseRuleLines(t *testing.T) {
	rules, err := ParseRuleLines([]string{"alert a: value(x) > 1", "", "# c", "alert b: value(y) > 2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	if _, err := ParseRuleLines([]string{"alert a: value(x) >"}); err == nil ||
		!strings.Contains(err.Error(), "line 1") {
		t.Fatalf("bad line not located: %v", err)
	}
}
