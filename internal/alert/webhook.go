package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// WebhookConfig parameterizes the optional alert sink: every firing and
// resolved transition is POSTed as JSON to URL. Delivery is asynchronous
// and at-most-once from the producer's view: events queue into a bounded
// channel (a full queue drops the newest event and counts the drop — the
// engine must never block on a dead receiver), and the single sender
// retries a failed batch with capped exponential backoff.
type WebhookConfig struct {
	// URL receives the POSTs. Required.
	URL string
	// Timeout bounds one delivery attempt. 0 means 5s.
	Timeout time.Duration
	// QueueCap bounds the undelivered-event queue. 0 means 256.
	QueueCap int
	// MinBackoff / MaxBackoff shape the retry schedule: MinBackoff after
	// the first failure, doubling up to MaxBackoff. 0 means 250ms / 30s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Client overrides the HTTP client (tests); nil builds one from
	// Timeout.
	Client *http.Client
}

// webhookPayload is the POST body: one or more events per delivery (the
// sender coalesces whatever is queued).
type webhookPayload struct {
	Source string  `json:"source"`
	Alerts []Event `json:"alerts"`
}

// WebhookStatus is the sink's introspection block for GET /v1/alerts and
// /v1/debug/state.
type WebhookStatus struct {
	URL     string `json:"url"`
	Queued  int    `json:"queued"`
	Sent    uint64 `json:"sent"`
	Retries uint64 `json:"retries"`
	Dropped uint64 `json:"dropped"`
}

// webhookSink owns the queue and the sender goroutine.
type webhookSink struct {
	cfg    WebhookConfig
	client *http.Client
	log    *slog.Logger

	ch        chan Event
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// The counts /metrics and WebhookStatus both read.
	sent    atomic.Uint64 // events delivered
	retries atomic.Uint64 // failed delivery attempts that were retried
	dropped atomic.Uint64 // events dropped on a full queue
}

func newWebhookSink(cfg WebhookConfig, reg *telemetry.Registry, log *slog.Logger) *webhookSink {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 250 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	s := &webhookSink{
		cfg:    cfg,
		client: cfg.Client,
		log:    log,
		ch:     make(chan Event, cfg.QueueCap),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if s.client == nil {
		s.client = &http.Client{Timeout: cfg.Timeout}
	}
	if reg != nil {
		reg.Help("rudolf_alert_webhook_sent_total", "Alert events delivered to the webhook.")
		reg.Help("rudolf_alert_webhook_retries_total", "Failed webhook delivery attempts that were retried.")
		reg.Help("rudolf_alert_webhook_dropped_total", "Alert events dropped because the webhook queue was full.")
		reg.Help("rudolf_alert_webhook_queue", "Alert events waiting for webhook delivery.")
		reg.Collect(map[string]string{
			"rudolf_alert_webhook_sent_total":    "counter",
			"rudolf_alert_webhook_retries_total": "counter",
			"rudolf_alert_webhook_dropped_total": "counter",
			"rudolf_alert_webhook_queue":         "gauge",
		}, func(emit func(string, float64)) {
			emit("rudolf_alert_webhook_sent_total", float64(s.sent.Load()))
			emit("rudolf_alert_webhook_retries_total", float64(s.retries.Load()))
			emit("rudolf_alert_webhook_dropped_total", float64(s.dropped.Load()))
			emit("rudolf_alert_webhook_queue", float64(len(s.ch)))
		})
	}
	go s.run()
	return s
}

// enqueue hands an event to the sender without ever blocking the
// evaluation pass: a full queue drops the event and counts it.
func (s *webhookSink) enqueue(ev Event) {
	select {
	case s.ch <- ev:
	default:
		s.dropped.Add(1)
	}
}

// run is the sender loop: take one event, coalesce whatever else is
// queued, deliver the batch with capped exponential backoff until it lands
// or the sink closes.
func (s *webhookSink) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case ev := <-s.ch:
			batch := []Event{ev}
		drain:
			for len(batch) < 64 {
				select {
				case more := <-s.ch:
					batch = append(batch, more)
				default:
					break drain
				}
			}
			if !s.deliver(batch) {
				return // closed mid-retry
			}
		}
	}
}

// deliver POSTs one batch, retrying with backoff. It returns false only
// when the sink closed before the batch landed.
func (s *webhookSink) deliver(batch []Event) bool {
	body, err := json.Marshal(webhookPayload{Source: "rudolfd", Alerts: batch})
	if err != nil { // unreachable: Event marshals
		s.log.Error("alert webhook payload", "err", err)
		return true
	}
	backoff := s.cfg.MinBackoff
	for {
		err := s.post(body)
		if err == nil {
			s.sent.Add(uint64(len(batch)))
			return true
		}
		s.retries.Add(1)
		s.log.Warn("alert webhook delivery failed; retrying",
			"url", s.cfg.URL, "events", len(batch), "backoff", backoff.String(), "err", err)
		t := time.NewTimer(backoff)
		select {
		case <-s.stop:
			t.Stop()
			// The batch is abandoned: count it dropped so no event ever
			// silently vanishes from the accounting.
			s.dropped.Add(uint64(len(batch)))
			return false
		case <-t.C:
		}
		if backoff *= 2; backoff > s.cfg.MaxBackoff {
			backoff = s.cfg.MaxBackoff
		}
	}
}

func (s *webhookSink) post(body []byte) error {
	resp, err := s.client.Post(s.cfg.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("webhook answered %s", resp.Status)
	}
	return nil
}

func (s *webhookSink) status() WebhookStatus {
	return WebhookStatus{
		URL:     s.cfg.URL,
		Queued:  len(s.ch),
		Sent:    s.sent.Load(),
		Retries: s.retries.Load(),
		Dropped: s.dropped.Load(),
	}
}

// close stops the sender; events still queued (or mid-retry) are dropped
// and counted.
func (s *webhookSink) close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		<-s.done
		s.dropped.Add(uint64(len(s.ch)))
	})
}
