package serve

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/alert"
)

// GET /v1/alerts and POST /v1/alerts: the embedded alert engine's readout
// and rule surface (DESIGN.md §17).
//
// The endpoint is node-local on every role: a follower evaluates (and
// accepts) its own alert rules, because its signals — replication lag
// above all — are exactly what the rules watch. That is why its POST is not
// a write in the route table, unlike POST /v1/rules.

// alertsResponse is the GET /v1/alerts document: the engine snapshot plus
// the request id envelope field.
type alertsResponse struct {
	RequestID string `json:"request_id,omitempty"`
	alert.Snapshot
}

// alertsPublishRequest is the POST /v1/alerts body: the full replacement
// rule set, one rule per line. An empty list disables every alert.
type alertsPublishRequest struct {
	Rules []string `json:"rules"`
}

// alertsPublishResponse acknowledges a rule install.
type alertsPublishResponse struct {
	RequestID string `json:"request_id,omitempty"`
	// ConfigVersion counts rule installs on this node (the first half of
	// the /v1/alerts ETag).
	ConfigVersion int `json:"config_version"`
	// Rules is the number of rules now installed.
	Rules int `json:"rules"`
}

// alertsETag versions GET /v1/alerts responses: the install counter plus
// the state-transition generation, so any rule change or lifecycle
// transition invalidates a cached readout.
func alertsETag(snap *alert.Snapshot) string {
	return fmt.Sprintf(`"%d-%d"`, snap.ConfigVersion, snap.Generation)
}

// handleAlertsGet serves the engine snapshot. ?refresh=1 forces a
// synchronous evaluation pass first — how tests and the smoke scripts get
// deterministic readouts without racing the ticker (and how a disabled
// ticker is driven at all).
func (s *Server) handleAlertsGet(w http.ResponseWriter, r *http.Request) error {
	meta := requestMeta(r)
	if v := r.URL.Query().Get("refresh"); v != "" && v != "0" {
		sp := meta.span.Child("alerts.evaluate")
		s.alerts.Evaluate()
		sp.End()
	}
	snap := s.alerts.Snapshot()
	etag := alertsETag(&snap)
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return nil
	}
	s.writeJSON(w, http.StatusOK, alertsResponse{RequestID: meta.id, Snapshot: snap})
	return nil
}

// handleAlertsPost replaces the node's alert rule set. Unlike scoring-rule
// publishes this is deliberately not WAL-logged or replicated: alert rules
// are operator configuration about this node, not scoring state.
func (s *Server) handleAlertsPost(w http.ResponseWriter, r *http.Request) error {
	var req alertsPublishRequest
	if err := readJSON(r.Context(), r.Body, &req); err != nil {
		return err
	}
	rules, err := alert.ParseRuleLines(req.Rules)
	if err != nil {
		return errorf(http.StatusBadRequest, CodeBadRequest, "bad alert rules: %v", err)
	}
	cv := s.alerts.SetRules(rules)
	s.log.Info("alert rules installed", "rules", len(rules), "config_version", cv)
	s.writeJSON(w, http.StatusOK, alertsPublishResponse{
		RequestID:     requestMeta(r).id,
		ConfigVersion: cv,
		Rules:         len(rules),
	})
	return nil
}

// debugAlertsState is the alerts block of GET /v1/debug/state: the compact
// rollup (full detail lives at /v1/alerts).
type debugAlertsState struct {
	Rules         int     `json:"rules"`
	Firing        int     `json:"firing"`
	Pending       int     `json:"pending"`
	ConfigVersion int     `json:"config_version"`
	Generation    uint64  `json:"generation"`
	IntervalS     float64 `json:"interval_s"`
	// TickerRunning reports whether the periodic evaluator is on
	// (Config.AlertInterval >= 0); refresh-on-read works either way.
	TickerRunning bool                 `json:"ticker_running"`
	LastEval      string               `json:"last_eval,omitempty"`
	Webhook       *alert.WebhookStatus `json:"webhook,omitempty"`
}

// alertsDebugState builds the alerts block for /v1/debug/state.
func (s *Server) alertsDebugState() *debugAlertsState {
	snap := s.alerts.Snapshot()
	st := &debugAlertsState{
		Rules:         len(snap.Rules),
		Firing:        snap.Firing,
		Pending:       snap.Pending,
		ConfigVersion: snap.ConfigVersion,
		Generation:    snap.Generation,
		IntervalS:     snap.Interval.Seconds(),
		TickerRunning: s.alertStop != nil,
		Webhook:       snap.Webhook,
	}
	if !snap.LastEval.IsZero() {
		st.LastEval = snap.LastEval.UTC().Format(time.RFC3339Nano)
	}
	return st
}
