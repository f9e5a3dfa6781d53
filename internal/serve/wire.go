package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/relation"
	"repro/internal/rulestats"
)

// The wire format of the scoring daemon. Transactions travel as JSON
// objects keyed by attribute name; values are either the textual form the
// schema formats/parses (`"18:02"`, `"$120"`, `"Gas Station A"`) or raw
// numbers (domain values for numeric attributes, leaf concept ids for
// categorical ones). Everything is validated against the schema before it
// reaches the evaluator, so malformed uploads are rejected with a 400 and a
// field-precise error instead of poisoning server state.

// txIn is one transaction on the wire.
type txIn struct {
	Attrs map[string]json.RawMessage `json:"attrs"`
	Score int16                      `json:"score"`
	// Label is only honored by /feedback: "fraud", "legit"/"legitimate",
	// or "unlabeled" (context transactions for the γ term).
	Label string `json:"label,omitempty"`
}

// scoreRequest is the /score body: a batch, or the single-transaction
// shorthand with attrs/score inline. Explain adds decision provenance to the
// response: per-tuple matched rules plus per-condition pass/fail and margins
// for every rule that fired (the "why was this flagged" answer, at a small
// multiple of plain scoring cost). ExplainAll additionally includes the
// breakdown of every non-firing rule — the margins of rules that almost
// fired — re-derived per rule at encode time; it implies Explain and is the
// expensive full-table form (response size grows with rule count).
type scoreRequest struct {
	Transactions []txIn                     `json:"transactions"`
	Attrs        map[string]json.RawMessage `json:"attrs,omitempty"`
	Score        int16                      `json:"score,omitempty"`
	Explain      bool                       `json:"explain,omitempty"`
	ExplainAll   bool                       `json:"explain_all,omitempty"`
}

// scoreResponse reports one verdict per transaction, all evaluated against
// exactly one published rules version. Explanations is only present when the
// request asked for it.
type scoreResponse struct {
	RequestID    string          `json:"request_id,omitempty"`
	Version      int             `json:"version"`
	Count        int             `json:"count"`
	Matched      int             `json:"matched"`
	Flagged      []bool          `json:"flagged"`
	Explanations []txExplanation `json:"explanations,omitempty"`
}

// checkExplanation is one rule condition's outcome on one transaction: the
// attribute it constrains ("score" for the minimum-score threshold), whether
// the transaction satisfies it, and the signed distance to the decision
// boundary (a check passes if and only if its margin is >= 0; see
// index.CheckAttribution for the per-kind margin definitions).
type checkExplanation struct {
	Attr   string `json:"attr"`
	Kind   string `json:"kind"` // "numeric", "ontological", "score" or "window"
	Pass   bool   `json:"pass"`
	Margin int64  `json:"margin"`
}

// ruleExplanation is one rule's verdict on one transaction with its full
// condition breakdown.
type ruleExplanation struct {
	Rule    int                `json:"rule"`
	Text    string             `json:"text,omitempty"`
	Matched bool               `json:"matched"`
	Empty   bool               `json:"empty,omitempty"`
	Checks  []checkExplanation `json:"checks"`
}

// txExplanation is the decision provenance of one scored transaction.
type txExplanation struct {
	Flagged bool              `json:"flagged"`
	Matched []int             `json:"matched"`
	Rules   []ruleExplanation `json:"rules"`
}

type feedbackRequest struct {
	Transactions []txIn `json:"transactions"`
}

// batch returns the request's transactions: the single-transaction
// shorthand is a batch of one.
func (r *scoreRequest) batch() []txIn {
	if r.Transactions == nil && r.Attrs != nil {
		return []txIn{{Attrs: r.Attrs, Score: r.Score}}
	}
	return r.Transactions
}

// feedbackLabel maps the wire label names onto relation labels. A feedback
// transaction must name one.
func feedbackLabel(tx txIn) (relation.Label, error) {
	switch tx.Label {
	case "fraud", "FRAUD":
		return relation.Fraud, nil
	case "legit", "legitimate", "LEGITIMATE":
		return relation.Legitimate, nil
	case "unlabeled":
		return relation.Unlabeled, nil
	case "":
		return relation.Unlabeled, errors.New("missing label (want fraud, legit or unlabeled)")
	default:
		return relation.Unlabeled, fmt.Errorf("unknown label %q (want fraud, legit or unlabeled)", tx.Label)
	}
}

// relationOf is the batch decoder of score and feedback: it bounds a decoded
// wire batch and validates every transaction against the schema into a
// relation, labeled by label (unlabeled when label is nil). A batch that does
// not validate is a 400 or a 413.
func (s *Server) relationOf(txs []txIn, label func(txIn) (relation.Label, error)) (*relation.Relation, error) {
	if len(txs) == 0 {
		return nil, errorf(http.StatusBadRequest, CodeBadRequest, "no transactions")
	}
	if len(txs) > s.cfg.MaxBatch {
		return nil, errorf(http.StatusRequestEntityTooLarge, CodePayloadTooLarge, "batch of %d exceeds max %d", len(txs), s.cfg.MaxBatch)
	}
	rel := relation.New(s.schema)
	for i, tx := range txs {
		t, err := parseTuple(s.schema, tx.Attrs)
		lab := relation.Unlabeled
		if err == nil && label != nil {
			lab, err = label(tx)
		}
		if err == nil {
			_, err = rel.Append(t, lab, tx.Score)
		}
		if err != nil {
			return nil, errorf(http.StatusBadRequest, CodeBadRequest, "transaction %d: %v", i, err)
		}
	}
	return rel, nil
}

type feedbackResponse struct {
	RequestID string `json:"request_id,omitempty"`
	Version   int    `json:"version"`
	Added     int    `json:"added"`
	// Total is the size of the server-side feedback relation after the
	// append.
	Total int `json:"total"`
	// Captured reports, per added transaction, whether the current rules
	// already capture it (read off the incremental capture cache).
	Captured []bool `json:"captured"`
}

type rulesResponse struct {
	RequestID string   `json:"request_id,omitempty"`
	Version   int      `json:"version"`
	Count     int      `json:"count"`
	Rules     []string `json:"rules,omitempty"`
}

type rulesSwapRequest struct {
	Rules   []string `json:"rules"`
	Comment string   `json:"comment,omitempty"`
}

type refineRequest struct {
	MaxRounds int    `json:"max_rounds,omitempty"`
	Comment   string `json:"comment,omitempty"`
}

type refineResponse struct {
	RequestID         string `json:"request_id,omitempty"`
	OldVersion        int    `json:"old_version"`
	Version           int    `json:"version"`
	Rules             int    `json:"rules"`
	Modifications     int    `json:"modifications"`
	FraudTotal        int    `json:"fraud_total"`
	FraudCaptured     int    `json:"fraud_captured"`
	LegitTotal        int    `json:"legit_total"`
	LegitCaptured     int    `json:"legit_captured"`
	UnlabeledCaptured int    `json:"unlabeled_captured"`
}

type statsResponse struct {
	RequestID     string `json:"request_id,omitempty"`
	Version       int    `json:"version"`
	Rules         int    `json:"rules"`
	Feedback      int    `json:"feedback"`
	Fraud         int    `json:"fraud"`
	FraudCaptured int    `json:"fraud_captured"`
	Legit         int    `json:"legit"`
	LegitCaptured int    `json:"legit_captured"`
	Unlabeled     int    `json:"unlabeled"`
}

// ruleHealthResponse wraps the rulestats snapshot with the request id; the
// ETag header carries the snapshot's rule-set version.
type ruleHealthResponse struct {
	RequestID string `json:"request_id,omitempty"`
	rulestats.Snapshot
}

// auditResponse is the sampled decision audit readout, newest first.
type auditResponse struct {
	RequestID string                 `json:"request_id,omitempty"`
	Version   int                    `json:"version"`
	Retained  int                    `json:"retained"`
	Count     int                    `json:"count"`
	Entries   []rulestats.AuditEntry `json:"entries"`
}

// errorBody is the payload of the uniform error envelope: a stable
// machine-readable code (the Code* constants), a human-oriented message,
// and the request id so clients can correlate failures with server traces.
type errorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// errorResponse is the uniform error envelope every endpoint (versioned or
// fallback) writes: {"error":{"code":...,"message":...,"request_id":...}}.
type errorResponse struct {
	Error errorBody `json:"error"`
}

// parseTuple validates and converts one wire transaction into a schema
// tuple. Every schema attribute must be present; unknown attribute names are
// rejected by name so clients learn exactly which field is wrong.
func parseTuple(schema *relation.Schema, attrs map[string]json.RawMessage) (relation.Tuple, error) {
	t := make(relation.Tuple, schema.Arity())
	for i := 0; i < schema.Arity(); i++ {
		a := schema.Attr(i)
		raw, ok := attrs[a.Name]
		if !ok {
			return nil, fmt.Errorf("missing attribute %q", a.Name)
		}
		v, err := parseValue(schema, i, raw)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
		t[i] = v
	}
	if len(attrs) > schema.Arity() {
		for _, name := range sortedKeys(attrs) {
			if _, ok := schema.Index(name); !ok {
				return nil, fmt.Errorf("unknown attribute %q", name)
			}
		}
	}
	return t, nil
}

func sortedKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// parseValue converts one attribute value: JSON strings go through the
// schema's textual parser, JSON numbers are raw domain values / concept ids.
func parseValue(schema *relation.Schema, attr int, raw json.RawMessage) (int64, error) {
	if len(raw) > 0 && raw[0] == '"' {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return 0, err
		}
		return schema.ParseValue(attr, s)
	}
	var n int64
	if err := json.Unmarshal(raw, &n); err != nil {
		return 0, fmt.Errorf("want a string or integer: %w", err)
	}
	return n, nil
}
