// Package alert is the daemon's stdlib-only alerting and SLO engine
// (DESIGN.md §17): it periodically evaluates declarative threshold rules
// over three signal sources — the live telemetry registry (counter rates,
// gauge values, histogram-quantile estimates over the inter-evaluation
// delta), rulestats epochs (per-rule false-positive share, drift,
// staleness) and replication state (the follower lag and reconnect series)
// — and drives each rule through a pending → firing → resolved state
// machine with `for`-duration hysteresis, a bounded transition history, an
// ALERTS{name,severity,state} gauge family, and an optional webhook sink.
//
// Evaluation runs on its own ticker, never on the scoring hot path: the
// engine only reads the registry, whose series are atomics the hot path
// already maintains or read-time reads of the subsystem that owns them.
package alert

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Severity ranks an alert rule: "info" (FYI), "warn" (investigate) or
// "page" (wake someone).
type Severity string

// The recognized severities.
const (
	SeverityInfo Severity = "info"
	SeverityWarn Severity = "warn"
	SeverityPage Severity = "page"
)

func parseSeverity(s string) (Severity, error) {
	switch Severity(s) {
	case SeverityInfo, SeverityWarn, SeverityPage:
		return Severity(s), nil
	}
	return "", fmt.Errorf("unknown severity %q (want info, warn or page)", s)
}

// State is one alert's position in the lifecycle. Inactive alerts have no
// breach; Pending alerts breach but have not sustained it for the rule's
// `for` duration; Firing alerts have. There is no "resolved" state — a
// resolution is a transition (Firing → Inactive) recorded in the history.
type State string

// The alert states.
const (
	StateInactive State = "inactive"
	StatePending  State = "pending"
	StateFiring   State = "firing"
	// StateResolved appears only in transition events (and webhook
	// payloads), never as a rule's current state.
	StateResolved State = "resolved"
)

// Rule is one declarative alert: a named threshold expression with a
// severity and a `for`-duration that the breach must sustain before the
// alert fires. Rules parse from a line-oriented text form:
//
//	alert <name> [severity=info|warn|page] [for=<duration>]: <expr>
//
// e.g.
//
//	alert slo_score_eval_p99 severity=page for=1m: p99(rudolf_stage_duration_seconds{stage="eval"}) > 5ms
//
// See ParseExpr for the expression grammar.
type Rule struct {
	// Name identifies the alert (the ALERTS{name=...} label). Letters,
	// digits, '_', '-' and '.' only.
	Name string
	// Severity defaults to warn.
	Severity Severity
	// For is the hysteresis: the expression must hold on every evaluation
	// for at least this long before the alert transitions pending → firing.
	// 0 fires on the first breaching evaluation.
	For time.Duration
	// Expr is the compiled threshold expression.
	Expr Expr
	// Raw is the rule's original text (round-tripped by GET /v1/alerts).
	Raw string
}

// validName reports whether s is a well-formed alert name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}

// ParseRule parses one alert definition line.
func ParseRule(line string) (Rule, error) {
	raw := strings.TrimSpace(line)
	colon := strings.IndexByte(raw, ':')
	if colon < 0 {
		return Rule{}, fmt.Errorf("missing ':' between the alert header and its expression in %q", raw)
	}
	header, exprText := strings.TrimSpace(raw[:colon]), strings.TrimSpace(raw[colon+1:])
	fields := strings.Fields(header)
	if len(fields) < 2 || fields[0] != "alert" {
		return Rule{}, fmt.Errorf("alert header %q: want `alert <name> [severity=...] [for=...]`", header)
	}
	r := Rule{Name: fields[1], Severity: SeverityWarn, Raw: raw}
	if !validName(r.Name) {
		return Rule{}, fmt.Errorf("bad alert name %q (letters, digits, '_', '-', '.')", fields[1])
	}
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Rule{}, fmt.Errorf("alert %s: bad header option %q (want key=value)", r.Name, f)
		}
		switch k {
		case "severity":
			sev, err := parseSeverity(v)
			if err != nil {
				return Rule{}, fmt.Errorf("alert %s: %w", r.Name, err)
			}
			r.Severity = sev
		case "for":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return Rule{}, fmt.Errorf("alert %s: bad for=%q (want a non-negative duration like 30s)", r.Name, v)
			}
			r.For = d
		default:
			return Rule{}, fmt.Errorf("alert %s: unknown header option %q (want severity= or for=)", r.Name, k)
		}
	}
	expr, err := ParseExpr(exprText)
	if err != nil {
		return Rule{}, fmt.Errorf("alert %s: %w", r.Name, err)
	}
	r.Expr = expr
	return r, nil
}

// ParseRules parses a whole alert-rule document: one rule per line, '#'
// comments and blank lines ignored. Duplicate names are an error.
func ParseRules(r io.Reader) ([]Rule, error) {
	var out []Rule
	seen := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rule, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if prev, dup := seen[rule.Name]; dup {
			return nil, fmt.Errorf("line %d: alert %q already defined on line %d", lineNo, rule.Name, prev)
		}
		seen[rule.Name] = lineNo
		out = append(out, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseRuleLines parses one rule per string — the POST /v1/alerts body shape.
func ParseRuleLines(lines []string) ([]Rule, error) {
	return ParseRules(strings.NewReader(strings.Join(lines, "\n")))
}

// MustParseRules is ParseRules over a string, panicking on error — for the
// compiled-in default rule set, which is validated by tests.
func MustParseRules(text string) []Rule {
	rules, err := ParseRules(strings.NewReader(text))
	if err != nil {
		panic(fmt.Sprintf("alert: bad built-in rules: %v", err))
	}
	return rules
}

// Event is one recorded lifecycle transition (firing or resolved) — the
// history-ring entry and the webhook payload item.
type Event struct {
	Name     string   `json:"name"`
	Severity Severity `json:"severity"`
	// State is "firing" or "resolved".
	State State `json:"state"`
	// Expr is the rule's expression text.
	Expr string `json:"expr"`
	// Value is the sampled value that caused the transition (for resolved
	// events: the last breaching value).
	Value float64 `json:"value"`
	// At is when the transition happened.
	At time.Time `json:"at"`
	// FiredAt is when the alert started firing (set on resolved events, so
	// consumers see the incident span without correlating two events).
	FiredAt time.Time `json:"fired_at,omitzero"`
}

// RuleStatus is one rule's current position for GET /v1/alerts.
type RuleStatus struct {
	Name     string   `json:"name"`
	Severity Severity `json:"severity"`
	State    State    `json:"state"`
	Expr     string   `json:"expr"`
	ForS     float64  `json:"for_s"`
	// SinceS is seconds spent in the current state (omitted while inactive).
	SinceS float64 `json:"since_s,omitempty"`
	// Value is the most recent sample of the rule's expression input.
	Value float64 `json:"value"`
	// HasData is false when the expression's series has produced no sample
	// yet (missing series, or a delta window with no observations).
	HasData bool `json:"has_data"`
}

// sortEventsNewestFirst orders a copied history slice for the wire.
func sortEventsNewestFirst(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.After(evs[j].At) })
}
