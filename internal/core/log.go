package core

import (
	"fmt"
	"strings"

	"repro/internal/cost"
)

// Modification records one applied change to the rule set.
type Modification struct {
	Kind cost.ModKind
	// RuleIndex is the index of the affected rule at the time of the change.
	RuleIndex int
	// Attr is the affected attribute, or -1 for whole-rule operations.
	Attr int
	// Cost is the cost charged by the session's cost model.
	Cost float64
	// Forced marks changes applied without expert consent (the terminal
	// fallback of Algorithm 2 when every split is rejected).
	Forced bool
	// Description is a human-readable account of the change.
	Description string
}

// Log accumulates the modifications applied during a session, in order.
type Log struct {
	mods []Modification
}

// Append records a modification.
func (l *Log) Append(m Modification) { l.mods = append(l.mods, m) }

// Len returns the number of recorded modifications.
func (l *Log) Len() int { return len(l.mods) }

// All returns the recorded modifications in order. The slice is shared;
// callers must not modify it.
func (l *Log) All() []Modification { return l.mods }

// CountByKind returns how many modifications of each kind were recorded
// (the basis of the paper's 75% / 20% / 5% modification-mix statistic).
func (l *Log) CountByKind() map[cost.ModKind]int {
	out := make(map[cost.ModKind]int)
	for _, m := range l.mods {
		out[m.Kind]++
	}
	return out
}

// String renders the log, one modification per line.
func (l *Log) String() string {
	var b strings.Builder
	for i, m := range l.mods {
		forced := ""
		if m.Forced {
			forced = " (forced)"
		}
		fmt.Fprintf(&b, "%3d. %-22s rule=%d attr=%d cost=%.2f%s %s\n",
			i+1, m.Kind, m.RuleIndex, m.Attr, m.Cost, forced, m.Description)
	}
	return b.String()
}
