// Package history provides versioned storage for rule sets: every commit
// records a snapshot of the rules together with the modifications that
// produced it, mirroring the change history the paper obtained from its
// financial institutes ("Each time the rules are modified, the rules
// undergo about 10 rounds of modifications on average"). Versions serialize
// to JSON and can be diffed and checked out again.
package history

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/rules"
)

// Change is one recorded modification, in serializable form.
type Change struct {
	Kind        string `json:"kind"`
	RuleIndex   int    `json:"rule_index"`
	Attr        string `json:"attr,omitempty"`
	Description string `json:"description,omitempty"`
	Forced      bool   `json:"forced,omitempty"`
}

// Version is one committed state of the rule set.
type Version struct {
	ID      int       `json:"id"`
	Time    time.Time `json:"time"`
	Comment string    `json:"comment,omitempty"`
	// Rules is the textual form of every rule (parse with rules.Parse).
	Rules []string `json:"rules"`
	// Changes lists the modifications applied since the previous version.
	Changes []Change `json:"changes,omitempty"`
}

// Store keeps the version history of one rule set over one schema.
type Store struct {
	schema   *relation.Schema
	versions []Version
	// now stamps commits; overridable for deterministic tests.
	now func() time.Time
}

// NewStore returns an empty history over the schema.
func NewStore(schema *relation.Schema) *Store {
	return &Store{schema: schema, now: time.Now}
}

// Len returns the number of committed versions.
func (st *Store) Len() int { return len(st.versions) }

// version returns the i-th version (0 is the oldest).
func (st *Store) version(i int) Version { return st.versions[i] }

// Latest returns the most recent version; ok is false for an empty store.
func (st *Store) Latest() (Version, bool) {
	if len(st.versions) == 0 {
		return Version{}, false
	}
	return st.versions[len(st.versions)-1], true
}

// Build constructs — without committing — the version that Commit would
// append next: the rule set's textual snapshot plus the serialized
// modifications, stamped now and numbered len+1. Callers that must make the
// version durable before applying it (the serving daemon's write-ahead log)
// Build first, persist, then Append.
func (st *Store) Build(rs *rules.Set, mods []core.Modification, comment string) Version {
	v := Version{
		ID:      len(st.versions) + 1,
		Time:    st.now(),
		Comment: comment,
	}
	for _, r := range rs.Rules() {
		v.Rules = append(v.Rules, r.Format(st.schema))
	}
	for _, m := range mods {
		c := Change{
			Kind:        m.Kind.String(),
			RuleIndex:   m.RuleIndex,
			Description: m.Description,
			Forced:      m.Forced,
		}
		if m.Attr >= 0 && m.Attr < st.schema.Arity() {
			c.Attr = st.schema.Attr(m.Attr).Name
		}
		v.Changes = append(v.Changes, c)
	}
	return v
}

// Commit snapshots the rule set with the modifications applied since the
// last commit (pass the new suffix of the session's log, or nil) and returns
// the new version.
func (st *Store) Commit(rs *rules.Set, mods []core.Modification, comment string) Version {
	v := st.Build(rs, mods, comment)
	st.versions = append(st.versions, v)
	return v
}

// Append restores an already-committed version verbatim — the write-ahead
// log replay path, where the version id, timestamp and rules were assigned
// by a previous process and must be preserved exactly. The version must be
// the next in sequence and its rules must parse against the store's schema.
func (st *Store) Append(v Version) error {
	if want := len(st.versions) + 1; v.ID != want {
		return fmt.Errorf("history: appending version %d, want %d (replay out of order?)", v.ID, want)
	}
	for li, text := range v.Rules {
		if _, err := rules.Parse(st.schema, text); err != nil {
			return fmt.Errorf("history: version %d rule %d: %w", v.ID, li+1, err)
		}
	}
	st.versions = append(st.versions, v)
	return nil
}

// Checkout re-parses the rules of version i against the store's schema.
func (st *Store) Checkout(i int) (*rules.Set, error) {
	if i < 0 || i >= len(st.versions) {
		return nil, fmt.Errorf("history: no version %d (have %d)", i, len(st.versions))
	}
	out := rules.NewSet()
	for li, text := range st.versions[i].Rules {
		r, err := rules.Parse(st.schema, text)
		if err != nil {
			return nil, fmt.Errorf("history: version %d rule %d: %w", i, li+1, err)
		}
		out.Add(r)
	}
	return out, nil
}

// Diff returns a unified-style textual diff between two versions: lines
// prefixed "- " for rules only in version a and "+ " for rules only in b.
// Rules are compared by their textual form.
func (st *Store) Diff(a, b int) ([]string, error) {
	if a < 0 || a >= len(st.versions) || b < 0 || b >= len(st.versions) {
		return nil, fmt.Errorf("history: version out of range")
	}
	inA := make(map[string]bool, len(st.versions[a].Rules))
	for _, r := range st.versions[a].Rules {
		inA[r] = true
	}
	inB := make(map[string]bool, len(st.versions[b].Rules))
	for _, r := range st.versions[b].Rules {
		inB[r] = true
	}
	var out []string
	for _, r := range st.versions[a].Rules {
		if !inB[r] {
			out = append(out, "- "+r)
		}
	}
	for _, r := range st.versions[b].Rules {
		if !inA[r] {
			out = append(out, "+ "+r)
		}
	}
	return out, nil
}

// WriteJSON serializes the whole history.
func (st *Store) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st.versions)
}

// ReadJSON loads a history previously written by WriteJSON into a fresh
// store over the given schema. Every version's rules must parse against it.
func ReadJSON(r io.Reader, schema *relation.Schema) (*Store, error) {
	st := NewStore(schema)
	if err := json.NewDecoder(r).Decode(&st.versions); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	for i := range st.versions {
		if _, err := st.Checkout(i); err != nil {
			return nil, err
		}
	}
	return st, nil
}
