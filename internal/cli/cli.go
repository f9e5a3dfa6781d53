// Package cli holds the file-loading helpers shared by the command-line
// programs (cmd/rudolf, cmd/rudolfd): the open/parse/close dance for schema
// JSON, rule files, transaction CSVs and rule histories, with the file path
// attached to every error.
package cli

import (
	"fmt"
	"io"
	"os"

	"repro/internal/alert"
	"repro/internal/history"
	"repro/internal/relation"
	"repro/internal/rules"
)

// load opens path and hands the file to parse, closing it afterwards and
// wrapping any error with the path.
func load(path string, parse func(f *os.File) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := parse(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// LoadSchema reads a schema (with its ontologies) from a JSON file written
// by Schema.WriteJSON.
func LoadSchema(path string) (*relation.Schema, error) {
	var s *relation.Schema
	err := load(path, func(f *os.File) (err error) {
		s, err = relation.ReadSchemaJSON(f)
		return err
	})
	return s, err
}

// LoadRules reads a rule file (one rule per line, '#' comments) against the
// schema.
func LoadRules(path string, s *relation.Schema) (*rules.Set, error) {
	var rs *rules.Set
	err := load(path, func(f *os.File) (err error) {
		rs, err = rules.ReadSet(f, s)
		return err
	})
	return rs, err
}

// LoadAlertRules reads a declarative alert-rule file (one rule per line,
// '#' comments; see internal/alert).
func LoadAlertRules(path string) ([]alert.Rule, error) {
	var rs []alert.Rule
	err := load(path, func(f *os.File) (err error) {
		rs, err = alert.ParseRules(f)
		return err
	})
	return rs, err
}

// LoadRelation reads a transaction CSV (as written by Relation.WriteCSV)
// against the schema.
func LoadRelation(path string, s *relation.Schema) (*relation.Relation, error) {
	var rel *relation.Relation
	err := load(path, func(f *os.File) (err error) {
		rel, err = relation.ReadCSV(s, f)
		return err
	})
	return rel, err
}

// LoadOrNewHistory reads a JSON rule history, returning an empty store when
// the file does not exist yet.
func LoadOrNewHistory(path string, s *relation.Schema) (*history.Store, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return history.NewStore(s), nil
	}
	var st *history.Store
	err := load(path, func(f *os.File) (err error) {
		st, err = history.ReadJSON(f, s)
		return err
	})
	return st, err
}

// save writes path through a temporary file in the same directory that is
// synced and renamed over path, so a failed or interrupted write leaves the
// previous contents of path intact. The temporary file is removed on error.
func save(path string, write func(w io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// SaveHistory writes the history as JSON to path, replacing it atomically.
func SaveHistory(path string, st *history.Store) error {
	return save(path, st.WriteJSON)
}

// SaveRules writes the rule set, one rule per line, to path, replacing it
// atomically.
func SaveRules(path string, s *relation.Schema, rs *rules.Set) error {
	return save(path, func(w io.Writer) error { return rules.WriteSet(w, s, rs) })
}
