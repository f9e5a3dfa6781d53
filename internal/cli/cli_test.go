package cli

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/history"
	"repro/internal/paperdata"
)

// TestSaveHistoryReplacesFile: SaveHistory never truncates the file it
// replaces. A reader holding the old file keeps the old bytes, path holds
// the new history, and no temporary file is left beside it.
func TestSaveHistoryReplacesFile(t *testing.T) {
	s := paperdata.Schema()
	st := history.NewStore(s)
	st.Commit(paperdata.ExistingRules(s), nil, "v1")
	path := filepath.Join(t.TempDir(), "history.json")
	if err := SaveHistory(path, st); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	st.Commit(paperdata.ExistingRules(s), nil, "v2")
	if err := SaveHistory(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(old)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("old file changed under its reader: %d bytes, want the original %d", len(got), len(want))
	}
	back, err := LoadOrNewHistory(path, s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("reloaded history has %d versions, want 2", back.Len())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}
