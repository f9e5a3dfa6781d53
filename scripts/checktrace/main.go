// Command checktrace validates a Chrome trace_event JSON file produced by
// the rudolf tracer (GET /v1/trace on rudolfd, rudolf -trace-out, or
// experiments -traces). It is the assertion half of `make trace-demo`:
// beyond well-formedness it checks the span tree is structurally sound
// (parents contain their children in time on the same track) and that the
// trace actually tells the refinement story — at least one refine.round span
// with an expert-query child — and tells it at the right cost: Algorithm 1
// ranks rules only for a cluster that needs work, so a trace never holds
// more generalize.rank spans than expert.review_generalization spans, and
// no ranking accounts for more candidates (scanned + pruned) than rules.
//
// Usage:
//
//	checktrace [-o save.json] <file-or-http-url>
//
// The argument is a path or an http(s) URL; with -o the fetched bytes are
// also written to a file (so one invocation can both dump and validate a
// live daemon's /v1/trace). Exits non-zero with a diagnostic on any violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
)

// event is one trace_event, with the tracer's correlation args decoded.
type event struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`  // microseconds
	Dur   float64        `json:"dur"` // microseconds
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Args  map[string]any `json:"args"`
}

func (e *event) spanID() (uint64, bool)   { return argUint(e.Args, "span_id") }
func (e *event) parentID() (uint64, bool) { return argUint(e.Args, "parent_id") }

func argUint(args map[string]any, key string) (uint64, bool) {
	v, ok := args[key]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64) // encoding/json decodes numbers as float64
	if !ok || f < 0 {
		return 0, false
	}
	return uint64(f), true
}

func main() {
	out := flag.String("o", "", "also write the fetched trace JSON to this path")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: checktrace [-o save.json] <file-or-http-url>")
		os.Exit(2)
	}
	raw, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fatal(err)
		}
	}
	if err := validate(raw); err != nil {
		fatal(err)
	}
}

// load reads the trace from a file path or an http(s) URL.
func load(src string) ([]byte, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, err := http.Get(src)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %d", src, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	return os.ReadFile(src)
}

// validate runs every structural check and prints a one-line summary.
func validate(raw []byte) error {
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("not a JSON trace document: %w", err)
	}
	evs := doc.TraceEvents
	if len(evs) == 0 {
		return fmt.Errorf("trace has no events")
	}

	// Per-event well-formedness + span index.
	byID := make(map[uint64]*event, len(evs))
	for i := range evs {
		e := &evs[i]
		if e.Name == "" {
			return fmt.Errorf("event %d has no name", i)
		}
		if e.Phase != "X" && e.Phase != "i" {
			return fmt.Errorf("event %d (%s) has phase %q, want X or i", i, e.Name, e.Phase)
		}
		if e.TS < 0 || e.Dur < 0 {
			return fmt.Errorf("event %d (%s) has negative ts/dur (%v/%v)", i, e.Name, e.TS, e.Dur)
		}
		id, ok := e.spanID()
		if !ok {
			return fmt.Errorf("event %d (%s) carries no args.span_id", i, e.Name)
		}
		if prev, dup := byID[id]; dup {
			return fmt.Errorf("span id %d duplicated (%s and %s)", id, prev.Name, e.Name)
		}
		byID[id] = e
	}

	// Parent linkage: children lie within their parent in time, on the same
	// track. Parents evicted by ring overflow are skipped (orphans are fine);
	// tol absorbs µs rounding of the ns-resolution records.
	const tol = 2.0 // µs
	children := make(map[uint64][]*event, len(evs))
	checked := 0
	for i := range evs {
		e := &evs[i]
		pid, ok := e.parentID()
		if !ok {
			continue
		}
		p, present := byID[pid]
		if !present {
			continue
		}
		children[pid] = append(children[pid], e)
		if e.TID != p.TID {
			return fmt.Errorf("%s (span %d) is on track %d but its parent %s is on %d",
				e.Name, mustID(e), e.TID, p.Name, p.TID)
		}
		if e.TS+tol < p.TS || e.TS+e.Dur > p.TS+p.Dur+tol {
			return fmt.Errorf("%s [%.1f,%.1f] escapes parent %s [%.1f,%.1f]",
				e.Name, e.TS, e.TS+e.Dur, p.Name, p.TS, p.TS+p.Dur)
		}
		checked++
	}

	// The refinement story: ≥1 refine.round span with ≥1 expert-query span
	// somewhere beneath it (expert spans nest under the generalize/specialize
	// phase spans, which nest under the round).
	rounds, roundsWithExpert := 0, 0
	for id, e := range byID {
		if e.Name != "refine.round" {
			continue
		}
		rounds++
		if hasDescendant(children, id, func(e *event) bool { return strings.HasPrefix(e.Name, "expert.") }) {
			roundsWithExpert++
		}
	}
	if rounds == 0 {
		return fmt.Errorf("trace has no refine.round span")
	}
	if roundsWithExpert == 0 {
		return fmt.Errorf("no refine.round span has an expert.* child (%d rounds)", rounds)
	}

	names := make(map[string]int, 16)
	for i := range evs {
		names[evs[i].Name]++
	}

	// Lazy, bounded ranking: a ranking is computed only for a cluster that
	// goes on to put a proposal to the expert, and it scans or prunes each
	// rule at most once.
	if ranks, reviews := names["generalize.rank"], names["expert.review_generalization"]; ranks > reviews {
		return fmt.Errorf("%d generalize.rank spans for %d expert.review_generalization spans: rules were ranked for clusters that needed no work", ranks, reviews)
	}
	for i := range evs {
		e := &evs[i]
		if e.Name != "generalize.rank" {
			continue
		}
		scanned, _ := argUint(e.Args, "scanned")
		pruned, _ := argUint(e.Args, "pruned")
		rules, ok := argUint(e.Args, "rules")
		if !ok || scanned+pruned > rules {
			return fmt.Errorf("generalize.rank (span %d) scanned %d + pruned %d candidates of %d rules", mustID(e), scanned, pruned, rules)
		}
	}
	top := make([]string, 0, len(names))
	for n := range names {
		top = append(top, n)
	}
	sort.Strings(top)
	fmt.Printf("checktrace: ok — %d events, %d parent links verified, %d refine.round (%d with expert queries)\n",
		len(evs), checked, rounds, roundsWithExpert)
	fmt.Printf("checktrace: span names: %s\n", strings.Join(top, " "))
	return nil
}

// hasDescendant walks the span tree below root looking for a span matching
// pred.
func hasDescendant(children map[uint64][]*event, root uint64, pred func(*event) bool) bool {
	stack := []uint64{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range children[id] {
			if pred(c) {
				return true
			}
			if cid, ok := c.spanID(); ok {
				stack = append(stack, cid)
			}
		}
	}
	return false
}

func mustID(e *event) uint64 {
	id, _ := e.spanID()
	return id
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "checktrace:", err)
	os.Exit(1)
}
