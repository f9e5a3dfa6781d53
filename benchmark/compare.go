package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// series is the values of one metric on one workload across the runs in a
// file.
type series map[string]map[string][]float64 // workload → metric → values

func readRecords(path string) (series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges one metric on one workload: the relative change of the
// medians in the direction that is worse, against the metric's bound.
//
//	worse       the median got worse by more than the bound
//	unresolved  a side's own spread (quartile distance over median) is wider
//	            than the bound, so the runs cannot show a change that small
//	ok          neither
//	info        a per-layer metric: reported, never judged
func verdict(m metric, before, after []float64) (change float64, word string) {
	mb, ma := median(before), median(after)
	change = (ma - mb) / mb
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case m.Bound == 0:
		return change, "info"
	case change > m.Bound:
		return change, "worse"
	case quartileSpread(before) > m.Bound || quartileSpread(after) > m.Bound:
		return change, "unresolved"
	default:
		return change, "ok"
	}
}

// compareFiles prints, per metric and workload present in both files, both
// medians with their spreads, the change, the bound and the verdict, and
// returns the exit code: 1 when any end-to-end metric is worse.
func compareFiles(w io.Writer, beforePath, afterPath string) int {
	before, err := readRecords(beforePath)
	if err != nil {
		fatal(err)
	}
	after, err := readRecords(afterPath)
	if err != nil {
		fatal(err)
	}
	code := 0
	fmt.Fprintf(w, "%-26s %-34s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "before", "spread", "after", "spread", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		for _, group := range [][]metric{endToEnd, perLayer} {
			for _, m := range group {
				b, a := before[wl.Name][m.Name], after[wl.Name][m.Name]
				if len(b) == 0 || len(a) == 0 {
					continue
				}
				change, word := verdict(m, b, a)
				if word == "worse" {
					code = 1
				}
				fmt.Fprintf(w, "%-26s %-34s %14.4f %6.1f%% %14.4f %6.1f%% %+7.1f%% %6.2f  %s (n=%d,%d)\n",
					wl.Name, m.Name, median(b), 100*quartileSpread(b), median(a), 100*quartileSpread(a),
					100*change, m.Bound, word, len(b), len(a))
			}
		}
	}
	return code
}
