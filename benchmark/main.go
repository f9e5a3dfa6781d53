// Command benchmark is the repository's one reproducible performance
// benchmark: it builds cmd/rudolfd from the working tree, drives it as a
// child process over loopback from this single process, checks every answer,
// and prints each metric by name with its unit. See README.md in this
// directory for the workloads, the metrics and how they interact.
//
//	go run ./benchmark                                    # all four workloads, end to end
//	go run ./benchmark -workload score_plain_b64 -seed 3  # one workload
//	go run ./benchmark -workload refine_churn -trace 1    # plus the per-layer traced run
//	go run ./benchmark -out runs.jsonl                    # append results for -compare
//	go run ./benchmark -compare before.jsonl after.jsonl
//
// With -workload, the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics (the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1); everything for people
// goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -out file, for -compare: a result with the
// arguments that produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty: all four in turn)")
		seed    = flag.Int64("seed", 1, "seed of the scoring traffic")
		seconds = flag.Int("seconds", runSeconds, "run length the request counts are scaled to")
		trace   = flag.Int("trace", 0, "1: also make the in-process traced run and report the per-layer metrics")
		out     = flag.String("out", "", "append every result to this JSON-lines file")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare before.jsonl after.jsonl"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		todo = []workload{w}
	}

	// Children are killed and run directories removed on every way out.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanup()
		os.Exit(130)
	}()

	correct := true
	for _, w := range todo {
		res, err := measure(w, *seed, *seconds, *trace == 1)
		runCleanup()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		correct = correct && res.Correct
		if *out != "" {
			if err := appendRecord(*out, record{Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *trace, result: *res}); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	runCleanup()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// measure runs one workload and assembles its result: the end-to-end
// metrics, or with traced the per-layer ones. Both groups are printed for
// people either way, as far as they were measured.
func measure(w workload, seed int64, seconds int, traced bool) (*result, error) {
	r, err := runWorkload(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	values := r.values
	attempted, failed, firstErr := r.attempted, r.failed, r.firstErr
	r.tearDown() // the traced run is in-process
	if traced {
		t, err := runTraced(w, seed, seconds)
		if err != nil {
			return nil, err
		}
		for k, v := range t.values {
			values[k] = v
		}
		attempted += t.attempted
		failed += t.failed
		if firstErr == nil {
			firstErr = t.firstErr
		}
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "# %s: %d of %d operations failed; first: %v\n", w.Name, failed, attempted, firstErr)
	}

	res := buildResult(values, traced, attempted, failed)
	printTable(w, seed, values, traced)
	return res, nil
}

// buildResult selects the metric group the run was asked for: every
// end-to-end metric, or with traced every per-layer metric.
func buildResult(values map[string]float64, traced bool, attempted, failed int) *result {
	group := endToEnd
	if traced {
		group = perLayer
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range group {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN or Inf; a metric that could not be measured
			// (every request of a phase failed) makes the run incorrect.
			res.Correct = false
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res
}

// printTable writes every measured metric by name with its unit.
func printTable(w workload, seed int64, values map[string]float64, traced bool) {
	fmt.Fprintf(os.Stderr, "== %s (seed %d)\n", w.Name, seed)
	groups := [][]metric{endToEnd, perLayer}
	for _, g := range groups {
		for _, m := range g {
			if v, ok := values[m.Name]; ok {
				fmt.Fprintf(os.Stderr, "%-38s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	if traced {
		if c := values["serve.stage_coverage_ratio"]; c < 0.85 || c > 1.05 {
			fmt.Fprintf(os.Stderr, "# WARNING: the server's stages cover %.2f of the handler span (want 0.85-1.05)\n", c)
		}
	}
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
