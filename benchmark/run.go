package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/rules"
)

// setupReps is how many times a run sets up from scratch (generate inputs,
// write files, boot the daemon, warm it); setup_s is the median, the last
// set-up is the one measured against.
const setupReps = 3

// run is one workload driven against one child daemon.
type run struct {
	w       workload
	seed    int64
	seconds int

	in     *inputs
	dir    string
	client *http.Client
	child  *child
	score  *scorer
	nextK  int // next unused score request index

	attempted int
	failed    int
	firstErr  error

	// beforeRefine, when set, is called just before each POST /v1/refine with
	// the number of feedback rows the daemon then holds (the traced run takes
	// the round's starting rules there).
	beforeRefine func(rows int)

	versions map[int]*rules.Set // every published version's rule set
	answers  []answer           // sampled score answers awaiting the oracle
	values   map[string]float64 // metrics by name
}

func (r *run) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// absorb folds a load phase's counters and sampled answers into the run.
func (r *run) absorb(p *phaseResult) {
	r.attempted += p.Sent
	r.failed += p.Failed
	if r.firstErr == nil {
		r.firstErr = p.FirstErr
	}
	r.answers = append(r.answers, p.Answers...)
}

// call makes one control-plane request, requires a 200 and decodes the JSON
// answer into out. It returns the round-trip time.
func (r *run) call(method, path string, body []byte, out any) (time.Duration, error) {
	r.attempted++
	req, err := http.NewRequest(method, r.score.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	raw, err := drain(resp)
	took := time.Since(start)
	if err != nil {
		return took, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return took, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return took, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return took, nil
}

// setUp generates the inputs, boots a daemon on them and warms it. It is the
// whole of what setup_s times.
func (r *run) setUp(bin string) (time.Duration, error) {
	start := time.Now()
	in, dir, schemaPath, rulesPath, err := prepare(r.w, r.seed, r.seconds)
	if err != nil {
		return 0, err
	}
	args, addrFile := daemonArgs(r.w, dir, schemaPath, rulesPath)
	c, err := startChild(bin, args, addrFile, r.client)
	if err != nil {
		return 0, err
	}
	r.in, r.dir, r.child = in, dir, c
	r.score = &scorer{client: r.client, url: c.url, in: in}
	r.versions = map[int]*rules.Set{1: in.rules}
	r.nextK = 0
	if r.w.Velocity {
		// On the still-empty window store the probe burst must read exactly
		// what window.ComputeColumns says about the prefix sent so far.
		got, err := r.probe(0)
		if err != nil {
			return 0, err
		}
		if want := freshProbeAggregates(in, 0); !equalAggregates(got, want) {
			r.fail(fmt.Errorf("probe on a fresh store read %v, window.ComputeColumns says %v", got, want))
		}
	}
	r.absorb(r.score.runClosed(r.nextK, r.w.WarmCount))
	r.nextK += r.w.WarmCount
	return time.Since(start), nil
}

// tearDown discards a set-up that will not be measured.
func (r *run) tearDown() {
	r.child.kill()
	os.RemoveAll(r.dir)
	r.answers = nil
}

// probe sends the velocity probe burst at the given minute of day and
// returns the aggregates its windowed atoms read.
func (r *run) probe(minute int64) ([][]int64, error) {
	var doc explainDoc
	if _, err := r.call(http.MethodPost, "/v1/score", patchTime(&r.in.probe, minute, nil), &doc); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	return windowAggregates(r.in, &doc)
}

// verify checks the sampled answers against the oracle and counts the wrong
// ones as failures.
func (r *run) verify() {
	bad, first := verifyAnswers(r.in, r.versions, r.answers)
	r.failed += bad
	if r.firstErr == nil {
		r.firstErr = first
	}
}

// analystRounds runs the workload's feedback → refine → read-back cycles and
// the final republish, checking every answer, and returns the per-post
// ingest rates (tx/s) and the per-cycle refine round trips.
func (r *run) analystRounds() (feedbackRates []float64, refineS []float64, publishMS float64) {
	var texts []string
	version, refined := 1, false
	for c := 0; c < r.w.cycles(r.seconds); c++ {
		for _, chunk := range r.in.feedback[c*postsPerCycle : (c+1)*postsPerCycle] {
			var fb struct{ Added, Total int }
			took, err := r.call(http.MethodPost, "/v1/feedback", chunk.Raw, &fb)
			switch {
			case err != nil:
				r.fail(err)
			case fb.Added != chunk.Hi-chunk.Lo || fb.Total != chunk.Hi:
				r.fail(fmt.Errorf("feedback chunk [%d,%d): daemon added %d, total %d", chunk.Lo, chunk.Hi, fb.Added, fb.Total))
			default:
				feedbackRates = append(feedbackRates, float64(chunk.Hi-chunk.Lo)/took.Seconds())
			}
		}
		rows := r.in.feedback[(c+1)*postsPerCycle-1].Hi
		if r.beforeRefine != nil {
			r.beforeRefine(rows)
		}
		var ref struct{ Version, Rules, Modifications int }
		took, err := r.call(http.MethodPost, "/v1/refine", nil, &ref)
		if err != nil {
			r.fail(err)
			continue
		}
		refineS = append(refineS, took.Seconds())
		var rd struct {
			Version int
			Rules   []string
		}
		if _, err := r.call(http.MethodGet, "/v1/rules", nil, &rd); err != nil {
			r.fail(err)
			continue
		}
		set, err := parseRules(r.in, rd.Rules)
		if err != nil || rd.Version != ref.Version || len(rd.Rules) != ref.Rules {
			r.fail(fmt.Errorf("cycle %d: /v1/rules says version %d with %d rules (%v), /v1/refine said %d with %d", c+1, rd.Version, len(rd.Rules), err, ref.Version, ref.Rules))
			continue
		}
		version, texts, refined = rd.Version, rd.Rules, true
		r.versions[version] = set
		fmt.Fprintf(os.Stderr, "# round %d: %d feedback tx, refine %.3fs, %d modifications, %d rules\n", c+1, rows, took.Seconds(), ref.Modifications, ref.Rules)
		// The daemon's own account of the refined rules over the feedback it
		// holds must agree with the interpreted evaluation of the rule text
		// it published over the feedback that was sent.
		var st statsDoc
		if _, err := r.call(http.MethodGet, "/v1/stats", nil, &st); err != nil {
			r.fail(err)
			continue
		}
		want := oracleStats(set, r.in.fbRel, rows)
		want.Version = version
		if st != want {
			r.fail(fmt.Errorf("cycle %d: /v1/stats %+v, oracle %+v", c+1, st, want))
		}
	}
	if !refined {
		return feedbackRates, refineS, 0
	}
	// Unattended refinement drops rules that capture no feedback, the
	// never-firing windowed atoms among them; the republish puts them back,
	// so the restarts that follow replay a log with windowed rules published,
	// withdrawn and published again.
	texts = append(texts, r.in.winTexts...)
	final, err := parseRules(r.in, texts)
	if err != nil {
		r.fail(err)
		return feedbackRates, refineS, 0
	}
	body, _ := json.Marshal(map[string]any{"rules": texts, "comment": "benchmark republish"})
	var pub struct{ Version, Count int }
	took, err := r.call(http.MethodPost, "/v1/rules", body, &pub)
	switch {
	case err != nil:
		r.fail(err)
	case pub.Version != version+1 || pub.Count != len(texts):
		r.fail(fmt.Errorf("republish: version %d with %d rules, want %d with %d", pub.Version, pub.Count, version+1, len(texts)))
	default:
		r.versions[pub.Version] = final
	}
	return feedbackRates, refineS, float64(took) / 1e6
}

func parseRules(in *inputs, texts []string) (*rules.Set, error) {
	set := rules.NewSet()
	for _, t := range texts {
		rule, err := rules.Parse(in.schema, t)
		if err != nil {
			return nil, err
		}
		set.Add(rule)
	}
	return set, nil
}

// restartAndCheck kills the daemon Restarts times. After every restart the
// rules version and feedback count must be what the state before the kill
// implies — everything acknowledged on a durable daemon, the boot files on
// an in-memory one — and one fully verified score request must succeed (on
// the velocity workload, the probe burst with its exact expected
// aggregates).
func (r *run) restartAndCheck() []float64 {
	var pre statsDoc
	if _, err := r.call(http.MethodGet, "/v1/stats", nil, &pre); err != nil {
		r.fail(err)
	}
	wantVersion, wantFeedback := 1, 0
	if r.w.Durable {
		wantVersion, wantFeedback = pre.Version, pre.Feedback
	}
	var lastProbe [][]int64
	if r.w.Velocity {
		var err error
		if lastProbe, err = r.probe(1439); err != nil {
			r.fail(err)
		}
	}
	var took []float64
	for i := 0; i < r.w.Restarts; i++ {
		d, err := r.child.restart()
		if err != nil {
			r.fail(err)
			return took
		}
		took = append(took, d.Seconds())
		r.score.url = r.child.url
		var st statsDoc
		if _, err := r.call(http.MethodGet, "/v1/stats", nil, &st); err != nil {
			r.fail(err)
		} else if st.Version != wantVersion || st.Feedback != wantFeedback {
			r.fail(fmt.Errorf("restart %d: version %d with %d feedback tx, want %d with %d", i+1, st.Version, st.Feedback, wantVersion, wantFeedback))
		}
		if r.w.Velocity {
			got, err := r.probe(1439)
			if err != nil {
				r.fail(err)
				continue
			}
			if want := nextProbeAggregates(r.in, lastProbe); lastProbe != nil && !equalAggregates(got, want) {
				r.fail(fmt.Errorf("restart %d: probe read %v, the state before the kill implies %v", i+1, got, want))
			}
			lastProbe = got
			continue
		}
		var resp bytes.Buffer
		r.attempted++
		ans, _, err := r.score.one(r.nextK, r.in.bodyFor(r.nextK, nil), &resp, true, r.w.Explain)
		if err != nil {
			r.fail(err)
		} else {
			r.answers = append(r.answers, ans)
		}
		r.nextK += checkEvery
	}
	return took
}

// runWorkload drives one workload end to end against a child daemon and
// returns the run with its metrics filled in.
func runWorkload(w workload, seed int64, seconds int) (*run, error) {
	r := &run{w: w, seed: seed, seconds: seconds, client: newHTTPClient(), values: map[string]float64{}}
	bin, buildTook, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	r.values["bench.build_s"] = buildTook.Seconds()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			r.tearDown()
		}
		took, err := r.setUp(bin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	r.values["setup_s"] = median(setups)
	if w.Durable {
		fs := fsType(filepath.Join(r.dir, "data"))
		fmt.Fprintf(os.Stderr, "# durable data dir on %s\n", fs)
		if fs == "tmpfs" || fs == "ramfs" {
			fmt.Fprintf(os.Stderr, "# WARNING: fsync on %s is a no-op; %s measures nothing\n", fs, w.Name)
		}
	}

	cpu0, _, err := r.child.procStats()
	if err != nil {
		return nil, err
	}
	closed := r.score.runClosed(r.nextK, w.closedCount(seconds))
	r.nextK += w.closedCount(seconds)
	r.absorb(closed)
	r.values["tx_per_s"] = medianSliceRate(closed.Done) * float64(w.Batch)

	var (
		open          *phaseResult
		feedbackRates []float64
		refineS       []float64
	)
	if w.Concurrent {
		stop := make(chan struct{})
		done := make(chan *phaseResult)
		go func() { done <- r.score.runOpen(r.nextK, 0, w.OpenRate, stop) }()
		feedbackRates, refineS, _ = r.analystRounds()
		close(stop)
		open = <-done
	} else {
		open = r.score.runOpen(r.nextK, w.openCount(seconds), w.OpenRate, nil)
	}
	r.nextK += open.Sent + nproc()
	r.absorb(open)
	cpu1, rss, err := r.child.procStats()
	if err != nil {
		return nil, err
	}
	if !w.Concurrent {
		feedbackRates, refineS, _ = r.analystRounds()
	}
	r.values["lat_p50_ms"] = windowedPercentile(open.LatMS, open.LatAt, open.Sent, 0.50)
	lat := open.sortedLat()
	r.values["serve.lat_p95_ms"] = percentile(lat, 0.95)
	r.values["serve.lat_p99_ms"] = percentile(lat, 0.99)
	r.values["serve.lat_p999_ms"] = percentile(lat, 0.999)
	r.values["loadgen.late_p99_ms"] = percentile(open.LateMS, 0.99)
	r.values["refine_total_s"] = sum(refineS)
	r.values["serve.feedback_tx_per_s"] = median(feedbackRates)
	scoredTx := float64((closed.OK + open.OK) * w.Batch)
	r.values["rudolfd.cpu_s_per_mtx"] = (cpu1 - cpu0).Seconds() / scoredTx * 1e6
	r.values["rudolfd.rss_peak_mb"] = rss

	m, err := r.child.scrape()
	if err != nil {
		return nil, err
	}
	r.values["rudolfd.gc_cycles"] = m("rudolf_go_gc_cycles")
	r.values["rudolfd.window_entries"] = m("rudolf_window_entries")
	r.values["rudolfd.window_evictions"] = m(`rudolf_window_evictions_total{cause="expired"}`) + m(`rudolf_window_evictions_total{cause="lru"}`)
	r.values["rudolfd.wal_fsyncs_per_append"] = 0 // an in-memory daemon has no log
	if appends := m("rudolf_wal_appends_total"); appends > 0 {
		r.values["rudolfd.wal_fsyncs_per_append"] = m("rudolf_wal_fsyncs_total") / appends
	}

	r.values["recover_s"] = median(r.restartAndCheck())

	r.verify()
	r.values["loadgen.sent"] = float64(r.attempted)
	r.values["loadgen.failed"] = float64(r.failed)
	r.values["loadgen.ok"] = float64(r.attempted - r.failed)
	fmt.Fprintf(os.Stderr, "# %s seed %d: closed %d req in %.2fs, open %d req in %.2fs (p50/p95/p99 from %d samples), %d answers verified\n",
		w.Name, seed, closed.Sent, closed.Wall.Seconds(), open.Sent, open.Wall.Seconds(), len(open.LatMS), len(r.answers))
	if late := r.values["loadgen.late_p99_ms"]; late > 1 {
		fmt.Fprintf(os.Stderr, "# WARNING: the generator woke %.2f ms late at p99; open-phase latencies below that are unresolved\n", late)
	}
	return r, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
