package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/expert"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/window"
)

// The traced run: the same inputs against an in-process serve.Server, with
// spans recorded from this package's own files around the calls into each
// layer. Nothing is added inside the program. End-to-end metrics never come
// from here.

// span is one timed interval: its layer-qualified name, its bounds in ns
// since the trace began, the span that caused it (index in the trace file,
// -1 for a root) and the score request it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, start, end time.Time, parent, req int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)), Parent: parent, Req: req})
	return len(l.spans) - 1
}

// unlinked marks a serve.handler span whose client.roundtrip parent is
// recorded after it (the client sees the response last); link fills it in.
const unlinked = -2

// link parents every serve.handler span to the client.roundtrip span of the
// same request.
func link(spans []span) {
	client := map[int]int{}
	for i, s := range spans {
		if s.Name == "client.roundtrip" {
			client[s.Req] = i
		}
	}
	for i := range spans {
		if spans[i].Parent == unlinked {
			spans[i].Parent = -1
			if p, ok := client[spans[i].Req]; ok {
				spans[i].Parent = p
			}
		}
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := map[string]int64{}
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// totals returns the summed duration and count per span name.
func totals(spans []span) (dur map[string]int64, n map[string]int) {
	dur, n = map[string]int64{}, map[string]int{}
	for _, s := range spans {
		dur[s.Name] += s.End - s.Start
		n[s.Name]++
	}
	return dur, n
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

const (
	// traceHeader carries the request index from the client to the handler
	// middleware, so the two spans of one request share an identifier.
	traceHeader = "X-Bench-Req"
	// tracedRequests caps the traced closed loop; tracedBlock is the length
	// of the alternating spans-off / spans-on blocks it is cut into, so slow
	// drift of the machine lands on both sides of the overhead ratio.
	tracedRequests = 2000
	tracedBlock    = 100
)

var stageNames = []string{"decode", "acquire", "wal_append", "window", "eval", "encode", "write"}

// countingExpert counts the proposals a refinement session puts to its
// expert.
type countingExpert struct {
	core.Expert
	queries int
}

func (e *countingExpert) ReviewGeneralization(p *core.GenProposal) core.GenDecision {
	e.queries++
	return e.Expert.ReviewGeneralization(p)
}

func (e *countingExpert) ReviewSplit(p *core.SplitProposal) core.SplitDecision {
	e.queries++
	return e.Expert.ReviewSplit(p)
}

// observeRecord has the shape of the daemon's WAL observe record, so the
// wal kernel is timed on payloads of the size the durable workload writes.
type observeRecord struct {
	Type    string    `json:"type"`
	Time    time.Time `json:"time"`
	Observe struct {
		Tuples []relation.Tuple `json:"tuples"`
	} `json:"observe"`
}

// runTraced makes the in-process traced run of one workload and returns a
// run holding the per-layer metrics and the operations it checked.
func runTraced(w workload, seed int64, seconds int) (*run, error) {
	r := &run{w: w, seed: seed, seconds: seconds, client: newHTTPClient(), values: map[string]float64{}}
	in, dir, schemaPath, rulesPath, err := prepare(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	// The same flag-to-Config translation the daemon's main() uses.
	opts := cli.ServeOptions{SchemaPath: schemaPath, RulesPath: rulesPath, AlertInterval: -time.Second}
	if w.Durable {
		opts.DataDir, opts.Fsync, opts.SnapshotInterval = filepath.Join(dir, "data"), "always", -time.Second
	}
	cfg, err := opts.ServerConfig()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	onExit(func() { srv.Close() }) //nolint:errcheck // the data directory is removed next
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	log := &spanLog{t0: time.Now(), spans: make([]span, 0, 16*tracedRequests)}
	inner := srv.Handler()
	hs := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		h := req.Header.Get(traceHeader)
		if h == "" {
			inner.ServeHTTP(rw, req)
			return
		}
		k, _ := strconv.Atoi(h)
		start := time.Now()
		inner.ServeHTTP(rw, req)
		log.add("serve.handler", start, time.Now(), unlinked, k)
	})}
	served := make(chan struct{})
	go func() { hs.Serve(ln); close(served) }() //nolint:errcheck // always ErrServerClosed
	onExit(func() { hs.Close(); <-served })     //nolint:errcheck // loopback listener

	r.in, r.dir = in, dir
	r.score = &scorer{client: r.client, url: "http://" + ln.Addr().String(), in: in}
	r.versions = map[int]*rules.Set{1: in.rules}
	r.absorb(r.score.runClosed(0, w.WarmCount))
	r.nextK = w.WarmCount

	// Closed loop twice over, spans off and spans on, in alternating blocks.
	n := min(tracedRequests, w.closedCount(seconds)) / tracedBlock * tracedBlock
	if n == 0 {
		n = min(tracedBlock, w.closedCount(seconds))
	}
	block := min(tracedBlock, n)
	r.score.onRoundTrip = func(k int, start, end time.Time) {
		if r.score.header != "" {
			log.add("client.roundtrip", start, end, -1, k)
		}
	}
	var (
		offWall, onWall   time.Duration
		mallocs, bytes    uint64
		reqBytes, respLen int64
		stageSum          = make([]float64, len(stageNames))
		tracedKs          []int
		ms0, ms1          runtime.MemStats
	)
	stage := func(name string) float64 {
		h, ok := srv.Registry().FindHistogram(`rudolf_stage_duration_seconds{stage="` + name + `"}`)
		if !ok {
			return 0
		}
		return h.Sum()
	}
	for done := 0; done < n; done += block {
		r.score.header = ""
		runtime.ReadMemStats(&ms0)
		off := r.score.runClosed(r.nextK, block)
		runtime.ReadMemStats(&ms1)
		r.nextK += block
		r.absorb(off)
		offWall += off.Wall
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc

		before := make([]float64, len(stageNames))
		for i, name := range stageNames {
			before[i] = stage(name)
		}
		r.score.header = traceHeader
		on := r.score.runClosed(r.nextK, block)
		for i, name := range stageNames {
			stageSum[i] += stage(name) - before[i]
		}
		for k := r.nextK; k < r.nextK+block; k++ {
			tracedKs = append(tracedKs, k)
		}
		r.nextK += block
		r.absorb(on)
		onWall += on.Wall
		reqBytes += on.ReqBytes
		respLen += on.RespBytes
	}
	r.score.header = ""
	fn := float64(n)
	r.values["bench.trace_overhead_ratio"] = (onWall - offWall).Seconds() / offWall.Seconds()
	r.values["serve.allocs_per_req"] = float64(mallocs) / fn
	r.values["serve.alloc_bytes_per_req"] = float64(bytes) / fn
	r.values["serve.req_bytes_per_tx"] = float64(reqBytes) / fn / float64(w.Batch)
	r.values["serve.resp_bytes_per_tx"] = float64(respLen) / fn / float64(w.Batch)

	if err := r.replayKernels(log, tracedKs, dir); err != nil {
		return nil, err
	}

	// The analyst rounds over HTTP, then each round again straight on
	// core.Session with the rules and the feedback prefix the server had.
	type job struct {
		set  *rules.Set
		rows int
	}
	var jobs []job
	r.beforeRefine = func(rows int) { jobs = append(jobs, job{srv.Rules().Clone(), rows}) }
	feedbackRates, _, publishMS := r.analystRounds()
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no refinement round completed: %v", r.firstErr)
	}
	r.values["serve.feedback_us_per_tx"] = 1e6 / median(feedbackRates)
	r.values["serve.publish_ms"] = publishMS
	var (
		refineS       []float64
		hits, rebinds uint64
		mods          int
		exp           = &countingExpert{Expert: &expert.AutoAccept{}}
		last          *rules.Set
	)
	for c, j := range jobs {
		sess := core.NewSession(j.set, exp, cfg.Refine)
		prefix := in.fbRel.Prefix(j.rows)
		start := time.Now()
		st := sess.Refine(prefix)
		refineS = append(refineS, time.Since(start).Seconds())
		log.add("core.refine", start, time.Now(), -1, -1-c)
		mods += st.Modifications
		h, rb, _ := sess.CaptureStats()
		hits, rebinds = hits+h, rebinds+rb
		last = sess.Rules()
		// The direct session must arrive where the daemon's did: version c+2
		// is what POST /v1/refine published for this round.
		if served := r.versions[c+2]; served == nil || served.Format(in.schema) != last.Format(in.schema) {
			r.attempted++
			r.fail(fmt.Errorf("round %d: core.Session.Refine and POST /v1/refine disagree on the refined rules", c+1))
		}
	}
	r.values["core.refine_s"] = sum(refineS)
	r.values["core.refine_last_cycle_s"] = refineS[len(refineS)-1]
	r.values["core.modifications"] = float64(mods)
	r.values["core.expert_queries"] = float64(exp.queries)
	r.values["capture.hit_ratio"] = float64(hits) / float64(hits+rebinds)

	// Batch evaluation of the refined rules over all the feedback, and the
	// cost of publishing the incumbent set: parse, then compile.
	fb := in.fbRel.Prefix(jobs[len(jobs)-1].rows)
	ev := index.Compile(in.schema, last)
	start := time.Now()
	ev.EvalPerRule(fb)
	r.values["index.eval_per_rule_ns_per_pair"] = float64(time.Since(start)) / float64(last.Len()*fb.Len())
	texts := make([]string, in.rules.Len())
	for i, rule := range in.rules.Rules() {
		texts[i] = rule.Format(in.schema)
	}
	start = time.Now()
	parsed, err := parseRules(in, texts)
	if err != nil {
		return nil, err
	}
	parseEnd := time.Now()
	index.Compile(in.schema, parsed)
	compileEnd := time.Now()
	log.add("rules.parse", start, parseEnd, -1, -1)
	log.add("index.compile", parseEnd, compileEnd, -1, -1)
	r.values["rules.parse_us_per_rule"] = float64(parseEnd.Sub(start)) / 1e3 / float64(len(texts))
	r.values["index.compile_ms"] = float64(compileEnd.Sub(parseEnd)) / 1e6

	// Per-request layer metrics from the spans.
	link(log.spans)
	dur, cnt := totals(log.spans)
	self := selfTimes(log.spans)
	reqs := float64(cnt["serve.handler"])
	handler := float64(dur["serve.handler"])
	r.values["http.roundtrip_self_us_per_req"] = float64(self["client.roundtrip"]) / 1e3 / reqs
	r.values["serve.handler_us_per_req"] = handler / 1e3 / reqs
	// What the handler spends outside the kernels its path calls: the replay
	// span's children are exactly those kernels, timed on the same batches.
	kernels := float64(dur["replay"] - self["replay"])
	r.values["serve.plumbing_us_per_tx"] = (handler - kernels) / 1e3 / reqs / float64(w.Batch)
	var stages float64
	for i, name := range stageNames {
		r.values["serve.stage."+name+"_us_per_req"] = stageSum[i] * 1e6 / reqs
		stages += stageSum[i]
	}
	r.values["serve.stage_coverage_ratio"] = stages * 1e9 / handler

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(outDir, "trace-"+w.Name+".jsonl"), log.spans); err != nil {
		return nil, err
	}
	r.verify()
	return r, nil
}

// replayKernels times the public kernel of each layer on the batches of the
// traced requests. Each request gets a replay span whose children are the
// kernels the workload's request path calls — relation.build, then
// window.stamp and wal.append when the daemon observes and logs, then the
// index evaluation of the workload's mode — so handler minus replay children
// is the server's own plumbing. The kernels off the workload's path are
// timed too, outside the span tree, so every layer metric is measured on
// every workload's batch shape.
func (r *run) replayKernels(log *spanLog, ks []int, dir string) error {
	in, w := r.in, r.w
	schema := in.schema
	ev := index.Compile(schema, in.rules)
	specs := ev.WindowSpecs() // the evaluator reads stamped columns in this order
	if len(specs) == 0 {
		specs = in.winSpecs // off the workload's path: the standard atoms
	}
	store := window.New(window.Config{TimeAttr: schema.TimeAttr()})
	store.EnsureSpecs(specs)
	wlog, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal-kernel"), Sync: wal.SyncAlways}, nil)
	if err != nil {
		return err
	}
	defer wlog.Close() //nolint:errcheck // scratch log, removed with the run directory

	var (
		first   []int32
		buf     index.AttributionBuffer
		scratch = make([]index.CheckAttribution, 0, ev.MaxRuleChecks())
		ns      = map[string]int64{}
		flagged int
		texts   = make([][]string, w.Batch)
	)
	timed := func(name string, parent, req int, onPath bool, fn func()) {
		start := time.Now()
		fn()
		end := time.Now()
		ns[name] += int64(end.Sub(start))
		if onPath {
			log.add(name, start, end, parent, req)
		}
	}
	for _, k := range ks {
		src := in.relFor(k)
		for i := range texts {
			texts[i] = texts[i][:0]
			for a := 0; a < schema.Arity(); a++ {
				texts[i] = append(texts[i], schema.FormatValue(a, src.Tuple(i)[a]))
			}
		}
		var rec observeRecord
		rec.Type, rec.Time = "observe", time.Now()
		for i := 0; i < src.Len(); i++ {
			rec.Observe.Tuples = append(rec.Observe.Tuples, src.Tuple(i))
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			return err
		}

		begin := time.Now()
		root := log.add("replay", begin, begin, -1, k)
		var rel *relation.Relation
		var buildErr, walErr error
		timed("relation.build", root, k, true, func() {
			rel = relation.New(schema)
			for i, row := range texts {
				t := make(relation.Tuple, len(row))
				for a, text := range row {
					if t[a], buildErr = schema.ParseValue(a, text); buildErr != nil {
						return
					}
				}
				if _, buildErr = rel.Append(t, relation.Unlabeled, src.Score(i)); buildErr != nil {
					return
				}
			}
		})
		if buildErr != nil {
			return buildErr
		}
		timed("wal.append", root, k, w.Durable, func() { _, walErr = wlog.Append(payload) })
		if walErr != nil {
			return walErr
		}
		timed("window.stamp", root, k, w.Velocity, func() {
			cs := store.StampColumns(rel, specs)
			if w.Velocity {
				rel.SetWindowColumns(cs)
			}
		})
		timed("index.eval_first", root, k, !w.Explain, func() { first = ev.EvalFirstInto(rel, first) })
		timed("index.eval_lazy", root, k, w.Explain, func() { ev.EvalAttributedLazyInto(rel, &buf) })
		timed("index.attribute_all", root, k, w.Explain, func() {
			for i, a := range buf.Tuples {
				for _, ra := range a.Rules {
					if !ra.Matched && !ra.Empty && ra.Checks == nil {
						ev.AttributeRuleAppend(ra.Rule, rel, i, scratch[:0])
					}
				}
			}
		})
		log.mu.Lock()
		log.spans[root].End = int64(time.Since(log.t0))
		log.mu.Unlock()
		for _, f := range first {
			if f != index.NoRule {
				flagged++
			}
		}
	}
	reqs, tx := float64(len(ks)), float64(len(ks)*w.Batch)
	pairs := tx * float64(in.rules.Len())
	r.values["relation.build_ns_per_tx"] = float64(ns["relation.build"]) / tx
	r.values["window.stamp_ns_per_tx"] = float64(ns["window.stamp"]) / tx
	r.values["wal.append_us_per_record"] = float64(ns["wal.append"]) / 1e3 / reqs
	r.values["index.eval_first_ns_per_pair"] = float64(ns["index.eval_first"]) / pairs
	r.values["index.eval_lazy_ns_per_pair"] = float64(ns["index.eval_lazy"]) / pairs
	r.values["index.attribute_all_ns_per_pair"] = float64(ns["index.attribute_all"]) / pairs
	r.values["index.pairs_per_req"] = float64(w.Batch * in.rules.Len())
	r.values["index.flag_ratio"] = float64(flagged) / tx

	st := wlog.Stats()
	r.values["wal.fsyncs_per_record"] = float64(st.Fsyncs) / float64(st.Appends)
	r.values["wal.bytes_per_tx"] = float64(st.DiskBytes) / tx
	if err := wlog.Close(); err != nil {
		return err
	}
	replayed := 0
	start := time.Now()
	again, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal-kernel"), Sync: wal.SyncNever}, func(wal.Entry) error { replayed++; return nil })
	if err != nil {
		return err
	}
	r.values["wal.replay_records_per_s"] = float64(replayed) / time.Since(start).Seconds()
	// One fsync of a log dirtied by one record: the sandbox's disk.
	var syncs []float64
	for i := 0; i < 50; i++ {
		if _, err := again.Append([]byte(`{"type":"observe"}`)); err != nil {
			return err
		}
		start := time.Now()
		if err := again.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, float64(time.Since(start))/1e3)
	}
	r.values["wal.fsync_us"] = median(syncs)
	if r.values["wal.fsync_us"] < 20 {
		fmt.Fprintf(os.Stderr, "# WARNING: fsync takes %.1f us on %s: it is a no-op here, and score_durable_velocity_b8 measures nothing\n", r.values["wal.fsync_us"], fsType(dir))
	}
	return again.Close()
}
