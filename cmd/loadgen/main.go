// Command loadgen is the traffic generator for cmd/rudolfd: it fetches the
// daemon's schema, synthesizes random transaction batches, hammers /v1/score
// from concurrent workers for a fixed duration, and then reports throughput,
// client-side p50/p99/p99.9, plus the scoring latency, stage breakdown and
// batch size scraped back off /metrics — the same numbers a production
// dashboard would watch. Every scoring response's request_id is decoded, and
// the slowest observed request is reported with its id so it can be looked up
// in the daemon's GET /v1/trace output.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 [-duration 10s] [-concurrency 8]
//	        [-batch 64] [-seed 1]
//
// loadgen exits non-zero when any scoring request failed or none succeeded,
// so a script can use a load phase as a gate.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ontology"
	"repro/internal/relation"
	"repro/internal/telemetry"
)

func main() {
	var (
		baseURL     = flag.String("url", "http://127.0.0.1:8080", "rudolfd base URL")
		duration    = flag.Duration("duration", 10*time.Second, "load duration")
		concurrency = flag.Int("concurrency", 8, "concurrent workers")
		batch       = flag.Int("batch", 64, "transactions per /v1/score request")
		seed        = flag.Int64("seed", 1, "traffic generation seed")
	)
	flag.Parse()
	switch {
	case *concurrency < 1:
		usage("-concurrency must be at least 1")
	case *batch < 1:
		usage("-batch must be at least 1")
	case *duration <= 0:
		usage("-duration must be positive")
	}
	url := strings.TrimRight(*baseURL, "/")

	schema, err := fetchSchema(url)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loadgen: target %s, schema arity %d\n", url, schema.Arity())

	sum := runLoad(url, schema, *duration, *concurrency, *batch, *seed)
	page, err := fetchMetrics(url)
	if err != nil {
		fatal(err)
	}
	sum.report(os.Stdout, page)
	if err := sum.err(); err != nil {
		fatal(err)
	}
}

// summary is what one load phase observed from the client side.
type summary struct {
	requests, tx, errors int64
	elapsed              time.Duration
	client               clientLatencies
	slowest              slowest
}

// slowest is the worst-latency scoring request, keyed by the request id the
// daemon echoed back — the handle an operator uses to find the matching span
// in GET /v1/trace.
type slowest struct {
	latency   time.Duration
	requestID string
}

// runLoad drives /v1/score at url from concurrency workers for duration, each
// request a batch-transaction body generated from schema and seed.
func runLoad(url string, schema *relation.Schema, duration time.Duration, concurrency, batch int, seed int64) summary {
	// Pre-generate distinct request bodies so the hot loop only does I/O.
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = scoreBody(rng, schema, batch)
	}

	// Each worker owns its slot of these; they are merged after wg.Wait.
	var (
		oks   = make([]int64, concurrency)
		errs  = make([]int64, concurrency)
		lat   = make([][]time.Duration, concurrency)
		worst = make([]slowest, concurrency)
	)
	deadline := time.Now().Add(duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := w; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				resp, err := client.Post(url+"/v1/score", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
				if err != nil {
					errs[w]++
					continue
				}
				raw, readErr := io.ReadAll(resp.Body)
				resp.Body.Close()
				took := time.Since(t0)
				if readErr != nil || resp.StatusCode != http.StatusOK {
					errs[w]++
					continue
				}
				oks[w]++
				lat[w] = append(lat[w], took)
				if took > worst[w].latency {
					var out struct {
						RequestID string `json:"request_id"`
					}
					json.Unmarshal(raw, &out) //nolint:errcheck // best-effort id decode
					worst[w] = slowest{latency: took, requestID: out.RequestID}
				}
			}
		}(w)
	}
	wg.Wait()

	sum := summary{elapsed: time.Since(start), client: summarizeLatencies(lat)}
	for w := 0; w < concurrency; w++ {
		sum.requests += oks[w]
		sum.errors += errs[w]
		if worst[w].latency > sum.slowest.latency {
			sum.slowest = worst[w]
		}
	}
	sum.tx = sum.requests * int64(batch)
	return sum
}

// err is the load phase's verdict: a run in which any request failed, or
// none succeeded, measured nothing trustworthy.
func (s summary) err() error {
	switch {
	case s.errors > 0:
		return fmt.Errorf("%d of %d scoring requests failed", s.errors, s.errors+s.requests)
	case s.requests == 0:
		return errors.New("no scoring request succeeded")
	}
	return nil
}

// report prints the load phase's numbers next to the server's own view of
// them, scraped from the /metrics page. The first line's "-> N tx/s" form is
// what scripts/cluster-smoke.sh parses.
func (s summary) report(w io.Writer, page string) {
	rate := float64(s.tx) / s.elapsed.Seconds()
	fmt.Fprintf(w, "loadgen: %d requests, %d tx in %v -> %.0f tx/s (%d errors)\n",
		s.requests, s.tx, s.elapsed.Round(time.Millisecond), rate, s.errors)
	if c := s.client; c.requests > 0 {
		fmt.Fprintf(w, "loadgen: client-side latency: p50 %s, p99 %s, p99.9 %s over %d requests\n",
			c.p50.Round(time.Microsecond), c.p99.Round(time.Microsecond), c.p999.Round(time.Microsecond), c.requests)
	}
	if h, err := telemetry.ScrapeHistogram(strings.NewReader(page), "rudolf_score_latency_seconds"); err == nil {
		fmt.Fprintf(w, "loadgen: per-request latency from /metrics: p50 %s, p99 %s (%d requests observed)\n",
			fmtSeconds(telemetry.Quantile(h, 0.5)), fmtSeconds(telemetry.Quantile(h, 0.99)), h.Total)
	}
	printStageTable(w, page)
	if h, err := telemetry.ScrapeHistogram(strings.NewReader(page), "rudolf_score_batch_size"); err == nil && h.Total > 0 {
		fmt.Fprintf(w, "loadgen: batch size from /metrics: mean %.1f tx/request\n", h.Sum/float64(h.Total))
	}
	if s.slowest.requestID != "" {
		fmt.Fprintf(w, "loadgen: slowest request %s took %s (look it up under GET /v1/trace)\n",
			s.slowest.requestID, s.slowest.latency.Round(time.Microsecond))
	}
}

// clientLatencies summarizes the client-observed request latencies of the
// load phase.
type clientLatencies struct {
	requests       int
	p50, p99, p999 time.Duration
}

// summarizeLatencies merges the per-worker latency logs and computes the
// client-side percentiles.
func summarizeLatencies(lat [][]time.Duration) clientLatencies {
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return clientLatencies{}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) time.Duration {
		return all[int(p*float64(len(all)-1))]
	}
	return clientLatencies{requests: len(all), p50: q(0.50), p99: q(0.99), p999: q(0.999)}
}

// loadgenStages mirrors the server's stage taxonomy
// (rudolf_stage_duration_seconds{stage=...}).
var loadgenStages = []string{"decode", "acquire", "wal_append", "window", "eval", "encode", "write"}

// printStageTable reports where server-side request time went, by stage.
func printStageTable(w io.Writer, page string) {
	var parts []string
	var total float64
	for _, st := range loadgenStages {
		sum, okS := telemetry.ScrapeValue(page, fmt.Sprintf(`rudolf_stage_duration_seconds_sum{stage=%q}`, st))
		count, okC := telemetry.ScrapeValue(page, fmt.Sprintf(`rudolf_stage_duration_seconds_count{stage=%q}`, st))
		if !okS || !okC || count == 0 {
			continue
		}
		total += sum
		parts = append(parts, fmt.Sprintf("%s %s", st, fmtSeconds(sum/count)))
	}
	if len(parts) > 0 {
		fmt.Fprintf(w, "loadgen: server stage means from /metrics: %s (total %s across stages)\n",
			strings.Join(parts, ", "), fmtSeconds(total))
	}
}

// randomTxs synthesizes n random wire transactions against the schema:
// numeric attributes draw uniformly from their domain, categorical ones pick
// a random ontology leaf, risk scores spread over [0, 1000].
func randomTxs(rng *rand.Rand, schema *relation.Schema, n int) []map[string]any {
	txs := make([]map[string]any, n)
	for i := range txs {
		attrs := make(map[string]any, schema.Arity())
		for a := 0; a < schema.Arity(); a++ {
			attr := schema.Attr(a)
			if attr.Kind == relation.Categorical {
				leaves := attr.Ontology.Leaves()
				c := leaves[rng.Intn(len(leaves))]
				attrs[attr.Name] = attr.Ontology.ConceptName(ontology.Concept(c))
				continue
			}
			attrs[attr.Name] = attr.Domain.Min + rng.Int63n(attr.Domain.Max-attr.Domain.Min+1)
		}
		txs[i] = map[string]any{"attrs": attrs, "score": rng.Intn(relation.MaxScore + 1)}
	}
	return txs
}

// scoreBody builds one random /v1/score batch (see randomTxs).
func scoreBody(rng *rand.Rand, schema *relation.Schema, batch int) []byte {
	raw, err := json.Marshal(map[string]any{"transactions": randomTxs(rng, schema, batch)})
	if err != nil {
		panic(err) // generated values always marshal
	}
	return raw
}

func fetchSchema(url string) (*relation.Schema, error) {
	resp, err := http.Get(url + "/v1/schema")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/schema: %d", resp.StatusCode)
	}
	return relation.ReadSchemaJSON(resp.Body)
}

func fetchMetrics(url string) (string, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "loadgen:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
