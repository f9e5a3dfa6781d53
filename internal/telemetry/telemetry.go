// Package telemetry is a tiny, dependency-free metrics registry for the
// online scoring service: counters, gauges and fixed-bucket histograms with
// atomic updates, rendered in the Prometheus text exposition format by an
// http.Handler. It is deliberately minimal — no labels machinery beyond
// literal label suffixes in series names.
//
// A series is either stored (Counter, Gauge, Histogram: the registry owns
// the number and the caller updates it) or read at read time (Collect,
// HistogramFunc: some subsystem already holds the number, and WriteTo,
// Value and FindHistogram ask it). A read-time series has no copy to fall
// stale and nothing to refresh before a scrape.
//
// Series names may carry a literal label set, e.g.
//
//	reg.Counter(`rudolf_http_requests_total{path="/v1/score",code="200"}`)
//
// Series with the same base name (the part before '{') share one # HELP/
// # TYPE header, matching what Prometheus expects of labeled families.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (an int64: versions, sizes,
// in-flight counts).
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative-on-render buckets.
// Observations, sums and counts are all atomics, so concurrent Observe calls
// never lock.
type Histogram struct {
	uppers  []float64 // bucket upper bounds, ascending; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// DefBuckets are the default latency buckets (seconds): 10µs … 10s,
// roughly ×2.5 per step.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1, 1, 2.5, 5, 10,
}

// StageBuckets are the fine-grained buckets (seconds) used by the per-stage
// hot-path histograms: individual score stages (decode, eval, encode, …)
// complete in single-digit microseconds to low milliseconds, which
// DefBuckets covers with only six points. 1µs … 1s, roughly ×2.5 per step.
var StageBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1,
}

// newHistogram returns an empty histogram over uppers (DefBuckets when nil).
func newHistogram(uppers []float64) *Histogram {
	if uppers == nil {
		uppers = DefBuckets
	}
	us := append([]float64(nil), uppers...)
	sort.Float64s(us)
	return &Histogram{uppers: us, buckets: make([]atomic.Uint64, len(us)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveN records n observations of value v in one shot: a HistogramFunc
// fill re-buckets a distribution someone else counts (the runtime's GC
// pauses) without n separate atomic round trips.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v
	h.buckets[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts aligned with uppers plus the
// +Inf total.
func (h *Histogram) snapshot() (cum []uint64, total uint64) {
	cum = make([]uint64, len(h.uppers))
	var run uint64
	for i := range h.uppers {
		run += h.buckets[i].Load()
		cum[i] = run
	}
	total = run + h.buckets[len(h.uppers)].Load()
	return cum, total
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts with
// linear interpolation inside the containing bucket — the same estimate
// Prometheus's histogram_quantile computes. It returns 0 with no
// observations; observations beyond the last bound clamp to it.
func (h *Histogram) Quantile(q float64) float64 {
	cum, total := h.snapshot()
	return QuantileFromBuckets(h.uppers, cum, total, q)
}

// Buckets returns a consistent-enough snapshot of the histogram: finite
// upper bounds, cumulative counts aligned with them, and the overall total
// (including the +Inf bucket). The uppers slice is shared (callers must not
// mutate it); the counts are freshly allocated. This is the registry-side
// twin of ScrapedHistogram — the alert engine reads live histograms through
// it instead of round-tripping the text exposition format.
func (h *Histogram) Buckets() (uppers []float64, cum []uint64, total uint64) {
	cum, total = h.snapshot()
	return h.uppers, cum, total
}

// BucketSource is any histogram view that can expose cumulative bucket
// counts: *Histogram (live registry series) and ScrapedHistogram (parsed
// back from a /metrics page) both satisfy it.
type BucketSource interface {
	Buckets() (uppers []float64, cum []uint64, total uint64)
}

// Quantile estimates the q-quantile of any bucketed histogram view with the
// shared interpolation arithmetic, so a live registry read and a scraped
// page can never disagree about what "p99" means. A nil source returns 0.
func Quantile(h BucketSource, q float64) float64 {
	if h == nil {
		return 0
	}
	uppers, cum, total := h.Buckets()
	return QuantileFromBuckets(uppers, cum, total, q)
}

// QuantileFromBuckets is the bucket-interpolation quantile estimate over
// cumulative counts cum (aligned with uppers) and the overall total
// (including the +Inf bucket). Exported so cmd/loadgen can compute p50/p99
// from a scraped /metrics page with the same arithmetic the server uses.
func QuantileFromBuckets(uppers []float64, cum []uint64, total uint64, q float64) float64 {
	if total == 0 || len(uppers) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, c := range cum {
		if float64(c) >= rank {
			lo := 0.0
			var below uint64
			if i > 0 {
				lo = uppers[i-1]
				below = cum[i-1]
			}
			in := c - below
			if in == 0 {
				return uppers[i]
			}
			return lo + (uppers[i]-lo)*(rank-float64(below))/float64(in)
		}
	}
	return uppers[len(uppers)-1] // rank lies in the +Inf bucket: clamp
}

// metric is one registered series: a stored counter, gauge or histogram,
// or a read-time histogram (fill set).
type metric struct {
	name string // full series name, possibly with {labels}
	base string // name before '{'
	c    *Counter
	g    *Gauge
	h    *Histogram
	// fill makes the series a read-time histogram: every read fills a fresh
	// histogram with h's bounds (h itself stays empty).
	fill func(*Histogram)
}

func (m *metric) kind() string {
	switch {
	case m.c != nil:
		return "counter"
	case m.g != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

// histogram returns the series' histogram as of now.
func (m *metric) histogram() *Histogram {
	if m.fill == nil {
		return m.h
	}
	h := newHistogram(m.h.uppers)
	m.fill(h)
	return h
}

// sample is one series as of one read.
type sample struct {
	name, base, kind string
	v                float64    // counter or gauge value
	h                *Histogram // histogram series
}

func (m *metric) sample() sample {
	s := sample{name: m.name, base: m.base, kind: m.kind()}
	switch {
	case m.c != nil:
		s.v = float64(m.c.Value())
	case m.g != nil:
		s.v = float64(m.g.Value())
	default:
		s.h = m.histogram()
	}
	return s
}

// source is one read-time producer registered with Collect.
type source struct {
	kinds map[string]string // family base name -> "counter" or "gauge"
	read  func(emit func(name string, v float64))
}

// samples calls read once and returns what it emitted.
func (src *source) samples() []sample {
	var out []sample
	src.read(func(name string, v float64) {
		base := baseName(name)
		kind, ok := src.kinds[base]
		if !ok {
			panic(fmt.Sprintf("telemetry: read-time series %q is outside the families its source declared", name))
		}
		out = append(out, sample{name: name, base: base, kind: kind, v: v})
	})
	return out
}

// Registry holds named series and renders them in the Prometheus text
// format. Registration and lookups lock briefly; stored metric updates are
// lock-free, and read-time sources run outside the lock.
type Registry struct {
	mu      sync.Mutex
	series  map[string]*metric
	ordered []*metric // creation order for stable-ish rendering
	help    map[string]string
	sources []*source
	owner   map[string]*source // read-time family base name -> its source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*metric), help: make(map[string]string), owner: make(map[string]*source)}
}

func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Help sets the # HELP text for a base metric name (call once, before or
// after creating series of that family).
func (r *Registry) Help(base, text string) {
	r.mu.Lock()
	r.help[base] = text
	r.mu.Unlock()
}

// register returns the series called name, adding m under that name on
// first use. It panics if the name is taken by another kind, if either
// side is a read-time histogram, or if the family is read at read time.
func (r *Registry) register(name string, m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.series[name]; ok {
		if old.kind() != m.kind() || old.fill != nil || m.fill != nil {
			panic(fmt.Sprintf("telemetry: %q is already registered as a %s", name, old.kind()))
		}
		return old
	}
	m.name, m.base = name, baseName(name)
	if r.owner[m.base] != nil {
		panic(fmt.Sprintf("telemetry: %q belongs to a read-time family", name))
	}
	r.series[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter series with the given name, creating it on
// first use. It panics if the name is already registered as another kind.
func (r *Registry) Counter(name string) *Counter {
	return r.register(name, &metric{c: &Counter{}}).c
}

// Gauge returns the gauge series with the given name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.register(name, &metric{g: &Gauge{}}).g
}

// Histogram returns the histogram series with the given name and upper
// bounds (DefBuckets when uppers is nil), creating it on first use.
func (r *Registry) Histogram(name string, uppers []float64) *Histogram {
	return r.register(name, &metric{h: newHistogram(uppers)}).h
}

// HistogramFunc registers name as a read-time histogram: every WriteTo and
// FindHistogram hands fill a fresh, empty histogram with the given bounds
// (DefBuckets when nil) to fill, typically with ObserveN, from whatever
// already holds the distribution.
func (r *Registry) HistogramFunc(name string, uppers []float64, fill func(h *Histogram)) {
	r.register(name, &metric{h: newHistogram(uppers), fill: fill})
}

// Collect registers a read-time source for the families named in kinds
// (base name -> "counter" or "gauge"). Every WriteTo calls read once, and
// so does every Value of one of the source's series; read reports each
// current series through emit, full name (labels included) and value, and
// must be safe to call concurrently. The registry keeps no copy: a value
// reaches the page only from the subsystem that holds it, and a family that
// emits no series is not rendered. One read can serve several families, so
// a source that must lock to read takes its lock once per scrape.
func (r *Registry) Collect(kinds map[string]string, read func(emit func(name string, v float64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	src := &source{kinds: kinds, read: read}
	for base, kind := range kinds {
		if kind != "counter" && kind != "gauge" {
			panic(fmt.Sprintf("telemetry: read-time family %q has kind %q, want counter or gauge", base, kind))
		}
		if r.owner[base] != nil {
			panic(fmt.Sprintf("telemetry: read-time family %q registered twice", base))
		}
		for _, m := range r.ordered {
			if m.base == base {
				panic(fmt.Sprintf("telemetry: family %q already has stored series", base))
			}
		}
		r.owner[base] = src
	}
	r.sources = append(r.sources, src)
}

// Value returns the current value of the counter or gauge series with the
// exact given name (labels included), stored or read-time. It reports
// false for names that are not registered or name a histogram — absence is
// a signal of its own to consumers like the alert engine (no data ≠ zero).
func (r *Registry) Value(name string) (float64, bool) {
	r.mu.Lock()
	m, ok := r.series[name]
	src := r.owner[baseName(name)]
	r.mu.Unlock()
	switch {
	case ok && m.h == nil:
		return m.sample().v, true
	case src != nil:
		for _, s := range src.samples() {
			if s.name == name {
				return s.v, true
			}
		}
	}
	return 0, false
}

// FindHistogram returns the histogram series registered under the exact
// given name (labels included), without creating it — the read-side
// counterpart of Histogram for consumers that must distinguish "no such
// series" from "series with no observations". A read-time histogram is
// filled fresh by each call.
func (r *Registry) FindHistogram(name string) (*Histogram, bool) {
	r.mu.Lock()
	m, ok := r.series[name]
	r.mu.Unlock()
	if !ok || m.h == nil {
		return nil, false
	}
	return m.histogram(), true
}

// labelJoin splices an extra label (le="...") into a series name that may
// already carry labels.
func labelJoin(name, extra string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + extra + "}"
	}
	return name + "{" + extra + "}"
}

// suffixed appends a suffix to the base part of a possibly-labeled name:
// suffixed(`h{a="b"}`, "_sum") = `h_sum{a="b"}`.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteTo renders every registered series in the Prometheus text exposition
// format, calling each read-time source once. Families are ordered by base
// name; series within a family keep creation (or emit) order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	ms := append([]*metric(nil), r.ordered...)
	srcs := append([]*source(nil), r.sources...)
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	all := make([]sample, 0, len(ms))
	for _, m := range ms {
		all = append(all, m.sample())
	}
	for _, src := range srcs {
		all = append(all, src.samples()...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].base < all[j].base })

	var n int64
	pr := func(format string, args ...any) error {
		k, err := fmt.Fprintf(w, format, args...)
		n += int64(k)
		return err
	}
	lastBase := ""
	for _, s := range all {
		if s.base != lastBase {
			lastBase = s.base
			if h := help[s.base]; h != "" {
				if err := pr("# HELP %s %s\n", s.base, h); err != nil {
					return n, err
				}
			}
			if err := pr("# TYPE %s %s\n", s.base, s.kind); err != nil {
				return n, err
			}
		}
		if s.h == nil {
			if err := pr("%s %s\n", s.name, formatFloat(s.v)); err != nil {
				return n, err
			}
			continue
		}
		cum, total := s.h.snapshot()
		for i, up := range s.h.uppers {
			le := fmt.Sprintf(`le="%s"`, formatFloat(up))
			if err := pr("%s %d\n", labelJoin(suffixed(s.name, "_bucket"), le), cum[i]); err != nil {
				return n, err
			}
		}
		if err := pr("%s %d\n", labelJoin(suffixed(s.name, "_bucket"), `le="+Inf"`), total); err != nil {
			return n, err
		}
		if err := pr("%s %s\n", suffixed(s.name, "_sum"), formatFloat(s.h.Sum())); err != nil {
			return n, err
		}
		if err := pr("%s %d\n", suffixed(s.name, "_count"), total); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Handler returns an http.Handler serving the registry as a Prometheus
// text-format page.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w) //nolint:errcheck // client gone: nothing to do
	})
}
