package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("c_total"); c2 != c {
		t.Fatalf("Counter not idempotent per name")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Set(4)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering x as gauge")
		}
	}()
	r.Gauge("x")
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.1, 0.2, 0.4, 0.8})
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // all in the first bucket
	}
	if q := h.Quantile(0.5); q <= 0 || q > 0.1 {
		t.Fatalf("p50 = %v, want in (0, 0.1]", q)
	}
	h2 := r.Histogram("lat2", []float64{1, 2, 3, 4})
	for i := 0; i < 100; i++ {
		h2.Observe(float64(i%4) + 0.5) // 25 per bucket
	}
	if q := h2.Quantile(0.5); math.Abs(q-2) > 1e-9 {
		t.Fatalf("p50 = %v, want 2", q)
	}
	if q := h2.Quantile(0.99); q < 3.9 || q > 4 {
		t.Fatalf("p99 = %v, want ~3.96", q)
	}
	// Observations past the last bound clamp to it.
	h3 := r.Histogram("lat3", []float64{1})
	h3.Observe(50)
	if q := h3.Quantile(0.9); q != 1 {
		t.Fatalf("overflow quantile = %v, want clamp to 1", q)
	}
	// Empty histogram.
	h4 := r.Histogram("lat4", []float64{1})
	if q := h4.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", nil)
	c := r.Counter("n_total")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 {
		t.Fatalf("count = %d / %d, want 8000", h.Count(), c.Value())
	}
	if s := h.Sum(); math.Abs(s-8.0) > 1e-6 {
		t.Fatalf("sum = %v, want 8.0", s)
	}
}

func TestRenderAndScrapeRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Help("req_total", "requests served")
	r.Counter(`req_total{path="/score"}`).Add(12)
	r.Counter(`req_total{path="/rules"}`).Add(3)
	r.Gauge("rules_version").Set(7)
	h := r.Histogram(`lat_seconds{path="/score"}`, []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()

	for _, want := range []string{
		"# HELP req_total requests served",
		"# TYPE req_total counter",
		`req_total{path="/score"} 12`,
		"# TYPE rules_version gauge",
		"rules_version 7",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{path="/score",le="0.01"} 1`,
		`lat_seconds_bucket{path="/score",le="+Inf"} 3`,
		`lat_seconds_count{path="/score"} 3`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q\npage:\n%s", want, page)
		}
	}

	if v, ok := ScrapeValue(page, `req_total{path="/score"}`); !ok || v != 12 {
		t.Fatalf("ScrapeValue = %v, %v; want 12, true", v, ok)
	}
	if v, ok := ScrapeValue(page, "rules_version"); !ok || v != 7 {
		t.Fatalf("ScrapeValue gauge = %v, %v; want 7, true", v, ok)
	}
	sh, err := ScrapeHistogram(strings.NewReader(page), "lat_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if sh.Total != 3 || len(sh.Uppers) != 3 {
		t.Fatalf("scraped %+v, want total 3, 3 uppers", sh)
	}
	if got, want := sh.Quantile(0.5), h.Quantile(0.5); math.Abs(got-want) > 1e-9 {
		t.Fatalf("scraped p50 %v != live p50 %v", got, want)
	}
}
