package telemetry

import (
	"strings"
	"testing"
)

func TestEscapeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{`all "of\ them` + "\n", `all \"of\\ them\n`},
	}
	for _, c := range cases {
		if got := EscapeLabel(c.in); got != c.want {
			t.Fatalf("EscapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestLabelEscapingRoundTrip writes series whose label values need every
// escape the exposition format defines, renders the page, and reads the
// values back through the scrape helpers.
func TestLabelEscapingRoundTrip(t *testing.T) {
	reg := NewRegistry()
	hostile := []string{
		`plain`,
		`with space`,
		`comma,inside`,
		`brace}inside`,
		`qu"ote`,
		`back\slash`,
		"new\nline",
	}
	reg.Collect(map[string]string{"rudolf_rule_fires_total": "counter"}, func(emit func(string, float64)) {
		for i, v := range hostile {
			emit(`rudolf_rule_fires_total{rule="`+EscapeLabel(v)+`"}`, float64(i+1))
		}
	})
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	page := b.String()
	for i, v := range hostile {
		series := `rudolf_rule_fires_total{rule="` + EscapeLabel(v) + `"}`
		got, ok := ScrapeValue(page, series)
		if !ok {
			t.Fatalf("series for %q not found in page:\n%s", v, page)
		}
		if got != float64(i+1) {
			t.Fatalf("series for %q = %v, want %d", v, got, i+1)
		}
		// And labelValue must decode the escapes back to the raw value.
		labels := series[strings.IndexByte(series, '{')+1 : len(series)-1]
		dec, ok := labelValue(labels, "rule")
		if !ok || dec != v {
			t.Fatalf("labelValue(%q) = %q/%v, want %q", labels, dec, ok, v)
		}
	}
}

// TestHistogramScrapeWithHostileLabels proves ScrapeHistogram still parses
// bucket lines when a neighboring family carries label values with spaces
// and quotes (the old last-space splitSeries broke on these).
func TestHistogramScrapeWithHostileLabels(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("rudolf_score_latency_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	reg.Counter(`rudolf_rule_fires_total{rule="` + EscapeLabel(`rule "a" {weird, name}`) + `"}`).Inc()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	sh, err := ScrapeHistogram(strings.NewReader(b.String()), "rudolf_score_latency_seconds")
	if err != nil {
		t.Fatalf("ScrapeHistogram: %v", err)
	}
	if sh.Total != 4 || len(sh.Uppers) != 3 || sh.Cum[2] != 3 {
		t.Fatalf("scraped histogram = %+v, want 4 obs over 3 buckets", sh)
	}
	if got, ok := ScrapeValue(b.String(), `rudolf_rule_fires_total{rule="rule \"a\" {weird, name}"}`); !ok || got != 1 {
		t.Fatalf("hostile counter scrape = %v/%v, want 1/true", got, ok)
	}
}

// TestCollectReadsAtReadTime: a read-time family renders with its declared
// TYPE, floats included; WriteTo and Value read the source afresh each time,
// with nothing to refresh; and a family that emits no series is absent.
func TestCollectReadsAtReadTime(t *testing.T) {
	reg := NewRegistry()
	reg.Help("rudolf_rule_drift", "drift")
	drift, fires := 0.25, 3.0
	reg.Collect(map[string]string{
		"rudolf_rule_drift":       "gauge",
		"rudolf_rule_fires_total": "counter",
		"rudolf_empty":            "gauge",
	}, func(emit func(string, float64)) {
		emit(`rudolf_rule_drift{rule="0"}`, drift)
		emit(`rudolf_rule_drift{rule="1"}`, 1.5)
		emit(`rudolf_rule_fires_total{rule="0"}`, fires)
	})
	drift, fires = 0.75, 5 // no refresh: the next read sees it
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	page := b.String()
	for series, want := range map[string]float64{
		`rudolf_rule_drift{rule="0"}`:       0.75,
		`rudolf_rule_drift{rule="1"}`:       1.5,
		`rudolf_rule_fires_total{rule="0"}`: 5,
	} {
		if got, ok := ScrapeValue(page, series); !ok || got != want {
			t.Fatalf("%s = %v/%v, want %v", series, got, ok, want)
		}
		if got, ok := reg.Value(series); !ok || got != want {
			t.Fatalf("Value(%s) = %v/%v, want %v", series, got, ok, want)
		}
	}
	for _, want := range []string{"# HELP rudolf_rule_drift drift", "# TYPE rudolf_rule_drift gauge", "# TYPE rudolf_rule_fires_total counter"} {
		if !strings.Contains(page, want) {
			t.Fatalf("page lacks %q:\n%s", want, page)
		}
	}
	if strings.Contains(page, "rudolf_empty") {
		t.Fatalf("a family with no series must not render:\n%s", page)
	}
	if _, ok := reg.Value(`rudolf_rule_drift{rule="2"}`); ok {
		t.Fatal("Value of a series the source does not emit must report no data")
	}
}

// TestHistogramFuncFillsPerRead: every read of a read-time histogram fills
// a fresh one, so WriteTo and FindHistogram agree and nothing accumulates.
func TestHistogramFuncFillsPerRead(t *testing.T) {
	reg := NewRegistry()
	n := uint64(2)
	reg.HistogramFunc("pause_seconds", []float64{0.01, 0.1}, func(h *Histogram) { h.ObserveN(0.05, n) })
	for i := 0; i < 2; i++ {
		h, ok := reg.FindHistogram("pause_seconds")
		if !ok || h.Count() != 2 || h.Sum() != 0.1 {
			t.Fatalf("read %d: FindHistogram = %v/%v, want 2 observations summing to 0.1", i, h, ok)
		}
	}
	n = 3
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	sh, err := ScrapeHistogram(strings.NewReader(b.String()), "pause_seconds")
	if err != nil || sh.Total != 3 || sh.Cum[0] != 0 || sh.Cum[1] != 3 {
		t.Fatalf("scraped %+v, %v; want 3 observations in the 0.1 bucket", sh, err)
	}
}

// TestReadTimeFamilyOwnership: a family is stored or read at read time,
// never both, and a source may only emit the families it declared.
func TestReadTimeFamilyOwnership(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want a panic", what)
			}
		}()
		f()
	}
	reg := NewRegistry()
	reg.Counter(`stored_total{a="1"}`)
	reg.Collect(map[string]string{"read_total": "counter"}, func(emit func(string, float64)) { emit("other_total", 1) })
	mustPanic("stored series in a read-time family", func() { reg.Counter(`read_total{a="1"}`) })
	mustPanic("read-time family over stored series", func() {
		reg.Collect(map[string]string{"stored_total": "counter"}, func(func(string, float64)) {})
	})
	mustPanic("read-time family registered twice", func() {
		reg.Collect(map[string]string{"read_total": "counter"}, func(func(string, float64)) {})
	})
	mustPanic("unknown kind", func() { reg.Collect(map[string]string{"h": "histogram"}, func(func(string, float64)) {}) })
	mustPanic("undeclared series", func() { reg.Value("read_total") })
	reg.HistogramFunc("h_seconds", nil, func(*Histogram) {})
	mustPanic("stored histogram over a read-time one", func() { reg.Histogram("h_seconds", nil) })
}

func TestSplitSeriesEdgeCases(t *testing.T) {
	cases := []struct {
		line, name, value string
		ok                bool
	}{
		{`plain 3`, "plain", "3", true},
		{`a{b="c"} 1`, `a{b="c"}`, "1", true},
		{`a{b="c d"} 1`, `a{b="c d"}`, "1", true},
		{`a{b="c} d"} 2`, `a{b="c} d"}`, "2", true},
		{`a{b="c\" } d"} 5`, `a{b="c\" } d"}`, "5", true},
		{`noval`, "", "", false},
		{`a{unterminated 1`, "", "", false},
	}
	for _, c := range cases {
		name, val, ok := splitSeries(c.line)
		if name != c.name || val != c.value || ok != c.ok {
			t.Fatalf("splitSeries(%q) = %q,%q,%v; want %q,%q,%v",
				c.line, name, val, ok, c.name, c.value, c.ok)
		}
	}
}
