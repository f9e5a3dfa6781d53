package relation

import (
	"strings"
	"testing"

	"repro/internal/ontology"
	"repro/internal/order"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	loc := ontology.NewBuilder("location").
		Add("World").
		Add("Gas Station", "World").
		Add("Gas Station A", "Gas Station").
		Add("Gas Station B", "Gas Station").
		Add("Online Store", "World").
		MustBuild()
	return MustSchema(
		Attribute{Name: "time", Kind: Numeric, Domain: order.NewDomain(0, 1439), Format: order.FormatTimeOfDay},
		Attribute{Name: "amount", Kind: Numeric, Domain: order.NewDomain(0, 100000), Format: order.FormatMoney},
		Attribute{Name: "location", Kind: Categorical, Ontology: loc},
	)
}

func leaf(t *testing.T, s *Schema, attr int, name string) int64 {
	t.Helper()
	return int64(s.Attr(attr).Ontology.MustLookup(name))
}

func TestNewSchemaErrors(t *testing.T) {
	if _, err := NewSchema(Attribute{Name: ""}); err == nil {
		t.Error("unnamed attribute accepted")
	}
	if _, err := NewSchema(
		Attribute{Name: "a", Kind: Numeric},
		Attribute{Name: "a", Kind: Numeric},
	); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSchema(Attribute{Name: "c", Kind: Categorical}); err == nil {
		t.Error("categorical without ontology accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.Arity() != 3 {
		t.Errorf("Arity = %d, want 3", s.Arity())
	}
	if i, ok := s.Index("amount"); !ok || i != 1 {
		t.Errorf("Index(amount) = %d,%v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("Index of unknown attribute succeeded")
	}
	if s.MustIndex("time") != 0 {
		t.Error("MustIndex(time) != 0")
	}
	if s.Attr(1).Name != "amount" {
		t.Error("Attr(1) wrong")
	}
}

func TestMustIndexPanics(t *testing.T) {
	s := testSchema(t)
	defer func() {
		if recover() == nil {
			t.Error("MustIndex did not panic")
		}
	}()
	s.MustIndex("ghost")
}

func TestFormatAndParseValue(t *testing.T) {
	s := testSchema(t)
	if got := s.FormatValue(0, 18*60+5); got != "18:05" {
		t.Errorf("FormatValue(time) = %q", got)
	}
	if got := s.FormatValue(2, leaf(t, s, 2, "Gas Station A")); got != "Gas Station A" {
		t.Errorf("FormatValue(location) = %q", got)
	}
	v, err := s.ParseValue(2, "Gas Station B")
	if err != nil || v != leaf(t, s, 2, "Gas Station B") {
		t.Errorf("ParseValue(location) = %d, %v", v, err)
	}
	if _, err := s.ParseValue(2, "Mars"); err == nil {
		t.Error("ParseValue of unknown concept succeeded")
	}
	v, err = s.ParseValue(1, "$42")
	if err != nil || v != 42 {
		t.Errorf("ParseValue(amount) = %d, %v", v, err)
	}
}

func TestAppendValidation(t *testing.T) {
	s := testSchema(t)
	r := New(s)
	good := Tuple{18*60 + 2, 107, leaf(t, s, 2, "Online Store")}
	if _, err := r.Append(good, Fraud, 800); err != nil {
		t.Fatalf("valid append failed: %v", err)
	}
	for name, tc := range map[string]struct {
		t     Tuple
		score int16
	}{
		"short tuple":        {Tuple{1, 2}, 0},
		"numeric out of dom": {Tuple{-1, 100, leaf(t, s, 2, "Online Store")}, 0},
		"bad concept id":     {Tuple{10, 100, 999}, 0},
		"non-leaf concept":   {Tuple{10, 100, int64(s.Attr(2).Ontology.MustLookup("Gas Station"))}, 0},
		"bad score":          {good, 2000},
	} {
		if _, err := r.Append(tc.t, Unlabeled, tc.score); err == nil {
			t.Errorf("%s: append succeeded, want error", name)
		}
	}
	if r.Len() != 1 {
		t.Errorf("failed appends mutated the relation: len = %d", r.Len())
	}
}

func TestLabelsScoresAndCounts(t *testing.T) {
	s := testSchema(t)
	r := New(s)
	loc := leaf(t, s, 2, "Online Store")
	r.MustAppend(Tuple{1, 10, loc}, Fraud, 900)
	r.MustAppend(Tuple{2, 20, loc}, Legitimate, 100)
	r.MustAppend(Tuple{3, 30, loc}, Unlabeled, 500)
	r.MustAppend(Tuple{4, 40, loc}, Fraud, 950)
	if r.Count(Fraud) != 2 || r.Count(Legitimate) != 1 || r.Count(Unlabeled) != 1 {
		t.Error("Count wrong")
	}
	if got := r.Indices(Fraud); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("Indices(Fraud) = %v", got)
	}
	if r.Score(3) != 950 || r.Label(1) != Legitimate {
		t.Error("Score/Label accessors wrong")
	}
	r.SetLabel(2, Fraud)
	if r.Label(2) != Fraud {
		t.Error("SetLabel did not stick")
	}
}

func TestPrefix(t *testing.T) {
	s := testSchema(t)
	r := New(s)
	loc := leaf(t, s, 2, "Online Store")
	for i := int64(0); i < 10; i++ {
		r.MustAppend(Tuple{i, i * 10, loc}, Unlabeled, 0)
	}
	p := r.Prefix(4)
	if p.Len() != 4 || p.Tuple(3)[0] != 3 {
		t.Errorf("Prefix(4) wrong: len=%d", p.Len())
	}
	if got := r.Prefix(99).Len(); got != 10 {
		t.Errorf("Prefix over-length = %d, want 10", got)
	}
}

func TestFormatTuple(t *testing.T) {
	s := testSchema(t)
	r := New(s)
	r.MustAppend(Tuple{18*60 + 2, 107, leaf(t, s, 2, "Online Store")}, Fraud, 800)
	got := r.FormatTuple(0)
	want := "time=18:02, amount=$107, location=Online Store [FRAUD]"
	if got != want {
		t.Errorf("FormatTuple = %q, want %q", got, want)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := testSchema(t)
	r := New(s)
	r.MustAppend(Tuple{18*60 + 2, 107, leaf(t, s, 2, "Online Store")}, Fraud, 800)
	r.MustAppend(Tuple{20*60 + 53, 46, leaf(t, s, 2, "Gas Station B")}, Legitimate, 120)
	r.MustAppend(Tuple{0, 0, leaf(t, s, 2, "Gas Station A")}, Unlabeled, 0)

	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(s, strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadCSV: %v\ncsv:\n%s", err, sb.String())
	}
	if got.Len() != r.Len() {
		t.Fatalf("round trip len = %d, want %d", got.Len(), r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if got.Label(i) != r.Label(i) || got.Score(i) != r.Score(i) {
			t.Errorf("tuple %d: label/score mismatch", i)
		}
		for a := range r.Tuple(i) {
			if got.Tuple(i)[a] != r.Tuple(i)[a] {
				t.Errorf("tuple %d attr %d: %d != %d", i, a, got.Tuple(i)[a], r.Tuple(i)[a])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := testSchema(t)
	for name, csvText := range map[string]string{
		"bad header":   "x,amount,location,label,score\n",
		"bad tail":     "time,amount,location,lbl,score\n",
		"bad value":    "time,amount,location,label,score\n25:99,$1,Online Store,,0\n",
		"bad concept":  "time,amount,location,label,score\n01:00,$1,Mars,,0\n",
		"bad label":    "time,amount,location,label,score\n01:00,$1,Online Store,MAYBE,0\n",
		"bad score":    "time,amount,location,label,score\n01:00,$1,Online Store,,abc\n",
		"score range":  "time,amount,location,label,score\n01:00,$1,Online Store,,5000\n",
		"wrong fields": "time,amount,location,label,score\n01:00,$1\n",
	} {
		if _, err := ReadCSV(s, strings.NewReader(csvText)); err == nil {
			t.Errorf("%s: ReadCSV succeeded, want error", name)
		}
	}
}

func TestLabelString(t *testing.T) {
	if Fraud.String() != "FRAUD" || Legitimate.String() != "LEGITIMATE" || Unlabeled.String() != "" {
		t.Error("Label.String wrong")
	}
}

func TestTupleClone(t *testing.T) {
	orig := Tuple{1, 2, 3}
	c := orig.Clone()
	c[0] = 99
	if orig[0] != 1 {
		t.Error("Clone shares storage")
	}
}
