package order

import (
	"testing"
	"testing/quick"
)

func TestNewDomainPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDomain(5, 1) did not panic")
		}
	}()
	NewDomain(5, 1)
}

func TestDomainContains(t *testing.T) {
	d := NewDomain(10, 20)
	for _, tc := range []struct {
		v    Value
		want bool
	}{
		{9, false}, {10, true}, {15, true}, {20, true}, {21, false},
	} {
		if got := d.Contains(tc.v); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestDomainSizeAndFull(t *testing.T) {
	d := NewDomain(-3, 3)
	if d.Size() != 7 {
		t.Errorf("Size() = %d, want 7", d.Size())
	}
	full := d.Full()
	if full.Lo != -3 || full.Hi != 3 {
		t.Errorf("Full() = %v, want [-3,3]", full)
	}
}

func TestDomainPrevSucc(t *testing.T) {
	d := NewDomain(0, 10)
	if _, ok := d.Prev(0); ok {
		t.Error("Prev(0) should not exist at domain minimum")
	}
	if v, ok := d.Prev(5); !ok || v != 4 {
		t.Errorf("Prev(5) = %d,%v, want 4,true", v, ok)
	}
	if _, ok := d.Succ(10); ok {
		t.Error("Succ(10) should not exist at domain maximum")
	}
	if v, ok := d.Succ(5); !ok || v != 6 {
		t.Errorf("Succ(5) = %d,%v, want 6,true", v, ok)
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 3, Hi: 7}
	if iv.IsEmpty() {
		t.Error("[3,7] reported empty")
	}
	if iv.Size() != 5 {
		t.Errorf("Size() = %d, want 5", iv.Size())
	}
	if !iv.Contains(3) || !iv.Contains(7) || iv.Contains(8) || iv.Contains(2) {
		t.Error("Contains endpoints/outside wrong")
	}
	if Empty().Size() != 0 || !Empty().IsEmpty() {
		t.Error("Empty() is not empty")
	}
	if Point(4) != (Interval{Lo: 4, Hi: 4}) {
		t.Error("Point(4) wrong")
	}
}

func TestIntervalContainsInterval(t *testing.T) {
	for _, tc := range []struct {
		a, b Interval
		want bool
	}{
		{Interval{1, 10}, Interval{2, 5}, true},
		{Interval{1, 10}, Interval{1, 10}, true},
		{Interval{1, 10}, Interval{0, 5}, false},
		{Interval{1, 10}, Interval{5, 11}, false},
		{Interval{1, 10}, Empty(), true},
		{Empty(), Interval{1, 1}, false},
		{Empty(), Empty(), true},
	} {
		if got := tc.a.ContainsInterval(tc.b); got != tc.want {
			t.Errorf("%v.ContainsInterval(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestIntervalEqual(t *testing.T) {
	if !(Interval{5, 2}).Equal(Empty()) {
		t.Error("all empty intervals should compare equal")
	}
	if !(Interval{1, 3}).Equal(Interval{1, 3}) {
		t.Error("identical intervals unequal")
	}
	if (Interval{1, 3}).Equal(Interval{1, 4}) {
		t.Error("distinct intervals equal")
	}
}

func TestIntervalIntersect(t *testing.T) {
	for _, tc := range []struct {
		a, b, want Interval
	}{
		{Interval{1, 5}, Interval{3, 8}, Interval{3, 5}},
		{Interval{1, 5}, Interval{6, 8}, Empty()},
		{Interval{1, 5}, Interval{5, 8}, Interval{5, 5}},
		{Interval{1, 10}, Interval{3, 4}, Interval{3, 4}},
	} {
		got := tc.a.Intersect(tc.b)
		if !got.Equal(tc.want) {
			t.Errorf("%v ∩ %v = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestIntervalCover(t *testing.T) {
	for _, tc := range []struct {
		a, b, want Interval
	}{
		{Interval{1, 5}, Interval{8, 9}, Interval{1, 9}},
		{Interval{1, 5}, Empty(), Interval{1, 5}},
		{Empty(), Interval{2, 3}, Interval{2, 3}},
		{Interval{4, 6}, Interval{2, 5}, Interval{2, 6}},
	} {
		got := tc.a.Cover(tc.b)
		if !got.Equal(tc.want) {
			t.Errorf("%v.Cover(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if got := (Interval{2, 4}).Cover(Point(9)); got != (Interval{2, 9}) {
		t.Errorf("Cover(Point(9)) = %v, want [2,9]", got)
	}
}

// TestExtensionDistancePaperExamples checks the three worked examples given
// under Equation 1 of the paper.
func TestExtensionDistancePaperExamples(t *testing.T) {
	for _, tc := range []struct {
		target, rule Interval
		want         int64
	}{
		{Interval{1, 5}, Interval{5, 100}, 4},       // |[1,5] − [5,100]| = 4
		{Interval{1, 100}, Interval{1, 5}, 95},      // |[1,100] − [1,5]| = 95
		{Interval{5, 10}, Interval{1, 100}, 0},      // |[5,10] − [1,100]| = 0
		{Interval{106, 107}, Interval{110, 1e6}, 4}, // Example 4.4: Amt ≥ 110 vs [106,107]
	} {
		if got := tc.rule.ExtensionDistance(tc.target); got != tc.want {
			t.Errorf("|%v − %v| = %d, want %d", tc.target, tc.rule, got, tc.want)
		}
	}
}

func TestExtensionDistanceEmptyCases(t *testing.T) {
	if got := Empty().ExtensionDistance(Interval{1, 5}); got != 5 {
		t.Errorf("extending empty to [1,5] = %d, want 5", got)
	}
	if got := (Interval{1, 5}).ExtensionDistance(Empty()); got != 0 {
		t.Errorf("extending to empty = %d, want 0", got)
	}
}

func TestExtendProducesCover(t *testing.T) {
	r := Interval{10, 20}
	f := Interval{5, 12}
	got := r.Extend(f)
	if got != (Interval{5, 20}) {
		t.Errorf("Extend = %v, want [5,20]", got)
	}
}

func TestSplitAround(t *testing.T) {
	d := NewDomain(0, 100)
	for _, tc := range []struct {
		iv          Interval
		v           Value
		left, right Interval
	}{
		{Interval{10, 20}, 15, Interval{10, 14}, Interval{16, 20}},
		{Interval{10, 20}, 10, Empty(), Interval{11, 20}},
		{Interval{10, 20}, 20, Interval{10, 19}, Empty()},
		{Interval{15, 15}, 15, Empty(), Empty()},
		{Interval{10, 20}, 50, Interval{10, 20}, Empty()}, // value outside: unchanged
	} {
		l, r := tc.iv.SplitAround(d, tc.v)
		if !l.Equal(tc.left) || !r.Equal(tc.right) {
			t.Errorf("%v.SplitAround(%d) = %v,%v want %v,%v", tc.iv, tc.v, l, r, tc.left, tc.right)
		}
	}
}

func TestSplitAroundAtDomainEdge(t *testing.T) {
	d := NewDomain(0, 100)
	l, r := (Interval{0, 5}).SplitAround(d, 0)
	if !l.IsEmpty() || !r.Equal(Interval{1, 5}) {
		t.Errorf("split at domain min = %v,%v", l, r)
	}
	l, r = (Interval{95, 100}).SplitAround(d, 100)
	if !l.Equal(Interval{95, 99}) || !r.IsEmpty() {
		t.Errorf("split at domain max = %v,%v", l, r)
	}
}

func TestIntervalString(t *testing.T) {
	for _, tc := range []struct {
		iv   Interval
		want string
	}{
		{Interval{1, 5}, "[1,5]"},
		{Point(7), "[7]"},
		{Empty(), "⊥"},
	} {
		if got := tc.iv.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.iv, got, tc.want)
		}
	}
}

// Property: ExtensionDistance is zero iff the rule already contains the
// target, and Extend always yields a containing interval whose extra size
// equals the distance.
func TestExtensionDistanceProperties(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		rule := Interval{Lo: min64(int64(a), int64(b)), Hi: max64(int64(a), int64(b))}
		target := Interval{Lo: min64(int64(c), int64(d)), Hi: max64(int64(c), int64(d))}
		dist := rule.ExtensionDistance(target)
		ext := rule.Extend(target)
		if !ext.ContainsInterval(target) || !ext.ContainsInterval(rule) {
			return false
		}
		if (dist == 0) != rule.ContainsInterval(target) {
			return false
		}
		return ext.Size()-rule.Size() == dist
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Intersect is the greatest lower bound and Cover the least upper
// bound with respect to interval containment.
func TestIntervalLatticeProperties(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		x := Interval{Lo: min64(int64(a), int64(b)), Hi: max64(int64(a), int64(b))}
		y := Interval{Lo: min64(int64(c), int64(d)), Hi: max64(int64(c), int64(d))}
		inter, cov := x.Intersect(y), x.Cover(y)
		return x.ContainsInterval(inter) && y.ContainsInterval(inter) &&
			cov.ContainsInterval(x) && cov.ContainsInterval(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		f    Format
		v    Value
		want string
	}{
		{FormatPlain, 42, "42"},
		{FormatTimeOfDay, 18*60 + 5, "18:05"},
		{FormatTimeOfDay, 0, "00:00"},
		{FormatTimeOfDay, 2*minutesPerDay + 61, "01:01"},
		{FormatMinutes, 61, "01:01"},
		{FormatMinutes, minutesPerDay + 61, "1+01:01"},
		{FormatMoney, 110, "$110"},
	} {
		if got := tc.f.FormatValue(tc.v); got != tc.want {
			t.Errorf("%v.FormatValue(%d) = %q, want %q", tc.f, tc.v, got, tc.want)
		}
	}
}

func TestParseValue(t *testing.T) {
	for _, tc := range []struct {
		f    Format
		s    string
		want Value
	}{
		{FormatPlain, "42", 42},
		{FormatMoney, "$110", 110},
		{FormatMoney, "110", 110},
		{FormatTimeOfDay, "18:05", 18*60 + 5},
		{FormatMinutes, "1+01:01", minutesPerDay + 61},
		{FormatMinutes, "90", 90},
	} {
		got, err := tc.f.ParseValue(tc.s)
		if err != nil || got != tc.want {
			t.Errorf("%v.ParseValue(%q) = %d,%v want %d", tc.f, tc.s, got, err, tc.want)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, tc := range []struct {
		f Format
		s string
	}{
		{FormatPlain, "abc"},
		{FormatTimeOfDay, "25:00"},
		{FormatTimeOfDay, "12:61"},
		{FormatMinutes, "x+01:00"},
		{FormatMoney, "$$5x"},
	} {
		if _, err := tc.f.ParseValue(tc.s); err == nil {
			t.Errorf("%v.ParseValue(%q) succeeded, want error", tc.f, tc.s)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	f := func(v int32, k uint8) bool {
		format := Format(k % 4)
		val := int64(v)
		if format == FormatTimeOfDay {
			val = ((val % minutesPerDay) + minutesPerDay) % minutesPerDay
		}
		if format == FormatMinutes && val < 0 {
			val = -val
		}
		got, err := format.ParseValue(format.FormatValue(val))
		return err == nil && got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatInterval(t *testing.T) {
	f := FormatTimeOfDay
	if got := f.FormatInterval(Interval{18 * 60, 18*60 + 5}); got != "[18:00,18:05]" {
		t.Errorf("FormatInterval = %q", got)
	}
	if got := f.FormatInterval(Point(60)); got != "01:00" {
		t.Errorf("FormatInterval point = %q", got)
	}
	if got := f.FormatInterval(Empty()); got != "⊥" {
		t.Errorf("FormatInterval empty = %q", got)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
