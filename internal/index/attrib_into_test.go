package index_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/testutil"
)

// TestEvalAttributedIntoDifferential proves the buffer-backed eager path is
// output-identical to EvalAttributed across randomized instances — and, by
// reusing ONE AttributionBuffer across every seed, that a dirty buffer
// carrying a previous schema/relation/rule-set's arenas never leaks into the
// next result.
func TestEvalAttributedIntoDifferential(t *testing.T) {
	var buf index.AttributionBuffer // deliberately shared across all seeds
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		s := testutil.RandomSchema(rng)
		rel := testutil.RandomRelation(rng, s, rng.Intn(250))
		rs := testutil.RandomRuleSet(rng, s, rng.Intn(8))
		ev := index.Compile(s, rs)

		wantSet, want := ev.EvalAttributed(rel)
		gotSet := ev.EvalAttributedInto(rel, &buf)
		if !gotSet.Equal(wantSet) {
			t.Fatalf("seed %d: EvalAttributedInto union disagrees with EvalAttributed\nrules:\n%s", seed, rs.Format(s))
		}
		if len(buf.Tuples) != len(want) {
			t.Fatalf("seed %d: %d buffered attributions, want %d", seed, len(buf.Tuples), len(want))
		}
		for i := range want {
			if fmt.Sprint(buf.Tuples[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("seed %d tuple %d:\n into: %v\neager: %v", seed, i, buf.Tuples[i], want[i])
			}
		}
	}
}

// TestEvalAttributedLazyDifferential proves the lazy path against the eager
// one: identical union bitset, identical Matched lists and Matched/Empty
// flags, byte-identical check breakdowns for every rule that fired, nil
// Checks (never stale data) for rules that did not — and that
// AttributeRuleAppend re-derives exactly the eager breakdown for those on
// demand.
func TestEvalAttributedLazyDifferential(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(11000 + seed))
			s := testutil.RandomSchema(rng)
			rel := testutil.RandomRelation(rng, s, rng.Intn(250))
			rs := testutil.RandomRuleSet(rng, s, rng.Intn(8))
			ev := index.Compile(s, rs)

			wantSet, want := ev.EvalAttributed(rel)
			var buf index.AttributionBuffer
			gotSet := ev.EvalAttributedLazyInto(rel, &buf)
			if !gotSet.Equal(wantSet) {
				t.Fatalf("lazy union disagrees with eager\nrules:\n%s", rs.Format(s))
			}
			scratch := make([]index.CheckAttribution, 0, ev.MaxRuleChecks())
			for i := range want {
				got := buf.Tuples[i]
				if fmt.Sprint(got.Matched) != fmt.Sprint(want[i].Matched) {
					t.Fatalf("tuple %d: lazy matched %v, eager %v", i, got.Matched, want[i].Matched)
				}
				if len(got.Rules) != len(want[i].Rules) {
					t.Fatalf("tuple %d: %d lazy rules, %d eager", i, len(got.Rules), len(want[i].Rules))
				}
				for ri := range want[i].Rules {
					lr, er := got.Rules[ri], want[i].Rules[ri]
					if lr.Rule != er.Rule || lr.Matched != er.Matched || lr.Empty != er.Empty {
						t.Fatalf("tuple %d rule %d: lazy %+v, eager %+v", i, ri, lr, er)
					}
					if er.Matched {
						// Fired rules carry the full breakdown, byte-identical.
						if fmt.Sprint(lr.Checks) != fmt.Sprint(er.Checks) {
							t.Fatalf("tuple %d rule %d checks:\n lazy: %v\neager: %v", i, ri, lr.Checks, er.Checks)
						}
						continue
					}
					if lr.Checks != nil {
						t.Fatalf("tuple %d rule %d: non-matched lazy rule carries checks %v", i, ri, lr.Checks)
					}
					// On-demand re-derivation reproduces the eager breakdown —
					// margins, order and Matched identical — through both a nil
					// and a caller-scratch dst.
					if re := ev.AttributeRuleAppend(ri, rel, i, nil); fmt.Sprint(re) != fmt.Sprint(er) {
						t.Fatalf("tuple %d rule %d: AttributeRuleAppend(nil) %v, eager %v", i, ri, re, er)
					}
					if re := ev.AttributeRuleAppend(ri, rel, i, scratch[:0]); fmt.Sprint(re) != fmt.Sprint(er) {
						t.Fatalf("tuple %d rule %d: AttributeRuleAppend %v, eager %v", i, ri, re, er)
					}
				}
			}
		})
	}
}

// TestEvalFirstIntoDifferential pins EvalFirstInto with a reused dst to a
// fresh allocation across differently-sized relations: no stale entry from a
// longer earlier relation survives.
func TestEvalFirstIntoDifferential(t *testing.T) {
	var dst []int32
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(13000 + seed))
		s := testutil.RandomSchema(rng)
		rel := testutil.RandomRelation(rng, s, rng.Intn(300))
		rs := testutil.RandomRuleSet(rng, s, rng.Intn(8))
		ev := index.Compile(s, rs)
		want := ev.EvalFirstInto(rel, nil)
		dst = ev.EvalFirstInto(rel, dst)
		if len(dst) != len(want) {
			t.Fatalf("seed %d: EvalFirstInto len %d, want %d", seed, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("seed %d tuple %d: reused dst %d, fresh %d", seed, i, dst[i], want[i])
			}
		}
	}
}

// TestAttributionBufferMutationReuse drives the shared buffer through
// in-place evaluator mutations (Add/Replace/Remove change the per-tuple
// check geometry) and checks every evaluation against the eager path.
func TestAttributionBufferMutationReuse(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(15000 + seed))
		s := testutil.RandomSchema(rng)
		rel := testutil.RandomRelation(rng, s, 50+rng.Intn(100))
		rs := testutil.RandomRuleSet(rng, s, 1+rng.Intn(5))
		ev := index.Compile(s, rs)
		var buf index.AttributionBuffer
		for step := 0; step < 10; step++ {
			switch op := rng.Intn(3); {
			case op == 0 || rs.Len() == 0:
				r := testutil.RandomRule(rng, s)
				rs.Add(r)
				ev.Add(r)
			case op == 1:
				i := rng.Intn(rs.Len())
				r := testutil.RandomRule(rng, s)
				rs.Replace(i, r)
				ev.Replace(i, r)
			default:
				i := rng.Intn(rs.Len())
				rs.Remove(i)
				ev.Remove(i)
			}
			_, want := ev.EvalAttributed(rel)
			ev.EvalAttributedInto(rel, &buf)
			for i := range want {
				if fmt.Sprint(buf.Tuples[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("seed %d step %d tuple %d: buffered attribution diverged after mutation", seed, step, i)
				}
			}
		}
	}
}

// TestAttributionIntoAllocs pins the steady-state allocation budget of the
// buffer-backed paths: after one warm-up call, re-evaluating the same-shaped
// relation must cost only the result bitset and the chunk goroutines — no
// per-rule or per-tuple allocations (the 2.3M-allocs/op regression this
// buffer design removed).
func TestAttributionIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := testutil.RandomSchema(rng)
	rel := testutil.RandomRelation(rng, s, 256)
	rs := testutil.RandomRuleSet(rng, s, 6)
	ev := index.Compile(s, rs)
	ev.Workers = 2

	var buf index.AttributionBuffer
	ev.EvalAttributedInto(rel, &buf) // warm the arenas
	// Budget: bitset.New (2 allocs) + a closure per parallel chunk + the
	// WaitGroup-spawned goroutines. 16 is a loose roof far under "per tuple".
	if n := testing.AllocsPerRun(20, func() { ev.EvalAttributedInto(rel, &buf) }); n > 16 {
		t.Fatalf("EvalAttributedInto steady state = %.0f allocs/run, want <= 16", n)
	}
	if n := testing.AllocsPerRun(20, func() { ev.EvalAttributedLazyInto(rel, &buf) }); n > 16 {
		t.Fatalf("EvalAttributedLazyInto steady state = %.0f allocs/run, want <= 16", n)
	}
	first := ev.EvalFirstInto(rel, nil)
	if n := testing.AllocsPerRun(20, func() { first = ev.EvalFirstInto(rel, first) }); n > 8 {
		t.Fatalf("EvalFirstInto steady state = %.0f allocs/run, want <= 8", n)
	}
	scratch := make([]index.CheckAttribution, 0, ev.MaxRuleChecks())
	if n := testing.AllocsPerRun(50, func() { ev.AttributeRuleAppend(0, rel, 0, scratch[:0]) }); n > 0 {
		t.Fatalf("AttributeRuleAppend with scratch = %.0f allocs/run, want 0", n)
	}
}

// FuzzEvalAttributedLazy drives the lazy-vs-eager equivalence from the
// fuzzer: every int64 seed is a complete random instance.
func FuzzEvalAttributedLazy(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1234, -99} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		s := testutil.RandomSchema(rng)
		rel := testutil.RandomRelation(rng, s, rng.Intn(200))
		rs := testutil.RandomRuleSet(rng, s, rng.Intn(6))
		ev := index.Compile(s, rs)
		wantSet, want := ev.EvalAttributed(rel)
		var buf index.AttributionBuffer
		if got := ev.EvalAttributedLazyInto(rel, &buf); !got.Equal(wantSet) {
			t.Fatalf("lazy union diverged for seed %d", seed)
		}
		for i := range want {
			got := buf.Tuples[i]
			if fmt.Sprint(got.Matched) != fmt.Sprint(want[i].Matched) {
				t.Fatalf("seed %d tuple %d: matched diverged", seed, i)
			}
			for ri := range want[i].Rules {
				lr, er := got.Rules[ri], want[i].Rules[ri]
				if lr.Matched != er.Matched || lr.Empty != er.Empty {
					t.Fatalf("seed %d tuple %d rule %d: flags diverged", seed, i, ri)
				}
				if er.Matched && fmt.Sprint(lr.Checks) != fmt.Sprint(er.Checks) {
					t.Fatalf("seed %d tuple %d rule %d: checks diverged", seed, i, ri)
				}
				if !er.Matched {
					if re := ev.AttributeRuleAppend(ri, rel, i, nil); fmt.Sprint(re) != fmt.Sprint(er) {
						t.Fatalf("seed %d tuple %d rule %d: AttributeRuleAppend diverged", seed, i, ri)
					}
				}
			}
		}
	})
}
