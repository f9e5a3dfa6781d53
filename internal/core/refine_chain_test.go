package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/expert"
	"repro/internal/trace"
)

// TestRefineChainPinned replays the benchmark's refine_churn chain — the
// analyst dataset (seed 1), 55 incumbent rules, an unattended expert, the
// 4 000/8 000/12 000/16 000-row feedback prefixes refined one after the
// other, each from the previous result — and pins its outcome: the
// per-round modification and rule counts and a hash of the final rule text,
// all taken before the ranking was made lazy and bounded. Any change to
// Algorithm 1's ranking must leave them alone.
//
// Traced, the same replay also bounds the work: a ranking happens only for
// a cluster that needs one, so there are never more generalize.rank spans
// than expert.review_generalization spans (the eager ranking had 3 350
// against 65), and no ranking accounts for more candidates than there are
// rules. It runs in tier-1, without a testing.Short skip: it is the guard
// on the loop's cost as much as on its result.
func TestRefineChainPinned(t *testing.T) {
	const finalRulesSHA256 = "039a76384c698ce059f915609ee57c4d62fd6064b037e85ae48094339332c680"
	wantMods := []int{30, 30, 43, 54}
	wantRules := []int{12, 18, 23, 28}

	ds := datagen.Generate(datagen.Config{Size: 40000, Seed: 1})
	set := datagen.InitialRules(ds, 55, 1)

	// OnEnd runs on whichever goroutine ends a span; the evaluators under
	// capture.bind end theirs on workers.
	var (
		mu             sync.Mutex
		ranks, reviews int
	)
	tr := trace.New(trace.Options{Capacity: 64, OnEnd: func(r trace.Record) {
		mu.Lock()
		defer mu.Unlock()
		switch r.Name {
		case "generalize.rank":
			ranks++
			attrs := attrInts(r)
			if attrs["scanned"]+attrs["pruned"] > attrs["rules"] {
				t.Errorf("generalize.rank scanned %d + pruned %d of %d rules",
					attrs["scanned"], attrs["pruned"], attrs["rules"])
			}
		case "expert.review_generalization":
			reviews++
		}
	}})

	for round, rows := range []int{4000, 8000, 12000, 16000} {
		sess := core.NewSession(set, &expert.AutoAccept{}, core.Options{Tracer: tr})
		st := sess.Refine(ds.Rel.Prefix(rows))
		set = sess.Rules()
		if st.Modifications != wantMods[round] || set.Len() != wantRules[round] {
			t.Errorf("round %d (%d rows): %d modifications, %d rules; want %d, %d",
				round+1, rows, st.Modifications, set.Len(), wantMods[round], wantRules[round])
		}
	}
	sum := sha256.Sum256([]byte(set.Format(ds.Schema)))
	if got := hex.EncodeToString(sum[:]); got != finalRulesSHA256 {
		t.Errorf("final rule text hashes to %s, want %s:\n%s", got, finalRulesSHA256, set.Format(ds.Schema))
	}
	if ranks > reviews {
		t.Errorf("%d generalize.rank spans for %d expert.review_generalization spans: ranking is not lazy",
			ranks, reviews)
	}
	t.Logf("%d rankings, %d generalization reviews", ranks, reviews)
}

// attrInts returns the integer attributes of a trace record by key.
func attrInts(r trace.Record) map[string]int64 {
	out := make(map[string]int64)
	for i := 0; i < r.NAttrs; i++ {
		if v, ok := r.Attrs[i].Value().(int64); ok {
			out[r.Attrs[i].Key] = v
		}
	}
	return out
}
