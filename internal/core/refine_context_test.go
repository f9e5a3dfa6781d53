package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/expert"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// countingExpert accepts everything and counts every question it is asked —
// reviews and the end-of-round Satisfied alike — except the cancelAt-th
// review (never, when cancelAt is 0): that one cancels its context and is
// rejected, so the algorithm would go on to the next candidate unless the
// session stops.
type countingExpert struct {
	expert.AutoAccept
	cancel   context.CancelFunc
	cancelAt int
	reviews  int
	asked    int
}

// review counts a review and reports whether it is the cancelling one.
func (e *countingExpert) review() bool {
	e.asked++
	e.reviews++
	if e.reviews != e.cancelAt {
		return false
	}
	e.cancel()
	return true
}

func (e *countingExpert) ReviewGeneralization(p *core.GenProposal) core.GenDecision {
	if e.review() {
		return core.GenDecision{RevertAttrs: p.Changed}
	}
	return e.AutoAccept.ReviewGeneralization(p)
}

func (e *countingExpert) ReviewSplit(p *core.SplitProposal) core.SplitDecision {
	if e.review() {
		return core.SplitDecision{}
	}
	return e.AutoAccept.ReviewSplit(p)
}

func (e *countingExpert) Satisfied(st core.RoundStats) bool {
	e.asked++
	return e.AutoAccept.Satisfied(st)
}

// paperRefinement is the running example with the legitimate follow-up, so
// a refinement asks both generalization and split questions.
func paperRefinement(t *testing.T) (*relation.Schema, *relation.Relation) {
	t.Helper()
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	paperdata.LegitimateFollowUp(rel)
	return s, rel
}

// TestRefineContextCancelledBeforeStart: a session whose context has already
// ended asks the expert nothing and leaves the rules as they were — even a
// duplicate rule that a round's subsumption pruning would drop.
func TestRefineContextCancelledBeforeStart(t *testing.T) {
	s, rel := paperRefinement(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &countingExpert{cancel: cancel}
	rs := paperdata.ExistingRules(s)
	rs.Add(rs.Rule(0).Clone())
	sess := core.NewSession(rs, e, core.Options{})
	sess.RefineContext(ctx, rel)
	if e.asked != 0 {
		t.Fatalf("a cancelled session asked the expert %d questions", e.asked)
	}
	if got, want := sess.Rules().Format(s), rs.Format(s); got != want {
		t.Fatalf("a cancelled session changed the rules:\n%s\nwant\n%s", got, want)
	}
	if sess.Log().Len() != 0 {
		t.Fatalf("a cancelled session logged %d modifications", sess.Log().Len())
	}
}

// TestRefineContextStopsAtCancellingQuery: when the expert cancels the
// session's context while answering its k-th review, no question k+1 is
// asked — neither a review nor the end-of-round Satisfied — for every k the
// full refinement reaches.
func TestRefineContextStopsAtCancellingQuery(t *testing.T) {
	s, rel := paperRefinement(t)
	full := &countingExpert{}
	core.NewSession(paperdata.ExistingRules(s), full, core.Options{}).Refine(rel)
	if full.reviews < 2 {
		t.Fatalf("the fixture asks only %d reviews; the test needs several", full.reviews)
	}
	for k := 1; k <= full.reviews; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		e := &countingExpert{cancel: cancel, cancelAt: k}
		core.NewSession(paperdata.ExistingRules(s), e, core.Options{}).RefineContext(ctx, rel)
		cancel()
		if e.asked != k {
			t.Errorf("cancelled at review %d of %d: the expert was asked %d questions, want %d", k, full.reviews, e.asked, k)
		}
	}
}
