package expert

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Recording wraps any expert and writes an audit trail of every proposal
// and decision to an io.Writer — the interaction transcript a regulated
// fraud desk must keep alongside the rule history.
type Recording struct {
	// Inner is the expert whose decisions are recorded.
	Inner core.Expert
	// Out receives one line per interaction.
	Out io.Writer

	interactions int
}

// NewRecording wraps inner, writing the audit trail to out.
func NewRecording(inner core.Expert, out io.Writer) *Recording {
	return &Recording{Inner: inner, Out: out}
}

// ReviewGeneralization implements core.Expert.
func (r *Recording) ReviewGeneralization(p *core.GenProposal) core.GenDecision {
	dec := r.Inner.ReviewGeneralization(p)
	r.interactions++
	target := fmt.Sprintf("rule %d", p.RuleIndex+1)
	if p.RuleIndex < 0 {
		target = "new rule"
	}
	verdict := "REJECTED"
	if dec.Accept {
		verdict = "ACCEPTED"
	}
	fmt.Fprintf(r.Out, "[%d] generalize %s -> %q: %s", r.interactions, target,
		p.Proposed.Format(p.Schema), verdict)
	if dec.Edited != nil {
		fmt.Fprintf(r.Out, ", edited to %q", dec.Edited.Format(p.Schema))
	}
	if len(dec.RevertAttrs) > 0 {
		fmt.Fprintf(r.Out, ", reverted %d attribute(s)", len(dec.RevertAttrs))
	}
	fmt.Fprintln(r.Out)
	return dec
}

// ReviewSplit implements core.Expert.
func (r *Recording) ReviewSplit(p *core.SplitProposal) core.SplitDecision {
	dec := r.Inner.ReviewSplit(p)
	r.interactions++
	verdict := "REJECTED"
	if dec.Accept {
		verdict = "ACCEPTED"
	}
	fmt.Fprintf(r.Out, "[%d] split rule %d on %s (%d replacement(s)): %s",
		r.interactions, p.RuleIndex+1, p.Schema.Attr(p.Attr).Name,
		len(p.Replacements), verdict)
	if dec.Keep != nil {
		fmt.Fprintf(r.Out, ", kept %d", len(dec.Keep))
	}
	fmt.Fprintln(r.Out)
	return dec
}

// Satisfied implements core.Expert.
func (r *Recording) Satisfied(st core.RoundStats) bool {
	done := r.Inner.Satisfied(st)
	fmt.Fprintf(r.Out, "[round %d] frauds %d/%d, legit captured %d, satisfied=%v\n",
		st.Round, st.FraudCaptured, st.FraudTotal, st.LegitCaptured, done)
	return done
}

// SimulatedSeconds implements core.TimeTracker when the inner expert does.
func (r *Recording) SimulatedSeconds() float64 {
	if tt, ok := r.Inner.(core.TimeTracker); ok {
		return tt.SimulatedSeconds()
	}
	return 0
}
