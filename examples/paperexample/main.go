// Paperexample replays the running example of the paper end to end: the
// Figure 1 rules and type ontology, the Figure 2 transactions, the
// Example 4.4 generalizations (including Elena's roundings) and the
// Example 4.7 specializations (including her choice of the type split),
// printing every step.
//
//	go run ./examples/paperexample
package main

import (
	"fmt"

	rudolf "repro"
	"repro/internal/paperdata"
)

func main() {
	s := paperdata.Schema()
	rel := paperdata.Transactions(s)
	ruleSet := paperdata.ExistingRules(s)

	fmt.Println("== Figure 1: existing rules ==")
	fmt.Print(ruleSet.Format(s))
	fmt.Println("\n== Figure 2: today's transactions ==")
	for i := 0; i < rel.Len(); i++ {
		fmt.Printf("  %2d. %s\n", i+1, rel.FormatTuple(i))
	}

	// Elena's decisions for the generalization phase of Example 4.4: accept
	// rule 1's proposal but round the amount down to $100; accept rule 2's
	// but widen the window to 19:15; accept rule 3's (location generalizes
	// to "Gas Station") as proposed.
	elena := &scriptedElena{
		gen: []rudolf.GenDecision{
			{Accept: true, Edited: rudolf.MustParseRule(s, "time in [18:00,18:05] && amount >= $100")},
			{Accept: true, Edited: rudolf.MustParseRule(s, "time in [18:55,19:15] && amount >= $110")},
			{Accept: true},
		},
		split: []rudolf.SplitDecision{
			{Accept: false},                // Example 4.7: not the time split
			{Accept: false},                // nor the amount split
			{Accept: true, Keep: []int{1}}, // the type split; keep "Online, no CCV"
		},
	}

	sess := rudolf.NewSession(ruleSet, elena, rudolf.Options{})

	fmt.Println("\n== Algorithm 1: generalize to capture the frauds (Example 4.4) ==")
	sess.Generalize(rel)
	fmt.Print(sess.Rules().Format(s))
	st := sess.Stats(rel)
	fmt.Printf("captured frauds: %d/%d\n", st.FraudCaptured, st.FraudTotal)

	fmt.Println("\n== The customers verify l1, l2, l3 as legitimate ==")
	paperdata.LegitimateFollowUp(rel)

	fmt.Println("\n== Algorithm 2: specialize to exclude them (Example 4.7) ==")
	sess.Specialize(rel)
	fmt.Print(sess.Rules().Format(s))
	st = sess.Stats(rel)
	fmt.Printf("captured frauds: %d/%d, captured legitimate: %d\n",
		st.FraudCaptured, st.FraudTotal, st.LegitCaptured)

	fmt.Println("\n== Modification log ==")
	fmt.Print(sess.Log())
}

// scriptedElena replays the fixed decisions of the paper's examples and
// narrates each proposal.
type scriptedElena struct {
	gen   []rudolf.GenDecision
	split []rudolf.SplitDecision
}

func (e *scriptedElena) ReviewGeneralization(p *rudolf.GenProposal) rudolf.GenDecision {
	fmt.Printf("  RUDOLF proposes (score %.0f): %s\n", p.Score, p.Proposed.Format(p.Schema))
	if len(e.gen) == 0 {
		fmt.Println("  Elena accepts.")
		return rudolf.GenDecision{Accept: true}
	}
	d := e.gen[0]
	e.gen = e.gen[1:]
	if d.Edited != nil {
		fmt.Printf("  Elena rounds it to:        %s\n", d.Edited.Format(p.Schema))
	} else {
		fmt.Println("  Elena accepts.")
	}
	return d
}

func (e *scriptedElena) ReviewSplit(p *rudolf.SplitProposal) rudolf.SplitDecision {
	fmt.Printf("  RUDOLF proposes splitting %q on %s:\n",
		p.Original.Format(p.Schema), p.Schema.Attr(p.Attr).Name)
	for i, r := range p.Replacements {
		fmt.Printf("    r%d) %s\n", i+1, r.Format(p.Schema))
	}
	if len(e.split) == 0 {
		fmt.Println("  Elena accepts.")
		return rudolf.SplitDecision{Accept: true}
	}
	d := e.split[0]
	e.split = e.split[1:]
	switch {
	case !d.Accept:
		fmt.Println("  Elena asks for an alternative.")
	case d.Keep != nil:
		fmt.Printf("  Elena accepts, keeping only r%d.\n", d.Keep[0]+1)
	default:
		fmt.Println("  Elena accepts.")
	}
	return d
}

func (e *scriptedElena) Satisfied(st rudolf.RoundStats) bool { return st.Perfect() }
