// Package metrics implements the prediction-quality measurements of
// Section 5: given predicted fraud flags and ground truth over a window of
// future transactions, it computes the confusion counts, the per-class
// percentages the paper reports ("the percentage out of all fraudulent
// (resp. legitimate) transactions that it identifies (resp. wrongly
// classifies as fraudulent)"), and the balanced misclassification percentage
// used as the single error number in the figures.
package metrics

import "repro/internal/bitset"

// Confusion holds the four confusion-matrix counts over a set of
// transactions (classes: fraud vs legitimate ground truth).
type Confusion struct {
	TP int // fraud predicted fraud
	FP int // legitimate predicted fraud
	FN int // fraud predicted legitimate
	TN int // legitimate predicted legitimate
}

// Evaluate compares predicted fraud flags to ground truth over tuples
// [lo, hi) of a relation, where predicted holds indices relative to the same
// relation the truth slice describes.
func Evaluate(predicted *bitset.Set, trueFraud []bool, lo, hi int) Confusion {
	var c Confusion
	if hi > len(trueFraud) {
		hi = len(trueFraud)
	}
	for i := lo; i < hi; i++ {
		p := predicted.Has(i)
		switch {
		case trueFraud[i] && p:
			c.TP++
		case trueFraud[i] && !p:
			c.FN++
		case !trueFraud[i] && p:
			c.FP++
		default:
			c.TN++
		}
	}
	return c
}

// MissedFraudPct is the percentage of fraudulent transactions the rules
// fail to identify (100 − recall).
func (c Confusion) MissedFraudPct() float64 {
	f := c.TP + c.FN
	if f == 0 {
		return 0
	}
	return 100 * float64(c.FN) / float64(f)
}

// FalseAlarmPct is the percentage of legitimate transactions wrongly
// classified as fraudulent.
func (c Confusion) FalseAlarmPct() float64 {
	l := c.FP + c.TN
	if l == 0 {
		return 0
	}
	return 100 * float64(c.FP) / float64(l)
}

// BalancedErrorPct is the mean of the two per-class error percentages — the
// single "percentage of misclassified transactions" number plotted in the
// figures. Balancing keeps the 0.5-2.5% fraud base rate from drowning the
// missed-fraud signal in the legitimate majority.
func (c Confusion) BalancedErrorPct() float64 {
	return (c.MissedFraudPct() + c.FalseAlarmPct()) / 2
}
