// Package experiment reproduces the evaluation of Section 5: the round
// driver that advances through a time-split dataset refining rules with each
// method, and one runner per published figure (Figure 3(a)-(f)) plus the
// in-text results (novice study, modification mix, hop-size sweep, proposal
// latency, RUDOLF-s). Runners return Figures — named series ready to print
// as tables or export as CSV.
package experiment

import (
	"fmt"
	"io"
	"strings"
)

// Series is one line of a figure: a named sequence of (x, y) points, with
// an optional per-point standard deviation when the figure was averaged
// over repeated datasets (the paper similarly reports that the variance
// across its 8 experts stayed under 2%).
type Series struct {
	Name string
	X    []float64
	Y    []float64
	// YDev holds the standard deviation of Y across repeats; empty when the
	// figure was not averaged.
	YDev []float64
}

// Figure is a reproduced experiment: an identifier matching the paper
// ("3a", "3b", …), axis labels, and one series per method.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render writes the figure as an aligned text table, x values down the rows
// and one column per series — the rows the paper's plots are drawn from.
func (f Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "(y = %s)\n", f.YLabel)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for i := 0; i < f.rowCount(); i++ {
		row := []string{f.xLabelAt(i)}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.2f", s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
}

// String renders the figure to a string.
func (f Figure) String() string {
	var b strings.Builder
	f.Render(&b)
	return b.String()
}

func (f Figure) rowCount() int {
	n := 0
	for _, s := range f.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	return n
}

func (f Figure) xLabelAt(i int) string {
	for _, s := range f.Series {
		if i < len(s.X) {
			return fmt.Sprintf("%g", s.X[i])
		}
	}
	return "-"
}

// writeAligned prints rows with columns padded to equal width.
func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for c, cell := range row {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for c, cell := range row {
			if c > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[c], cell)
		}
		fmt.Fprintln(w)
	}
}
