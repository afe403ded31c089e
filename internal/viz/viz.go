// Package viz renders the textual figures of the reproduction: ASCII
// heatmaps of U-matrices and component planes, aligned tables for the
// experiment reports, and sparklines for convergence series.
// Everything prints to plain text so results live in terminals, logs, and
// EXPERIMENTS.md alike.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// shades orders the heatmap glyphs from low to high intensity.
var shades = []rune(" .:-=+*#%@")

// Heatmap renders a matrix as an ASCII intensity grid, one glyph per
// cell, normalized to the matrix's own min/max. Rows render top to
// bottom. An empty matrix renders as "".
func Heatmap(m [][]float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range m {
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if math.IsInf(lo, 1) {
		return ""
	}
	span := hi - lo
	var b strings.Builder
	for _, row := range m {
		for _, v := range row {
			idx := 0
			if span > 0 {
				idx = int((v - lo) / span * float64(len(shades)-1))
			}
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteRune(shades[idx])
			b.WriteRune(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table renders rows as an aligned text table with a header rule. Cells
// are left-aligned; short rows are padded with empty cells.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
			if i < len(widths)-1 {
				b.WriteString("  ")
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// sparkGlyphs orders the sparkline glyphs from low to high.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a numeric series as a one-line unicode sparkline,
// normalized to its own range. Non-finite values render as spaces.
func Sparkline(values []float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return ""
	}
	span := hi - lo
	var b strings.Builder
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.WriteRune(' ')
			continue
		}
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(sparkGlyphs)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkGlyphs) {
			idx = len(sparkGlyphs) - 1
		}
		b.WriteRune(sparkGlyphs[idx])
	}
	return b.String()
}

// Pct formats a fraction as a fixed-width percentage ("93.41%"); NaN
// renders as "n/a".
func Pct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", v*100)
}

// F formats a float with 4 significant decimals; NaN renders as "n/a".
func F(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", v)
}

// LabelGrid renders a rows x cols grid of short cell labels (e.g. the
// majority class of each SOM unit), padded to equal width. Missing cells
// render as dots.
func LabelGrid(rows, cols int, labels map[int]string) string {
	width := 1
	for _, l := range labels {
		if len(l) > width {
			width = len(l)
		}
	}
	var b strings.Builder
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			l, ok := labels[r*cols+c]
			if !ok {
				l = "."
			}
			fmt.Fprintf(&b, "%-*s ", width, l)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
