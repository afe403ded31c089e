package viz

import (
	"math"
	"strings"
	"testing"
)

func TestHeatmap(t *testing.T) {
	m := [][]float64{{0, 1}, {0.5, 0.5}}
	out := Heatmap(m)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("heatmap has %d lines", len(lines))
	}
	// Min cell renders as the lightest glyph, max as the darkest.
	if !strings.HasPrefix(lines[0], "  ") { // space + separator space
		t.Errorf("min cell not lightest: %q", lines[0])
	}
	if !strings.Contains(lines[0], "@") {
		t.Errorf("max cell not darkest: %q", lines[0])
	}
}

func TestHeatmapDegenerate(t *testing.T) {
	if Heatmap(nil) != "" {
		t.Error("empty heatmap should be empty string")
	}
	out := Heatmap([][]float64{{3, 3}, {3, 3}})
	if strings.Contains(out, "@") {
		t.Error("constant heatmap should render uniformly light")
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"a-very-long-name", "22"},
		{"short"}, // short row: padded
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + rule + 3 rows
		t.Fatalf("table has %d lines: %q", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Error("header missing")
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("rule missing")
	}
	// All rows align: same width.
	if len(lines[2]) > len(lines[3])+3 {
		t.Error("rows not aligned")
	}
}

func TestSparkline(t *testing.T) {
	out := Sparkline([]float64{0, 1, 2, 3})
	runes := []rune(out)
	if len(runes) != 4 {
		t.Fatalf("sparkline length = %d", len(runes))
	}
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline endpoints = %q", out)
	}
	if Sparkline(nil) != "" {
		t.Error("empty sparkline should be empty")
	}
	withNaN := Sparkline([]float64{1, math.NaN(), 2})
	if []rune(withNaN)[1] != ' ' {
		t.Errorf("NaN should render as space: %q", withNaN)
	}
	flat := Sparkline([]float64{5, 5, 5})
	if len([]rune(flat)) != 3 {
		t.Errorf("flat sparkline length wrong: %q", flat)
	}
}

func TestPctAndF(t *testing.T) {
	if Pct(0.9341) != "93.41%" {
		t.Errorf("Pct = %q", Pct(0.9341))
	}
	if Pct(math.NaN()) != "n/a" {
		t.Error("Pct(NaN) should be n/a")
	}
	if F(1.23456) != "1.2346" {
		t.Errorf("F = %q", F(1.23456))
	}
	if F(math.NaN()) != "n/a" {
		t.Error("F(NaN) should be n/a")
	}
}

func TestLabelGrid(t *testing.T) {
	out := LabelGrid(2, 2, map[int]string{0: "dos", 3: "normal"})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("grid has %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "dos") {
		t.Error("label (0,0) missing")
	}
	if !strings.Contains(lines[1], "normal") {
		t.Error("label (1,1) missing")
	}
	if !strings.Contains(lines[0], ".") {
		t.Error("missing cells should render as dots")
	}
}
