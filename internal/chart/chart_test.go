package chart

import (
	"strings"
	"testing"
)

func TestRenderBasic(t *testing.T) {
	out := Render("AVG(capital_gain) BY sex",
		[]string{"Female", "Male"},
		[]float64{0.52, 0.48},
		[]float64{0.31, 0.69},
		Options{})
	if !strings.Contains(out, "AVG(capital_gain) BY sex") {
		t.Error("title missing")
	}
	for _, want := range []string{"Female", "Male", "0.520", "0.690", "target", "reference"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + header + 2 groups
		t.Errorf("got %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestRenderBarProportions(t *testing.T) {
	out := Render("t", []string{"big", "sml"}, []float64{1.0, 0.25}, []float64{0, 0}, Options{BarWidth: 8})
	lines := strings.Split(out, "\n")
	bigBar := strings.Count(lines[2], "█")
	smallBar := strings.Count(lines[3], "█")
	if bigBar != 8 {
		t.Errorf("max bar = %d cells, want 8", bigBar)
	}
	if smallBar != 2 {
		t.Errorf("quarter bar = %d cells, want 2", smallBar)
	}
}

func TestRenderGroupCap(t *testing.T) {
	groups := make([]string, 30)
	dist := make([]float64, 30)
	for i := range groups {
		groups[i] = "g"
		dist[i] = 1.0 / 30
	}
	out := Render("t", groups, dist, dist, Options{MaxGroups: 5})
	if !strings.Contains(out, "(+25 more groups)") {
		t.Errorf("overflow note missing:\n%s", out)
	}
}

func TestRenderDegenerateInputs(t *testing.T) {
	if out := Render("t", nil, nil, nil, Options{}); !strings.Contains(out, "no data") {
		t.Error("empty chart should say so")
	}
	if out := Render("t", []string{"a"}, []float64{1, 2}, []float64{1}, Options{}); !strings.Contains(out, "malformed") {
		t.Error("mismatched lengths should be flagged")
	}
	// All-zero distributions must not divide by zero.
	out := Render("t", []string{"a"}, []float64{0}, []float64{0}, Options{})
	if !strings.Contains(out, "0.000") {
		t.Errorf("zero distribution render wrong:\n%s", out)
	}
}

func TestRenderLongLabelsTruncated(t *testing.T) {
	long := strings.Repeat("x", 50)
	out := Render("t", []string{long}, []float64{1}, []float64{1}, Options{})
	if strings.Contains(out, long) {
		t.Error("long labels should be truncated")
	}
	if !strings.Contains(out, "…") {
		t.Error("truncation marker missing")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1})
	if len([]rune(s)) != 3 {
		t.Errorf("sparkline length = %d runes", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] >= runes[2] {
		t.Error("sparkline should rise with values")
	}
	if Sparkline(nil) != "" {
		t.Error("empty sparkline should be empty")
	}
	if len([]rune(Sparkline([]float64{0, 0}))) != 2 {
		t.Error("all-zero sparkline should still render")
	}
}

func TestBarClamping(t *testing.T) {
	if got := bar(-1, 4); got != "░░░░" {
		t.Errorf("negative frac bar = %q", got)
	}
	if got := bar(2, 4); got != "████" {
		t.Errorf("overflow frac bar = %q", got)
	}
}
