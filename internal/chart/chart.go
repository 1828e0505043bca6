// Package chart renders SeeDB's target-vs-reference bar charts as text.
// The paper's frontend is a web application; Go charting libraries are
// limited, so this repository renders the same side-by-side bar charts in
// the terminal (see the deviations in docs/REPRODUCTION.md). The
// recommendation engine, not the rendering, is the system's contribution.
package chart

import (
	"fmt"
	"strings"
)

// Options controls chart rendering.
type Options struct {
	// BarWidth is the maximum bar length in cells (default 24).
	BarWidth int
	// MaxGroups caps how many groups are drawn; the remainder collapse
	// into a "(+n more)" line (default 12).
	MaxGroups int
	// TargetLabel and ReferenceLabel title the two columns (defaults
	// "target" and "reference").
	TargetLabel, ReferenceLabel string
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.BarWidth <= 0 {
		o.BarWidth = 24
	}
	if o.MaxGroups <= 0 {
		o.MaxGroups = 12
	}
	if o.TargetLabel == "" {
		o.TargetLabel = "target"
	}
	if o.ReferenceLabel == "" {
		o.ReferenceLabel = "reference"
	}
	return o
}

// Render draws a two-sided bar chart: one row per group, with the target
// and reference probability masses side by side. title goes on the first
// line; groups, target and reference must have equal lengths.
func Render(title string, groups []string, target, reference []float64, opts Options) string {
	opts = opts.withDefaults()
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	if len(groups) != len(target) || len(groups) != len(reference) {
		b.WriteString("  (malformed distributions)\n")
		return b.String()
	}
	if len(groups) == 0 {
		b.WriteString("  (no data)\n")
		return b.String()
	}

	shown := len(groups)
	if shown > opts.MaxGroups {
		shown = opts.MaxGroups
	}
	labelW := 0
	for _, g := range groups[:shown] {
		if len(g) > labelW {
			labelW = len(g)
		}
	}
	if labelW > 20 {
		labelW = 20
	}
	maxVal := 0.0
	for i := 0; i < shown; i++ {
		if target[i] > maxVal {
			maxVal = target[i]
		}
		if reference[i] > maxVal {
			maxVal = reference[i]
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}

	header := fmt.Sprintf("  %-*s  %-*s  %-*s", labelW, "",
		opts.BarWidth+6, opts.TargetLabel, opts.BarWidth+6, opts.ReferenceLabel)
	b.WriteString(strings.TrimRight(header, " "))
	b.WriteByte('\n')
	for i := 0; i < shown; i++ {
		g := groups[i]
		if len(g) > labelW {
			g = g[:labelW-1] + "…"
		}
		fmt.Fprintf(&b, "  %-*s  %s %.3f  %s %.3f\n", labelW, g,
			bar(target[i]/maxVal, opts.BarWidth), target[i],
			bar(reference[i]/maxVal, opts.BarWidth), reference[i])
	}
	if shown < len(groups) {
		fmt.Fprintf(&b, "  (+%d more groups)\n", len(groups)-shown)
	}
	return b.String()
}

// bar draws a single horizontal bar of the given fill fraction.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac*float64(width) + 0.5)
	return strings.Repeat("█", full) + strings.Repeat("░", width-full)
}
