package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4): "# HELP" / "# TYPE" headers followed by sample
// lines. It is the whole dependency surface of the /metrics endpoint —
// no client library, just the format. After the first write error it
// writes nothing more.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// header writes the HELP/TYPE preamble for one metric family.
func (p *PromWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Scalar writes one unlabeled counter or gauge (typ names which).
func (p *PromWriter) Scalar(typ, name, help string, value float64) {
	p.header(name, help, typ)
	p.printf("%s %s\n", name, formatFloat(value))
}

// Vec writes one counter or gauge family with a single label, in sorted
// label-value order so scrapes are byte-stable.
func (p *PromWriter) Vec(typ, name, help, label string, values map[string]float64) {
	p.header(name, help, typ)
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.printf("%s{%s=%q} %s\n", name, label, escapeLabel(k), formatFloat(values[k]))
	}
}

// Histogram writes one histogram family from a snapshot, converting the
// microsecond-based bucket bounds to seconds (the Prometheus base unit)
// and closing with the mandatory +Inf bucket, _sum and _count.
func (p *PromWriter) Histogram(name, help string, snap HistogramSnapshot) {
	p.header(name, help, "histogram")
	for _, b := range snap.Buckets {
		p.printf("%s_bucket{le=%q} %d\n", name, formatFloat(b.Bound.Seconds()), b.Cumulative)
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	p.printf("%s_sum %s\n", name, formatFloat(snap.SumMS/1e3))
	p.printf("%s_count %d\n", name, snap.Count)
}

// formatFloat renders a float the exposition format accepts, preferring
// integers' exact form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format. %q above
// already escapes backslash, quote and newline the same way Prometheus
// requires; this pre-pass only strips characters %q would render as Go
// escapes Prometheus does not know.
func escapeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		if r < 0x20 && r != '\n' {
			return ' '
		}
		return r
	}, s)
}

// ValidatePrometheusText is a self-contained syntax checker for the
// text exposition format — the CI scrape step and the server tests run
// every /metrics payload through it, with no external linter dependency.
// It checks line syntax (metric and label names, label-value escaping,
// float-parseable sample values), HELP/TYPE placement (at most one
// each, before the family's samples), duplicate series, and histogram
// shape: cumulative _bucket counts must be non-decreasing in le order,
// the +Inf bucket must exist and equal _count.
func ValidatePrometheusText(data []byte) error {
	type family struct {
		typ       string
		helpSeen  bool
		typeSeen  bool
		samples   int
		bucketCum map[string]float64 // le → cumulative (histograms)
		bucketInf float64
		hasInf    bool
		count     float64
		hasCount  bool
	}
	families := make(map[string]*family)
	fam := func(name string) *family {
		f, ok := families[name]
		if !ok {
			f = &family{}
			families[name] = f
		}
		return f
	}
	seenSeries := make(map[string]bool)

	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			if kind == "" {
				continue // plain comment
			}
			f := fam(name)
			if f.samples > 0 {
				return fmt.Errorf("line %d: # %s %s after samples of %s", lineNo, kind, name, name)
			}
			switch kind {
			case "HELP":
				if f.helpSeen {
					return fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				f.helpSeen = true
			case "TYPE":
				if f.typeSeen {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				f.typeSeen = true
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = rest
				default:
					return fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, rest, name)
				}
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		series := name + "{" + canonicalLabels(labels) + "}"
		if seenSeries[series] {
			return fmt.Errorf("line %d: duplicate series %s", lineNo, series)
		}
		seenSeries[series] = true

		// Histogram child samples account against their base family.
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name {
				if bf, ok := families[trimmed]; ok && (bf.typ == "histogram" || bf.typ == "summary") {
					base = trimmed
				}
				break
			}
		}
		f := fam(base)
		f.samples++
		if f.typ == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: histogram bucket %s lacks le label", lineNo, name)
				}
				if f.bucketCum == nil {
					f.bucketCum = make(map[string]float64)
				}
				f.bucketCum[le] = value
				if le == "+Inf" {
					f.bucketInf, f.hasInf = value, true
				}
			case strings.HasSuffix(name, "_count"):
				f.count, f.hasCount = value, true
			}
		}
	}

	for name, f := range families {
		if f.typ != "histogram" {
			continue
		}
		if f.samples == 0 {
			continue // declared but not exported; legal
		}
		if !f.hasInf {
			return fmt.Errorf("histogram %s: missing +Inf bucket", name)
		}
		if !f.hasCount {
			return fmt.Errorf("histogram %s: missing _count", name)
		}
		if f.bucketInf != f.count {
			return fmt.Errorf("histogram %s: +Inf bucket %v != _count %v", name, f.bucketInf, f.count)
		}
		// Cumulative counts must be non-decreasing in ascending le order.
		type lb struct {
			le  float64
			cum float64
		}
		var bounds []lb
		for le, cum := range f.bucketCum {
			if le == "+Inf" {
				bounds = append(bounds, lb{math.Inf(1), cum})
				continue
			}
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("histogram %s: bad le %q", name, le)
			}
			bounds = append(bounds, lb{v, cum})
		}
		sort.Slice(bounds, func(a, b int) bool { return bounds[a].le < bounds[b].le })
		for i := 1; i < len(bounds); i++ {
			if bounds[i].cum < bounds[i-1].cum {
				return fmt.Errorf("histogram %s: bucket counts decrease at le=%v", name, bounds[i].le)
			}
		}
	}
	return nil
}

// parseComment parses a "# HELP name ..." / "# TYPE name kind" line.
// Plain comments return kind "".
func parseComment(line string) (kind, name, rest string, err error) {
	body := strings.TrimPrefix(line, "#")
	body = strings.TrimLeft(body, " ")
	switch {
	case strings.HasPrefix(body, "HELP "):
		kind, body = "HELP", strings.TrimPrefix(body, "HELP ")
	case strings.HasPrefix(body, "TYPE "):
		kind, body = "TYPE", strings.TrimPrefix(body, "TYPE ")
	default:
		return "", "", "", nil
	}
	fields := strings.SplitN(body, " ", 2)
	name = fields[0]
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q in %s line", name, kind)
	}
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	if kind == "TYPE" && rest == "" {
		return "", "", "", fmt.Errorf("TYPE line for %s lacks a type", name)
	}
	return kind, name, rest, nil
}

// parseSample parses one sample line: name[{labels}] value [timestamp].
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	labels = map[string]string{}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			j := 0
			for j < len(rest) && isLabelChar(rest[j], j == 0) {
				j++
			}
			lname := rest[:j]
			if lname == "" || !strings.HasPrefix(rest[j:], "=\"") {
				return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
			}
			rest = rest[j+2:]
			var val strings.Builder
			closed := false
			for k := 0; k < len(rest); k++ {
				c := rest[k]
				if c == '\\' {
					if k+1 >= len(rest) {
						return "", nil, 0, fmt.Errorf("dangling escape in %q", line)
					}
					k++
					switch rest[k] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("bad escape \\%c in %q", rest[k], line)
					}
					continue
				}
				if c == '"' {
					rest = rest[k+1:]
					closed = true
					break
				}
				if c == '\n' {
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			if _, dup := labels[lname]; dup {
				return "", nil, 0, fmt.Errorf("duplicate label %q in %q", lname, line)
			}
			labels[lname] = val.String()
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("expected value [timestamp] after %q", name)
	}
	value, err = parsePromFloat(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q: %w", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

// parsePromFloat accepts the exposition format's float grammar,
// including +Inf/-Inf/NaN spellings.
func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// canonicalLabels renders a label set sorted, for duplicate detection.
func canonicalLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

// validMetricName checks [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func isLabelChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}
