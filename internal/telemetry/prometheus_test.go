package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestPromWriterOutputValidates(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Millisecond)

	var b strings.Builder
	p := NewPromWriter(&b)
	p.Scalar("counter", "seedb_queries_executed_total", "Queries executed.", 42)
	p.Vec("counter", "seedb_fallback_queries_by_reason_total", "Fallbacks by reason.",
		"reason", map[string]float64{"row-store table": 3, `weird "quoted"` + "\nreason": 1})
	p.Scalar("gauge", "seedb_cache_bytes", "Cache occupancy.", 1234.5)
	p.Histogram("seedb_request_duration_seconds", "Request latency.", h.Snapshot())
	out := b.String()

	if err := ValidatePrometheusText([]byte(out)); err != nil {
		t.Fatalf("writer output rejected by validator: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE seedb_request_duration_seconds histogram",
		`seedb_request_duration_seconds_bucket{le="+Inf"} 2`,
		"seedb_request_duration_seconds_count 2",
		"seedb_queries_executed_total 42",
		`reason="row-store table"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	good := `# HELP x_total A counter.
# TYPE x_total counter
x_total 5
# TYPE y gauge
y{a="1",b="two words"} 2.5 1700000000000
# TYPE h histogram
h_bucket{le="0.1"} 1
h_bucket{le="+Inf"} 2
h_sum 0.3
h_count 2
`
	if err := ValidatePrometheusText([]byte(good)); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"bad metric name":    "1bad 5\n",
		"bad value":          "x five\n",
		"duplicate series":   "x 1\nx 2\n",
		"duplicate label":    `x{a="1",a="2"} 3` + "\n",
		"unterminated label": `x{a="1} 3` + "\n",
		"type after sample":  "x 1\n# TYPE x counter\n",
		"unknown type":       "# TYPE x widget\nx 1\n",
		"duplicate TYPE":     "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"missing +Inf":       "# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_sum 1\nh_count 1\n",
		"inf != count":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n",
		"decreasing buckets": "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"bucket without le":  "# TYPE h histogram\nh_bucket 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
	}
	for name, payload := range cases {
		if err := ValidatePrometheusText([]byte(payload)); err == nil {
			t.Errorf("%s: invalid payload accepted:\n%s", name, payload)
		}
	}
}
