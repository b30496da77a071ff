package obs

import (
	"os"
	"strings"
	"testing"
)

// TestExpositionFile strictly parses the Prometheus exposition file named
// by RASQL_PROM_FILE (an absolute path: go test runs in this directory) and
// skips when it is unset. make serve-smoke runs it on the final exposition
// rasqld -metrics-out writes:
//
//	RASQL_PROM_FILE=$PWD/rasqld-metrics.prom go test -run TestExpositionFile ./internal/obs/
func TestExpositionFile(t *testing.T) {
	p := os.Getenv("RASQL_PROM_FILE")
	if p == "" {
		t.Skip("RASQL_PROM_FILE is unset")
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePrometheus(data); err != nil {
		t.Errorf("%s: %v", p, err)
	}
}

func TestParsePrometheusAccepts(t *testing.T) {
	doc := `# HELP up Whether the target is up.
# TYPE up gauge
up 1
# TYPE http_requests_total counter
http_requests_total{code="200",method="get"} 1027 1395066363000
http_requests_total{code="400"} 3
# TYPE rpc_nanos histogram
rpc_nanos_bucket{le="100"} 2
rpc_nanos_bucket{le="1000"} 5
rpc_nanos_bucket{le="+Inf"} 6
rpc_nanos_sum 4200
rpc_nanos_count 6
`
	fams, err := ParsePrometheus([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 3 {
		t.Fatalf("parsed %d families, want 3", len(fams))
	}
	if got := fams["http_requests_total"].Samples[0].Labels["method"]; got != "get" {
		t.Errorf("label method = %q, want get", got)
	}
	if n := len(fams["rpc_nanos"].Samples); n != 5 {
		t.Errorf("histogram family has %d samples, want 5", n)
	}
}

func TestParsePrometheusRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"sample without TYPE", "orphan 1\n", "no preceding # TYPE"},
		{"unknown TYPE", "# TYPE x lightcone\nx 1\n", "unknown TYPE"},
		{"duplicate TYPE", "# TYPE x counter\n# TYPE x counter\nx 1\n", "duplicate TYPE"},
		{"duplicate HELP", "# HELP x a\n# HELP x b\n# TYPE x counter\nx 1\n", "duplicate HELP"},
		{"TYPE after samples", "# TYPE x counter\nx 1\n# TYPE y counter\ny 1\n# TYPE x counter\n", "duplicate TYPE"},
		{"duplicate series", "# TYPE x counter\nx 1\nx 2\n", "duplicate series"},
		{"duplicate labelled series", "# TYPE x counter\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n", "duplicate series"},
		{"bad value", "# TYPE x counter\nx one\n", "bad value"},
		{"no value", "# TYPE x counter\nx\n", "no value"},
		{"unterminated labels", "# TYPE x counter\nx{a=\"1\" 2\n", "unterminated"},
		{"unquoted label value", "# TYPE x counter\nx{a=1} 2\n", "not quoted"},
		{"bad label name", "# TYPE x counter\nx{1a=\"v\"} 2\n", "invalid label name"},
		{"duplicate label", "# TYPE x counter\nx{a=\"1\",a=\"2\"} 2\n", "duplicate label"},
		{"empty family", "# TYPE x counter\n", "no samples"},
		{"histogram missing +Inf", "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 5\nh_count 1\n", "+Inf"},
		{"histogram missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "_sum"},
		{"histogram missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 5\n", "_count"},
		{"histogram bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 5\nh_count 1\n", "without le"},
		{"histogram bounds not increasing",
			"# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 5\nh_count 2\n",
			"not increasing"},
		{"histogram cumulative decreases",
			"# TYPE h histogram\nh_bucket{le=\"10\"} 3\nh_bucket{le=\"20\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 3\n",
			"decrease"},
		{"histogram +Inf disagrees with count",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 4\n",
			"disagrees"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePrometheus([]byte(tc.doc))
			if err == nil {
				t.Fatalf("parse accepted invalid document:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
