package promtext

import (
	"strings"
	"testing"
)

// validExposition exercises every line shape Lint accepts: free-form and
// bare comments, HELP, TYPE, labeled and unlabeled samples, escaped label
// values, special float values, a timestamp and a complete histogram.
const validExposition = `# A free-form comment.
#
# HELP ccsched_requests_total Requests received.
# TYPE ccsched_requests_total counter
ccsched_requests_total{endpoint="solve",note="a \"quoted\" \\ value\n"} 3
ccsched_requests_total{endpoint="sessions"} 1 1700000000000
# TYPE ccsched_queue_depth gauge
ccsched_queue_depth NaN
# TYPE ccsched_solve_latency_seconds histogram
ccsched_solve_latency_seconds_bucket{le="0.5"} 1
ccsched_solve_latency_seconds_bucket{le="+Inf"} 2
ccsched_solve_latency_seconds_sum +Inf
ccsched_solve_latency_seconds_count 2

`

func TestLintAcceptsValidExposition(t *testing.T) {
	if err := Lint([]byte(validExposition)); err != nil {
		t.Fatal(err)
	}
}

// TestLintRejects feeds one malformed exposition per rule and checks Lint
// refuses each with the expected reason.
func TestLintRejects(t *testing.T) {
	const counter = "# TYPE c counter\n"
	for _, tc := range []struct{ name, data, want string }{
		{"empty", "", "empty exposition"},
		{"no trailing newline", counter + "c 1", "end with a newline"},
		{"malformed HELP", "# HELP 0bad text\n", "malformed HELP"},
		{"malformed TYPE", "# TYPE c\n", "malformed TYPE"},
		{"bad TYPE name", "# TYPE 0c counter\n", "invalid metric name"},
		{"unknown type", "# TYPE c meter\n", "unknown metric type"},
		{"duplicate TYPE", counter + "c 1\n" + counter, "duplicate TYPE"},
		{"TYPE without samples", counter, "no samples"},
		{"sample before TYPE", "c 1\n", "no preceding TYPE"},
		{"sample without value", counter + "c\n", "without value"},
		{"bad sample name", counter + "c-x 1\n", "invalid metric name"},
		{"bad value", counter + "c one\n", "bad value"},
		{"too many fields", counter + "c{} 1 2 3\n", "optional timestamp"},
		{"unterminated labels", counter + "c} 1 {\n", "unterminated label set"},
		{"label without =", counter + "c{a} 1\n", "without '='"},
		{"bad label name", counter + "c{0a=\"x\"} 1\n", "invalid label name"},
		{"unquoted label", counter + "c{a=x} 1\n", "unquoted value"},
		{"bad escape", counter + "c{a=\"\\t\"} 1\n", "bad escape"},
		{"unterminated value", counter + "c{a=\"x} 1\n", "unterminated quoted value"},
		{"missing comma", counter + "c{a=\"x\"b=\"y\"} 1\n", "expected ','"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\n", "missing le"},
		{"non-numeric le", "# TYPE h histogram\nh_bucket{le=\"x\"} 1\n", "non-numeric le"},
		{"no +Inf bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "missing +Inf"},
		{"no _sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "missing _sum"},
		{"no _count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n", "missing _count"},
	} {
		err := Lint([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Lint = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
