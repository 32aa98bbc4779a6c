package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// tinyOptions sizes a run to take seconds, not minutes: four-listing
// samples, one set-up, one timed request and one traced request.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  0.01,
		trace:    trace,
		spans:    filepath.Join(t.TempDir(), "spans.json"),
		listings: 4,
		setups:   1,
		traced:   1,
	}
}

// tinyRun runs the benchmark and decodes its last output line.
func tinyRun(t *testing.T, opts options) (string, result) {
	t.Helper()
	var out bytes.Buffer
	if err := runOptions(context.Background(), opts, &out); err != nil {
		t.Fatalf("%s: %v\n%s", opts.workload, err, out.String())
	}
	text := strings.TrimSpace(out.String())
	var res result
	if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", opts.workload, err, text)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: result %+v, want correct with no failures\n%s", opts.workload, res, text)
	}
	return text, res
}

// TestTinyRunsReportEveryMetric runs every workload in BENCHMARK.json
// with tracing and checks that the human-readable report names each
// end-to-end metric with its unit and the result line carries each
// per-layer metric with its unit.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		text, res := tinyRun(t, tinyOptions(t, wl.Name, true))
		for _, m := range bf.EndToEnd {
			line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+-?[0-9.]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
			if !line.MatchString(text) {
				t.Errorf("%s: no line reports %s in %s\n%s", wl.Name, m.Name, m.Unit, text)
			}
		}
		checkMetrics(t, wl.Name, res, bf.PerLayer)
	}
}

// TestUntracedRunReportsEndToEnd checks that without tracing the result
// line carries exactly the end-to-end metrics.
func TestUntracedRunReportsEndToEnd(t *testing.T) {
	bf := readBenchmarkFile(t)
	_, res := tinyRun(t, tinyOptions(t, "warm", false))
	checkMetrics(t, "warm", res, bf.EndToEnd)
}

func checkMetrics(t *testing.T, workload string, res result, want []declaredMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: result has %d metrics, BENCHMARK.json declares %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: result lacks %s", workload, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: %s in %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestCheckerCountsWrongMapping proves the checker is not vacuous: a
// reply whose mapping differs from the expected one, a non-200 status
// and an undecodable body each count as a failure.
func TestCheckerCountsWrongMapping(t *testing.T) {
	ctx := context.Background()
	w, err := workloadByName("warm")
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(w, 7, 4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	defer in.release()
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	buf, err := mapArena(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.free()
	dep, replies, err := deploy(ctx, cfg, in, 1, buf)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.stop()
	chk := newChecker(dep.artifact, in)
	if checks, err := chk.check(ctx, replies); err != nil || !checks[0].ok {
		t.Fatalf("served reply failed its check: %v", err)
	}

	s := in.sampleOf(replies[0].seq)
	right := chk.want[s]
	wrong := make(map[string]string, len(right))
	for tag, label := range right {
		wrong[tag] = label
	}
	wrong[in.truth.Schema.Root()] += "-wrong"
	chk.want[s] = wrong
	checks, err := chk.check(ctx, replies)
	if err == nil || checks[0].ok || !strings.Contains(checks[0].why, "mapping") {
		t.Errorf("a wrong expected mapping passed: %+v, %v", checks[0], err)
	}

	for _, bad := range []reply{
		{status: http.StatusInternalServerError, body: []byte(`{"error":"boom"}`)},
		{status: http.StatusOK, body: []byte(`{"mapping":`)},
	} {
		if c := checkReply(bad, right, in.truth); c.ok {
			t.Errorf("reply %d %q passed its check", bad.status, bad.body)
		}
	}
}

func TestTailIndex(t *testing.T) {
	for _, tc := range []struct{ n, idx, extreme int }{
		{1, 0, 0}, {21, 10, 10}, {22, 11, 11}, {100, 89, 89},
		{220, 208, 209}, {1000, 949, 989}, {3000, 2849, 2989},
	} {
		idx, pct := tailIndex(tc.n)
		if idx != tc.idx {
			t.Errorf("tailIndex(%d) = %d, want %d", tc.n, idx, tc.idx)
		}
		if beyond := tc.n - 1 - idx; tc.n >= 22 && beyond < 10 {
			t.Errorf("tailIndex(%d) leaves %d samples beyond it, want at least 10", tc.n, beyond)
		}
		if pct <= 0 || pct > 100 || (tc.n >= 200 && pct > 95) {
			t.Errorf("tailIndex(%d) percentile %v", tc.n, pct)
		}
		if got, _ := extremeTailIndex(tc.n); got != tc.extreme {
			t.Errorf("extremeTailIndex(%d) = %d, want %d", tc.n, got, tc.extreme)
		}
	}
}

func TestParseFlagsRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "warm", "--trace", "2"},
		{"--workload", "warm", "--seconds", "0"},
		{"--workload", "warm", "extra"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	if err := run(context.Background(), []string{"--workload", "none"}, &bytes.Buffer{}); err == nil {
		t.Error("an unknown workload ran")
	}
}
