package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestNextBenchPathSequences(t *testing.T) {
	dir := t.TempDir()
	path, err := nextBenchPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_1.json" {
		t.Errorf("empty dir: next = %s, want BENCH_1.json", filepath.Base(path))
	}
	// Numbering continues past the highest artifact, gaps included,
	// so earlier runs are never overwritten.
	for _, name := range []string{"BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("[]\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path, err = nextBenchPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_4.json" {
		t.Errorf("next = %s, want BENCH_4.json", filepath.Base(path))
	}
}

func TestWriteBenchArtifactRoundTrips(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts") // exercises MkdirAll
	records := []benchRecord{
		{Op: "fig8a", NsPerOp: 12345678, AllocsPerOp: 4242, Workers: 8},
		{Op: "feedback", NsPerOp: 987, AllocsPerOp: 1, Workers: 1},
	}
	path, err := writeBenchArtifact(dir, records)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_1.json" {
		t.Errorf("wrote %s, want BENCH_1.json", filepath.Base(path))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []benchRecord
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("artifact is not JSON: %v\n%s", err, data)
	}
	if len(got) != 2 || got[0] != records[0] || got[1] != records[1] {
		t.Errorf("round trip = %+v, want %+v", got, records)
	}
	// The JSON field names are the recorded schema: op, ns_per_op,
	// allocs_per_op, workers.
	var raw []map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"op", "ns_per_op", "allocs_per_op", "workers"} {
		if _, ok := raw[0][key]; !ok {
			t.Errorf("artifact record missing %q field:\n%s", key, data)
		}
	}
	// A second run appends the next file in the sequence.
	path2, err := writeBenchArtifact(dir, records[:1])
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path2) != "BENCH_2.json" {
		t.Errorf("second write = %s, want BENCH_2.json", filepath.Base(path2))
	}
}

// TestLatestBenchArtifactFiltersOps pins the baseline-selection rule:
// the smoke gate must skip newer artifacts that record other
// experiment kinds (e.g. serve latencies) and land on the newest one
// containing the gated ops.
func TestLatestBenchArtifactFiltersOps(t *testing.T) {
	dir := t.TempDir()
	write := func(records []benchRecord) string {
		t.Helper()
		path, err := writeBenchArtifact(dir, records)
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	microPath := write([]benchRecord{{Op: "NaiveBayesPredict", AllocsPerOp: 8}})
	servePath := write([]benchRecord{{Op: "Serve/c1", QPS: 20}})

	records, path, err := latestBenchArtifact(dir, smokeOps)
	if err != nil {
		t.Fatal(err)
	}
	if path != microPath || len(records) != 1 || records[0].Op != "NaiveBayesPredict" {
		t.Errorf("filtered lookup = %s (%d records), want %s", path, len(records), microPath)
	}

	// Unfiltered lookup still returns the newest artifact outright.
	if _, path, err := latestBenchArtifact(dir, nil); err != nil || path != servePath {
		t.Errorf("unfiltered lookup = %s, %v; want %s", path, err, servePath)
	}

	// No artifact with the ops at all: absent baseline, not an error.
	if records, path, err := latestBenchArtifact(dir, map[string]bool{"Nope": true}); err != nil || records != nil || path != "" {
		t.Errorf("no-match lookup = %v, %s, %v; want nil baseline", records, path, err)
	}
}

// TestBenchSmokeFractionalAllocs gates fractional allocs/op readings
// against a baseline that records an integer, as the committed
// artifacts do, and requires every committed artifact to parse.
func TestBenchSmokeFractionalAllocs(t *testing.T) {
	dir := t.TempDir()
	base := `[{"op": "NaiveBayesPredict", "ns_per_op": 2139, "allocs_per_op": 5, "workers": 1}]`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_1.json"), []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	// The limit is 5 × 1.25 + 16 = 22.25 allocations.
	for _, tc := range []struct {
		allocs float64
		pass   bool
	}{{5.8, true}, {22.25, true}, {22.26, false}} {
		err := benchSmoke([]benchRecord{{Op: "NaiveBayesPredict", AllocsPerOp: tc.allocs}}, dir)
		if (err == nil) != tc.pass {
			t.Errorf("allocs/op %g against baseline 5: gate error %v, want pass %v", tc.allocs, err, tc.pass)
		}
	}

	committed, err := filepath.Glob(filepath.Join("..", "..", "bench", "BENCH_*.json"))
	if err != nil || len(committed) == 0 {
		t.Fatalf("no committed artifacts found: %v", err)
	}
	for _, path := range committed {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var records []benchRecord
		if err := json.Unmarshal(data, &records); err != nil {
			t.Errorf("%s does not parse: %v", path, err)
		}
	}
}
