package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// benchRecord is one experiment measurement in a BENCH_<n>.json
// artifact: which experiment ran, how long the run took, how much it
// allocated, and the worker count it fanned out on. CI uploads these
// so the repo's performance trajectory is recorded run over run.
type benchRecord struct {
	Op          string  `json:"op"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op,omitempty"`
	Workers     int     `json:"workers"`

	// Serving-benchmark fields (-exp serve): request-latency
	// percentiles and sustained throughput over concurrent clients.
	Clients int     `json:"clients,omitempty"`
	P50Ns   int64   `json:"p50_ns,omitempty"`
	P95Ns   int64   `json:"p95_ns,omitempty"`
	P99Ns   int64   `json:"p99_ns,omitempty"`
	QPS     float64 `json:"qps,omitempty"`
}

var benchSeqRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// nextBenchPath returns the path of the first unused BENCH_<n>.json in
// dir, numbering from one past the highest existing artifact so the
// sequence records history instead of overwriting it.
func nextBenchPath(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	next := 1
	for _, e := range entries {
		m := benchSeqRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, err := strconv.Atoi(m[1]); err == nil && n >= next {
			next = n + 1
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next)), nil
}

// latestBenchArtifact loads the highest-numbered BENCH_<n>.json in dir
// that records at least one of the given ops (nil ops accepts any
// artifact). The filter matters because the sequence mixes experiment
// kinds — a serve-latency artifact must not silently satisfy the
// allocs/op smoke gate, which compares predict micro-benches. A
// missing directory or no matching artifact returns (nil, "", nil):
// the caller decides whether an absent baseline is an error.
func latestBenchArtifact(dir string, ops map[string]bool) ([]benchRecord, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", err
	}
	var seqs []int
	for _, e := range entries {
		m := benchSeqRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, err := strconv.Atoi(m[1]); err == nil {
			seqs = append(seqs, n)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	for _, n := range seqs {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, "", err
		}
		var records []benchRecord
		if err := json.Unmarshal(data, &records); err != nil {
			return nil, "", fmt.Errorf("%s: %w", path, err)
		}
		if ops == nil {
			return records, path, nil
		}
		for _, r := range records {
			if ops[r.Op] {
				return records, path, nil
			}
		}
	}
	return nil, "", nil
}

// writeBenchArtifact writes records to the next BENCH_<n>.json in dir
// (created if missing) and returns the path written.
func writeBenchArtifact(dir string, records []benchRecord) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path, err := nextBenchPath(dir)
	if err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(records, "", "\t")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
