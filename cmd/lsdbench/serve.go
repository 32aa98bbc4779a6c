package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/serve"
)

// The serving benchmark (-exp serve) measures the HTTP matching path
// end to end: a matcher trained on the standard Real Estate I scenario
// is round-tripped through the model-artifact wire format into a serve
// registry, and concurrent clients hammer POST /v1/match against an
// in-process server. Each concurrency level records latency
// percentiles and sustained QPS into the BENCH_<n>.json artifact, so
// the serving layer's performance trajectory is tracked alongside the
// train/match micro-benches.

// serveRequests is the total request count per concurrency level —
// enough for stable p99 at the tail without minutes of runtime.
const serveRequests = 240

// serveConcurrency are the client counts each run sweeps. The deep end
// (16, 32) probes queueing behaviour well past the core count: on a
// saturated server added clients should stretch latency linearly, not
// collapse throughput.
var serveConcurrency = []int{1, 4, 8, 16, 32}

// serveBench trains the matcher, publishes it through the artifact
// path, and sweeps the concurrency levels.
func serveBench(workers int) ([]benchRecord, error) {
	med, train, test := microTrainSetup()
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	sys, err := core.Train(med, train, cfg)
	if err != nil {
		return nil, err
	}
	// Go through encode+decode rather than serving the trained system
	// directly: the benchmark should measure what production serves,
	// and the artifact round-trip is bit-preserving by contract.
	data, err := artifact.EncodeSystem("bench", sys)
	if err != nil {
		return nil, err
	}
	d, err := artifact.Decode(data)
	if err != nil {
		return nil, err
	}
	model, err := serve.ModelFromDecoded(d, 1)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry()
	reg.Set(model)
	ts := httptest.NewServer(serve.NewServer(reg, serve.Options{MaxWorkers: workers}).Handler())
	defer ts.Close()

	var xml bytes.Buffer
	for _, l := range test.Listings {
		xml.WriteString(l.String())
	}
	body, err := json.Marshal(serve.MatchRequest{
		Model:           "bench",
		SourceName:      test.Name,
		DTD:             test.Schema.String(),
		XML:             xml.String(),
		Workers:         1,
		OmitPredictions: true,
	})
	if err != nil {
		return nil, err
	}

	var records []benchRecord
	for _, clients := range serveConcurrency {
		rec, err := hammer(ts.URL+"/v1/match", body, clients, serveRequests)
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	return records, nil
}

// hammer fires total match requests from clients concurrent goroutines
// and reduces the per-request latencies into one benchRecord.
// Allocations are measured as the process-wide Mallocs delta across the
// run divided by the request count: the server is in-process, so the
// figure is the whole request path — handler, matcher, and client
// harness — which is exactly the trajectory worth tracking run over
// run.
func hammer(url string, body []byte, clients, total int) (benchRecord, error) {
	per := total / clients
	total = per * clients
	latencies := make([]int64, total)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				t0 := time.Now()
				resp, err := http.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("match returned status %d", resp.StatusCode)
					return
				}
				latencies[c*per+i] = time.Since(t0).Nanoseconds()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	close(errs)
	if err := <-errs; err != nil {
		return benchRecord{}, err
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	return benchRecord{
		Op:          fmt.Sprintf("Serve/c%d", clients),
		NsPerOp:     elapsed.Nanoseconds() / int64(total),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(total),
		BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / uint64(total),
		Workers:     1,
		Clients:     clients,
		P50Ns:       percentile(latencies, 50),
		P95Ns:       percentile(latencies, 95),
		P99Ns:       percentile(latencies, 99),
		QPS:         float64(total) / elapsed.Seconds(),
	}, nil
}

// percentile is the nearest-rank percentile of a sorted latency slice.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)*p/100]
}

// serveExp runs the benchmark and prints the latency table.
func serveExp(workers int) []benchRecord {
	records, err := serveBench(workers)
	if err != nil {
		panic(fmt.Sprintf("serve bench: %v", err))
	}
	fmt.Println("serving benchmark (POST /v1/match, in-process server):")
	fmt.Printf("%-10s %8s %12s %12s %12s %10s %12s\n", "op", "clients", "p50", "p95", "p99", "qps", "allocs/op")
	for _, r := range records {
		fmt.Printf("%-10s %8d %12s %12s %12s %10.1f %12.1f\n", r.Op, r.Clients,
			time.Duration(r.P50Ns).Round(time.Microsecond),
			time.Duration(r.P95Ns).Round(time.Microsecond),
			time.Duration(r.P99Ns).Round(time.Microsecond),
			r.QPS, r.AllocsPerOp)
	}
	fmt.Println()
	return records
}

// serveSmokeTolerance accepts a p99 up to factor×baseline plus an
// absolute slack: request-latency tails are noisier than allocation
// counts, and on a loaded CI machine a few-millisecond wobble on a
// sub-100ms tail must not fail the gate.
const (
	serveSmokeFactor  = 1.25
	serveSmokeSlackNs = 20 * int64(time.Millisecond)
)

// serveSmokeOps names the serving ops the p99 gate compares.
func serveSmokeOps() map[string]bool {
	ops := make(map[string]bool, len(serveConcurrency))
	for _, c := range serveConcurrency {
		ops[fmt.Sprintf("Serve/c%d", c)] = true
	}
	return ops
}

// serveSmoke compares fresh serving records against the latest
// committed BENCH_<n>.json that carries serve ops and reports p99
// regressions beyond tolerance. Concurrency levels absent from the
// baseline (a newly widened sweep) pass by default; a missing baseline
// skips the gate, mirroring benchSmoke.
func serveSmoke(records []benchRecord, dir string) error {
	baseline, path, err := latestBenchArtifact(dir, serveSmokeOps())
	if err != nil {
		return err
	}
	if baseline == nil {
		fmt.Printf("serve-smoke: no serving baseline artifact in %s; skipping gate\n", dir)
		return nil
	}
	base := make(map[string]benchRecord, len(baseline))
	for _, r := range baseline {
		base[r.Op] = r
	}
	ops := serveSmokeOps()
	var regressions []string
	for _, r := range records {
		if !ops[r.Op] {
			continue
		}
		b, ok := base[r.Op]
		if !ok {
			continue
		}
		limit := int64(float64(b.P99Ns)*serveSmokeFactor) + serveSmokeSlackNs
		if r.P99Ns > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: p99 %s exceeds limit %s (baseline %s in %s)",
				r.Op, time.Duration(r.P99Ns).Round(time.Microsecond),
				time.Duration(limit).Round(time.Microsecond),
				time.Duration(b.P99Ns).Round(time.Microsecond), path))
		}
	}
	if len(regressions) > 0 {
		out := "serve-smoke: p99 latency regression beyond tolerance:"
		for _, s := range regressions {
			out += "\n  " + s
		}
		return fmt.Errorf("%s", out)
	}
	fmt.Printf("serve-smoke: p99 within tolerance of %s\n", path)
	return nil
}
