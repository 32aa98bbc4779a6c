package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// phase is the untraced timed phase's outcome.
type phase struct {
	replies  []reply
	elapsed  time.Duration
	cpu      time.Duration
	counters counterDelta
	// next is the sequence position after the last timed request.
	next int
}

// timedPhase drives the closed loop for seconds: one client sends the
// workload's sequence from the first request after the warm-up, each
// request after the previous reply was read. A fresh-sample workload
// also stops when its generated pool runs out, keeping the requests the
// traced run needs.
func timedPhase(ctx context.Context, c *client, in *inputs, w *workload, seconds float64) phase {
	limit := time.Duration(seconds * float64(time.Second))
	last := len(in.bodies) - w.traced
	ph := phase{replies: make([]reply, 0, 1024)}
	seq := w.warmups
	runtime.GC()
	before, cpu0 := readCounters(), processCPU()
	start := time.Now()
	for in.ring > 0 || seq < last {
		ph.replies = append(ph.replies, c.post(ctx, seq, in.bodies[in.sampleOf(seq)]))
		seq++
		if time.Since(start) >= limit {
			break
		}
	}
	ph.elapsed = time.Since(start)
	ph.cpu = processCPU() - cpu0
	ph.counters = readCounters().sub(before)
	ph.next = seq
	return ph
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters is a snapshot of the runtime/metrics the benchmark reads.
type counters struct {
	allocs, allocBytes, gcCycles, liveBytes uint64
	gcCPU, userCPU                          float64
}

var counterNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

func readCounters() counters {
	samples := make([]metrics.Sample, len(counterNames))
	for i, name := range counterNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return samples[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if samples[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return samples[i].Value.Float64()
	}
	return counters{
		allocs: u(0), allocBytes: u(1), gcCycles: u(2), liveBytes: u(3),
		gcCPU: f(4), userCPU: f(5),
	}
}

// counterDelta is the change of the runtime counters over a phase.
type counterDelta struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, userCPU               float64
}

func (c counters) sub(before counters) counterDelta {
	return counterDelta{
		allocs:     c.allocs - before.allocs,
		allocBytes: c.allocBytes - before.allocBytes,
		gcCycles:   c.gcCycles - before.gcCycles,
		gcCPU:      c.gcCPU - before.gcCPU,
		userCPU:    c.userCPU - before.userCPU,
	}
}

// addTo reports the Go runtime layer, per completed match.
func (d counterDelta) addTo(r *report, matches float64) {
	r.add("runtime.allocs_per_match", float64(d.allocs)/matches, "count")
	r.add("runtime.alloc_kb_per_match", float64(d.allocBytes)/1024/matches, "KB")
	r.add("runtime.gc_cycles_per_match", float64(d.gcCycles)/matches, "count")
	share := 0.0
	if total := d.gcCPU + d.userCPU; total > 0 {
		share = d.gcCPU / total
	}
	r.add("runtime.gc_cpu_share", share, "ratio")
}

// machineStamp names the machine a result was measured on.
func machineStamp(seed int64) string {
	return fmt.Sprintf("gomaxprocs=%d num_cpu=%d cpu=%q go=%s goos/goarch=%s/%s seed=%d",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH, seed)
}

// cpuModel reads the CPU model from /proc/cpuinfo when present.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// describeInputs summarizes what every request of the run looks like
// and, from the repeat shares of the sequence so far, how much of each
// timed request the run had already sent.
func describeInputs(in *inputs, shares []float64, replies []reply) string {
	kb, share := 0.0, 0.0
	for _, r := range replies {
		kb += float64(len(in.bodies[in.sampleOf(r.seq)])) / 1024
		share += shares[r.seq]
	}
	n := float64(len(replies))
	return fmt.Sprintf("dtd.source_tags=%d listings=%d serve.request_kb=%.1f core.repeat_share=%.3f (timed requests)",
		in.tags, in.listings, kb/n, share/n)
}
