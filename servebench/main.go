// Command servebench is the repository's serving benchmark. One run
// trains an LSD matcher, round-trips it through the artifact format
// into a serve.Registry, serves it in-process behind a loopback
// listener, drives one workload from a closed-loop client that replays
// a request sequence generated from --seed, checks every reply, and
// prints each end-to-end metric by name with its unit. With --trace 1
// it then replays requests through each layer's public functions and
// prints the per-layer metrics instead, writing its spans to --spans.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash servebench/run.sh --workload warm --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// describes the workloads, the metrics and which layer moves which.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// options configure one run. The flags set the first five; the rest
// size the run and are changed only by tests, which need runs of
// seconds.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	// listings overrides the workload's listing count when > 0.
	listings int
	// setups is how many times the run sets up; setup_s is the median.
	setups int
	// traced overrides the workload's traced-request count when > 0.
	traced int
}

// replyArenaBytes is the address space reserved for reply bodies: a
// mapping-only reply is about a kilobyte, so this holds some 60 000.
// Pages are committed only as replies arrive; a reply that no longer
// fits is read onto the heap.
const replyArenaBytes = 64 << 20

// defaultSetups is the number of set-ups per run; their median is
// setup_s, which a single fresh-process set-up measures too noisily.
const defaultSetups = 5

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: warm or wide")
	seed := fs.Int64("seed", 1, "workload seed: the request samples derive from it")
	seconds := fs.Float64("seconds", 35, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/servebench/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("--seconds must be positive")
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		spans:    *spans,
		setups:   defaultSetups,
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "servebench", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	}
	return o, nil
}

func run(ctx context.Context, args []string, out io.Writer) error {
	opts, err := parseFlags(args)
	if err != nil {
		return err
	}
	return runOptions(ctx, opts, out)
}

// runOptions runs the benchmark and ends the output with the result's
// JSON line.
func runOptions(ctx context.Context, opts options, out io.Writer) error {
	res, err := bench(ctx, opts, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
}

func (r *report) add(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) print(out io.Writer) {
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// bench runs one workload: inputs, set-ups, the timed phase, the
// checks and, with opts.trace, the traced replay.
func bench(ctx context.Context, opts options, out io.Writer) (*result, error) {
	w, err := workloadByName(opts.workload)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "servebench: workload %s (%s)\n", w.name, w.why)
	fmt.Fprintf(out, "stamp: %s\n", machineStamp(opts.seed))

	listings := w.listings
	if opts.listings > 0 {
		listings = opts.listings
	}
	in, err := buildInputs(w, opts.seed, listings, opts.seconds)
	if err != nil {
		return nil, err
	}
	defer in.release()
	replies, err := mapArena(replyArenaBytes)
	if err != nil {
		return nil, fmt.Errorf("reply buffer: %w", err)
	}
	defer replies.free()
	baseline := liveHeap()

	cfg := core.DefaultConfig()
	cfg.Workers = 1
	var (
		dep     *deployment
		chk     *checker
		timings []setupTiming
	)
	for i := 0; i < opts.setups; i++ {
		if dep != nil {
			if err := dep.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up %d: %w", i, err)
			}
		}
		var warm []reply
		dep, warm, err = deploy(ctx, cfg, in, w.warmups, replies)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		timings = append(timings, dep.timing)
		if chk == nil {
			chk = newChecker(dep.artifact, in)
		} else if string(dep.artifact) != string(chk.artifact) {
			return nil, fmt.Errorf("set-up %d trained a different artifact from set-up 1", i+1)
		}
		if _, err := chk.check(ctx, warm); err != nil {
			return nil, fmt.Errorf("set-up %d warm-up: %w", i+1, err)
		}
	}
	defer dep.stop()

	ph := timedPhase(ctx, dep.client, in, w, opts.seconds)
	heapMB := float64(int64(liveHeap())-int64(baseline)) / (1 << 20)

	checks, _ := chk.check(ctx, ph.replies)
	var lat []time.Duration
	// Accuracy weighs each distinct sample once, so a ring workload's
	// figure does not depend on where the timed phase stopped.
	var accuracies []float64
	scored := make(map[int]bool)
	res := &result{Attempted: len(ph.replies)}
	for i, c := range checks {
		r := ph.replies[i]
		if !c.ok {
			res.Failed++
			if res.Failed <= 3 {
				fmt.Fprintf(out, "FAILED request %d: %s\n", r.seq, c.why)
			}
			continue
		}
		lat = append(lat, r.latency)
		if s := in.sampleOf(r.seq); !scored[s] {
			scored[s] = true
			accuracies = append(accuracies, c.accuracy)
		}
	}
	res.Correct = res.Failed == 0
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request of %d succeeded", len(ph.replies))
	}
	ok := float64(len(lat))
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	tailIdx, tailPct := tailIndex(len(lat))
	extremeIdx, extremePct := extremeTailIndex(len(lat))

	traced := 0
	if opts.trace {
		traced = w.traced
		if opts.traced > 0 && opts.traced < traced {
			traced = opts.traced
		}
	}
	shares, err := repeatShares(ctx, in, ph.next+traced)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "requests: sent %d, succeeded %d, failed %d (timed phase %.2f s)\n",
		len(ph.replies), len(lat), res.Failed, ph.elapsed.Seconds())
	fmt.Fprintf(out, "inputs: %s\n", describeInputs(in, shares, ph.replies))
	var e2e report
	e2e.add("latency_p50_ms", ms(lat[(len(lat)-1)/2]), "ms")
	e2e.add("latency_tail_ms", ms(lat[tailIdx]), "ms")
	e2e.add("throughput_qps", ok/ph.elapsed.Seconds(), "1/s")
	e2e.add("cpu_ms_per_match", ph.cpu.Seconds()*1e3/ok, "ms")
	e2e.add("accuracy_pct", 100*mean(accuracies), "%")
	e2e.add("heap_live_mb", heapMB, "MB")
	e2e.add("setup_s", medianDur(timings, func(t setupTiming) time.Duration { return t.total }).Seconds(), "s")
	fmt.Fprintf(out, "end-to-end (tail is p%.2f, %d of %d samples beyond it):\n", tailPct, len(lat)-1-tailIdx, len(lat))
	e2e.print(out)
	fmt.Fprintf(out, "extreme tail: p%.2f %.4f ms, %d of %d samples beyond it (not a metric: in runs of thousands of requests, host stalls set it)\n",
		extremePct, ms(lat[extremeIdx]), len(lat)-1-extremeIdx, len(lat))
	if !opts.trace {
		res.Metrics = e2e.metrics
		return res, nil
	}

	var layers report
	layers.add("core.train_s", medianDur(timings, func(t setupTiming) time.Duration { return t.train }).Seconds(), "s")
	layers.add("artifact.encode_ms", ms(medianDur(timings, func(t setupTiming) time.Duration { return t.encode })), "ms")
	layers.add("artifact.decode_ms", ms(medianDur(timings, func(t setupTiming) time.Duration { return t.decode })), "ms")
	layers.add("artifact.model_mb", float64(len(dep.artifact))/(1<<20), "MB")
	layers.add("serve.warmup_s", medianDur(timings, func(t setupTiming) time.Duration { return t.warmup }).Seconds(), "s")
	production, err := traceRun(ctx, opts, w, in, dep, chk, ph.next, shares[ph.next:], &layers)
	if err != nil {
		return nil, err
	}
	ph.counters.addTo(&layers, ok)
	layers.add("trace.production_p50_ms", production, "ms")
	fmt.Fprintf(out, "per-layer (spans in %s):\n", opts.spans)
	layers.print(out)
	fmt.Fprintf(out, "trace overhead: production-path p50 %.4f ms traced vs latency_p50_ms %.4f ms untraced\n",
		production, e2e.metrics["latency_p50_ms"].Value)
	res.Metrics = layers.metrics
	return res, nil
}

// tailIndex picks the latency tail from n sorted samples: the highest
// percentile, at most the 95th, with at least ten samples beyond it,
// never below the median. It returns the sample's index and its
// percentile. The cap keeps the tail on the program's slow requests:
// beyond the 95th percentile of a run of thousands of requests lie
// requests stalled by the host, whose count varies from run to run.
func tailIndex(n int) (int, float64) {
	return tailBeyond(n, max(10, n/20))
}

// extremeTailIndex is the highest percentile with at least ten samples
// beyond it, never below the median. It is printed beside the metrics.
func extremeTailIndex(n int) (int, float64) {
	return tailBeyond(n, 10)
}

// tailBeyond returns the index and percentile of the sorted sample
// that leaves beyond samples after it, never below the median.
func tailBeyond(n, beyond int) (int, float64) {
	i := max(n-1-beyond, (n-1)/2)
	return i, 100 * float64(i+1) / float64(n)
}

func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianDur is the median of one stage over the set-ups.
func medianDur(ts []setupTiming, f func(setupTiming) time.Duration) time.Duration {
	ds := make([]time.Duration, len(ts))
	for i, t := range ts {
		ds[i] = f(t)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)-1)/2]
}

// liveHeap forces a collection and returns the live heap it found.
func liveHeap() uint64 {
	runtime.GC()
	return readCounters().liveBytes
}
