package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/learn"
	"repro/internal/xmltree"
)

// Micro-benchmarks of the hot pipeline stages, mirroring the
// BenchmarkTrain/BenchmarkMatch/Benchmark*Predict benches in
// bench_test.go but runnable from this command so a BENCH_<n>.json
// artifact can record ns/op and allocs/op without the testing
// harness. Iteration counts are fixed (not auto-scaled) so allocs/op
// is reproducible run over run — that is what the -smoke gate
// compares against the committed baseline.

// microIters fixes the iteration count per micro-bench op.
var microIters = map[string]int{
	"Train":                         3,
	"Match":                         10,
	"NaiveBayesPredict":             4000,
	"NameMatcherPredict":            4000,
	"ContentMatcherPredict":         4000,
	"ConstraintRun/RealEstateI":     200,
	"ConstraintRun/TimeSchedule":    100,
	"ConstraintRun/FacultyListings": 300,
	"ConstraintRun/RealEstateII":    40,
	"ParseListings/RealEstateI":     400,
	"ParseListings/RealEstateII":    200,
}

// measureMicro times n iterations of fn and records ns/op, allocs/op,
// and bytes/op from the runtime's monotonic allocation counters.
// allocs/op keeps its fraction: an op whose mean sits near an integer
// would otherwise read one allocation more or less from run to run. One
// untimed warm-up call lets lazy structures (prediction caches, the
// combined memo) reach steady state, matching how the testing package's
// auto-scaling amortizes them.
func measureMicro(name string, n int, fn func()) benchRecord {
	fn()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return benchRecord{
		Op:          name,
		NsPerOp:     elapsed.Nanoseconds() / int64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / uint64(n),
		Workers:     1,
	}
}

// microTrainSetup builds the standard 3-train/1-test Real Estate I
// scenario of bench_test.go: 40 listings per source, fixed seeds.
func microTrainSetup() (*core.Mediated, []*core.Source, *core.Source) {
	d := datagen.RealEstateI()
	med := d.Mediated()
	specs := d.Sources()
	var train []*core.Source
	for _, spec := range specs[:3] {
		train = append(train, spec.Generate(40, 1))
	}
	return med, train, specs[3].Generate(40, 1)
}

// microPredictSetup trains one base learner and collects the unseen
// source's instances, exactly like benchLearnerPredict in
// bench_test.go.
func microPredictSetup(spec core.LearnerSpec) (learn.Learner, []learn.Instance, error) {
	d := datagen.RealEstateI()
	med := d.Mediated()
	specs := d.Sources()
	trainExamples := core.ExtractExamples(med, []*core.Source{
		specs[0].Generate(40, 1), specs[1].Generate(40, 1),
	}, 0)
	l := spec.Factory()
	if err := l.Train(med.Labels(), trainExamples); err != nil {
		return nil, nil, err
	}
	cols, err := core.CollectColumns(context.Background(), med, specs[3].Generate(40, 1), 0)
	if err != nil {
		return nil, nil, err
	}
	var instances []learn.Instance
	for _, is := range cols {
		instances = append(instances, is...)
	}
	return l, instances, nil
}

// runMicro runs every micro-bench and returns its records.
func runMicro() ([]benchRecord, error) {
	med, train, test := microTrainSetup()
	cfg := core.DefaultConfig()
	cfg.Workers = 1

	var records []benchRecord
	records = append(records, measureMicro("Train", microIters["Train"], func() {
		if _, err := core.Train(med, train, cfg); err != nil {
			panic(err)
		}
	}))

	sys, err := core.Train(med, train, cfg)
	if err != nil {
		return nil, err
	}
	records = append(records, measureMicro("Match", microIters["Match"], func() {
		if _, err := sys.Match(context.Background(), test); err != nil {
			panic(err)
		}
	}))

	// Base-learner predicts, aligned with eval.MetaConfig's learner
	// order: NameMatcher, ContentMatcher, NaiveBayes.
	base := eval.MetaConfig().BaseLearners
	for _, mb := range []struct {
		op   string
		spec core.LearnerSpec
	}{
		{"NameMatcherPredict", base[0]},
		{"ContentMatcherPredict", base[1]},
		{"NaiveBayesPredict", base[2]},
	} {
		l, instances, err := microPredictSetup(mb.spec)
		if err != nil {
			return nil, err
		}
		i := 0
		records = append(records, measureMicro(mb.op, microIters[mb.op], func() {
			l.Predict(instances[i%len(instances)])
			i++
		}))
	}

	// The constraint handler alone, per domain, on BenchmarkConstraintRun's
	// fixture: a held-out source's tag predictions and constraint source.
	for _, d := range datagen.Domains() {
		op := "ConstraintRun/" + strings.ReplaceAll(d.Name, " ", "")
		h, src, preds, err := microConstraintSetup(d)
		if err != nil {
			return nil, err
		}
		records = append(records, measureMicro(op, microIters[op], func() {
			if _, err := h.Run(src, preds); err != nil {
				panic(err)
			}
		}))
	}

	// The request's XML parse alone: one serialized 20-listing source-4
	// body per domain, as servebench's warm and wide workloads post.
	for _, d := range []*datagen.Domain{datagen.RealEstateI(), datagen.RealEstateII()} {
		op := "ParseListings/" + strings.ReplaceAll(d.Name, " ", "")
		var body strings.Builder
		for _, l := range d.Sources()[3].Generate(20, 1).Listings {
			body.WriteString(l.String())
		}
		xml := body.String()
		records = append(records, measureMicro(op, microIters[op], func() {
			if _, err := xmltree.ParseAll(strings.NewReader(xml)); err != nil {
				panic(err)
			}
		}))
	}
	return records, nil
}

// microConstraintSetup trains d on sources 1–3 (40 listings, seed 1),
// matches source 4 and returns the handler over d's constraints with
// that source's constraint view and tag predictions, exactly like
// BenchmarkConstraintRun in bench_test.go.
func microConstraintSetup(d *datagen.Domain) (*constraint.Handler, *constraint.Source, map[string]learn.Prediction, error) {
	med := d.Mediated()
	specs := d.Sources()
	var train []*core.Source
	for _, spec := range specs[:3] {
		train = append(train, spec.Generate(40, 1))
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	sys, err := core.Train(med, train, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	test := specs[3].Generate(40, 1)
	res, err := sys.Match(context.Background(), test)
	if err != nil {
		return nil, nil, nil, err
	}
	cols, err := core.CollectColumns(context.Background(), nil, test, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	return constraint.NewHandler(med.Constraints...), core.BuildConstraintSource(test, cols, 0), res.TagPredictions, nil
}

func micro() []benchRecord {
	records, err := runMicro()
	if err != nil {
		panic(fmt.Sprintf("micro benches: %v", err))
	}
	fmt.Println("micro-benchmarks (fixed iteration counts, serial):")
	fmt.Printf("%-30s %14s %12s %12s\n", "op", "ns/op", "allocs/op", "bytes/op")
	for _, r := range records {
		fmt.Printf("%-30s %14d %12.2f %12d\n", r.Op, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	fmt.Println()
	return records
}

// smokeTolerance accepts an allocs/op up to factor×baseline plus a
// small absolute slack: allocation counts are near-deterministic at
// fixed iteration counts, but caches warmed at slightly different
// points can shift a handful of allocations between runs.
const (
	smokeFactor = 1.25
	smokeSlack  = 16
)

// smokeOps are the ops the bench-smoke gate compares: the predict
// micro-benches, the per-domain constraint-handler runs and the
// request-body parses, whose fixed-N allocation counts are stable
// enough to gate on. Train/Match are recorded but informational.
var smokeOps = map[string]bool{
	"NaiveBayesPredict":             true,
	"NameMatcherPredict":            true,
	"ContentMatcherPredict":         true,
	"ConstraintRun/RealEstateI":     true,
	"ConstraintRun/TimeSchedule":    true,
	"ConstraintRun/FacultyListings": true,
	"ConstraintRun/RealEstateII":    true,
	"ParseListings/RealEstateI":     true,
	"ParseListings/RealEstateII":    true,
}

// benchSmoke compares fresh micro-bench records against the latest
// committed BENCH_<n>.json baseline in dir and reports allocs/op
// regressions beyond tolerance. It returns an error listing every
// regression; a missing baseline directory or artifact is not an error
// (first run records the baseline instead of gating on it).
func benchSmoke(records []benchRecord, dir string) error {
	baseline, path, err := latestBenchArtifact(dir, smokeOps)
	if err != nil {
		return err
	}
	if baseline == nil {
		fmt.Printf("bench-smoke: no baseline artifact in %s; skipping gate\n", dir)
		return nil
	}
	base := make(map[string]benchRecord, len(baseline))
	for _, r := range baseline {
		base[r.Op] = r
	}
	var regressions []string
	for _, r := range records {
		if !smokeOps[r.Op] {
			continue
		}
		b, ok := base[r.Op]
		if !ok {
			continue
		}
		limit := b.AllocsPerOp*smokeFactor + smokeSlack
		if r.AllocsPerOp > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op %.2f exceeds limit %.2f (baseline %g in %s)",
				r.Op, r.AllocsPerOp, limit, b.AllocsPerOp, path))
		}
	}
	if len(regressions) > 0 {
		out := "bench-smoke: allocs/op regression beyond tolerance:"
		for _, s := range regressions {
			out += "\n  " + s
		}
		return fmt.Errorf("%s", out)
	}
	fmt.Printf("bench-smoke: allocs/op within tolerance of %s\n", path)
	return nil
}
