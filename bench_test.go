package repro_test

// One benchmark per table and figure of the paper's §6 evaluation, plus
// ablation benches for the design choices DESIGN.md calls out and
// micro-benchmarks of the hot components. Accuracy results are reported
// through testing.B metrics (ReportMetric, unit "acc%"), so
// `go test -bench=. -benchmem` both times the pipeline and regenerates
// the numbers recorded in EXPERIMENTS.md.
//
// Scale: the paper's protocol is 300 listings x 3 samples x 10 splits.
// These benches default to a reduced protocol (60 listings, 1 sample, 4
// splits) so a full run stays in the minutes range; set the environment
// variable LSD_BENCH_FULL=1 for the paper-scale protocol.

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/learn"
	"repro/internal/meta"
	"repro/lsd"
)

func protocol() eval.Protocol {
	if os.Getenv("LSD_BENCH_FULL") != "" {
		return eval.Protocol{Listings: 300, Samples: 3, Seed: 7}
	}
	return eval.Protocol{Listings: 60, Samples: 1, Seed: 7, MaxSplits: 4}
}

// BenchmarkTable3 regenerates Table 3: the domain and source
// characteristics of the four evaluation domains.
func BenchmarkTable3(b *testing.B) {
	var rows []eval.Table3Row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, d := range datagen.Domains() {
			rows = append(rows, eval.Table3(d))
		}
	}
	b.StopTimer()
	b.Log("\n" + eval.FormatTable3(rows))
}

// BenchmarkFigure8a regenerates Figure 8.a: the configuration ladder
// (best single base learner → +meta-learner → +constraint handler →
// +XML learner) for every domain. The paper's shape: each addition
// improves accuracy; the complete system reaches 71-92%.
func BenchmarkFigure8a(b *testing.B) {
	p := protocol()
	for _, d := range datagen.Domains() {
		d := d
		b.Run(shortName(d.Name), func(b *testing.B) {
			var ladder *eval.Ladder
			var err error
			for i := 0; i < b.N; i++ {
				ladder, err = eval.RunLadder(d, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ladder.BestBase, "base_acc%")
			b.ReportMetric(ladder.Meta, "meta_acc%")
			b.ReportMetric(ladder.Constraints, "constr_acc%")
			b.ReportMetric(ladder.Full, "full_acc%")
			b.Logf("%s: base=%.1f(%s) meta=%.1f constraints=%.1f full=%.1f",
				d.Name, ladder.BestBase, ladder.BestBaseName,
				ladder.Meta, ladder.Constraints, ladder.Full)
		})
	}
}

// benchSensitivity powers Figures 8.b and 8.c: accuracy as a function
// of the number of listings per source. The paper's shape: steep climb
// from 5 to 20 listings, little change 20-200, flat after 200.
func benchSensitivity(b *testing.B, d *datagen.Domain) {
	p := protocol()
	counts := []int{5, 10, 20, 50, 100, 200}
	if os.Getenv("LSD_BENCH_FULL") != "" {
		counts = append(counts, 300, 500)
	}
	var pts []eval.SensitivityPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = eval.RunSensitivity(d, counts, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	out := fmt.Sprintf("%s sensitivity:\n", d.Name)
	for _, pt := range pts {
		out += fmt.Sprintf("  listings=%3d base=%.1f meta=%.1f constraints=%.1f full=%.1f\n",
			pt.Listings, pt.Base, pt.Meta, pt.Constraints, pt.Full)
		b.ReportMetric(pt.Full, fmt.Sprintf("full@%d_acc%%", pt.Listings))
	}
	b.Log("\n" + out)
}

// BenchmarkFigure8b regenerates Figure 8.b (Real Estate I).
func BenchmarkFigure8b(b *testing.B) { benchSensitivity(b, datagen.RealEstateI()) }

// BenchmarkFigure8c regenerates Figure 8.c (Time Schedule).
func BenchmarkFigure8c(b *testing.B) { benchSensitivity(b, datagen.TimeSchedule()) }

// BenchmarkFigure9a regenerates Figure 9.a: lesion studies. The paper's
// shape: every component contributes; no clearly dominant one.
func BenchmarkFigure9a(b *testing.B) {
	p := protocol()
	for _, d := range datagen.Domains() {
		d := d
		b.Run(shortName(d.Name), func(b *testing.B) {
			var l *eval.Lesion
			var err error
			for i := 0; i < b.N; i++ {
				l, err = eval.RunLesion(d, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(l.WithoutName, "noName_acc%")
			b.ReportMetric(l.WithoutNaiveBayes, "noNB_acc%")
			b.ReportMetric(l.WithoutContent, "noContent_acc%")
			b.ReportMetric(l.WithoutHandler, "noHandler_acc%")
			b.ReportMetric(l.Complete, "complete_acc%")
			b.Logf("%s: -name=%.1f -nb=%.1f -content=%.1f -handler=%.1f complete=%.1f",
				d.Name, l.WithoutName, l.WithoutNaiveBayes, l.WithoutContent,
				l.WithoutHandler, l.Complete)
		})
	}
}

// BenchmarkFigure9b regenerates Figure 9.b: schema-only vs data-only vs
// both. The paper's shape: both beats either alone.
func BenchmarkFigure9b(b *testing.B) {
	p := protocol()
	for _, d := range datagen.Domains() {
		d := d
		b.Run(shortName(d.Name), func(b *testing.B) {
			var r *eval.SchemaVsData
			var err error
			for i := 0; i < b.N; i++ {
				r, err = eval.RunSchemaVsData(d, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.SchemaOnly, "schema_acc%")
			b.ReportMetric(r.DataOnly, "data_acc%")
			b.ReportMetric(r.Both, "both_acc%")
			b.Logf("%s: schema=%.1f data=%.1f both=%.1f",
				d.Name, r.SchemaOnly, r.DataOnly, r.Both)
		})
	}
}

// BenchmarkFeedback regenerates the §6.3 numbers: corrections needed to
// reach perfect matching. Paper: ~3 of 17 tags (Time Schedule), ~6.3 of
// 38.6 tags (Real Estate II).
func BenchmarkFeedback(b *testing.B) {
	p := protocol()
	for _, name := range []string{"Time Schedule", "Real Estate II"} {
		d := datagen.ByName(name)
		b.Run(shortName(name), func(b *testing.B) {
			var r *eval.FeedbackResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = eval.RunFeedback(d, 3, p.Listings, p.Seed)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.AvgCorrections, "corrections")
			b.ReportMetric(r.AvgTags, "tags")
			b.Logf("%s: %.1f corrections on %.1f tags", name, r.AvgCorrections, r.AvgTags)
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for design choices (beyond the paper's figures).

// BenchmarkAblationStacking compares the meta-learner's weighting
// schemes: regression weights (the paper's stacking) vs uniform.
func BenchmarkAblationStacking(b *testing.B) {
	p := protocol()
	d := datagen.TimeSchedule()
	for _, mode := range []struct {
		name string
		cfg  func() core.Config
	}{
		{"regression", func() core.Config { return eval.MetaConfig() }},
		{"uniform", func() core.Config {
			c := eval.MetaConfig()
			c.Meta.UniformWeights = true
			return c
		}},
		{"raw-unnormalized", func() core.Config {
			c := eval.MetaConfig()
			c.Meta.RawWeights = true
			return c
		}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var acc float64
			var err error
			for i := 0; i < b.N; i++ {
				acc, err = eval.Run(d, mode.cfg(), p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc, "acc%")
		})
	}
}

// BenchmarkAblationConverter compares the prediction converter's
// average (the paper's choice) against max.
func BenchmarkAblationConverter(b *testing.B) {
	p := protocol()
	d := datagen.RealEstateI()
	for _, mode := range []struct {
		name string
		conv meta.ConverterMode
	}{{"average", meta.Average}, {"max", meta.Max}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			cfg := eval.FullConfig()
			cfg.Converter = mode.conv
			var acc float64
			var err error
			for i := 0; i < b.N; i++ {
				acc, err = eval.Run(d, cfg, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc, "acc%")
		})
	}
}

// BenchmarkAblationStatsLearner measures the Semint-style statistics
// learner's contribution (the §8 plug-in) on Real Estate I, whose
// numeric scales (price vs. bath counts) are its natural target.
func BenchmarkAblationStatsLearner(b *testing.B) {
	p := protocol()
	d := datagen.RealEstateI()
	for _, mode := range []struct {
		name   string
		extend bool
	}{{"stock", false}, {"with-stats-learner", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			cfg := eval.FullConfig()
			if mode.extend {
				cfg.BaseLearners = append(cfg.BaseLearners, core.LearnerSpec(lsd.NewStatsLearner()))
			}
			var acc float64
			var err error
			for i := 0; i < b.N; i++ {
				acc, err = eval.Run(d, cfg, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc, "acc%")
		})
	}
}

// BenchmarkAblationFormatLearner measures the §7 format learner's
// contribution on the course-code domain.
func BenchmarkAblationFormatLearner(b *testing.B) {
	p := protocol()
	d := datagen.TimeSchedule()
	for _, mode := range []struct {
		name   string
		extend bool
	}{{"stock", false}, {"with-format-learner", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			cfg := eval.FullConfig()
			if mode.extend {
				cfg.BaseLearners = append(cfg.BaseLearners, core.LearnerSpec(lsd.NewFormatLearner()))
			}
			var acc float64
			var err error
			for i := 0; i < b.N; i++ {
				acc, err = eval.Run(d, cfg, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc, "acc%")
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot pipeline components.

func trainedSystem(b *testing.B) (*core.System, *core.Source) {
	b.Helper()
	return trainedSystemWorkers(b, 0)
}

// trainedSystemWorkers trains the benchmark system with an explicit
// worker-pool size (0 = one per CPU, 1 = serial).
func trainedSystemWorkers(b *testing.B, workers int) (*core.System, *core.Source) {
	b.Helper()
	return trainedDomain(b, datagen.RealEstateI(), workers)
}

// trainedDomain trains d's benchmark system on its first three sources
// and returns it with a sample of the fourth, 40 listings each.
func trainedDomain(b *testing.B, d *datagen.Domain, workers int) (*core.System, *core.Source) {
	b.Helper()
	med := d.Mediated()
	specs := d.Sources()
	var train []*core.Source
	for _, spec := range specs[:3] {
		train = append(train, spec.Generate(40, 1))
	}
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	sys, err := core.Train(med, train, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys, specs[3].Generate(40, 1)
}

// BenchmarkTrain measures the full training phase on Real Estate I.
func BenchmarkTrain(b *testing.B) {
	d := datagen.RealEstateI()
	med := d.Mediated()
	specs := d.Sources()
	var train []*core.Source
	for _, spec := range specs[:3] {
		train = append(train, spec.Generate(40, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(med, train, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrainWorkers measures training at an explicit pool size.
func benchTrainWorkers(b *testing.B, workers int) {
	d := datagen.RealEstateI()
	med := d.Mediated()
	specs := d.Sources()
	var train []*core.Source
	for _, spec := range specs[:3] {
		train = append(train, spec.Generate(40, 1))
	}
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(med, train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainSerial pins training to one worker: the baseline for
// the parallel speedup.
func BenchmarkTrainSerial(b *testing.B) { benchTrainWorkers(b, 1) }

// BenchmarkTrainParallel trains with one worker per CPU. On a
// multi-core machine this should beat BenchmarkTrainSerial; the outputs
// are bit-identical either way (see determinism_test.go).
func BenchmarkTrainParallel(b *testing.B) { benchTrainWorkers(b, 0) }

// BenchmarkMatch measures the matching phase (learners + meta +
// converter + constraint handler) on one unseen source.
func BenchmarkMatch(b *testing.B) {
	sys, test := trainedSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Match(context.Background(), test); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMatchWorkers measures matching at an explicit pool size.
func benchMatchWorkers(b *testing.B, workers int) {
	sys, test := trainedSystemWorkers(b, workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Match(context.Background(), test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchSerial pins matching to one worker: the baseline for
// the parallel speedup.
func BenchmarkMatchSerial(b *testing.B) { benchMatchWorkers(b, 1) }

// BenchmarkMatchParallel matches with one worker per CPU; the mapping
// is bit-identical to the serial run (see determinism_test.go).
func BenchmarkMatchParallel(b *testing.B) { benchMatchWorkers(b, 0) }

// wide is BenchmarkMatchWide's fixture, trained on first use: Real
// Estate II trained the way servebench's wide workload trains it, and
// the count of source-4 samples drawn so far, so that every timed
// match gets a fresh one. Benchmarks run one at a time.
var wide struct {
	sys     *core.System
	spec    *datagen.SourceSpec
	samples int64
}

// BenchmarkMatchWide is an in-process counter for servebench's wide
// workload: Real Estate II (66 labels) trained on sources 1–3 with 20
// listings each, sample seed 1, one worker; each iteration matches a
// fresh 20-listing source-4 sample generated before the timer starts,
// so the learners run on unseen values as they do for wide's requests.
func BenchmarkMatchWide(b *testing.B) {
	if wide.sys == nil {
		d := datagen.RealEstateII()
		specs := d.Sources()
		var train []*core.Source
		for _, spec := range specs[:3] {
			train = append(train, spec.Generate(20, 1))
		}
		cfg := core.DefaultConfig()
		cfg.Workers = 1
		sys, err := core.Train(d.Mediated(), train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		wide.sys, wide.spec = sys, specs[3]
	}
	srcs := make([]*core.Source, b.N)
	for i := range srcs {
		srcs[i] = wide.spec.Generate(20, learn.DeriveSeed(952, wide.samples))
		wide.samples++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, src := range srcs {
		if _, err := wide.sys.Match(context.Background(), src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstraintRun measures the constraint handler alone (A*
// search plus local repair), per domain, on one held-out source's
// recorded tag predictions and constraint source: the matching stage
// that dominates a served request once the learners' memos are warm.
func BenchmarkConstraintRun(b *testing.B) {
	for _, d := range datagen.Domains() {
		d := d
		b.Run(shortName(d.Name), func(b *testing.B) {
			sys, test := trainedDomain(b, d, 0)
			res, err := sys.Match(context.Background(), test)
			if err != nil {
				b.Fatal(err)
			}
			cols, err := core.CollectColumns(context.Background(), nil, test, 0)
			if err != nil {
				b.Fatal(err)
			}
			src := core.BuildConstraintSource(test, cols, 0)
			h := constraint.NewHandler(d.Mediated().Constraints...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Run(src, res.TagPredictions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchLearnerPredict measures one instance prediction for a trained
// base learner on Real Estate I data.
func benchLearnerPredict(b *testing.B, spec core.LearnerSpec) {
	d := datagen.RealEstateI()
	med := d.Mediated()
	specs := d.Sources()
	trainExamples := core.ExtractExamples(med, []*core.Source{
		specs[0].Generate(40, 1), specs[1].Generate(40, 1),
	}, 0)
	l := spec.Factory()
	if err := l.Train(med.Labels(), trainExamples); err != nil {
		b.Fatal(err)
	}
	cols, err := core.CollectColumns(context.Background(), med, specs[3].Generate(40, 1), 0)
	if err != nil {
		b.Fatal(err)
	}
	var instances []learn.Instance
	for _, is := range cols {
		instances = append(instances, is...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Predict(instances[i%len(instances)])
	}
}

// BenchmarkNaiveBayesPredict measures one Naive Bayes prediction.
func BenchmarkNaiveBayesPredict(b *testing.B) {
	benchLearnerPredict(b, eval.MetaConfig().BaseLearners[2])
}

// BenchmarkNameMatcherPredict measures one name-matcher prediction.
func BenchmarkNameMatcherPredict(b *testing.B) {
	benchLearnerPredict(b, eval.MetaConfig().BaseLearners[0])
}

// BenchmarkContentMatcherPredict measures one content-matcher prediction.
func BenchmarkContentMatcherPredict(b *testing.B) {
	benchLearnerPredict(b, eval.MetaConfig().BaseLearners[1])
}

// BenchmarkDatagen measures synthetic listing generation.
func BenchmarkDatagen(b *testing.B) {
	spec := datagen.RealEstateI().Sources()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Generate(100, int64(i))
	}
}

func shortName(domain string) string {
	switch domain {
	case "Real Estate I":
		return "RealEstateI"
	case "Time Schedule":
		return "TimeSchedule"
	case "Faculty Listings":
		return "FacultyListings"
	case "Real Estate II":
		return "RealEstateII"
	}
	return domain
}
