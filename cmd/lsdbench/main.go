// Command lsdbench regenerates the tables and figures of the paper's
// evaluation (§6) on the synthetic domains:
//
//	lsdbench -exp table3              # Table 3: domains and sources
//	lsdbench -exp fig8a               # Figure 8.a: configuration ladder
//	lsdbench -exp fig8b               # Figure 8.b: sensitivity, Real Estate I
//	lsdbench -exp fig8c               # Figure 8.c: sensitivity, Time Schedule
//	lsdbench -exp fig9a               # Figure 9.a: lesion studies
//	lsdbench -exp fig9b               # Figure 9.b: schema vs. data info
//	lsdbench -exp feedback            # §6.3: corrections to perfect matching
//	lsdbench -exp micro               # Train/Match/Predict micro-benches
//	lsdbench -exp serve               # lsdserve HTTP matching: p50/p95/p99 + QPS
//	lsdbench -exp all                 # everything
//
// -listings, -samples, and -splits trade fidelity for runtime; the
// paper's own protocol is -listings 300 -samples 3 -splits 10.
//
// Performance workflow flags:
//
//	-bench-out bench                  # append a BENCH_<n>.json artifact
//	-smoke bench                      # fail on allocs/op regression vs. baseline
//	-cpuprofile cpu.out               # write a CPU profile (go tool pprof)
//	-memprofile mem.out               # write an allocation profile
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/parallel"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table3, fig8a, fig8b, fig8c, fig9a, fig9b, feedback, micro, serve, all")
	listings := flag.Int("listings", 100, "listings per source")
	samples := flag.Int("samples", 1, "data samples per experiment")
	maxSplits := flag.Int("splits", 10, "train/test splits per sample (max 10)")
	seed := flag.Int64("seed", 7, "experiment seed")
	workers := flag.Int("workers", 0, "worker goroutines per experiment (0 = one per CPU, 1 = serial)")
	benchOut := flag.String("bench-out", "", "directory to write a BENCH_<n>.json artifact recording each experiment's duration and allocations (empty = off)")
	smoke := flag.String("smoke", "", "directory holding the committed BENCH_<n>.json baseline; with -exp micro, exit non-zero on an allocs/op regression, with -exp serve on a p99 latency regression")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *smoke != "" && *exp == "all" {
		// The smoke gate only needs the micro-benches; running the full
		// experiment suite first would bury the signal in minutes of
		// accuracy runs.
		*exp = "micro"
	}

	p := eval.Protocol{Listings: *listings, Samples: *samples, Seed: *seed, MaxSplits: *maxSplits, Workers: *workers}
	var records []benchRecord
	run := func(name string, fn func()) {
		if *exp != "all" && *exp != name {
			return
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		fn()
		elapsed := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		fmt.Printf("[%s took %s]\n\n", name, elapsed.Round(time.Millisecond))
		records = append(records, benchRecord{
			Op:          name,
			NsPerOp:     elapsed.Nanoseconds(),
			AllocsPerOp: float64(after.Mallocs - before.Mallocs),
			Workers:     parallel.Workers(*workers),
		})
	}

	run("table3", func() { table3() })
	run("fig8a", func() { fig8a(p) })
	run("fig8b", func() { sensitivity(datagen.RealEstateI(), "Figure 8.b", p) })
	run("fig8c", func() { sensitivity(datagen.TimeSchedule(), "Figure 8.c", p) })
	run("fig9a", func() { fig9a(p) })
	run("fig9b", func() { fig9b(p) })
	run("feedback", func() { feedback(p) })

	// The micro-benches manage their own per-op records (fixed
	// iteration counts, serial) rather than going through run's
	// whole-experiment wrapper. They are not part of -exp all: the
	// experiment suite measures accuracy, micro measures hot paths.
	var smokeErr error
	if *exp == "micro" {
		recs := micro()
		records = append(records, recs...)
		if *smoke != "" {
			smokeErr = benchSmoke(recs, *smoke)
		}
	}

	// The serving benchmark also stands outside -exp all: it measures
	// HTTP request latency against an in-process lsdserve handler, not
	// matching accuracy.
	if *exp == "serve" {
		recs := serveExp(*workers)
		records = append(records, recs...)
		if *smoke != "" {
			smokeErr = serveSmoke(recs, *smoke)
		}
	}

	if *benchOut != "" && len(records) > 0 {
		path, err := writeBenchArtifact(*benchOut, records)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // materialize the final live-heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	if smokeErr != nil {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		log.Fatal(smokeErr)
	}
}

func table3() {
	rows := make([]eval.Table3Row, 0, 4)
	for _, d := range datagen.Domains() {
		rows = append(rows, eval.Table3(d))
	}
	fmt.Print(eval.FormatTable3(rows))
}

func fig8a(p eval.Protocol) {
	fmt.Println("Figure 8.a: average matching accuracy (%) per configuration")
	fmt.Printf("%-17s %9s %6s %12s %6s\n", "domain", "best-base", "+meta", "+constraints", "+xml")
	for _, d := range datagen.Domains() {
		ladder, err := eval.RunLadder(d, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-17s %6.1f(%s) %6.1f %12.1f %6.1f\n",
			d.Name, ladder.BestBase, initials(ladder.BestBaseName),
			ladder.Meta, ladder.Constraints, ladder.Full)
	}
}

func initials(name string) string {
	out := ""
	for _, r := range name {
		if r >= 'A' && r <= 'Z' {
			out += string(r)
		}
	}
	return out
}

func sensitivity(d *datagen.Domain, title string, p eval.Protocol) {
	fmt.Printf("%s: accuracy vs. listings per source (%s)\n", title, d.Name)
	counts := []int{5, 10, 20, 50, 100, 200, 300}
	pts, err := eval.RunSensitivity(d, counts, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%9s %9s %6s %12s %6s\n", "listings", "best-base", "+meta", "+constraints", "+xml")
	for _, pt := range pts {
		fmt.Printf("%9d %9.1f %6.1f %12.1f %6.1f\n",
			pt.Listings, pt.Base, pt.Meta, pt.Constraints, pt.Full)
	}
}

func fig9a(p eval.Protocol) {
	fmt.Println("Figure 9.a: lesion studies — accuracy (%) with one component removed")
	fmt.Printf("%-17s %8s %8s %8s %9s %9s\n",
		"domain", "-name", "-nbayes", "-content", "-handler", "complete")
	for _, d := range datagen.Domains() {
		l, err := eval.RunLesion(d, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-17s %8.1f %8.1f %8.1f %9.1f %9.1f\n",
			d.Name, l.WithoutName, l.WithoutNaiveBayes, l.WithoutContent,
			l.WithoutHandler, l.Complete)
	}
}

func fig9b(p eval.Protocol) {
	fmt.Println("Figure 9.b: schema information vs. data instances")
	fmt.Printf("%-17s %12s %10s %6s\n", "domain", "schema-only", "data-only", "both")
	for _, d := range datagen.Domains() {
		r, err := eval.RunSchemaVsData(d, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-17s %12.1f %10.1f %6.1f\n", d.Name, r.SchemaOnly, r.DataOnly, r.Both)
	}
}

func feedback(p eval.Protocol) {
	fmt.Println("§6.3: user feedback — corrections needed for perfect matching")
	fmt.Printf("%-17s %12s %9s\n", "domain", "corrections", "avg tags")
	for _, name := range []string{"Time Schedule", "Real Estate II"} {
		d := datagen.ByName(name)
		r, err := eval.RunFeedbackWorkers(d, 3, p.Listings, p.Seed, p.Workers)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-17s %12.1f %9.1f\n", d.Name, r.AvgCorrections, r.AvgTags)
	}
}
