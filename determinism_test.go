package repro_test

// End-to-end determinism tests for the parallel pipeline: training and
// matching must produce byte-identical results at every worker-pool
// size. These are the acceptance tests for the concurrency layer — run
// them under -race (CI does) to also prove the fan-out is data-race
// free.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/learn"
	"repro/internal/learners/contentmatcher"
	"repro/internal/learners/naivebayes"
	"repro/internal/learners/namematcher"
	"repro/internal/modeltest"
)

// workerSettings are the pool sizes every determinism test compares:
// serial, a fixed small pool, and one worker per CPU (0). The list is
// deduplicated because GOMAXPROCS can collapse settings into each
// other (on a 4-CPU machine GOMAXPROCS(0) == 4; with GOMAXPROCS=1 it
// equals the serial setting), and a duplicated entry would silently
// re-run the same comparison instead of exercising a distinct pool.
func workerSettings() []int {
	seen := make(map[int]bool)
	var out []int
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0), 0} {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// trainDomain builds the standard 3-train/1-test scenario on Real
// Estate I with fixed seeds.
func trainDomain(t *testing.T, workers int) (*core.System, *core.Source) {
	t.Helper()
	d := datagen.RealEstateI()
	med := d.Mediated()
	specs := d.Sources()
	var train []*core.Source
	for _, spec := range specs[:3] {
		train = append(train, spec.Generate(25, 11))
	}
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	sys, err := core.Train(med, train, cfg)
	if err != nil {
		t.Fatalf("workers=%d: Train: %v", workers, err)
	}
	return sys, specs[3].Generate(25, 11)
}

// weightsFingerprint renders every stacker weight with full float64
// precision, in deterministic (label, learner) order.
func weightsFingerprint(sys *core.System) string {
	st := sys.Stacker()
	var b strings.Builder
	labels := append([]string(nil), sys.Labels()...)
	sort.Strings(labels)
	for _, label := range labels {
		for _, name := range st.LearnerNames() {
			fmt.Fprintf(&b, "%s/%s=%.17g\n", label, name, st.Weight(label, name))
		}
	}
	return b.String()
}

// TestTrainDeterministic asserts the fitted meta-learner weights are
// bit-identical at every worker setting.
func TestTrainDeterministic(t *testing.T) {
	sys, _ := trainDomain(t, 1)
	want := weightsFingerprint(sys)
	if want == "" {
		t.Fatal("empty weights fingerprint")
	}
	for _, w := range workerSettings()[1:] {
		sys, _ := trainDomain(t, w)
		if got := weightsFingerprint(sys); got != want {
			t.Errorf("workers=%d: stacker weights differ from serial run\nserial:\n%s\ngot:\n%s",
				w, want, got)
		}
	}
}

// TestMatchDeterministic asserts the proposed mapping and the per-tag
// confidence distributions are bit-identical at every worker setting —
// both when the system itself was trained at that setting and when
// matching fans out over the pool.
func TestMatchDeterministic(t *testing.T) {
	sys, test := trainDomain(t, 1)
	res, err := sys.Match(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	want := modeltest.MatchFingerprint(sys, res)
	if want == "" {
		t.Fatal("empty match fingerprint")
	}
	for _, w := range workerSettings()[1:] {
		sys, test := trainDomain(t, w)
		res, err := sys.Match(context.Background(), test)
		if err != nil {
			t.Fatalf("workers=%d: Match: %v", w, err)
		}
		if got := modeltest.MatchFingerprint(sys, res); got != want {
			t.Errorf("workers=%d: match result differs from serial run\nserial:\n%s\ngot:\n%s",
				w, want, got)
		}
	}
}

// pinnedFingerprints are the SHA-256 sums of modeltest.MatchFingerprint
// for TestSaveLoadDeterministic's four matches, recorded when
// predictions were label → score maps: the mapping and every score of
// the dense representation must stay bit-identical to those. They
// hold on amd64, where Go does not fuse multiply-adds; other
// architectures may round differently and skip the check.
var pinnedFingerprints = map[string]string{
	"Real Estate I":    "7fc3aaae6b64701105f5e327fcf578df9a133d032b21e2b6d36cc7d04ff4d83a",
	"Time Schedule":    "30113e87b700134403284f4298b702472b21294e4f5617db3f25e045f6da9f3d",
	"Faculty Listings": "695187643ec06b243967bab3bf3f18c8ee942af374cf1b83884935c576cf6402",
	"Real Estate II":   "aa40e9d7c545c73fb2f0f318cef41e0f84bcaf4ee7c14d4f54fcb04e4b6f4579",
}

// TestSaveLoadDeterministic asserts the model-artifact round trip is
// lossless in behaviour, not just in bytes: for every domain, a
// matcher restored from an encoded artifact proposes bit-identical
// mappings and confidence scores to the matcher it was saved from, on
// every instance of an unseen source. On amd64 the trained matcher's
// output must also match its pinned fingerprint.
func TestSaveLoadDeterministic(t *testing.T) {
	for _, d := range datagen.Domains() {
		t.Run(d.Name, func(t *testing.T) {
			med := d.Mediated()
			specs := d.Sources()
			var train []*core.Source
			for _, spec := range specs[:len(specs)-1] {
				train = append(train, spec.Generate(15, 11))
			}
			test := specs[len(specs)-1].Generate(15, 11)

			cfg := core.DefaultConfig()
			cfg.Workers = 2
			sys, err := core.Train(med, train, cfg)
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			res, err := sys.Match(context.Background(), test)
			if err != nil {
				t.Fatalf("Match: %v", err)
			}
			want := modeltest.MatchFingerprint(sys, res)
			if want == "" {
				t.Fatal("empty match fingerprint")
			}
			if runtime.GOARCH == "amd64" {
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(want))); got != pinnedFingerprints[d.Name] {
					t.Errorf("match fingerprint sha256 %s, pinned %s\n%s", got, pinnedFingerprints[d.Name], want)
				}
			}

			data, err := artifact.EncodeSystem(d.Name, sys)
			if err != nil {
				t.Fatalf("EncodeSystem: %v", err)
			}
			dec, err := artifact.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			for _, w := range workerSettings() {
				restored, err := dec.System(w)
				if err != nil {
					t.Fatalf("workers=%d: System: %v", w, err)
				}
				res, err := restored.Match(context.Background(), test)
				if err != nil {
					t.Fatalf("workers=%d: Match: %v", w, err)
				}
				if got := modeltest.MatchFingerprint(restored, res); got != want {
					t.Errorf("workers=%d: restored matcher differs from original\noriginal:\n%s\nrestored:\n%s",
						w, want, got)
				}
			}
		})
	}
}

// batchLearners returns fresh, untrained instances of every learner
// implementing learn.BatchPredictor.
func batchLearners() []learn.Learner {
	return []learn.Learner{namematcher.New(), contentmatcher.New(), naivebayes.New()}
}

// TestBatchPredictDeterministic is the learner-level acceptance test of
// the batched serve path: on all four domains, PredictBatch must be
// bit-identical to per-instance Predict for every instance of an unseen
// source. The system-level half, batched Match against the
// per-instance reference scorer, is internal/core's
// TestBatchedMatchDeterministic.
func TestBatchPredictDeterministic(t *testing.T) {
	for _, d := range datagen.Domains() {
		t.Run(d.Name, func(t *testing.T) {
			med := d.Mediated()
			specs := d.Sources()
			var train []*core.Source
			for _, spec := range specs[:len(specs)-1] {
				train = append(train, spec.Generate(15, 11))
			}
			test := specs[len(specs)-1].Generate(15, 11)

			// Batch-score every instance of the unseen source and compare
			// against a fresh copy's per-instance Predict (fresh, so the
			// reference cannot be served from a cache the batch pass
			// warmed).
			labels := med.Labels()
			examples := core.ExtractExamples(med, train, 0)
			cols, err := core.CollectColumns(context.Background(), med, test, 0)
			if err != nil {
				t.Fatal(err)
			}
			tags := make([]string, 0, len(cols))
			for tag := range cols {
				tags = append(tags, tag)
			}
			sort.Strings(tags)
			var ins []learn.Instance
			for _, tag := range tags {
				ins = append(ins, cols[tag]...)
			}
			refs := batchLearners()
			for li, l := range batchLearners() {
				if err := l.Train(labels, examples); err != nil {
					t.Fatalf("training %s: %v", l.Name(), err)
				}
				if err := refs[li].Train(labels, examples); err != nil {
					t.Fatalf("training reference %s: %v", l.Name(), err)
				}
				bp, ok := l.(learn.BatchPredictor)
				if !ok {
					t.Fatalf("%s does not implement learn.BatchPredictor", l.Name())
				}
				batch := bp.PredictBatch(ins)
				if len(batch) != len(ins) {
					t.Fatalf("%s: %d predictions for %d instances", l.Name(), len(batch), len(ins))
				}
				for i, in := range ins {
					want := refs[li].Predict(in)
					if batch[i].Len() != want.Len() {
						t.Fatalf("%s instance %d: %d labels, want %d", l.Name(), i, batch[i].Len(), want.Len())
					}
					for label, s := range want.Map() {
						if g, ok := batch[i].Map()[label]; !ok || g != s {
							t.Fatalf("%s instance %d label %s: batch %.17g, per-instance %.17g",
								l.Name(), i, label, g, s)
						}
					}
				}
			}
		})
	}
}

// TestMatchRepeatedDeterministic asserts that re-matching with the same
// trained system is stable: the prediction caches warmed by the first
// pass must not change the second pass's output.
func TestMatchRepeatedDeterministic(t *testing.T) {
	sys, test := trainDomain(t, 4)
	first, err := sys.Match(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.Match(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := modeltest.MatchFingerprint(sys, first), modeltest.MatchFingerprint(sys, second); a != b {
		t.Errorf("repeated Match differs:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}
