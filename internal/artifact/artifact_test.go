package artifact

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/learners/contentmatcher"
	"repro/internal/learners/format"
	"repro/internal/learners/naivebayes"
	"repro/internal/learners/namematcher"
	"repro/internal/learners/recognizer"
	"repro/internal/learners/stats"
	"repro/internal/learners/whirl"
	"repro/internal/learners/xmllearner"
	"repro/internal/meta"
)

var update = flag.Bool("update", false, "rewrite golden artifacts in testdata")

// fixtureLabels is the label set every fixture learner trains on.
var fixtureLabels = []string{"PRICE", "AGENT-NAME", "OTHER"}

func fixtureExamples() []learn.Example {
	mk := func(tag, content, label, group string) learn.Example {
		return learn.Example{
			Instance: learn.Instance{
				TagName: tag,
				Path:    []string{"listing", tag},
				Content: content,
			},
			Label: label,
			Group: group,
		}
	}
	return []learn.Example{
		mk("price", "250000", "PRICE", "s1"),
		mk("price", "189500", "PRICE", "s1"),
		mk("asking", "425000", "PRICE", "s2"),
		mk("agent", "Kate Richardson", "AGENT-NAME", "s1"),
		mk("contact", "James Smith", "AGENT-NAME", "s2"),
		mk("extra", "open house sunday", "OTHER", "s1"),
		mk("comments", "needs a new roof", "OTHER", "s2"),
	}
}

func fixtureInstances() []learn.Instance {
	return []learn.Instance{
		{TagName: "price", Path: []string{"listing", "price"}, Content: "310000"},
		{TagName: "listed-price", Path: []string{"listing", "listed-price"}, Content: "99000"},
		{TagName: "realtor", Path: []string{"listing", "realtor"}, Content: "Maria Lopez"},
		{TagName: "remarks", Path: []string{"listing", "remarks"}, Content: "close to schools"},
		{TagName: "unseen", Path: []string{"house", "unseen"}, Content: ""},
	}
}

// samePrediction reports whether two predictions are bit-identical.
func samePrediction(a, b learn.Prediction) bool {
	if a.Len() != b.Len() {
		return false
	}
	bm := b.Map()
	for k, av := range a.Map() {
		bv, ok := bm[k]
		if !ok || math.Float64bits(av) != math.Float64bits(bv) {
			return false
		}
	}
	return true
}

func checkSamePredictions(t *testing.T, orig, restored learn.Learner) {
	t.Helper()
	for _, in := range fixtureInstances() {
		want := orig.Predict(in)
		got := restored.Predict(in)
		if !samePrediction(want, got) {
			t.Errorf("instance %q: restored prediction %v, want %v", in.TagName, got, want)
		}
	}
}

func TestLearnerRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		make func(t *testing.T) learn.Learner
	}{
		{"NameMatcher", func(t *testing.T) learn.Learner { return namematcher.New() }},
		{"ContentMatcher", func(t *testing.T) learn.Learner { return contentmatcher.New() }},
		{"NaiveBayes", func(t *testing.T) learn.Learner { return naivebayes.New() }},
		{"XMLLearner", func(t *testing.T) learn.Learner { return xmllearner.New(nil) }},
		{"Stats", func(t *testing.T) learn.Learner { return stats.New() }},
		{"Format", func(t *testing.T) learn.Learner { return format.New() }},
		{"Recognizer", func(t *testing.T) learn.Learner {
			return recognizer.NewDictionary("CityNames", "AGENT-NAME", []string{"kate", "james", "maria"})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.make(t)
			if err := l.Train(fixtureLabels, fixtureExamples()); err != nil {
				t.Fatalf("Train: %v", err)
			}
			kind, payload, err := encodeLearner(l)
			if err != nil {
				t.Fatalf("encodeLearner: %v", err)
			}
			r := newReader(payload)
			restored, labels, err := decodeLearner(kind, r)
			if err != nil {
				t.Fatalf("decodeLearner: %v", err)
			}
			if !slices.Equal(labels, fixtureLabels) {
				t.Fatalf("decodeLearner labels %v, want %v", labels, fixtureLabels)
			}
			if r.remaining() != 0 {
				t.Fatalf("decodeLearner left %d bytes", r.remaining())
			}
			if restored.Name() != l.Name() {
				t.Fatalf("restored name %q, want %q", restored.Name(), l.Name())
			}
			checkSamePredictions(t, l, restored)
		})
	}
}

func TestEncodeUntrainedLearner(t *testing.T) {
	if _, _, err := encodeLearner(naivebayes.New()); err == nil {
		t.Fatal("encodeLearner(untrained) succeeded, want error")
	}
}

func TestWhirlRestorerRegistry(t *testing.T) {
	c := whirl.New("Custom", func(in learn.Instance) string { return in.Content }, whirl.DefaultConfig())
	if err := c.Train(fixtureLabels, fixtureExamples()); err != nil {
		t.Fatalf("Train: %v", err)
	}
	kind, payload, err := encodeLearner(c)
	if err != nil {
		t.Fatalf("encodeLearner: %v", err)
	}
	if _, _, err := decodeLearner(kind, newReader(payload)); err == nil {
		t.Fatal("decodeLearner of unregistered WHIRL name succeeded, want error")
	}
	RegisterWhirlRestorer("Custom", func(st *whirl.State) (learn.Learner, error) {
		return whirl.Restore(st, func(in learn.Instance) string { return in.Content })
	})
	defer delete(whirlRestorers, "Custom")
	restored, _, err := decodeLearner(kind, newReader(payload))
	if err != nil {
		t.Fatalf("decodeLearner after register: %v", err)
	}
	checkSamePredictions(t, c, restored)
}

// fixtureDTD is a small mediated schema accepted by dtd.Parse.
const fixtureDTD = "<!ELEMENT LISTING (PRICE, AGENT-NAME)>\n" +
	"<!ELEMENT PRICE (#PCDATA)>\n" +
	"<!ELEMENT AGENT-NAME (#PCDATA)>\n"

// fixtureState assembles a complete trained SystemState by hand:
// deterministic, no training pipeline involved.
func fixtureState(t testing.TB) *core.SystemState {
	t.Helper()
	train := func(l learn.Learner) learn.Learner {
		if err := l.Train(fixtureLabels, fixtureExamples()); err != nil {
			t.Fatalf("Train %s: %v", l.Name(), err)
		}
		return l
	}
	stacker, err := meta.RestoreStacker(&meta.StackerState{
		Labels:       fixtureLabels,
		LearnerNames: []string{"NameMatcher", "NaiveBayes", "XMLLearner"},
		Weights: [][]float64{
			{0.5, 0.25, 0.25},
			{0.125, 0.5, 0.375},
			{0.375, 0.375, 0.25},
		},
	})
	if err != nil {
		t.Fatalf("RestoreStacker: %v", err)
	}
	interimStacker, err := meta.RestoreStacker(&meta.StackerState{
		Labels:       fixtureLabels,
		LearnerNames: []string{"NameMatcher", "NaiveBayes"},
		Weights: [][]float64{
			{0.75, 0.25},
			{0.25, 0.75},
			{0.5, 0.5},
		},
	})
	if err != nil {
		t.Fatalf("RestoreStacker: %v", err)
	}
	return &core.SystemState{
		Config: core.Config{
			UseXMLLearner:        true,
			UseConstraintHandler: true,
			Meta:                 meta.Config{Folds: 5},
			Converter:            meta.Average,
			MaxListings:          7,
			Seed:                 42,
		},
		MediatedDTD: fixtureDTD,
		ConstraintSpecs: []constraint.Spec{
			constraint.Describe(constraint.AtMostOne("PRICE")),
			constraint.Describe(constraint.LeafLabel("PRICE")),
			constraint.Describe(constraint.MustMatch("price", "PRICE")),
			constraint.Describe(constraint.Near("PRICE", "AGENT-NAME", 0.5)),
		},
		DroppedConstraints: 1,
		Synonyms:           map[string][]string{"AGENT-NAME": {"realtor", "broker"}},
		HierarchyParent:    map[string]string{"AGENT-NAME": "CONTACT"},
		Labels:             learn.LabelsOf(fixtureLabels),
		Names:              []string{"NameMatcher", "NaiveBayes", "XMLLearner"},
		Learners: []learn.Learner{
			train(namematcher.New()),
			train(naivebayes.New()),
			train(xmllearner.New(nil)),
		},
		Stacker:         stacker,
		InterimNames:    []string{"NameMatcher", "NaiveBayes"},
		InterimLearners: []learn.Learner{train(namematcher.New()), train(naivebayes.New())},
		InterimStacker:  interimStacker,
	}
}

// TestEncodeDecodeStable round-trips a full state and requires the
// re-encoding to be byte-identical: decode loses nothing the encoder
// can see.
func TestEncodeDecodeStable(t *testing.T) {
	st := fixtureState(t)
	data, err := Encode("fixture", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	d, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d.Name != "fixture" {
		t.Errorf("decoded name %q, want %q", d.Name, "fixture")
	}
	if d.FormatVersion != FormatVersion {
		t.Errorf("decoded version %d, want %d", d.FormatVersion, FormatVersion)
	}
	if len(d.Skipped) != 0 {
		t.Errorf("decoded skipped sections %v, want none", d.Skipped)
	}
	if d.State.DroppedConstraints != 1 {
		t.Errorf("dropped constraints %d, want 1", d.State.DroppedConstraints)
	}
	again, err := Encode("fixture", d.State)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("encode → decode → encode is not byte-identical")
	}
}

// TestDecodedSystem proves a decoded artifact yields a servable system
// whose ensemble predictions match the originals bit for bit.
func TestDecodedSystem(t *testing.T) {
	st := fixtureState(t)
	data, err := Encode("fixture", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	d, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sys, err := d.System(1)
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	if sys == nil {
		t.Fatal("System returned nil")
	}
	for i, l := range d.State.Learners {
		checkSamePredictions(t, st.Learners[i], l)
	}
	for i, l := range d.State.InterimLearners {
		checkSamePredictions(t, st.InterimLearners[i], l)
	}
}

func TestSaveLoad(t *testing.T) {
	st := fixtureState(t)
	data, err := Encode("disk", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	path := filepath.Join(t.TempDir(), "model.lsdm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if d.Name != "disk" {
		t.Errorf("loaded name %q, want %q", d.Name, "disk")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.lsdm")); err == nil {
		t.Error("Load(missing) succeeded, want error")
	}
}

// reseal recomputes the trailing checksum over body.
func reseal(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

// TestUnknownSectionSkipped splices a section from the future into a
// valid artifact; the reader must skip it and decode the rest intact.
func TestUnknownSectionSkipped(t *testing.T) {
	st := fixtureState(t)
	data, err := Encode("fixture", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	body := data[:len(data)-checksumSize]
	w := &writer{buf: append([]byte(nil), body[:len(body)-1]...)} // drop 'E'
	w.u8('S')
	w.str("gpu-cache-hints")
	w.u16(3)
	payload := []byte("opaque bytes a v1 reader cannot understand")
	w.uvarint(uint64(len(payload)))
	w.bytes(payload)
	w.u8('E')
	spliced := reseal(w.buf)

	d, err := Decode(spliced)
	if err != nil {
		t.Fatalf("Decode with unknown section: %v", err)
	}
	if len(d.Skipped) != 1 || d.Skipped[0] != "gpu-cache-hints" {
		t.Fatalf("Skipped = %v, want [gpu-cache-hints]", d.Skipped)
	}
	again, err := Encode("fixture", d.State)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("state decoded around unknown section differs from original")
	}
}

func TestDecodeRejects(t *testing.T) {
	st := fixtureState(t)
	data, err := Encode("fixture", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	body := data[:len(data)-checksumSize]

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "too short"},
		{"short", []byte("LSDM"), "too short"},
		{"bad magic", reseal(append([]byte("XXXX"), body[4:]...)), "bad magic"},
		{"flipped bit", flipBit(data, len(data)/2), "checksum mismatch"},
		{"truncated", data[:len(data)-1], "checksum mismatch"},
		{"future version", reseal(bumpVersion(body)), "newer than supported"},
		{"future section encoding", reseal(bumpSectionEncoding(t, body)), "newer than supported"},
		{"trailing bytes", reseal(append(append([]byte(nil), body...), 0xFF)), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if err == nil {
				t.Fatal("Decode succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeRejectsLabelMismatch encodes states whose ensembles score
// other label lists than the mediated schema: a learner over fewer
// labels, and ensembles over a permutation. Matching reads every
// prediction by the mediated section's label ids, so Decode must refuse
// each one rather than hand out a system whose first match panics.
func TestDecodeRejectsLabelMismatch(t *testing.T) {
	permuted := []string{"AGENT-NAME", "PRICE", "OTHER"}
	// trainOn trains l on the fixture examples labelled within labels.
	trainOn := func(t *testing.T, labels []string, l learn.Learner) learn.Learner {
		var ex []learn.Example
		for _, e := range fixtureExamples() {
			if slices.Contains(labels, e.Label) {
				ex = append(ex, e)
			}
		}
		if err := l.Train(labels, ex); err != nil {
			t.Fatalf("Train %s: %v", l.Name(), err)
		}
		return l
	}
	restack := func(t *testing.T, s *meta.Stacker, labels []string) *meta.Stacker {
		st := s.State()
		st.Labels = labels
		out, err := meta.RestoreStacker(st)
		if err != nil {
			t.Fatalf("RestoreStacker: %v", err)
		}
		return out
	}
	cases := []struct {
		name   string
		modify func(t *testing.T, st *core.SystemState)
		want   string
	}{
		{"learner over fewer labels", func(t *testing.T, st *core.SystemState) {
			st.Learners[1] = trainOn(t, []string{"PRICE", "OTHER"}, naivebayes.New())
		}, `learner "NaiveBayes" scores other labels than its stacker`},
		{"learner over permuted labels", func(t *testing.T, st *core.SystemState) {
			st.InterimLearners[0] = trainOn(t, permuted, namematcher.New())
		}, `learner "NameMatcher" scores other labels than its stacker`},
		{"permuted ensemble", func(t *testing.T, st *core.SystemState) {
			st.Learners = []learn.Learner{
				trainOn(t, permuted, namematcher.New()),
				trainOn(t, permuted, naivebayes.New()),
				trainOn(t, permuted, xmllearner.New(nil)),
			}
			st.Stacker = restack(t, st.Stacker, permuted)
		}, "artifact: stacker scores other labels than the mediated schema"},
		{"permuted interim ensemble", func(t *testing.T, st *core.SystemState) {
			st.InterimLearners = []learn.Learner{
				trainOn(t, permuted, namematcher.New()),
				trainOn(t, permuted, naivebayes.New()),
			}
			st.InterimStacker = restack(t, st.InterimStacker, permuted)
		}, "interim stacker scores other labels than the mediated schema"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := fixtureState(t)
			tc.modify(t, st)
			data, err := Encode("mismatch", st)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			_, err = Decode(data)
			if err == nil {
				t.Fatal("Decode succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func flipBit(data []byte, i int) []byte {
	cp := append([]byte(nil), data...)
	cp[i] ^= 0x40
	return cp
}

func bumpVersion(body []byte) []byte {
	cp := append([]byte(nil), body...)
	cp[4] = 0xFF
	cp[5] = 0xFF
	return cp
}

// bumpSectionEncoding rewrites the first section's encoding tag to a
// number this reader does not support.
func bumpSectionEncoding(t *testing.T, body []byte) []byte {
	t.Helper()
	cp := append([]byte(nil), body...)
	r := newReader(cp)
	r.off = len(magic) + 2
	if r.u8() != 'S' {
		t.Fatal("expected section marker")
	}
	r.str()
	off := r.off // encoding tag position
	if r.failed() {
		t.Fatalf("walking artifact: %v", r.err)
	}
	cp[off] = 0xFF
	cp[off+1] = 0xFF
	return cp
}

func TestMissingRequiredSection(t *testing.T) {
	// An artifact with only a model section.
	w := &writer{}
	w.bytes([]byte(magic))
	w.u16(FormatVersion)
	model := &writer{}
	model.str("lonely")
	section(w, secModel, model.buf)
	w.u8('E')
	_, err := Decode(reseal(w.buf))
	if err == nil || !strings.Contains(err.Error(), "missing required section") {
		t.Fatalf("Decode = %v, want missing required section", err)
	}
}

func TestDuplicateSection(t *testing.T) {
	w := &writer{}
	w.bytes([]byte(magic))
	w.u16(FormatVersion)
	model := &writer{}
	model.str("twice")
	section(w, secModel, model.buf)
	section(w, secModel, model.buf)
	w.u8('E')
	_, err := Decode(reseal(w.buf))
	if err == nil || !strings.Contains(err.Error(), "duplicate section") {
		t.Fatalf("Decode = %v, want duplicate section", err)
	}
}

func TestEncodeRejectsOpaqueConstraint(t *testing.T) {
	st := fixtureState(t)
	st.ConstraintSpecs = append(st.ConstraintSpecs, constraint.Spec{Kind: constraint.KindOpaque})
	if _, err := Encode("bad", st); err == nil {
		t.Fatal("Encode with opaque constraint spec succeeded, want error")
	}
}

// emptyLabelArtifact encodes the fixture with one more constraint spec,
// a frequency bound on the empty label.
func emptyLabelArtifact(t testing.TB) []byte {
	st := fixtureState(t)
	st.ConstraintSpecs = append(st.ConstraintSpecs, constraint.Spec{
		Kind: constraint.KindFrequency, Hard: true, Labels: []string{""}, Max: 1})
	data, err := Encode("empty-label", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

// TestDecodeRefusesEmptyLabel: an artifact whose constraint names the
// empty label does not decode.
func TestDecodeRefusesEmptyLabel(t *testing.T) {
	_, err := Decode(emptyLabelArtifact(t))
	if err == nil || !strings.Contains(err.Error(), "empty label") {
		t.Fatalf("Decode = %v, want an empty-label error", err)
	}
}

// TestGolden pins the wire format: a fixture artifact must decode from
// (and re-encode to) the exact bytes committed in testdata. Run with
// -update to regenerate after an intentional format change.
func TestGolden(t *testing.T) {
	st := fixtureState(t)
	data, err := Encode("golden", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	path := filepath.Join("testdata", "fixture_v1.bin")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./internal/artifact -update` to create): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("encoded artifact differs from golden %s (%d vs %d bytes); run with -update if the format change is intentional", path, len(data), len(want))
	}
	d, err := Decode(want)
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	if d.Name != "golden" {
		t.Errorf("golden name %q, want %q", d.Name, "golden")
	}
	if len(d.State.Learners) != 3 || len(d.State.InterimLearners) != 2 {
		t.Errorf("golden learners %d/%d, want 3/2", len(d.State.Learners), len(d.State.InterimLearners))
	}
	if _, err := d.System(1); err != nil {
		t.Errorf("golden System: %v", err)
	}
}

// TestGoldenFutureSection decodes a committed artifact that carries a
// section this reader has never heard of — the forward-compatibility
// contract pinned as bytes on disk.
func TestGoldenFutureSection(t *testing.T) {
	path := filepath.Join("testdata", "future_section_v1.bin")
	if *update {
		st := fixtureState(t)
		data, err := Encode("golden", st)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		body := data[:len(data)-checksumSize]
		w := &writer{buf: append([]byte(nil), body[:len(body)-1]...)}
		w.u8('S')
		w.str("embedding-index")
		w.u16(1)
		payload := []byte("payload from a future writer")
		w.uvarint(uint64(len(payload)))
		w.bytes(payload)
		w.u8('E')
		if err := os.WriteFile(path, reseal(w.buf), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./internal/artifact -update` to create): %v", err)
	}
	d, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(d.Skipped) != 1 || d.Skipped[0] != "embedding-index" {
		t.Fatalf("Skipped = %v, want [embedding-index]", d.Skipped)
	}
	if _, err := d.System(1); err != nil {
		t.Errorf("System: %v", err)
	}
}

// TestDecodeSharesInterimLearners: an artifact whose interim learners
// carry the same name, kind and payload bytes as the first final
// learners decodes to one instance for both lists, as training built
// them, and re-encodes to the same bytes. A record that differs in its
// payload or its name keeps an instance of its own.
func TestDecodeSharesInterimLearners(t *testing.T) {
	st := fixtureState(t)
	data, err := Encode("shared", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	d, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sys, err := d.System(1)
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	sst := sys.State()
	for j := range st.InterimLearners {
		if d.State.InterimLearners[j] != d.State.Learners[j] || sst.InterimLearners[j] != sst.Learners[j] {
			t.Errorf("interim learner %d is a second instance of final learner %d", j, j)
		}
	}
	again, err := Encode("shared", d.State)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Error("shared decode does not re-encode to the same bytes")
	}

	// The interim Naive Bayes trained on fewer examples, and the interim
	// name matcher under another name.
	st = fixtureState(t)
	nb := naivebayes.New()
	if err := nb.Train(fixtureLabels, fixtureExamples()[1:]); err != nil {
		t.Fatalf("Train: %v", err)
	}
	st.InterimLearners[1] = nb
	st.InterimNames[0] = "Names"
	data, err = Encode("unshared", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	d, err = Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for j := range st.InterimLearners {
		if d.State.InterimLearners[j] == d.State.Learners[j] {
			t.Errorf("interim learner %d shares final learner %d's instance though their records differ", j, j)
		}
		checkSamePredictions(t, st.InterimLearners[j], d.State.InterimLearners[j])
	}
}
