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
		Stacker:        stacker,
		InterimStacker: interimStacker,
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
			st.Learners[0] = trainOn(t, permuted, namematcher.New())
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
	if len(d.State.Learners) != 3 || d.State.InterimStacker.Len() != 2 {
		t.Errorf("golden learners %d, interim %d, want 3/2", len(d.State.Learners), d.State.InterimStacker.Len())
	}
	if _, err := d.System(1); err != nil {
		t.Errorf("golden System: %v", err)
	}
}

// TestGoldenFutureSection decodes a committed artifact that carries a
// section this reader has never heard of — the forward-compatibility
// contract pinned as bytes on disk. The file predates the interim
// section's encoding 2, so it also pins the encoding-1 layout beside an
// unknown section; it is not regenerated.
func TestGoldenFutureSection(t *testing.T) {
	path := filepath.Join("testdata", "future_section_v1.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
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

// rawSection is one section record of an artifact, not decoded.
type rawSection struct {
	name    string
	enc     uint16
	payload []byte
}

// splitSections returns the section records of an artifact in order.
func splitSections(t testing.TB, data []byte) []rawSection {
	t.Helper()
	r := newReader(data[:len(data)-checksumSize])
	r.off = len(magic) + 2
	var secs []rawSection
	for r.u8() == 'S' {
		sec := rawSection{name: r.str(), enc: r.u16()}
		sec.payload = r.sub(int(r.uvarint())).data
		secs = append(secs, sec)
	}
	if r.failed() || r.remaining() != 0 {
		t.Fatalf("splitting artifact: %v, %d bytes left", r.err, r.remaining())
	}
	return secs
}

// joinSections seals section records into an artifact.
func joinSections(secs []rawSection) []byte {
	w := &writer{}
	w.bytes([]byte(magic))
	w.u16(FormatVersion)
	for _, sec := range secs {
		w.u8('S')
		w.str(sec.name)
		w.u16(sec.enc)
		w.uvarint(uint64(len(sec.payload)))
		w.bytes(sec.payload)
	}
	w.u8('E')
	return reseal(w.buf)
}

// encodeInterim1 encodes st under name in the layout artifacts had
// before the interim section's encoding 2: that section at encoding 1,
// holding the records of the given learners before the interim stacker.
func encodeInterim1(t testing.TB, name string, st *core.SystemState, names []string, learners []learn.Learner) []byte {
	t.Helper()
	data, err := Encode(name, st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	payload, err := encodeEnsemble(names, learners, st.InterimStacker)
	if err != nil {
		t.Fatalf("encodeEnsemble: %v", err)
	}
	secs := splitSections(t, data)
	for i := range secs {
		if secs[i].name == secInterim {
			secs[i] = rawSection{secInterim, 1, payload}
		}
	}
	return joinSections(secs)
}

// interim1Path is an artifact of fixtureState written before the
// interim section's encoding 2: the golden file of that format.
var interim1Path = filepath.Join("testdata", "interim_encoding1_v1.bin")

// TestInterimSectionHoldsNoLearnerRecord: Encode writes the interim
// section at encoding 2, and its payload is the interim stacker alone.
func TestInterimSectionHoldsNoLearnerRecord(t *testing.T) {
	st := fixtureState(t)
	data, err := Encode("fixture", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	want := &writer{}
	encodeStacker(want, st.InterimStacker.State())
	found := false
	for _, sec := range splitSections(t, data) {
		if sec.name != secInterim {
			continue
		}
		found = true
		if sec.enc != 2 || !bytes.Equal(sec.payload, want.buf) {
			t.Errorf("interim section at encoding %d with %d payload bytes, want encoding 2 with the stacker's %d",
				sec.enc, len(sec.payload), len(want.buf))
		}
	}
	if !found {
		t.Fatal("no interim section")
	}
}

// TestDecodeInterimEncoding1 decodes the committed encoding-1 artifact:
// its interim learner records repeat the ensemble's and are dropped.
// Its learners predict as those of the encoding-2 artifact of the same
// state, and it re-encodes to the golden encoding-2 bytes.
func TestDecodeInterimEncoding1(t *testing.T) {
	old, err := os.ReadFile(interim1Path)
	if err != nil {
		t.Fatal(err)
	}
	st := fixtureState(t)
	if got := encodeInterim1(t, "golden", st, st.Names[:2], st.Learners[:2]); !bytes.Equal(got, old) {
		t.Fatalf("encodeInterim1 does not rebuild %s", interim1Path)
	}
	d, err := Decode(old)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if _, err := d.System(1); err != nil {
		t.Fatalf("System: %v", err)
	}
	data, err := Encode("golden", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	d2, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for i, l := range d.State.Learners {
		checkSamePredictions(t, d2.State.Learners[i], l)
	}
	again, err := Encode(d.Name, d.State)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "fixture_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, golden) {
		t.Error("the encoding-1 artifact does not re-encode to the golden bytes")
	}
}

// TestDecodeRefusesInterimSection: an encoding-1 interim section whose
// learner records are not the ensemble's first learners, one with
// another record count than its stacker's, one that comes before the
// ensemble, and interim encodings other than 1 and 2 do not decode.
func TestDecodeRefusesInterimSection(t *testing.T) {
	st := fixtureState(t)
	nb := naivebayes.New()
	if err := nb.Train(fixtureLabels, fixtureExamples()[1:]); err != nil {
		t.Fatalf("Train: %v", err)
	}
	// withEncoding sets the encoding of data's interim section.
	withEncoding := func(data []byte, enc uint16) []byte {
		secs := splitSections(t, data)
		for i := range secs {
			if secs[i].name == secInterim {
				secs[i].enc = enc
			}
		}
		return joinSections(secs)
	}
	// interimFirst moves data's interim section before its ensemble.
	interimFirst := func(data []byte) []byte {
		secs := splitSections(t, data)
		n := len(secs) - 1
		if secs[n].name != secInterim || secs[n-1].name != secEnsemble {
			t.Fatalf("sections end in %q, %q, not ensemble, interim", secs[n-1].name, secs[n].name)
		}
		secs[n-1], secs[n] = secs[n], secs[n-1]
		return joinSections(secs)
	}
	current, err := Encode("fixture", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"record differs in payload", encodeInterim1(t, "fixture", st, st.Names[:2], []learn.Learner{st.Learners[0], nb}),
			`interim learner "NaiveBayes" differs from the ensemble's learner 1`},
		{"record differs in name", encodeInterim1(t, "fixture", st, []string{"Names", "NaiveBayes"}, st.Learners[:2]),
			`interim learner "Names" differs from the ensemble's learner 0`},
		{"fewer records than stacked learners", encodeInterim1(t, "fixture", st, st.Names[:1], st.Learners[:1]),
			"interim section has 1 learner records for a stacker over 2"},
		{"more records than stacked learners", encodeInterim1(t, "fixture", st, st.Names, st.Learners),
			"interim section has 3 learner records for a stacker over 2"},
		{"encoding 1 before the ensemble", interimFirst(encodeInterim1(t, "fixture", st, st.Names[:2], st.Learners[:2])),
			`section "interim" at encoding 1 precedes section "ensemble"`},
		{"encoding 3", withEncoding(current, 3), `section "interim" encoding 3 is newer than supported 2`},
		{"encoding 0", withEncoding(current, 0), `section "interim" has encoding 0`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}

	// At encoding 2 the interim section holds no learner, so its place
	// does not matter.
	d, err := Decode(interimFirst(current))
	if err != nil {
		t.Fatalf("Decode with the interim section first: %v", err)
	}
	if again, err := Encode("fixture", d.State); err != nil || !bytes.Equal(again, current) {
		t.Errorf("interim section first: re-Encode = %v, or other bytes", err)
	}
}

// stackerOver restores a stacker over fixtureLabels that combines the
// named learners with equal weights.
func stackerOver(t *testing.T, names ...string) *meta.Stacker {
	t.Helper()
	weights := make([][]float64, len(fixtureLabels))
	for i := range weights {
		weights[i] = make([]float64, len(names))
		for j := range names {
			weights[i][j] = 1 / float64(len(names))
		}
	}
	s, err := meta.RestoreStacker(&meta.StackerState{Labels: fixtureLabels, LearnerNames: names, Weights: weights})
	if err != nil {
		t.Fatalf("RestoreStacker: %v", err)
	}
	return s
}

// refusedAtLoad encodes st and requires Decode, or building the
// decoded system, to fail with an error that mentions want.
func refusedAtLoad(t *testing.T, st *core.SystemState, want string) {
	t.Helper()
	data, err := Encode("refused", st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	d, err := Decode(data)
	if err == nil {
		_, err = d.System(1)
	}
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Decode → System = %v, want an error mentioning %q", err, want)
	}
}

// TestSystemRefusesStackerNames: a stacker combines the learners by
// position, so a model whose stacker names other learners than its
// learner list, fewer of them or the same ones in another order, does
// not load. Before, the first loaded and panicked on every match; the
// second loaded and weighted the wrong learners.
func TestSystemRefusesStackerNames(t *testing.T) {
	cases := []struct {
		name    string
		learned []string
	}{
		{"fewer learners", []string{"NameMatcher", "NaiveBayes"}},
		{"permuted learners", []string{"NaiveBayes", "NameMatcher", "XMLLearner"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := fixtureState(t)
			st.Stacker = stackerOver(t, tc.learned...)
			refusedAtLoad(t, st, "stacker combines learners")
		})
	}
}

// TestSystemRefusesInterimStacker: the interim stacker combines the
// first learners of the model, which pass 1 predicts, so one whose
// names are not a prefix of the learner names, or that combines the XML
// learner, does not load.
func TestSystemRefusesInterimStacker(t *testing.T) {
	cases := []struct {
		name    string
		learned []string
		want    string
	}{
		{"permuted prefix", []string{"NaiveBayes", "NameMatcher"}, "not a prefix"},
		{"longer than the learners", []string{"NameMatcher", "NaiveBayes", "XMLLearner", "Extra"}, "not a prefix"},
		{"over the XML learner", []string{"NameMatcher", "NaiveBayes", "XMLLearner"}, "interim stacker combines an XML learner"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := fixtureState(t)
			st.InterimStacker = stackerOver(t, tc.learned...)
			refusedAtLoad(t, st, tc.want)
		})
	}
}
