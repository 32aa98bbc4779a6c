package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"sort"

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

// magic opens every artifact.
const magic = "LSDM"

// FormatVersion is the envelope version this package writes; readers
// refuse artifacts whose version is newer.
const FormatVersion uint16 = 1

// checksumSize is the trailing SHA-256.
const checksumSize = sha256.Size

// Section names. Unknown names are skipped on read; these five are the
// vocabulary version 1 writers emit.
const (
	secModel    = "model"    // model name
	secConfig   = "config"   // matching-phase Config scalars
	secMediated = "mediated" // DTD, synonyms, hierarchy, constraints, labels
	secEnsemble = "ensemble" // final learners + stacker
	secInterim  = "interim"  // interim ensemble behind the XML learner
)

// sectionEncodings maps each known section to the newest payload
// encoding this reader understands. A section tagged higher is refused
// (version skew); unknown section names are skipped instead.
var sectionEncodings = map[string]uint16{
	secModel:    1,
	secConfig:   1,
	secMediated: 1,
	secEnsemble: 1,
	secInterim:  1,
}

// Learner kind tags inside ensemble sections.
const (
	kindWhirl      = "whirl"
	kindNaiveBayes = "naivebayes"
	kindXML        = "xml"
	kindStats      = "stats"
	kindFormat     = "format"
	kindRecognizer = "recognizer"
)

// Decoded is the result of reading an artifact: the model name, the
// restored system state, and envelope metadata. Call System to turn it
// into a servable matcher.
type Decoded struct {
	// Name is the model name recorded at save time.
	Name string
	// FormatVersion is the envelope version the artifact was written at.
	FormatVersion uint16
	// Checksum is the hex SHA-256 the artifact carried (and matched).
	Checksum string
	// State is the restored trained-system snapshot.
	State *core.SystemState
	// Skipped lists section names this reader did not recognize and
	// skipped — the forward-compatibility path.
	Skipped []string
}

// System rebuilds a servable matcher from the decoded state with the
// given worker budget (core.Config.Workers semantics).
func (d *Decoded) System(workers int) (*core.System, error) {
	return core.FromState(d.State, workers)
}

// Encode serializes a trained-system snapshot under the given model
// name into a self-contained artifact.
//
// lint:codec encode
func Encode(name string, st *core.SystemState) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("artifact: nil system state")
	}
	if st.Stacker == nil {
		return nil, fmt.Errorf("artifact: state has no stacker")
	}
	w := &writer{}
	w.bytes([]byte(magic))
	w.u16(FormatVersion)

	model := &writer{}
	model.str(name)
	section(w, secModel, model.buf)

	section(w, secConfig, encodeConfig(st.Config))
	med, err := encodeMediated(st)
	if err != nil {
		return nil, err
	}
	section(w, secMediated, med)

	ens, err := encodeEnsemble(st.Names, st.Learners, st.Stacker)
	if err != nil {
		return nil, err
	}
	section(w, secEnsemble, ens)

	if len(st.InterimLearners) > 0 {
		if st.InterimStacker == nil {
			return nil, fmt.Errorf("artifact: interim learners without an interim stacker")
		}
		in, err := encodeEnsemble(st.InterimNames, st.InterimLearners, st.InterimStacker)
		if err != nil {
			return nil, err
		}
		section(w, secInterim, in)
	}

	w.u8('E')
	sum := sha256.Sum256(w.buf)
	w.bytes(sum[:])
	return w.buf, nil
}

// EncodeSystem snapshots and serializes a trained system.
func EncodeSystem(name string, sys *core.System) ([]byte, error) {
	return Encode(name, sys.State())
}

// Save writes an artifact for the trained system to path.
func Save(path, name string, sys *core.System) error {
	data, err := EncodeSystem(name, sys)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads and decodes an artifact file.
func Load(path string) (*Decoded, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// Decode parses an artifact. It verifies the checksum before decoding
// any payload and never panics on corrupted or truncated input.
//
// lint:codec decode
func Decode(data []byte) (*Decoded, error) {
	if len(data) < len(magic)+2+1+checksumSize {
		return nil, fmt.Errorf("artifact: %d bytes is too short to be an artifact", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("artifact: bad magic %q", data[:len(magic)])
	}
	body, tail := data[:len(data)-checksumSize], data[len(data)-checksumSize:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(tail) {
		return nil, fmt.Errorf("artifact: checksum mismatch: artifact is corrupted or truncated")
	}

	r := newReader(body)
	r.off = len(magic)
	version := r.u16()
	if version > FormatVersion {
		return nil, fmt.Errorf("artifact: format version %d is newer than supported %d", version, FormatVersion)
	}

	d := &Decoded{
		FormatVersion: version,
		Checksum:      hex.EncodeToString(tail),
		State:         &core.SystemState{},
	}
	seen := map[string]bool{}
	// The learner records of the first ensemble section decoded, which
	// the other may share (see decodeEnsemble).
	var first []learnerRecord
	for {
		marker := r.u8()
		if r.failed() {
			return nil, r.err
		}
		if marker == 'E' {
			break
		}
		if marker != 'S' {
			return nil, fmt.Errorf("artifact: bad section marker 0x%02x", marker)
		}
		name := r.str()
		enc := r.u16()
		n := r.uvarint()
		if r.failed() {
			return nil, r.err
		}
		if n > uint64(r.remaining()) {
			return nil, fmt.Errorf("artifact: section %q claims %d bytes, %d remain", name, n, r.remaining())
		}
		sr := r.sub(int(n))
		max, known := sectionEncodings[name]
		if !known {
			d.Skipped = append(d.Skipped, name)
			continue
		}
		if enc > max {
			return nil, fmt.Errorf("artifact: section %q encoding %d is newer than supported %d", name, enc, max)
		}
		if seen[name] {
			return nil, fmt.Errorf("artifact: duplicate section %q", name)
		}
		seen[name] = true
		if err := decodeSection(name, sr, d, &first); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("artifact: %d trailing bytes after end marker", r.remaining())
	}
	for _, name := range []string{secModel, secConfig, secMediated, secEnsemble} {
		if !seen[name] {
			return nil, fmt.Errorf("artifact: missing required section %q", name)
		}
	}
	// Both ensembles predict over the model's label table: the converter
	// and the constraint handler read their output by the mediated
	// section's label ids.
	st := d.State
	if !slices.Equal(st.Stacker.Labels().Names(), st.Labels.Names()) {
		return nil, fmt.Errorf("artifact: stacker scores other labels than the mediated schema")
	}
	if st.InterimStacker != nil && !slices.Equal(st.InterimStacker.Labels().Names(), st.Labels.Names()) {
		return nil, fmt.Errorf("artifact: interim stacker scores other labels than the mediated schema")
	}
	return d, nil
}

// decodeSection decodes one known section into d. first holds the
// learner records of the ensemble section decoded first: the second
// shares its instances where the records agree.
func decodeSection(name string, r *reader, d *Decoded, first *[]learnerRecord) error {
	switch name {
	case secModel:
		d.Name = r.str()
	case secConfig:
		decodeConfig(r, &d.State.Config)
	case secMediated:
		decodeMediated(r, d.State)
	case secEnsemble, secInterim:
		names, learners, stacker, recs, err := decodeEnsemble(r, *first)
		if err != nil {
			return err
		}
		if *first == nil {
			*first = recs
		}
		if name == secEnsemble {
			d.State.Names, d.State.Learners, d.State.Stacker = names, learners, stacker
		} else {
			d.State.InterimNames, d.State.InterimLearners, d.State.InterimStacker = names, learners, stacker
		}
	}
	if r.failed() {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("artifact: section %q has %d trailing bytes", name, r.remaining())
	}
	return nil
}

// section emits one section record.
func section(w *writer, name string, payload []byte) {
	w.u8('S')
	w.str(name)
	w.u16(sectionEncodings[name])
	w.uvarint(uint64(len(payload)))
	w.bytes(payload)
}

// --- config section ---

const (
	cfgUseXMLLearner = 1 << iota
	cfgUseConstraintHandler
	cfgMetaUniformWeights
	cfgMetaRawWeights
	cfgMetaAllowNegative
)

func encodeConfig(cfg core.Config) []byte {
	w := &writer{}
	w.varint(int64(cfg.Converter))
	var flags byte
	if cfg.UseXMLLearner {
		flags |= cfgUseXMLLearner
	}
	if cfg.UseConstraintHandler {
		flags |= cfgUseConstraintHandler
	}
	if cfg.Meta.UniformWeights {
		flags |= cfgMetaUniformWeights
	}
	if cfg.Meta.RawWeights {
		flags |= cfgMetaRawWeights
	}
	if cfg.Meta.AllowNegativeWeights {
		flags |= cfgMetaAllowNegative
	}
	w.u8(flags)
	w.varint(int64(cfg.MaxListings))
	w.varint(cfg.Seed)
	w.varint(int64(cfg.Meta.Folds))
	return w.buf
}

func decodeConfig(r *reader, cfg *core.Config) {
	cfg.Converter = meta.ConverterMode(r.varint())
	flags := r.u8()
	cfg.UseXMLLearner = flags&cfgUseXMLLearner != 0
	cfg.UseConstraintHandler = flags&cfgUseConstraintHandler != 0
	cfg.Meta.UniformWeights = flags&cfgMetaUniformWeights != 0
	cfg.Meta.RawWeights = flags&cfgMetaRawWeights != 0
	cfg.Meta.AllowNegativeWeights = flags&cfgMetaAllowNegative != 0
	cfg.MaxListings = int(r.varint())
	cfg.Seed = r.varint()
	cfg.Meta.Folds = int(r.varint())
}

// --- mediated section ---

const (
	specHard = 1 << iota
	specForbid
	specNonLeaf
)

func encodeMediated(st *core.SystemState) ([]byte, error) {
	w := &writer{}
	w.str(st.MediatedDTD)

	synKeys := make([]string, 0, len(st.Synonyms))
	for k := range st.Synonyms {
		synKeys = append(synKeys, k)
	}
	sort.Strings(synKeys)
	w.uvarint(uint64(len(synKeys)))
	for _, k := range synKeys {
		w.str(k)
		w.strs(st.Synonyms[k])
	}

	hierKeys := make([]string, 0, len(st.HierarchyParent))
	for k := range st.HierarchyParent {
		hierKeys = append(hierKeys, k)
	}
	sort.Strings(hierKeys)
	w.uvarint(uint64(len(hierKeys)))
	for _, k := range hierKeys {
		w.str(k)
		w.str(st.HierarchyParent[k])
	}

	w.uvarint(uint64(len(st.ConstraintSpecs)))
	for _, s := range st.ConstraintSpecs {
		if s.Kind == constraint.KindOpaque || s.Kind == constraint.KindBinarySoft {
			return nil, fmt.Errorf("artifact: constraint kind %d is not serializable", s.Kind)
		}
		w.varint(int64(s.Kind))
		var flags byte
		if s.Hard {
			flags |= specHard
		}
		if s.Forbid {
			flags |= specForbid
		}
		if s.NonLeaf {
			flags |= specNonLeaf
		}
		w.u8(flags)
		w.strs(s.Labels)
		w.str(s.Tag)
		w.varint(int64(s.Min))
		w.varint(int64(s.Max))
		w.f64(s.Weight)
	}
	w.varint(int64(st.DroppedConstraints))
	w.strs(st.Labels.Names())
	return w.buf, nil
}

func decodeMediated(r *reader, st *core.SystemState) {
	st.MediatedDTD = r.str()

	if n := r.count(2); n > 0 {
		st.Synonyms = make(map[string][]string, n)
		for i := 0; i < n && !r.failed(); i++ {
			k := r.str()
			st.Synonyms[k] = r.strs()
		}
	}
	if n := r.count(2); n > 0 {
		st.HierarchyParent = make(map[string]string, n)
		for i := 0; i < n && !r.failed(); i++ {
			k := r.str()
			st.HierarchyParent[k] = r.str()
		}
	}
	n := r.count(2)
	for i := 0; i < n && !r.failed(); i++ {
		var s constraint.Spec
		s.Kind = constraint.Kind(r.varint())
		flags := r.u8()
		s.Hard = flags&specHard != 0
		s.Forbid = flags&specForbid != 0
		s.NonLeaf = flags&specNonLeaf != 0
		s.Labels = r.strs()
		s.Tag = r.str()
		s.Min = int(r.varint())
		s.Max = int(r.varint())
		s.Weight = r.f64()
		// Refuse here what the model could not rebuild on load.
		if _, err := constraint.FromSpec(s); err != nil && !r.failed() {
			r.fail("%v", err)
		}
		st.ConstraintSpecs = append(st.ConstraintSpecs, s)
	}
	st.DroppedConstraints = int(r.varint())
	st.Labels = learn.LabelsOf(r.strs())
}

// --- ensemble sections ---

func encodeEnsemble(names []string, learners []learn.Learner, stacker *meta.Stacker) ([]byte, error) {
	if len(names) != len(learners) {
		return nil, fmt.Errorf("artifact: %d names for %d learners", len(names), len(learners))
	}
	w := &writer{}
	w.strs(names)
	w.uvarint(uint64(len(learners)))
	for i, l := range learners {
		kind, payload, err := encodeLearner(l)
		if err != nil {
			return nil, fmt.Errorf("artifact: learner %q: %w", names[i], err)
		}
		w.str(kind)
		w.uvarint(uint64(len(payload)))
		w.bytes(payload)
	}
	encodeStacker(w, stacker.State())
	return w.buf, nil
}

// learnerRecord is one decoded learner with the record it came from.
// The interim ensemble's learners are the final ensemble's first
// learners, so an artifact of a trained system carries each of them
// twice, byte for byte; decoding restores one instance for both, as
// training built them.
type learnerRecord struct {
	name, kind string
	payload    []byte
	learner    learn.Learner
	labels     []string
}

// decodeEnsemble decodes an ensemble section. Learner i reuses
// prior[i]'s instance, without decoding its payload again, when both
// records give the same name, kind and payload bytes.
func decodeEnsemble(r *reader, prior []learnerRecord) ([]string, []learn.Learner, *meta.Stacker, []learnerRecord, error) {
	names := r.strs()
	n := r.count(2)
	if r.failed() {
		return nil, nil, nil, nil, r.err
	}
	if n != len(names) {
		return nil, nil, nil, nil, fmt.Errorf("artifact: %d names for %d learners", len(names), n)
	}
	recs := make([]learnerRecord, 0, n)
	for i := 0; i < n; i++ {
		kind := r.str()
		plen := r.uvarint()
		if r.failed() {
			return nil, nil, nil, nil, r.err
		}
		if plen > uint64(r.remaining()) {
			return nil, nil, nil, nil, fmt.Errorf("artifact: learner %q claims %d bytes, %d remain", names[i], plen, r.remaining())
		}
		lr := r.sub(int(plen))
		rec := learnerRecord{name: names[i], kind: kind, payload: lr.data}
		if i < len(prior) && prior[i].name == rec.name && prior[i].kind == kind && bytes.Equal(prior[i].payload, rec.payload) {
			rec.learner, rec.labels = prior[i].learner, prior[i].labels
			recs = append(recs, rec)
			continue
		}
		l, labels, err := decodeLearner(kind, lr)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("artifact: learner %q: %w", names[i], err)
		}
		if lr.remaining() != 0 {
			return nil, nil, nil, nil, fmt.Errorf("artifact: learner %q has %d trailing bytes", names[i], lr.remaining())
		}
		rec.learner, rec.labels = l, labels
		recs = append(recs, rec)
	}
	stacker, err := decodeStacker(r)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// The stacker combines the learners' predictions label by label, so
	// every learner must score the stacker's labels in the same order.
	learners := make([]learn.Learner, len(recs))
	for i, rec := range recs {
		if !slices.Equal(rec.labels, stacker.Labels().Names()) {
			return nil, nil, nil, nil, fmt.Errorf("artifact: learner %q scores other labels than its stacker", names[i])
		}
		learners[i] = rec.learner
	}
	return names, learners, stacker, recs, nil
}

func encodeStacker(w *writer, st *meta.StackerState) {
	w.strs(st.Labels)
	w.strs(st.LearnerNames)
	w.uvarint(uint64(len(st.Weights)))
	for _, row := range st.Weights {
		w.f64s(row)
	}
}

func decodeStacker(r *reader) (*meta.Stacker, error) {
	var st meta.StackerState
	st.Labels = r.strs()
	st.LearnerNames = r.strs()
	n := r.count(1)
	for i := 0; i < n && !r.failed(); i++ {
		st.Weights = append(st.Weights, r.f64s())
	}
	if r.failed() {
		return nil, r.err
	}
	return meta.RestoreStacker(&st)
}

// --- learner payloads ---

func encodeLearner(l learn.Learner) (string, []byte, error) {
	switch v := l.(type) {
	case *whirl.Classifier:
		st := v.State()
		if st == nil {
			return "", nil, fmt.Errorf("untrained WHIRL classifier")
		}
		return kindWhirl, encodeWhirl(st), nil
	case *naivebayes.Learner:
		st := v.State()
		if st == nil {
			return "", nil, fmt.Errorf("untrained Naive Bayes learner")
		}
		return kindNaiveBayes, encodeNaiveBayes(st), nil
	case *xmllearner.Learner:
		st := v.State()
		if st == nil {
			return "", nil, fmt.Errorf("untrained XML learner")
		}
		return kindXML, encodeNaiveBayes(st), nil
	case *stats.Learner:
		st := v.State()
		if st == nil {
			return "", nil, fmt.Errorf("untrained stats learner")
		}
		return kindStats, encodeStats(st), nil
	case *format.Learner:
		st := v.State()
		if st == nil {
			return "", nil, fmt.Errorf("untrained format learner")
		}
		return kindFormat, encodeFormat(st), nil
	case *recognizer.Dictionary:
		return kindRecognizer, encodeRecognizer(v.State()), nil
	default:
		return "", nil, fmt.Errorf("learner type %T is not serializable", l)
	}
}

// whirlRestorers dispatches a decoded WHIRL state to the package that
// owns its extractor, keyed by the classifier's recorded name. The
// extractor is code, not data; only classifiers with a registered
// restorer can come back from an artifact.
var whirlRestorers = map[string]func(*whirl.State) (learn.Learner, error){
	"NameMatcher":    namematcher.FromState,
	"ContentMatcher": contentmatcher.FromState,
}

// RegisterWhirlRestorer associates a WHIRL classifier name with its
// restore function. namematcher and contentmatcher register theirs at
// init; tests may register extra ones.
func RegisterWhirlRestorer(name string, fn func(*whirl.State) (learn.Learner, error)) {
	whirlRestorers[name] = fn
}

func decodeLearner(kind string, r *reader) (learn.Learner, []string, error) {
	switch kind {
	case kindWhirl:
		st, err := decodeWhirl(r)
		if err != nil {
			return nil, nil, err
		}
		restore, ok := whirlRestorers[st.Name]
		if !ok {
			return nil, nil, fmt.Errorf("no extractor registered for WHIRL classifier %q", st.Name)
		}
		l, err := restore(st)
		return l, st.Labels, err
	case kindNaiveBayes:
		st := decodeNaiveBayes(r)
		if r.failed() {
			return nil, nil, r.err
		}
		l, err := naivebayes.Restore(st)
		return l, st.Labels, err
	case kindXML:
		st := decodeNaiveBayes(r)
		if r.failed() {
			return nil, nil, r.err
		}
		l, err := xmllearner.Restore(st)
		return l, st.Labels, err
	case kindStats:
		st := decodeStats(r)
		if r.failed() {
			return nil, nil, r.err
		}
		l, err := stats.Restore(st)
		return l, st.Labels, err
	case kindFormat:
		st := decodeFormat(r)
		if r.failed() {
			return nil, nil, r.err
		}
		l, err := format.Restore(st)
		return l, st.Labels, err
	case kindRecognizer:
		st := decodeRecognizer(r)
		if r.failed() {
			return nil, nil, r.err
		}
		l, err := recognizer.Restore(st)
		return l, st.Labels, err
	default:
		return nil, nil, fmt.Errorf("unknown learner kind %q", kind)
	}
}

func encodeWhirl(st *whirl.State) []byte {
	w := &writer{}
	w.str(st.Name)
	w.f64(st.Config.MinSimilarity)
	w.varint(int64(st.Config.MaxNeighbors))
	w.f64(st.Config.Smoothing)
	w.strs(st.Labels)
	w.strs(st.Corpus.Tokens)
	w.uvarint(uint64(len(st.Corpus.DocFreq)))
	for _, df := range st.Corpus.DocFreq {
		w.varint(df)
	}
	w.varint(st.Corpus.NumDocs)
	w.uvarint(uint64(len(st.DocLabels)))
	for _, li := range st.DocLabels {
		w.varint(int64(li))
	}
	w.uvarint(uint64(len(st.Postings)))
	for _, list := range st.Postings {
		w.uvarint(uint64(len(list)))
		for _, p := range list {
			w.varint(int64(p.Doc))
			w.f64(p.W)
		}
	}
	return w.buf
}

func decodeWhirl(r *reader) (*whirl.State, error) {
	st := &whirl.State{}
	st.Name = r.str()
	st.Config.MinSimilarity = r.f64()
	st.Config.MaxNeighbors = int(r.varint())
	st.Config.Smoothing = r.f64()
	st.Labels = r.strs()
	st.Corpus.Tokens = r.strs()
	if n := r.count(1); n > 0 {
		st.Corpus.DocFreq = make([]int64, n)
		for i := range st.Corpus.DocFreq {
			st.Corpus.DocFreq[i] = r.varint()
		}
	}
	st.Corpus.NumDocs = r.varint()
	if n := r.count(1); n > 0 {
		st.DocLabels = make([]int32, n)
		for i := range st.DocLabels {
			st.DocLabels[i] = int32(r.varint())
		}
	}
	n := r.count(1)
	if !r.failed() {
		st.Postings = make([][]whirl.Posting, n)
		for id := 0; id < n && !r.failed(); id++ {
			m := r.count(9)
			list := make([]whirl.Posting, m)
			for i := range list {
				list[i] = whirl.Posting{Doc: int32(r.varint()), W: r.f64()}
			}
			st.Postings[id] = list
		}
	}
	if r.failed() {
		return nil, r.err
	}
	return st, nil
}

func encodeNaiveBayes(st *naivebayes.State) []byte {
	w := &writer{}
	w.strs(st.Labels)
	w.strs(st.Tokens)
	w.uvarint(uint64(len(st.LogProb)))
	for _, row := range st.LogProb {
		w.f64s(row)
	}
	w.f64s(st.UnseenLog)
	w.f64s(st.Prior)
	w.f64(st.NumDocs)
	return w.buf
}

func decodeNaiveBayes(r *reader) *naivebayes.State {
	st := &naivebayes.State{}
	st.Labels = r.strs()
	st.Tokens = r.strs()
	n := r.count(1)
	for i := 0; i < n && !r.failed(); i++ {
		st.LogProb = append(st.LogProb, r.f64s())
	}
	st.UnseenLog = r.f64s()
	st.Prior = r.f64s()
	st.NumDocs = r.f64()
	return st
}

func encodeStats(st *stats.State) []byte {
	w := &writer{}
	w.strs(st.Labels)
	w.uvarint(uint64(len(st.Classes)))
	for _, c := range st.Classes {
		w.f64(c.N)
		w.f64s(c.Sum)
		w.f64s(c.SumSq)
	}
	w.f64(st.NumDocs)
	return w.buf
}

func decodeStats(r *reader) *stats.State {
	st := &stats.State{}
	st.Labels = r.strs()
	n := r.count(10)
	for i := 0; i < n && !r.failed(); i++ {
		var c stats.ClassState
		c.N = r.f64()
		c.Sum = r.f64s()
		c.SumSq = r.f64s()
		st.Classes = append(st.Classes, c)
	}
	st.NumDocs = r.f64()
	return st
}

func encodeFormat(st *format.State) []byte {
	w := &writer{}
	w.strs(st.Labels)
	w.uvarint(uint64(len(st.PerLabel)))
	for _, ls := range st.PerLabel {
		w.strs(ls.Sigs)
		w.f64s(ls.Counts)
		w.f64(ls.Total)
	}
	w.strs(st.Sigs)
	return w.buf
}

func decodeFormat(r *reader) *format.State {
	st := &format.State{}
	st.Labels = r.strs()
	n := r.count(10)
	for i := 0; i < n && !r.failed(); i++ {
		var ls format.LabelState
		ls.Sigs = r.strs()
		ls.Counts = r.f64s()
		ls.Total = r.f64()
		st.PerLabel = append(st.PerLabel, ls)
	}
	st.Sigs = r.strs()
	return st
}

func encodeRecognizer(st *recognizer.State) []byte {
	w := &writer{}
	w.str(st.Name)
	w.str(st.Target)
	w.strs(st.Entries)
	w.strs(st.Labels)
	w.f64(st.HitRate)
	return w.buf
}

func decodeRecognizer(r *reader) *recognizer.State {
	st := &recognizer.State{}
	st.Name = r.str()
	st.Target = r.str()
	st.Entries = r.strs()
	st.Labels = r.strs()
	st.HitRate = r.f64()
	return st
}
