package artifact

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/learners/naivebayes"
	"repro/internal/xmltree"
)

// FuzzArtifactDecode proves Decode never panics: any byte string —
// valid, truncated, bit-flipped, or adversarial — must come back as a
// (*Decoded, nil) or (nil, error), and a successful decode must
// re-encode and decode again cleanly. Every artifact that decodes is
// also served: its system matches one tiny source without panicking,
// within a generous time bound. Each input is tried as given and with
// its checksum recomputed.
func FuzzArtifactDecode(f *testing.F) {
	st := fixtureState(f)
	valid, err := Encode("fuzz-seed", st)
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	f.Add(valid)
	// valid's interim learners decode as the final learners' instances;
	// this one's interim Naive Bayes differs and keeps its own.
	nb := naivebayes.New()
	if err := nb.Train(fixtureLabels, fixtureExamples()[1:]); err != nil {
		f.Fatalf("Train: %v", err)
	}
	st.InterimLearners[1] = nb
	unshared, err := Encode("fuzz-seed", st)
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	f.Add(unshared)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-checksumSize])
	f.Add([]byte(magic))
	f.Add([]byte("LSDMxxxx"))
	f.Add([]byte{})
	// A tiny structurally-plausible artifact: sealed envelope with one
	// unknown section, so the fuzzer starts near the section machinery.
	w := &writer{}
	w.bytes([]byte(magic))
	w.u16(FormatVersion)
	w.u8('S')
	w.str("x")
	w.u16(1)
	w.uvarint(0)
	w.u8('E')
	f.Add(reseal(w.buf))
	// A well-formed artifact whose constraint names the empty label.
	f.Add(emptyLabelArtifact(f))
	// Corrupt-but-sealed inputs reach past the checksum gate.
	flipped := flipBit(valid, len(valid)/3)
	f.Add(reseal(flipped[:len(flipped)-checksumSize]))

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAndServe(t, data)
		// The checksum gate refuses almost every mutated input, so the
		// body is also tried under a fresh checksum: that is what lets
		// the fuzzer reach the section decoders and the match.
		if len(data) > checksumSize {
			decodeAndServe(t, reseal(data[:len(data)-checksumSize]))
		}
	})
}

// decodeAndServe decodes data; if it decodes, the result must
// re-encode and decode again cleanly, and its system must match one
// tiny source without panicking, within a generous time bound.
func decodeAndServe(t *testing.T, data []byte) {
	d, err := Decode(data)
	if err != nil {
		return
	}
	again, err := Encode(d.Name, d.State)
	if err != nil {
		t.Fatalf("decoded artifact failed to re-encode: %v", err)
	}
	if _, err := Decode(again); err != nil {
		t.Fatalf("re-encoded artifact failed to decode: %v", err)
	}
	start := time.Now()
	sys, err := d.System(1)
	if err != nil {
		return
	}
	if _, err := sys.Match(context.Background(), tinySource(t)); err != nil {
		return
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("serving the decoded artifact took %v", took)
	}
}

// tinySource is the source every decoded fuzz input matches: one
// listing with a nested element, so the XML learner labels a
// sub-element.
func tinySource(t *testing.T) *core.Source {
	schema, err := dtd.Parse("<!ELEMENT house (price, contact)>\n" +
		"<!ELEMENT price (#PCDATA)>\n" +
		"<!ELEMENT contact (agent)>\n" +
		"<!ELEMENT agent (#PCDATA)>\n")
	if err != nil {
		t.Fatalf("dtd.Parse: %v", err)
	}
	listing, err := xmltree.ParseString("<house><price>250000</price><contact><agent>Kate Richardson</agent></contact></house>")
	if err != nil {
		t.Fatalf("xmltree.ParseString: %v", err)
	}
	return &core.Source{Name: "tiny", Schema: schema, Listings: []*xmltree.Node{listing}}
}
