package artifact

import (
	"testing"
)

// FuzzArtifactDecode proves Decode never panics: any byte string —
// valid, truncated, bit-flipped, or adversarial — must come back as a
// (*Decoded, nil) or (nil, error), and a successful decode must
// re-encode and decode again cleanly.
func FuzzArtifactDecode(f *testing.F) {
	st := fixtureState(f)
	valid, err := Encode("fuzz-seed", st)
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	f.Add(valid)
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
	})
}
