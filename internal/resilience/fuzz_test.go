package resilience

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzCheckpointDecode hammers the snapshot decoder with arbitrary
// bytes. The contract under test: the decoder never panics, every
// rejection wraps ErrCorrupt or ErrFingerprint semantics (here: any
// error), and anything it accepts survives a canonical re-encode /
// re-decode round trip — a checkpoint is either rejected whole or
// trusted whole, never partially.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add([]byte("{}"))
	f.Add([]byte("definitely not json"))
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)/3] ^= 0xFF
	f.Add(corrupted)
	f.Add([]byte(`{"magic":"megsim-checkpoint","version":1,"crc32":0,"body":{"fingerprint":"x","frames":[{"frame":-1}]}}`))
	f.Add([]byte(`{"magic":"megsim-checkpoint","version":1,"crc32":0,"body":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCheckpoint(data)
		if err != nil {
			if c != nil {
				t.Fatalf("decode returned both a checkpoint and an error: %v", err)
			}
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		re, err := EncodeCheckpoint(c)
		if err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
		c2, err := decodeCheckpoint(re)
		if err != nil {
			t.Fatalf("canonical re-encode failed to decode: %v", err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("canonical round trip not stable:\n got %+v\nwant %+v", c2, c)
		}
	})
}
