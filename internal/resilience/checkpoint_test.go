package resilience

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/tbr"
)

func sampleCheckpoint() *Checkpoint {
	reg := obs.New()
	reg.Counter("raster.tiles").Add(7)
	reg.Histogram("frame.cycles").Observe(123)
	return &Checkpoint{
		Fingerprint: "fp-test",
		Frames: []FrameRecord{
			{Frame: 4, Attempts: 2, Stats: tbr.FrameStats{Frame: 4, Cycles: 400}, Obs: reg.Snapshot()},
			{Frame: 1, Attempts: 1, Stats: tbr.FrameStats{Frame: 1, Cycles: 100}},
			{Frame: 9, Attempts: 1, Stats: tbr.FrameStats{Frame: 9, Cycles: 900}},
		},
		Quarantined: []QuarantineRecord{{Frame: 6, Attempts: 3, Err: "boom"}},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	data, err := EncodeCheckpoint(c)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// JSON normalizes empty containers (omitempty), so equality is judged
	// on the canonical encoding, with the load-bearing fields spot-checked.
	if got.Fingerprint != c.Fingerprint || len(got.Frames) != len(c.Frames) || len(got.Quarantined) != len(c.Quarantined) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
	if got.Frames[1].Frame != 4 || got.Frames[1].Stats.Cycles != 400 || got.Frames[1].Attempts != 2 {
		t.Fatalf("frame record mismatch: %+v", got.Frames[1])
	}
	if got.Frames[1].Obs == nil || got.Frames[1].Obs.Counters["raster.tiles"] != 7 {
		t.Fatalf("obs delta lost in round trip: %+v", got.Frames[1].Obs)
	}
	// The encoding is canonical: frames sort by index, so two runs with
	// the same completed set write byte-identical files regardless of
	// completion order.
	for i := 1; i < len(got.Frames); i++ {
		if got.Frames[i-1].Frame >= got.Frames[i].Frame {
			t.Fatalf("frames not sorted after decode: %d >= %d", got.Frames[i-1].Frame, got.Frames[i].Frame)
		}
	}
	again, err := EncodeCheckpoint(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(again) != string(data) {
		t.Fatalf("encoding not canonical: re-encode differs")
	}
}

func TestCheckpointDecodeRejectsDamage(t *testing.T) {
	valid, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	corruptBody := strings.Replace(string(valid), `\"cycles\"`, `\"cycleZ\"`, 1)
	if corruptBody == string(valid) {
		// The body is embedded as raw JSON, not escaped; flip a byte
		// inside it instead.
		b := append([]byte(nil), valid...)
		b[len(b)/2] ^= 0x20
		corruptBody = string(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"not-json", []byte("definitely not json")},
		{"truncated", valid[:len(valid)/2]},
		{"bitflip", []byte(corruptBody)},
		{"wrong-magic", mustEncodeEnvelope(t, `{"magic":"other-tool","version":1,"crc32":0,"body":{}}`)},
		{"wrong-version", mustEncodeEnvelope(t, `{"magic":"megsim-checkpoint","version":99,"crc32":0,"body":{}}`)},
		{"bad-crc", mustEncodeEnvelope(t, `{"magic":"megsim-checkpoint","version":1,"crc32":12345,"body":{"fingerprint":"x"}}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeCheckpoint(tc.data)
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
		})
	}
}

func mustEncodeEnvelope(t *testing.T, s string) []byte {
	t.Helper()
	return []byte(s)
}

func TestCheckpointDecodeRejectsBadFrames(t *testing.T) {
	neg := &Checkpoint{Fingerprint: "fp", Frames: []FrameRecord{{Frame: 2}, {Frame: 5}}}
	data, err := EncodeCheckpoint(neg)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Duplicate frame indices defeat the strictly-ascending canonical
	// order; forge them by editing the encoded body.
	forged := resealEnvelope(t, strings.Replace(string(data), `"frame": 5`, `"frame": 2`, 1))
	if _, err := decodeCheckpoint([]byte(forged)); !errors.Is(err, errCorrupt) {
		t.Fatalf("duplicate frames: want ErrCorrupt, got %v", err)
	}
	forgedNeg := resealEnvelope(t, strings.Replace(string(data), `"frame": 2`, `"frame": -2`, 1))
	if _, err := decodeCheckpoint([]byte(forgedNeg)); !errors.Is(err, errCorrupt) {
		t.Fatalf("negative frame: want ErrCorrupt, got %v", err)
	}
}

// resealEnvelope recomputes the CRC of a hand-edited envelope so the
// structural validation under test is actually reached.
func resealEnvelope(t *testing.T, s string) string {
	t.Helper()
	var f checkpointFile
	if err := json.Unmarshal([]byte(s), &f); err != nil {
		t.Fatalf("reseal: %v", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, f.Body); err != nil {
		t.Fatalf("reseal: %v", err)
	}
	f.CRC32 = crc32.ChecksumIEEE(compact.Bytes())
	out, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("reseal: %v", err)
	}
	return string(out)
}

func TestSaveLoadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	// Missing file: nothing to resume, not an error.
	c, err := LoadCheckpoint(path, "fp-test")
	if c != nil || err != nil {
		t.Fatalf("missing file: got (%v, %v), want (nil, nil)", c, err)
	}

	want := sampleCheckpoint()
	if err := SaveCheckpoint(path, want); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary file left behind: %v", err)
	}
	got, err := LoadCheckpoint(path, "fp-test")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// Equality on the canonical encoding (JSON normalizes empties).
	wantEnc, err := EncodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	gotEnc, err := EncodeCheckpoint(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotEnc) != string(wantEnc) {
		t.Fatalf("load mismatch:\n got %s\nwant %s", gotEnc, wantEnc)
	}

	// Fingerprint mismatch is its own loud error.
	if _, err := LoadCheckpoint(path, "other-config"); !errors.Is(err, errFingerprint) {
		t.Fatalf("fingerprint mismatch: want ErrFingerprint, got %v", err)
	}

	// Damage on disk surfaces as ErrCorrupt.
	if err := os.WriteFile(path, []byte("{trunca"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, "fp-test"); !errors.Is(err, errCorrupt) {
		t.Fatalf("damaged file: want ErrCorrupt, got %v", err)
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, "fp-test"); !errors.Is(err, errCorrupt) {
		t.Fatalf("empty file: want ErrCorrupt, got %v", err)
	}
}
