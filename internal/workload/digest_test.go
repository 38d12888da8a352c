package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/gltrace"
)

// streamDigest hashes a trace's command streams in a fixed encoding that
// does not depend on how gltrace stores them: per frame the command
// count, per command its fields as little-endian 64-bit words, and per
// draw the 16 words of its transform as IEEE-754 bits.
func streamDigest(tr *gltrace.Trace) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for fi := range tr.Frames {
		f := &tr.Frames[fi]
		word(uint64(len(f.Commands)))
		draw := 0
		for ci := range f.Commands {
			c := &f.Commands[ci]
			for _, v := range []int{int(c.Op), int(c.VS), int(c.FS), int(c.Unit), int(c.Texture), int(c.Mesh)} {
				word(uint64(int64(v)))
			}
			word(math.Float64bits(c.DepthBias))
			if c.Blend {
				word(1)
			} else {
				word(0)
			}
			if c.Op == gltrace.CmdDraw {
				for _, v := range f.MVPs[draw] {
					word(math.Float64bits(v))
				}
				draw++
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigest pins the generator's command streams: any change
// to the emitted commands or transforms, however small, moves a digest.
func TestGenerateDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Profile
		want string
	}{
		{"hcr", Profiles["hcr"], "d51c18665384d930fbc06ed4bd85fd194db54a35a23104267567b895865611df"},
		{"bbr1", Profiles["bbr1"], "f4c864ac576f1ca7a836ebdda7daf60d11b5aae2fcb9d43233a5e8d586df73bf"},
		{"random6", RandomProfile(6), "23d9c059c310ff3b4a875863659faed0713782338fe2db3709e99075dd55628b"},
	} {
		if got := streamDigest(MustGenerate(tc.p, TestScale)); got != tc.want {
			t.Errorf("%s: stream digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestGeneratedFramesAreExact checks the stored representation: one
// transform per draw, and no append slack left in either slice.
func TestGeneratedFramesAreExact(t *testing.T) {
	for _, p := range []Profile{Profiles["hcr"], Profiles["bbr1"], RandomProfile(6)} {
		tr := MustGenerate(p, TestScale)
		if len(tr.Frames) != cap(tr.Frames) {
			t.Errorf("%s: %d frames with capacity %d", p.Alias, len(tr.Frames), cap(tr.Frames))
		}
		for fi := range tr.Frames {
			f := &tr.Frames[fi]
			if len(f.MVPs) != f.DrawCount() {
				t.Fatalf("%s frame %d: %d transforms for %d draws", p.Alias, fi, len(f.MVPs), f.DrawCount())
			}
			if len(f.Commands) != cap(f.Commands) || len(f.MVPs) != cap(f.MVPs) {
				t.Fatalf("%s frame %d: commands %d/%d, transforms %d/%d (len/cap)",
					p.Alias, fi, len(f.Commands), cap(f.Commands), len(f.MVPs), cap(f.MVPs))
			}
		}
	}
}
