package funcsim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/workload"
)

// characterizeGoldens pins a SHA-256 of Run's profiles for two 2D and
// two 3D traces at workload.TestScale. Any change to coverage, early-Z
// or shader accounting moves a digest; a deliberate re-pin must be
// justified by the validation oracle's error bands.
var characterizeGoldens = []struct {
	name    string
	profile workload.Profile
	digest  string
}{
	{"hcr", workload.Profiles["hcr"], "ee0f9c1e25e75034e9fdba3a0df2b50a2fba4c322681cd7b5b20a3e006c6177b"},
	{"pvz", workload.Profiles["pvz"], "09d9397ce14357233a5c3663a60ac0544270ac31330c316f0d6edf51f6776af6"},
	{"bbr1", workload.Profiles["bbr1"], "44aa24578380b3bc4888827392650019f38eea6a27ec06759149fd9d7ecc5fb6"},
	{"rnd-6", workload.RandomProfile(6), "cee23d8f8df71c86f4a4d5c941e99db0f267931d68a27aac316fa685f892bf1d"},
}

// profilesDigest hashes every field of every profile, in frame order,
// as little-endian uint64s with each count vector length-prefixed.
func profilesDigest(ps []FrameProfile) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putVec := func(vs []uint64) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(v)
		}
	}
	for i := range ps {
		p := &ps[i]
		put(uint64(p.Frame))
		putVec(p.VSCount)
		putVec(p.FSCount)
		put(p.PrimsIn)
		put(p.PrimsVisible)
		put(p.Fragments)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCharacterizeGolden(t *testing.T) {
	for _, g := range characterizeGoldens {
		t.Run(g.name, func(t *testing.T) {
			tr := workload.MustGenerate(g.profile, workload.TestScale)
			res, err := Run(context.Background(), tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := profilesDigest(res.Profiles); got != g.digest {
				t.Fatalf("profiles digest = %s, want %s", got, g.digest)
			}
		})
	}
}

// renderGoldens pins a SHA-256 of RenderFrame's pixels for two frames
// each of a 2D trace with blended HUD layers, a 3D trace and a random
// profile at workload.TestScale. The frame renderer shares coverage and
// early-Z with the simulators, so these move only if the raster does.
var renderGoldens = []struct {
	name    string
	profile workload.Profile
	frames  [2]int
	digests [2]string
}{
	{"hcr", workload.Profiles["hcr"], [2]int{5, 30}, [2]string{
		"8be3f69c735349167bd15a2733e520ba8a06326b619c92392ff8f98cfcd7fec8",
		"84c8f40f0feccf941fbdea71c56d6acea0ee712a1b384694952db2fc7339fdd6",
	}},
	{"bbr1", workload.Profiles["bbr1"], [2]int{10, 40}, [2]string{
		"a4e39837cabaedaa04f2f7a5ab259198977d4d2c10551947850cf36bfb8547ac",
		"30ae985fa7c0b6b372108fbbe779b16b2bb1f3bcf82eac6a27301d00ec86db9c",
	}},
	{"rnd-6", workload.RandomProfile(6), [2]int{3, 20}, [2]string{
		"613fdb76fca686f3a586e7de7980a6872d5c3a193067a224255db50c9ae67b05",
		"1b9bfd300176ebcb3ee6f8255013f91a3f8869bc7924df99c33cbec64b459567",
	}},
}

func TestRenderFrameGolden(t *testing.T) {
	for _, g := range renderGoldens {
		t.Run(g.name, func(t *testing.T) {
			tr := workload.MustGenerate(g.profile, workload.TestScale)
			for i, f := range g.frames {
				img, err := RenderFrame(tr, f)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(img.Pix)
				if got := hex.EncodeToString(sum[:]); got != g.digests[i] {
					t.Errorf("frame %d pixel digest = %s, want %s", f, got, g.digests[i])
				}
			}
		})
	}
}
