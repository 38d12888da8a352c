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
	{"hcr", workload.Profiles["hcr"], "a784bdae4f8a51c374d70a471b8307cd8b03edacbccbf7d7965eae83c29514a6"},
	{"pvz", workload.Profiles["pvz"], "5879ac279327c7bed5d317f5f9b959dc13891fc767e590d695b784dca53852f6"},
	{"bbr1", workload.Profiles["bbr1"], "6f1b34457b920a0efb6baae95c0d33f6eef32f171535c24f4ba4648821356c16"},
	{"rnd-6", workload.RandomProfile(6), "9e179ce915f135fbf5223228f25acef2568b307dfb2d5c8abbb2682e108ccdfe"},
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
		put(p.Checksum)
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
