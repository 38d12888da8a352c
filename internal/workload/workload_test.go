package workload

import (
	"testing"

	"repro/internal/gltrace"
)

func TestProfilesMatchTableII(t *testing.T) {
	// Frame and shader counts must match Table II of the paper exactly.
	want := []struct {
		alias        string
		typ          GameType
		frames       int
		numVS, numFS int
	}{
		{"asp", game3D, 4000, 42, 45},
		{"bbr1", game3D, 2500, 73, 62},
		{"bbr2", game3D, 4000, 66, 59},
		{"hcr", Game2D, 2000, 5, 5},
		{"hwh", game3D, 4000, 30, 30},
		{"jjo", Game2D, 5000, 4, 5},
		{"pvz", Game2D, 5000, 4, 5},
		{"spd", game3D, 5000, 16, 26},
	}
	for _, w := range want {
		p, err := Get(w.alias)
		if err != nil {
			t.Fatalf("%s: %v", w.alias, err)
		}
		if p.Type != w.typ || p.Frames != w.frames || p.NumVS != w.numVS || p.NumFS != w.numFS {
			t.Errorf("%s: got (%v, %d frames, %d VS, %d FS), want (%v, %d, %d, %d)",
				w.alias, p.Type, p.Frames, p.NumVS, p.NumFS, w.typ, w.frames, w.numVS, w.numFS)
		}
	}
}

func TestAliasesCoverProfiles(t *testing.T) {
	if len(Aliases()) != len(Profiles) {
		t.Fatalf("Aliases() has %d entries, Profiles has %d", len(Aliases()), len(Profiles))
	}
	for _, a := range Aliases() {
		if _, ok := Profiles[a]; !ok {
			t.Errorf("alias %s missing from Profiles", a)
		}
	}
}

func TestGetUnknownAlias(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("Get accepted unknown alias")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	p := Profiles["hcr"]
	a := MustGenerate(p, TestScale)
	b := MustGenerate(p, TestScale)
	if a.NumFrames() != b.NumFrames() {
		t.Fatalf("frame counts differ: %d vs %d", a.NumFrames(), b.NumFrames())
	}
	for i := range a.Frames {
		ca, cb := a.Frames[i].Commands, b.Frames[i].Commands
		if len(ca) != len(cb) {
			t.Fatalf("frame %d command counts differ", i)
		}
		for j := range ca {
			if ca[j] != cb[j] {
				t.Fatalf("frame %d command %d differs", i, j)
			}
		}
	}
}

func TestGenerateValidatesAllBenchmarks(t *testing.T) {
	for _, alias := range Aliases() {
		p := Profiles[alias]
		tr := MustGenerate(p, TestScale)
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", alias, err)
		}
		if tr.Name != alias {
			t.Errorf("%s: trace named %q", alias, tr.Name)
		}
		wantFrames := p.Frames / TestScale.FrameDivisor
		if tr.NumFrames() != wantFrames {
			t.Errorf("%s: %d frames, want %d", alias, tr.NumFrames(), wantFrames)
		}
		if len(tr.VertexShaders) != p.NumVS || len(tr.FragmentShaders) != p.NumFS {
			t.Errorf("%s: shader counts %d/%d, want %d/%d",
				alias, len(tr.VertexShaders), len(tr.FragmentShaders), p.NumVS, p.NumFS)
		}
	}
}

func TestEveryFrameDrawsSomething(t *testing.T) {
	tr := MustGenerate(Profiles["jjo"], TestScale)
	for i := range tr.Frames {
		if tr.Frames[i].DrawCount() == 0 {
			t.Fatalf("frame %d draws nothing", i)
		}
	}
}

func TestFramesVaryAcrossPhases(t *testing.T) {
	// The phase structure must produce measurably different draw counts
	// somewhere in the sequence — otherwise clustering is meaningless.
	tr := MustGenerate(Profiles["bbr1"], TestScale)
	minD, maxD := 1<<30, 0
	for i := range tr.Frames {
		d := tr.Frames[i].DrawCount()
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD < minD*2 {
		t.Fatalf("draw counts too uniform: min=%d max=%d", minD, maxD)
	}
}

func TestConsecutiveGameplayFramesSimilar(t *testing.T) {
	// Within a phase, adjacent frames should have nearly identical
	// command mixes (smooth animation, not noise).
	tr := MustGenerate(Profiles["pvz"], TestScale)
	mid := tr.NumFrames() / 2
	a, b := tr.Frames[mid].DrawCount(), tr.Frames[mid+1].DrawCount()
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > a/2+5 {
		t.Fatalf("adjacent frames wildly different: %d vs %d draws", a, b)
	}
}

func TestAllShadersUsedSomewhere(t *testing.T) {
	// Every Table II shader should be exercised by the sequence;
	// occurrence-shifted material selection must reach all of them.
	for _, alias := range []string{"asp", "hcr"} {
		tr := MustGenerate(Profiles[alias], TestScale)
		vsUsed := make([]bool, len(tr.VertexShaders))
		fsUsed := make([]bool, len(tr.FragmentShaders))
		for fi := range tr.Frames {
			for _, c := range tr.Frames[fi].Commands {
				if c.Op == gltrace.CmdBindProgram {
					vsUsed[c.VS] = true
					fsUsed[c.FS] = true
				}
			}
		}
		vsCount, fsCount := 0, 0
		for _, u := range vsUsed {
			if u {
				vsCount++
			}
		}
		for _, u := range fsUsed {
			if u {
				fsCount++
			}
		}
		if vsCount < len(vsUsed)*3/4 || fsCount < len(fsUsed)*3/4 {
			t.Errorf("%s: only %d/%d VS and %d/%d FS used",
				alias, vsCount, len(vsUsed), fsCount, len(fsUsed))
		}
	}
}

func TestScaleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid scale did not panic")
		}
	}()
	MustGenerate(Profiles["hcr"], Scale{Width: 0, Height: 10})
}

func TestGenerateRejectsBadProfiles(t *testing.T) {
	bad := Profile{Alias: "bad", Frames: 0, NumVS: 1, NumFS: 1}
	if _, err := Generate(bad, TestScale); err == nil {
		t.Fatal("accepted profile with zero frames")
	}
	bad = Profile{Alias: "bad", Frames: 10, NumVS: 1, NumFS: 1}
	if _, err := Generate(bad, TestScale); err == nil {
		t.Fatal("accepted profile with no phases")
	}
}

func TestFrameDivisorShortensSequence(t *testing.T) {
	p := Profiles["hwh"]
	small := MustGenerate(p, Scale{Width: 128, Height: 64, FrameDivisor: 100, DetailDivisor: 2})
	if small.NumFrames() != p.Frames/100 {
		t.Fatalf("frames = %d, want %d", small.NumFrames(), p.Frames/100)
	}
}

func TestBuildScheduleCoversAllFrames(t *testing.T) {
	p := Profiles["asp"]
	sched := buildSchedule(p, 997) // awkward length exercises rounding
	if len(sched) != 997 {
		t.Fatalf("schedule length %d, want 997", len(sched))
	}
	seen := map[int]bool{}
	for _, s := range sched {
		if s.phase < 0 || s.phase >= len(p.Phases) {
			t.Fatalf("bad phase index %d", s.phase)
		}
		if s.t < 0 || s.t >= 1.0001 {
			t.Fatalf("bad within-phase position %v", s.t)
		}
		seen[s.phase] = true
	}
	if len(seen) != len(p.Phases) {
		t.Fatalf("schedule covers %d/%d phases", len(seen), len(p.Phases))
	}
}

func TestGameTypeString(t *testing.T) {
	if Game2D.String() != "2D" || game3D.String() != "3D" {
		t.Fatal("GameType.String wrong")
	}
}

func TestFrameSeedUniqueness(t *testing.T) {
	seen := map[uint64]bool{}
	for f := 0; f < 10000; f++ {
		s := frameSeed(0xabc, f)
		if seen[s] {
			t.Fatalf("frame seed collision at frame %d", f)
		}
		seen[s] = true
	}
}

func TestBlendedLayersPresent(t *testing.T) {
	// Every benchmark should contain both opaque and blended draws —
	// blended UI/particles are part of the workload model.
	for _, alias := range Aliases() {
		tr := MustGenerate(Profiles[alias], TestScale)
		opaque, blended := 0, 0
		for fi := range tr.Frames {
			for _, c := range tr.Frames[fi].Commands {
				if c.Op != gltrace.CmdDraw {
					continue
				}
				if c.Blend {
					blended++
				} else {
					opaque++
				}
			}
		}
		if opaque == 0 || blended == 0 {
			t.Errorf("%s: opaque=%d blended=%d — both kinds expected", alias, opaque, blended)
		}
	}
}
