package funcsim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gltrace"
	"repro/internal/tbr"
	"repro/internal/workload"
)

func run(t *testing.T, alias string) (*Result, int) {
	t.Helper()
	tr := workload.MustGenerate(workload.Profiles[alias], workload.TestScale)
	res, err := Run(context.Background(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.validate(tr); err != nil {
		t.Fatal(err)
	}
	return res, tr.NumFrames()
}

func TestRunProducesProfiles(t *testing.T) {
	res, frames := run(t, "hcr")
	if len(res.Profiles) != frames {
		t.Fatalf("profiles = %d, want %d", len(res.Profiles), frames)
	}
	for i := range res.Profiles {
		p := &res.Profiles[i]
		if p.PrimsVisible == 0 {
			t.Fatalf("frame %d has no visible primitives", i)
		}
		if p.Fragments == 0 {
			t.Fatalf("frame %d shaded no fragments", i)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, _ := run(t, "jjo")
	b, _ := run(t, "jjo")
	for i := range a.Profiles {
		if !reflect.DeepEqual(a.Profiles[i], b.Profiles[i]) {
			t.Fatalf("frame %d differs across runs", i)
		}
	}
}

func TestStaticCostsCollected(t *testing.T) {
	res, _ := run(t, "asp")
	if len(res.VSStatic) != 42 || len(res.FSStatic) != 45 {
		t.Fatalf("static cost vectors %d/%d, want 42/45", len(res.VSStatic), len(res.FSStatic))
	}
	for i, c := range res.VSStatic {
		if c.Instructions == 0 {
			t.Fatalf("VS %d has zero instructions", i)
		}
	}
	texWeighted := false
	for _, c := range res.FSStatic {
		if c.TexMemAccesses > c.TexSamples {
			texWeighted = true
		}
	}
	if !texWeighted {
		t.Fatal("no fragment shader has filter-weighted texture accesses")
	}
}

func TestAgreementWithTimingSimulator(t *testing.T) {
	// The functional and timing simulators share geometry and
	// rasterization; their visibility counts must agree exactly.
	tr := workload.MustGenerate(workload.Profiles["bbr1"], workload.TestScale)
	res, err := Run(context.Background(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tbr.DefaultConfig()
	sim, err := tbr.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []int{0, tr.NumFrames() / 2, tr.NumFrames() - 1} {
		ts := sim.SimulateFrame(f)
		fp := &res.Profiles[f]
		if ts.PrimsIn != fp.PrimsIn || ts.PrimsVisible != fp.PrimsVisible {
			t.Fatalf("frame %d: prims timing (%d,%d) vs functional (%d,%d)",
				f, ts.PrimsIn, ts.PrimsVisible, fp.PrimsIn, fp.PrimsVisible)
		}
		if ts.FragmentsShaded != fp.Fragments {
			t.Fatalf("frame %d: fragments timing %d vs functional %d",
				f, ts.FragmentsShaded, fp.Fragments)
		}
		var vsInv uint64
		for _, c := range fp.VSCount {
			vsInv += c
		}
		if ts.VerticesShaded != vsInv {
			t.Fatalf("frame %d: vertices timing %d vs functional %d", f, ts.VerticesShaded, vsInv)
		}
	}
}

func TestProfilesReflectPhaseStructure(t *testing.T) {
	// Menu frames and gameplay frames must produce measurably different
	// profiles (this is what clustering exploits).
	res, frames := run(t, "bbr1")
	menu := &res.Profiles[0]
	game := &res.Profiles[frames/2]
	if game.PrimsVisible < menu.PrimsVisible*2 {
		t.Fatalf("gameplay prims %d not >> menu prims %d", game.PrimsVisible, menu.PrimsVisible)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	res, err := Run(context.Background(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Profiles[3].Frame = 99
	if err := res.validate(tr); err == nil {
		t.Fatal("Validate accepted corrupted profile")
	}
	res.Profiles[3].Frame = 3
	res.Profiles[5].PrimsVisible = res.Profiles[5].PrimsIn + 1
	if err := res.validate(tr); err == nil {
		t.Fatal("Validate accepted impossible visibility")
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	tr.Name = ""
	if _, err := Run(context.Background(), tr, nil); err == nil {
		t.Fatal("Run accepted invalid trace")
	}
}

func TestFSCountSumsEqualFragments(t *testing.T) {
	res, _ := run(t, "pvz")
	for i := range res.Profiles {
		p := &res.Profiles[i]
		var sum uint64
		for _, c := range p.FSCount {
			sum += c
		}
		if sum != p.Fragments {
			t.Fatalf("frame %d: FSCount sums to %d, Fragments = %d", i, sum, p.Fragments)
		}
	}
}

func TestBlendedContentShades(t *testing.T) {
	// 2D games mark most UI/particle layers as blended; their fragments
	// must still be counted (blended fragments shade unless occluded by
	// opaque geometry in front).
	res, _ := run(t, "jjo")
	mid := &res.Profiles[len(res.Profiles)/2]
	if mid.Fragments == 0 {
		t.Fatal("no fragments shaded in a blended-heavy 2D frame")
	}
}

func TestRenderFrameProducesImage(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["bbr1"], workload.TestScale)
	img, err := RenderFrame(tr, tr.NumFrames()/2)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != tr.Viewport.Width || img.Bounds().Dy() != tr.Viewport.Height {
		t.Fatalf("image size %v", img.Bounds())
	}
	// The frame must not be uniform: count distinct colors.
	colors := map[[3]uint8]bool{}
	for y := 0; y < img.Bounds().Dy(); y += 2 {
		for x := 0; x < img.Bounds().Dx(); x += 2 {
			c := img.RGBAAt(x, y)
			colors[[3]uint8{c.R, c.G, c.B}] = true
		}
	}
	if len(colors) < 5 {
		t.Fatalf("rendered frame nearly uniform: %d distinct colors", len(colors))
	}
}

func TestRenderFrameDeterministic(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["jjo"], workload.TestScale)
	a, err := RenderFrame(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RenderFrame(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("render not deterministic")
		}
	}
}

func TestRenderFrameBounds(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	if _, err := RenderFrame(tr, -1); err == nil {
		t.Fatal("accepted negative frame")
	}
	if _, err := RenderFrame(tr, tr.NumFrames()); err == nil {
		t.Fatal("accepted out-of-range frame")
	}
}

// validate checks internal consistency of a result against its trace.
func (r *Result) validate(trace *gltrace.Trace) error {
	if r.Trace != trace.Name {
		return fmt.Errorf("funcsim: result for %q validated against trace %q", r.Trace, trace.Name)
	}
	if len(r.Profiles) != trace.NumFrames() {
		return fmt.Errorf("funcsim: %d profiles for %d frames", len(r.Profiles), trace.NumFrames())
	}
	for i := range r.Profiles {
		p := &r.Profiles[i]
		if p.Frame != i {
			return fmt.Errorf("funcsim: profile %d has frame index %d", i, p.Frame)
		}
		if len(p.VSCount) != len(trace.VertexShaders) || len(p.FSCount) != len(trace.FragmentShaders) {
			return fmt.Errorf("funcsim: profile %d has wrong vector lengths", i)
		}
		if p.PrimsVisible > p.PrimsIn {
			return fmt.Errorf("funcsim: profile %d has more visible than submitted primitives", i)
		}
	}
	return nil
}
