package workload

import (
	"reflect"
	"testing"
)

// randomTestScale keeps randomized-profile generation cheap: the
// determinism properties under test are scale-independent.
var randomTestScale = Scale{Width: 96, Height: 48, FrameDivisor: 40, DetailDivisor: 2}

// TestRandomProfileDeterministic: RandomProfile is a pure function of
// its seed — the property the differential oracle's reproducibility
// (and its CI gate) rests on.
func TestRandomProfileDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 3, 0xDEADBEEF, ^uint64(0)} {
		a, b := RandomProfile(seed), RandomProfile(seed)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %#x: profiles differ:\n%+v\n%+v", seed, a, b)
		}
	}
}

func TestRandomProfileSeedSensitivity(t *testing.T) {
	// Nearby seeds must produce different profiles (splitmix64 mixing);
	// check a window of consecutive seeds pairwise.
	profiles := make([]Profile, 8)
	for i := range profiles {
		profiles[i] = RandomProfile(uint64(i))
	}
	distinct := 0
	for i := 1; i < len(profiles); i++ {
		if !reflect.DeepEqual(profiles[0], profiles[i]) {
			distinct++
		}
	}
	if distinct < len(profiles)-2 {
		t.Errorf("only %d of %d consecutive seeds produced distinct profiles", distinct, len(profiles)-1)
	}
}

// TestRandomProfileGeneratesValidTraces: every randomized profile must
// pass Generate's validation and produce a deterministic trace — the
// oracle feeds these straight into the simulator.
func TestRandomProfileGeneratesValidTraces(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		p := RandomProfile(seed)
		if p.Frames <= 0 || p.NumVS <= 0 || p.NumFS <= 0 {
			t.Fatalf("seed %d: degenerate profile %+v", seed, p)
		}
		tr1, err := Generate(p, randomTestScale)
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		if tr1.NumFrames() == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		tr2, err := Generate(p, randomTestScale)
		if err != nil {
			t.Fatalf("seed %d: second Generate: %v", seed, err)
		}
		if !reflect.DeepEqual(tr1, tr2) {
			t.Errorf("seed %d: Generate is not deterministic", seed)
		}
	}
}

// TestRandomProfileCoversBothGameTypes: the 2D/3D split must actually
// exercise both branches over a modest seed range, so oracle seeds span
// both workload families.
func TestRandomProfileCoversBothGameTypes(t *testing.T) {
	var saw2D, saw3D bool
	for seed := uint64(0); seed < 32; seed++ {
		switch RandomProfile(seed).Type {
		case Game2D:
			saw2D = true
		case game3D:
			saw3D = true
		default:
			t.Fatalf("seed %d: unknown game type", seed)
		}
	}
	if !saw2D || !saw3D {
		t.Errorf("32 seeds covered 2D=%v 3D=%v; want both", saw2D, saw3D)
	}
}
