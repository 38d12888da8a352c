package fabric

import (
	"fmt"
	"testing"
)

func cands(names ...string) []Candidate {
	out := make([]Candidate, len(names))
	for i, n := range names {
		out[i] = Candidate{Name: n}
	}
	return out
}

// TestAffinityStableAcrossRestarts: the pick is a pure function of
// (key, candidate set) — a fresh policy instance (a restarted
// coordinator) routes every campaign exactly as the old one did.
func TestAffinityStableAcrossRestarts(t *testing.T) {
	fleet := cands("http://w0", "http://w1", "http://w2")
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("megsim-%024x", i)
		first := affinity{}.Pick(key, fleet)
		for run := 0; run < 3; run++ {
			if got := (affinity{}).Pick(key, fleet); got != first {
				t.Fatalf("key %s: fresh instance picked %d, first run picked %d", key, got, first)
			}
		}
	}
}

// TestAffinityColocatesCampaign: one campaign fingerprint, many picks,
// one worker — the property that makes the worker trace cache hit on
// every frame after the first.
func TestAffinityColocatesCampaign(t *testing.T) {
	fleet := cands("http://w0", "http://w1", "http://w2")
	p := affinity{}
	first := p.Pick("megsim-abc123", fleet)
	for i := 0; i < 16; i++ {
		if got := p.Pick("megsim-abc123", fleet); got != first {
			t.Fatalf("pick %d moved: %d vs %d", i, got, first)
		}
	}
	// ...and distinct campaigns actually spread: 64 keys over 3 workers
	// must use more than one.
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		used[p.Pick(fmt.Sprintf("megsim-%024x", i), fleet)] = true
	}
	if len(used) < 2 {
		t.Fatalf("64 campaigns all landed on worker set %v", used)
	}
}

// TestAffinityMinimalRemap is the rendezvous property: removing one
// worker remaps only the campaigns that lived on it; every other
// campaign keeps its placement. (Modulo hashing would reshuffle almost
// everything.)
func TestAffinityMinimalRemap(t *testing.T) {
	full := cands("http://w0", "http://w1", "http://w2", "http://w3")
	p := affinity{}
	const n = 256
	before := make(map[string]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("megsim-%024x", i)
		before[key] = full[p.Pick(key, full)].Name
	}
	for departed := 0; departed < len(full); departed++ {
		rest := make([]Candidate, 0, len(full)-1)
		for i, c := range full {
			if i != departed {
				rest = append(rest, c)
			}
		}
		for key, home := range before {
			got := rest[p.Pick(key, rest)].Name
			if home == full[departed].Name {
				continue // the departed worker's share may land anywhere
			}
			if got != home {
				t.Fatalf("removing %s moved key %s: %s -> %s",
					full[departed].Name, key, home, got)
			}
		}
	}
}

// TestPoliciesSkipDraining: affinity never hands a frame to a
// draining worker, and an all-draining fleet reads as no pick.
func TestPoliciesSkipDraining(t *testing.T) {
	p := affinity{}
	fleet := []Candidate{
		{Name: "http://w0", Draining: true},
		{Name: "http://w1"},
		{Name: "http://w2", Draining: true},
	}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("megsim-%024x", i)
		if got := p.Pick(key, fleet); got != 1 {
			t.Fatalf("picked %d, only index 1 is eligible", got)
		}
	}
	all := []Candidate{
		{Name: "http://w0", Draining: true},
		{Name: "http://w1", Draining: true},
	}
	if got := p.Pick("megsim-abc", all); got != -1 {
		t.Fatalf("picked %d from an all-draining fleet", got)
	}
	if got := p.Pick("megsim-abc", nil); got != -1 {
		t.Fatalf("picked %d from an empty fleet", got)
	}
}
