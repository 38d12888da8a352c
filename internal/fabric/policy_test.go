package fabric

import (
	"fmt"
	"testing"
)

// TestAffinityStableAcrossRestarts: the pick is a pure function of
// (key, candidate set) — a fresh policy instance (a restarted
// coordinator) routes every campaign exactly as the old one did.
func TestAffinityStableAcrossRestarts(t *testing.T) {
	fleet := []string{"http://w0", "http://w1", "http://w2"}
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
	fleet := []string{"http://w0", "http://w1", "http://w2"}
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
	full := []string{"http://w0", "http://w1", "http://w2", "http://w3"}
	p := affinity{}
	const n = 256
	before := make(map[string]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("megsim-%024x", i)
		before[key] = full[p.Pick(key, full)]
	}
	for departed := range full {
		rest := append(append([]string(nil), full[:departed]...), full[departed+1:]...)
		for key, home := range before {
			got := rest[p.Pick(key, rest)]
			if home == full[departed] {
				continue // the departed worker's share may land anywhere
			}
			if got != home {
				t.Fatalf("removing %s moved key %s: %s -> %s", full[departed], key, home, got)
			}
		}
	}
}
