package fabric

import "hash/fnv"

// Candidate is one dispatchable worker as a routing policy sees it.
type Candidate struct {
	// Name identifies the worker stably across coordinator restarts —
	// the fabric uses the worker's base URL from the static peer list.
	Name string
	// Draining marks a worker that answered its drain endpoint or
	// reported draining on a heartbeat; policies must never pick it.
	Draining bool
}

// Policy picks the worker for one frame dispatch. Pick returns an index
// into cands, or -1 when no candidate is eligible. Implementations must
// be safe for concurrent use and must skip draining candidates. The
// coordinator routes by cache affinity unless a test substitutes its
// own policy.
type Policy interface {
	Pick(key string, cands []Candidate) int
}

// affinity routes by rendezvous (highest-random-weight) hashing over
// the campaign fingerprint: every frame of a campaign lands on the same
// worker, so the worker's trace cache is hit after the first frame. The
// weight is a pure function of (key, worker name), which buys the two
// properties the cluster needs for free:
//
//   - stability: a restarted coordinator with the same peer list routes
//     every campaign to the same worker as before, so a resumed
//     campaign re-warms no caches;
//   - minimal remap: when a worker joins or leaves, only the campaigns
//     whose top-weight worker changed move — every other campaign keeps
//     its placement, unlike modulo hashing where most keys reshuffle.
type affinity struct{}

func (affinity) Pick(key string, cands []Candidate) int {
	best, bestW := -1, uint64(0)
	for i, c := range cands {
		if c.Draining {
			continue
		}
		w := rendezvousWeight(key, c.Name)
		if best < 0 || w > bestW || (w == bestW && c.Name < cands[best].Name) {
			best, bestW = i, w
		}
	}
	return best
}

// rendezvousWeight is FNV-1a over key and name, NUL-separated so the
// (key, name) boundary is unambiguous.
func rendezvousWeight(key, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return h.Sum64()
}
