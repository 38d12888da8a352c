package fabric

import "hash/fnv"

// Policy picks the worker for one frame dispatch. names lists the
// workers eligible for it — never empty — by the name that identifies
// each stably across coordinator restarts: its base URL from the static
// peer list. Pick returns an index into names, or -1 to pick none.
// Implementations must be safe for concurrent use. The coordinator
// routes by cache affinity unless a test substitutes its own policy.
type Policy interface {
	Pick(key string, names []string) int
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

func (affinity) Pick(key string, names []string) int {
	best, bestW := -1, uint64(0)
	for i, name := range names {
		w := rendezvousWeight(key, name)
		if best < 0 || w > bestW || (w == bestW && name < names[best]) {
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
