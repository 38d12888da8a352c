package cluster

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/xmath/linalg"
	"repro/internal/xmath/stats"
)

// matchSerialExplore runs Explore and the serial reference refExplore
// on the same data, settings and seed, each with its own obs registry,
// and asserts that they agree bit for bit: every step's centroids,
// iteration count and score, the stopping k, the kept counters and
// histogram, and the next draw of the caller's generator. It returns
// the exploration.
func matchSerialExplore(t *testing.T, data [][]float64, cfg SearchConfig, seed uint64) *Exploration {
	t.Helper()
	reg, refReg := obs.New(), obs.New()
	rng, refRNG := stats.NewRNG(seed), stats.NewRNG(seed)
	cfg.Obs = reg
	ex, err := Explore(data, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = refReg
	results, scores := refExplore(data, cfg, refRNG)

	if len(ex.steps) != len(results) {
		t.Fatalf("stopped at k=%d, serial loop at k=%d", len(ex.steps), len(results))
	}
	for i, step := range ex.steps {
		want := results[i]
		if step.iterations != want.Iterations || !sameBits(step.score, scores[i]) || len(step.centroids) != len(want.Centroids) {
			t.Fatalf("k=%d: %d iterations, score %v, %d centroids; serial loop %d, %v, %d",
				i+1, step.iterations, step.score, len(step.centroids), want.Iterations, scores[i], len(want.Centroids))
		}
		for c := range step.centroids {
			for j := range step.centroids[c] {
				if !sameBits(step.centroids[c][j], want.Centroids[c][j]) {
					t.Fatalf("k=%d: centroid %d dim %d = %v, serial loop %v", i+1, c, j, step.centroids[c][j], want.Centroids[c][j])
				}
			}
		}
	}
	got, want := reg.Snapshot(), refReg.Snapshot()
	if !reflect.DeepEqual(got.Counters, want.Counters) || !reflect.DeepEqual(got.Histograms, want.Histograms) {
		t.Fatalf("obs: counters %v histograms %v, serial loop %v %v", got.Counters, got.Histograms, want.Counters, want.Histograms)
	}
	if a, b := rng.Float64(), refRNG.Float64(); !sameBits(a, b) {
		t.Fatalf("caller's next draw %v, serial loop %v", a, b)
	}
	return ex
}

// TestExploreMatchesSerialLoop holds the scheduled k loop to the plain
// serial one at GOMAXPROCS 1, 2 and 4, on data where each of the three
// stop rules ends the search: Patience before MaxK, MaxK itself (past
// k = 10, where fresh restarts thin out to every 5th k), and a perfect
// fit.
func TestExploreMatchesSerialLoop(t *testing.T) {
	rng := stats.NewRNG(17)
	sep, _ := blobs(rng, 4, 50, 6, 40)
	loose, _ := blobs(rng, 6, 50, 8, 3)
	cases := []struct {
		name string
		data [][]float64
		cfg  SearchConfig
		stop func(ex *Exploration) bool
	}{
		{"patience", sep, DefaultSearchConfig(), func(ex *Exploration) bool {
			return len(ex.steps) < 56 && !math.IsInf(ex.steps[len(ex.steps)-1].score, 1)
		}},
		{"max-k", loose, SearchConfig{Restarts: 2, Patience: 100, MaxK: 23}, func(ex *Exploration) bool {
			return len(ex.steps) == 23
		}},
		{"perfect-fit", duplicateHeavy(rng, 6, 15, 3), SearchConfig{Restarts: 3, Patience: 100}, func(ex *Exploration) bool {
			return math.IsInf(ex.steps[len(ex.steps)-1].score, 1) && len(ex.steps) < 45
		}},
	}
	for _, procs := range []int{1, 2, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for _, seed := range []uint64{1, 2} {
					if ex := matchSerialExplore(t, tc.data, tc.cfg, seed); !tc.stop(ex) {
						t.Fatalf("seed %d: stopped at k=%d by another rule than %s", seed, len(ex.steps), tc.name)
					}
				}
			})
		}
	}
}

// TestExploreLeavesNoGoroutines: a search the stop rule ends early
// (with restarts run ahead past the stopping k) returns only after
// every goroutine it started has exited.
func TestExploreLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := stats.NewRNG(23)
	data, _ := blobs(rng, 3, 500, 16, 40)
	before := runtime.NumGoroutine()
	ex, err := Explore(data, SearchConfig{Restarts: 3, Patience: 1}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.steps) >= 10 {
		t.Fatalf("stopped at k=%d: the stop rule did not end the search early", len(ex.steps))
	}
	// A goroutine that has signalled its pool's WaitGroup may take a
	// moment to leave the scheduler's count; one still running would
	// stay in it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Explore, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

// TestSqDist4MatchesSquaredDistance: each of sqDist4's four lanes is
// bit-identical to linalg.SquaredDistance on its pair, NaN payloads
// included, on vectors drawn from NaN, ±Inf, subnormal, signed-zero,
// huge and ordinary values.
func TestSqDist4MatchesSquaredDistance(t *testing.T) {
	special := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff4000000000001),
		math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 2.2e-308, 1e-310, 0, math.Copysign(0, -1),
		1, -1, 0.1, 3, math.MaxFloat64, -math.MaxFloat64, 1e154, 1e200,
	}
	rng := stats.NewRNG(29)
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(3) == 0 {
				v[i] = rng.Norm(0, 10)
			} else {
				v[i] = special[rng.Intn(len(special))]
			}
		}
		return v
	}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(12)
		var p [8][]float64
		for i := range p {
			p[i] = vec(n)
		}
		got := [4]float64{}
		got[0], got[1], got[2], got[3] = sqDist4(p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7])
		for lane := range got {
			if want := linalg.SquaredDistance(p[2*lane], p[2*lane+1]); !sameBits(got[lane], want) {
				t.Fatalf("lane %d of %v vs %v: %v (%#x), SquaredDistance %v (%#x)", lane, p[2*lane], p[2*lane+1],
					got[lane], math.Float64bits(got[lane]), want, math.Float64bits(want))
			}
		}
	}
}
