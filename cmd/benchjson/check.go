package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Regression-check mode (-check): compare a fresh benchmark run against
// a committed JSON baseline and fail on hot-path slowdowns.
//
// Wall-clock numbers on shared CI hosts are noisy — the same binary has
// been observed to swing close to 2x between runs with no local load —
// so the gate layers three checks from most to least trustworthy:
//
//  1. allocs/op: allocation counts are deterministic, so the tightest
//     tolerance applies. A reintroduced per-tile allocation fails here
//     immediately, regardless of host noise.
//  2. ratio pairs (-ratio num:den): the ratio of two benchmarks from
//     the SAME run (e.g. tile-workers=4 over serial) cancels host-speed
//     variation, because both sides see the same machine weather. This
//     is the primary wall-clock gate. It is judged at the baseline's
//     highest GOMAXPROCS, the only one where a workers-over-serial
//     pair measures parallelism.
//  3. absolute ns/op: a deliberately generous factor that only catches
//     gross regressions (an accidentally quadratic loop), not noise.
//
// Every comparison uses the median across -count repetitions, the same
// robust center benchstat uses, and compares like with like: a
// benchmark is identified by its name AND its GOMAXPROCS (the -P
// suffix), so a -cpu 1,2 run is checked procs by procs. A fresh run at
// a GOMAXPROCS the baseline never recorded is refused outright — a
// 2-core result judged against a 1-core baseline would mean nothing.

// benchKey identifies one benchmark at one GOMAXPROCS.
type benchKey struct {
	name  string
	procs int
}

func (k benchKey) String() string { return fmt.Sprintf("%s-%d", k.name, k.procs) }

// ratioList collects repeatable -ratio num:den flag values.
type ratioList []ratioPair

type ratioPair struct{ num, den string }

func (r *ratioList) String() string {
	parts := make([]string, len(*r))
	for i, p := range *r {
		parts[i] = p.num + ":" + p.den
	}
	return strings.Join(parts, ",")
}

func (r *ratioList) Set(v string) error {
	num, den, ok := strings.Cut(v, ":")
	if !ok || num == "" || den == "" {
		return fmt.Errorf("ratio must be <numerator>:<denominator>, got %q", v)
	}
	*r = append(*r, ratioPair{num: num, den: den})
	return nil
}

// checkLimits holds the gate tolerances.
type checkLimits struct {
	// maxSlowdown is the absolute per-benchmark ns/op factor.
	maxSlowdown float64
	// maxRatioGrowth bounds how much a -ratio pair may grow relative to
	// the baseline's ratio.
	maxRatioGrowth float64
	// maxAllocGrowth is the allocs/op factor (plus one alloc of slack
	// for go test's rounding of the per-op mean).
	maxAllocGrowth float64
}

// medians reduces repeated benchmark lines (from -count N) to one
// median value per (name, GOMAXPROCS) for the given metric. Benchmarks
// missing the metric are absent from the result.
func medians(f *File, metric string) map[benchKey]float64 {
	byName := map[benchKey][]float64{}
	for _, b := range f.Benchmarks {
		if v, ok := b.Metrics[metric]; ok {
			k := benchKey{b.Name, b.Procs}
			byName[k] = append(byName[k], v)
		}
	}
	out := make(map[benchKey]float64, len(byName))
	for name, vs := range byName {
		sort.Float64s(vs)
		n := len(vs)
		if n%2 == 1 {
			out[name] = vs[n/2]
		} else {
			out[name] = (vs[n/2-1] + vs[n/2]) / 2
		}
	}
	return out
}

// runCheck compares fresh against the baseline file under limits,
// writing one line per comparison to w. It returns an error naming
// every failed gate, or nil if all pass.
func runCheck(baselinePath string, fresh *File, pairs []ratioPair, lim checkLimits, w io.Writer) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}

	baseNS := medians(&base, "ns/op")
	freshNS := medians(fresh, "ns/op")
	baseAllocs := medians(&base, "allocs/op")
	freshAllocs := medians(fresh, "allocs/op")

	baseProcs := map[int]bool{}
	topProcs := 0
	for k := range baseNS {
		baseProcs[k.procs] = true
		topProcs = max(topProcs, k.procs)
	}
	for _, k := range sortedKeys(freshNS) {
		if !baseProcs[k.procs] {
			return fmt.Errorf("baseline %s has no results at GOMAXPROCS=%d (%s): re-record it at the fresh run's -cpu list", baselinePath, k.procs, k)
		}
	}

	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	// Deterministic gate first: allocation counts.
	for _, name := range sortedKeys(baseAllocs) {
		b := baseAllocs[name]
		f, ok := freshAllocs[name]
		if !ok {
			continue // absence handled by the ns/op walk below
		}
		limit := b*lim.maxAllocGrowth + 1
		status := "ok"
		if f > limit {
			status = "FAIL"
			fail("%s: allocs/op %.0f exceeds limit %.1f (baseline %.0f)", name, f, limit, b)
		}
		fmt.Fprintf(w, "%-4s %s: allocs/op %.0f (baseline %.0f, limit %.1f)\n", status, name, f, b, limit)
	}

	// Absolute wall-clock gate, generous by design.
	for _, name := range sortedKeys(baseNS) {
		b := baseNS[name]
		f, ok := freshNS[name]
		if !ok {
			fail("%s: present in baseline but missing from fresh run (renamed or deleted? refresh the baseline)", name)
			fmt.Fprintf(w, "FAIL %s: missing from fresh run\n", name)
			continue
		}
		limit := b * lim.maxSlowdown
		status := "ok"
		if f > limit {
			status = "FAIL"
			fail("%s: %.0f ns/op exceeds %.2fx baseline (%.0f ns/op)", name, f, lim.maxSlowdown, b)
		}
		fmt.Fprintf(w, "%-4s %s: %.0f ns/op (baseline %.0f, %.2fx of limit)\n", status, name, f, b, f/limit)
	}

	// Same-run ratio gate: host speed cancels. A ratio is judged at the
	// baseline's highest GOMAXPROCS, where a pair that measures
	// parallelism (workers over serial) shows its speed-up; at lower
	// procs the two sides converge and the ratio only carries noise.
	for _, p := range pairs {
		num, den := benchKey{p.num, topProcs}, benchKey{p.den, topProcs}
		fNum, fDen := freshNS[num], freshNS[den]
		bNum, bDen := baseNS[num], baseNS[den]
		if fNum == 0 || fDen == 0 || bNum == 0 || bDen == 0 {
			fail("ratio %s:%s: benchmark missing from fresh run or baseline", num, den)
			fmt.Fprintf(w, "FAIL ratio %s / %s: missing data\n", num, den)
			continue
		}
		fr, br := fNum/fDen, bNum/bDen
		limit := br * lim.maxRatioGrowth
		status := "ok"
		if fr > limit {
			status = "FAIL"
			fail("ratio %s / %s: %.3f exceeds limit %.3f (baseline %.3f)", num, den, fr, limit, br)
		}
		fmt.Fprintf(w, "%-4s ratio %s / %s: %.3f (baseline %.3f, limit %.3f)\n", status, num, den, fr, br, limit)
	}

	if len(failures) > 0 {
		return fmt.Errorf("bench regression check failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func sortedKeys(m map[benchKey]float64) []benchKey {
	keys := make([]benchKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].procs < keys[j].procs
	})
	return keys
}
