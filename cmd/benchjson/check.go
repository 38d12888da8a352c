package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Regression-check mode (-check): compare a fresh benchmark run against
// a committed JSON baseline and fail on regressions.
//
// Wall-clock numbers on shared CI hosts are noisy — the same binary has
// been observed to swing close to 2x between runs with no local load —
// so the gate layers three checks from most to least trustworthy:
//
//  1. work counts: every reported unit ending in /op other than ns/op,
//     B/op and allocs/op (cycles/op, dram-accesses/op, ...) is a count
//     of simulated work, a pure function of the benchmark's inputs. It
//     must equal the baseline exactly, and a count present on one side
//     only fails. A change that alters what the simulator computes
//     fails here on any host.
//  2. allocs/op: allocation counts are nearly deterministic, so a tight
//     tolerance applies. A reintroduced per-tile allocation fails here
//     regardless of host noise.
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

// checkLimits holds the gate tolerances.
type checkLimits struct {
	// maxSlowdown is the absolute per-benchmark ns/op factor.
	maxSlowdown float64
	// maxAllocGrowth is the allocs/op factor (plus one alloc of slack
	// for go test's rounding of the per-op mean).
	maxAllocGrowth float64
}

// isCount reports whether unit is a work count gated for exact
// equality: a per-op unit other than time and memory.
func isCount(unit string) bool {
	return strings.HasSuffix(unit, "/op") && unit != "ns/op" && unit != "B/op" && unit != "allocs/op"
}

// countUnits returns the sorted work-count units reported in f or g.
func countUnits(f, g *File) []string {
	seen := map[string]bool{}
	var units []string
	for _, file := range []*File{f, g} {
		for _, b := range file.Benchmarks {
			for u := range b.Metrics {
				if isCount(u) && !seen[u] {
					seen[u] = true
					units = append(units, u)
				}
			}
		}
	}
	sort.Strings(units)
	return units
}

// count formats a work count exactly, without an exponent.
func count(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

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
func runCheck(baselinePath string, fresh *File, lim checkLimits, w io.Writer) error {
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
	for k := range baseNS {
		baseProcs[k.procs] = true
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

	// Exact gate first: work counts.
	for _, unit := range countUnits(&base, fresh) {
		baseC, freshC := medians(&base, unit), medians(fresh, unit)
		keys := sortedKeys(baseC)
		for _, k := range sortedKeys(freshC) {
			if _, ok := baseC[k]; !ok {
				keys = append(keys, k)
			}
		}
		for _, name := range keys {
			b, inBase := baseC[name]
			f, inFresh := freshC[name]
			status := "ok"
			switch {
			case !inBase || !inFresh:
				status = "FAIL"
				fail("%s: %s reported on one side only (in baseline %v, in fresh run %v): refresh the baseline", name, unit, inBase, inFresh)
			case f != b:
				status = "FAIL"
				fail("%s: %s %s differs from baseline %s", name, unit, count(f), count(b))
			}
			fmt.Fprintf(w, "%-4s %s: %s %s (baseline %s, exact)\n", status, name, unit, count(f), count(b))
		}
	}

	// Allocation counts.
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
