package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain reads result logs (the results.jsonl every run appends
// to). With one log it prints, per workload and end-to-end metric, the
// median, quartiles and spread of the untraced runs, and the tracing
// overhead where traced runs exist. With two it compares the second log
// (new) against the first (base) by each metric's bound and exits 1 on
// a regression. Logs measured at different GOMAXPROCS are refused.
func compareMain(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 1 && len(paths) != 2 {
		fmt.Fprintln(stderr, "megbench: -compare takes one or two result logs")
		return 2
	}
	var sets [][]*result
	procs := map[int]bool{}
	for _, p := range paths {
		rs, err := readResults(p)
		if err != nil {
			fmt.Fprintln(stderr, "megbench:", err)
			return 2
		}
		for _, r := range rs {
			procs[r.Env.GOMAXPROCS] = true
		}
		sets = append(sets, rs)
	}
	if len(procs) > 1 {
		fmt.Fprintf(stderr, "megbench: results were measured at different GOMAXPROCS %v; only like-for-like results compare\n", keys(procs))
		return 2
	}
	if len(sets) == 1 {
		summarize(stdout, sets[0])
		return 0
	}
	if regressions := compareSets(stdout, sets[0], sets[1]); regressions > 0 {
		fmt.Fprintf(stdout, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}

func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		r := &result{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Smoke {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// byWorkload groups results by workload and traced flag.
func byWorkload(rs []*result, traced bool) map[string][]*result {
	out := map[string][]*result{}
	for _, r := range rs {
		if r.Traced == traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

// valuesOf collects one metric over runs (runs without it are skipped).
func valuesOf(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func workloadNames(groups ...map[string][]*result) []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range groups {
		for w := range g {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	sort.Strings(out)
	return out
}

// summarize prints the run-to-run spread of every end-to-end metric,
// flags a quartile distance wider than the metric's tolerance, and
// checks that runs of one seed agree on the results digest.
func summarize(w io.Writer, rs []*result) {
	untraced, traced := byWorkload(rs, false), byWorkload(rs, true)
	fmt.Fprintf(w, "%-14s %-18s %5s %14s %14s %14s %8s %6s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, wl := range workloadNames(untraced, traced) {
		runs := untraced[wl]
		for _, d := range append(append([]metricDef(nil), endToEnd...), workloadMetrics...) {
			xs := valuesOf(runs, d.Name)
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			flag := ""
			if tooWide(d, xs) {
				flag = "  SPREAD EXCEEDS BOUND"
			}
			fmt.Fprintf(w, "%-14s %-18s %5d %14.6f %14.6f %14.6f %8.4f %6.2f%s\n", wl, d.Name, len(xs), q1, median(xs), q3, spread(xs), d.Bound, flag)
		}
		if t := valuesOf(traced[wl], "trace.frames_per_s"); len(t) > 0 {
			// Only untraced runs of the traced runs' seeds: run them in
			// pairs, or host drift swamps the overhead.
			seeds := map[uint64]bool{}
			for _, r := range traced[wl] {
				seeds[r.Seed] = true
			}
			var paired []*result
			for _, r := range runs {
				if seeds[r.Seed] {
					paired = append(paired, r)
				}
			}
			if u := median(valuesOf(paired, "frames_per_s")); u > 0 {
				fmt.Fprintf(w, "%-14s %-18s %5d %14s %14.4f  (1 - traced/untraced frames_per_s, same seeds)\n", wl, "tracing_overhead", len(t), "", 1-median(t)/u)
			}
		}
		digests := map[uint64]map[string]bool{}
		for _, r := range append(append([]*result(nil), runs...), traced[wl]...) {
			if digests[r.Seed] == nil {
				digests[r.Seed] = map[string]bool{}
			}
			digests[r.Seed][r.Digest] = true
		}
		for seed, ds := range digests {
			if len(ds) > 1 {
				fmt.Fprintf(w, "%-14s seed %d: %d different results digests\n", wl, seed, len(ds))
			}
		}
	}
}

// tooWide reports whether the quartile distance of xs is wider than the
// tolerance of d at their median. Metrics with a bound of 0 are exact
// per seed and differ between seeds, so they have no spread to check.
func tooWide(d metricDef, xs []float64) bool {
	if d.Bound == 0 {
		return false
	}
	q1, q3 := quartiles(xs)
	return q3-q1 > d.tolerance(median(xs))
}

// compareSets prints, per workload and metric, the base and new medians
// and a verdict, and returns the number of regressions: a median worse
// than the base median by more than the metric's tolerance. When the
// base's own spread is wider than the tolerance the verdict is
// "unresolved" whatever the medians, unless every new run beats every
// base run. Metrics with a bound of 0 are exact for one seed, so they
// are compared run by run on the seeds both logs ran, and any worsening
// is a regression.
func compareSets(w io.Writer, base, next []*result) int {
	bu, nu := byWorkload(base, false), byWorkload(next, false)
	regressions := 0
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %14s  %s\n", "workload", "metric", "base", "new", "worse", "tolerance", "verdict")
	for _, wl := range workloadNames(bu, nu) {
		for _, d := range append(append([]metricDef(nil), endToEnd...), workloadMetrics...) {
			bx, nx := valuesOf(bu[wl], d.Name), valuesOf(nu[wl], d.Name)
			if len(bx) == 0 || len(nx) == 0 {
				continue
			}
			if d.Bound == 0 {
				worst, paired := exactWorse(bu[wl], nu[wl], d)
				verdict := fmt.Sprintf("ok (%d runs paired by seed)", paired)
				switch {
				case paired == 0:
					verdict = "not compared (no seed in both logs)"
				case worst > 0:
					verdict = fmt.Sprintf("REGRESSION (worse by %g on a seed)", worst)
					regressions++
				}
				fmt.Fprintf(w, "%-14s %-18s %14.6f %14.6f %9s %14s  %s\n", wl, d.Name, median(bx), median(nx), "", "exact", verdict)
				continue
			}
			bm, nm := median(bx), median(nx)
			worse := nm - bm
			if d.Better == "higher" {
				worse = bm - nm
			}
			rel := 0.0
			if bm != 0 {
				rel = worse / math.Abs(bm)
			}
			verdict := "ok"
			switch {
			case tooWide(d, bx) && allBetter(nx, bx, d.Better):
				verdict = "better than every base run"
			case tooWide(d, bx):
				verdict = "unresolved (base spread wider than tolerance)"
			case worse > d.tolerance(bm):
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6f %14.6f %8.2f%% %14.6f  %s\n", wl, d.Name, bm, nm, 100*rel, d.tolerance(bm), verdict)
		}
	}
	return regressions
}

// exactWorse pairs each new run with the base run of its seed and
// returns the largest worsening of metric d over the pairs, and how many
// pairs there were.
func exactWorse(base, next []*result, d metricDef) (worst float64, paired int) {
	bySeed := map[uint64]float64{}
	for _, r := range base {
		if v, ok := r.Metrics[d.Name]; ok {
			bySeed[r.Seed] = v.Value
		}
	}
	for _, r := range next {
		v, ok := r.Metrics[d.Name]
		b, okBase := bySeed[r.Seed]
		if !ok || !okBase {
			continue
		}
		worse := v.Value - b
		if d.Better == "higher" {
			worse = -worse
		}
		if paired == 0 || worse > worst {
			worst = worse
		}
		paired++
	}
	return worst, paired
}

// allBetter reports whether every value of a beats every value of b.
func allBetter(a, b []float64, better string) bool {
	as, bs := sortedCopy(a), sortedCopy(b)
	if better == "lower" {
		return as[len(as)-1] < bs[0]
	}
	return as[0] > bs[len(bs)-1]
}
