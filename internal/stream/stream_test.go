package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/tbr"
	"repro/internal/tbr/mem"
	"repro/internal/workload"
)

// oracleScale mirrors check.DefaultOracleScale (the check package
// imports this one, so the literal is repeated here): CI-sized oracle
// workloads, a few hundred frames each.
var oracleScale = workload.Scale{Width: 160, Height: 96, FrameDivisor: 8, DetailDivisor: 2}

// seedData is one oracle-scale randomized workload characterized by the
// batch funcsim — the shared input of most tests here.
type seedData struct {
	name string
	fr   *funcsim.Result
}

var (
	seedMu    sync.Mutex
	seedCache = map[uint64]*seedData{}
)

// seedResult characterizes the oracle's randomized workload for a seed,
// memoized across tests.
func seedResult(t testing.TB, seed uint64) *seedData {
	t.Helper()
	seedMu.Lock()
	defer seedMu.Unlock()
	if d, ok := seedCache[seed]; ok {
		return d
	}
	p := workload.RandomProfile(seed)
	tr, err := workload.Generate(p, oracleScale)
	if err != nil {
		t.Fatalf("generate workload: %v", err)
	}
	fr, err := funcsim.Run(context.Background(), tr, nil)
	if err != nil {
		t.Fatalf("funcsim: %v", err)
	}
	d := &seedData{name: tr.Name, fr: fr}
	seedCache[seed] = d
	return d
}

func newTestIngestor(d *seedData, cfg Config) *Ingestor {
	return NewIngestor(d.name, d.fr.VSStatic, d.fr.FSStatic, cfg)
}

// TestChunkSplitInvariance: the final strata are a pure function of the
// frame sequence — any chunking (frame-at-a-time, odd-sized chunks, one
// big batch) yields bit-identical snapshots and selections.
func TestChunkSplitInvariance(t *testing.T) {
	d := seedResult(t, 1)
	cfg := DefaultConfig()
	cfg.Seed = 1

	type run struct {
		snap []byte
		sel  *Selection
	}
	ingest := func(chunk int) run {
		in := newTestIngestor(d, cfg)
		profs := d.fr.Profiles
		for lo := 0; lo < len(profs); lo += chunk {
			hi := lo + chunk
			if hi > len(profs) {
				hi = len(profs)
			}
			if err := in.AddChunk(profs[lo:hi]); err != nil {
				t.Fatalf("chunk %d: ingest: %v", chunk, err)
			}
		}
		snap, err := in.Snapshot()
		if err != nil {
			t.Fatalf("chunk %d: snapshot: %v", chunk, err)
		}
		sel, err := in.Finalize()
		if err != nil {
			t.Fatalf("chunk %d: finalize: %v", chunk, err)
		}
		return run{snap, sel}
	}

	ref := ingest(len(d.fr.Profiles)) // all-at-once
	for _, chunk := range []int{1, 7} {
		got := ingest(chunk)
		if !bytes.Equal(got.snap, ref.snap) {
			t.Errorf("chunk size %d: snapshot differs from all-at-once", chunk)
		}
		if !reflect.DeepEqual(got.sel, ref.sel) {
			t.Errorf("chunk size %d: selection differs from all-at-once:\n got %+v\nwant %+v", chunk, got.sel, ref.sel)
		}
	}
}

// TestCapacityBounds: after every single ingested frame, the stratum
// count respects MaxStrata, every reservoir respects ReservoirCap, and
// reservoirs stay strictly ordered by (priority, frame). Small caps
// force constant merging, the worst case for these invariants.
func TestCapacityBounds(t *testing.T) {
	d := seedResult(t, 2)
	cfg := DefaultConfig()
	cfg.MaxStrata = 6
	cfg.ReservoirCap = 3
	in := newTestIngestor(d, cfg)

	for i := range d.fr.Profiles {
		if err := in.Add(&d.fr.Profiles[i]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := len(in.strata); got > cfg.MaxStrata {
			t.Fatalf("frame %d: %d strata over cap %d", i, got, cfg.MaxStrata)
		}
		for si, st := range in.strata {
			if len(st.res) == 0 || len(st.res) > cfg.ReservoirCap {
				t.Fatalf("frame %d: stratum %d reservoir size %d out of [1,%d]", i, si, len(st.res), cfg.ReservoirCap)
			}
			for j := 1; j < len(st.res); j++ {
				if !less(st.res[j-1], st.res[j]) {
					t.Fatalf("frame %d: stratum %d reservoir not strictly ordered at %d", i, si, j)
				}
			}
		}
	}
	if in.Merges() == 0 {
		t.Fatalf("tiny caps on %d frames should force merges", len(d.fr.Profiles))
	}
}

// TestBoundedMemory: on a stream at least 10x longer than the stratum
// budget, the ingestor's peak live feature-vector count never exceeds
// the O(strata · reservoir) budget — the similarity matrix (O(frames²))
// and the batch feature matrix (O(frames)) are never materialized. The
// counting allocator is the proof: every vector the package ever holds
// is accounted there.
func TestBoundedMemory(t *testing.T) {
	d := seedResult(t, 1)
	cfg := DefaultConfig()
	cfg.MaxStrata = 8
	cfg.ReservoirCap = 4
	if want := 10 * cfg.MaxStrata; len(d.fr.Profiles) < want {
		t.Fatalf("need a stream >= %d frames (10x the stratum budget), got %d", want, len(d.fr.Profiles))
	}
	in := newTestIngestor(d, cfg)
	budget := in.VectorBudget()
	for i := range d.fr.Profiles {
		if err := in.Add(&d.fr.Profiles[i]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if in.PeakVectors() > budget {
			t.Fatalf("frame %d: peak %d vectors over budget %d", i, in.PeakVectors(), budget)
		}
	}
	// Live accounting must agree with the structure: one sum per
	// stratum plus its reservoir members.
	want := 0
	for _, st := range in.strata {
		want += 1 + len(st.res)
	}
	if in.LiveVectors() != want {
		t.Fatalf("live vectors %d, structure holds %d", in.LiveVectors(), want)
	}
	t.Logf("%d frames: peak %d vectors (budget %d)", len(d.fr.Profiles), in.PeakVectors(), budget)
}

// TestSnapshotRoundTrip: snapshotting at any point mid-stream and
// restoring into a fresh ingestor continues bit-identically — the same
// final snapshot and selection as never having stopped.
func TestSnapshotRoundTrip(t *testing.T) {
	d := seedResult(t, 2)
	cfg := DefaultConfig()
	cfg.Seed = 2
	profs := d.fr.Profiles
	n := len(profs)

	full := newTestIngestor(d, cfg)
	if err := full.AddChunk(profs); err != nil {
		t.Fatal(err)
	}
	wantSnap, err := full.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantSel, err := full.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{1, n / 3, n / 2, n - 1, n} {
		a := newTestIngestor(d, cfg)
		if err := a.AddChunk(profs[:cut]); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatalf("cut %d: snapshot: %v", cut, err)
		}
		b := newTestIngestor(d, cfg)
		if err := b.Restore(snap); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if b.Frames() != cut {
			t.Fatalf("cut %d: restored %d frames", cut, b.Frames())
		}
		resnap, err := b.Snapshot()
		if err != nil {
			t.Fatalf("cut %d: re-snapshot: %v", cut, err)
		}
		if !bytes.Equal(snap, resnap) {
			t.Fatalf("cut %d: snapshot not idempotent across restore", cut)
		}
		if err := b.AddChunk(profs[cut:]); err != nil {
			t.Fatalf("cut %d: continue: %v", cut, err)
		}
		gotSnap, err := b.Snapshot()
		if err != nil {
			t.Fatalf("cut %d: final snapshot: %v", cut, err)
		}
		if !bytes.Equal(gotSnap, wantSnap) {
			t.Errorf("cut %d: resumed final snapshot differs from uninterrupted", cut)
		}
		gotSel, err := b.Finalize()
		if err != nil {
			t.Fatalf("cut %d: finalize: %v", cut, err)
		}
		if !reflect.DeepEqual(gotSel, wantSel) {
			t.Errorf("cut %d: resumed selection differs from uninterrupted", cut)
		}
	}
}

// TestRestoreRejects: malformed, mismatched or inconsistent snapshots
// are rejected without corrupting the ingestor.
func TestRestoreRejects(t *testing.T) {
	d := seedResult(t, 1)
	cfg := DefaultConfig()
	in := newTestIngestor(d, cfg)
	if err := in.AddChunk(d.fr.Profiles[:40]); err != nil {
		t.Fatal(err)
	}
	snap, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(*state)) []byte {
		var st state
		if err := json.Unmarshal(snap, &st); err != nil {
			t.Fatal(err)
		}
		f(&st)
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cases := map[string][]byte{
		"truncated":       snap[:len(snap)/2],
		"not json":        []byte("strata ahoy"),
		"wrong version":   mutate(func(st *state) { st.Version = 99 }),
		"wrong config":    mutate(func(st *state) { st.ConfigHash = "stream-deadbeef" }),
		"negative n":      mutate(func(st *state) { st.N = -1 }),
		"over strata cap": mutate(func(st *state) { st.Strata = make([]stratumState, cfg.MaxStrata+1) }),
		"empty reservoir": mutate(func(st *state) { st.Strata[0].Res = nil }),
		"bad dims":        mutate(func(st *state) { st.Strata[0].Sum = []float64{1} }),
		"unordered": mutate(func(st *state) {
			r := st.Strata[0].Res
			if len(r) < 2 {
				t.Skip("needs 2 reservoir entries")
			}
			r[0], r[1] = r[1], r[0]
		}),
		"zero count": mutate(func(st *state) { st.Strata[0].Count = 0 }),
	}
	for name, data := range cases {
		fresh := newTestIngestor(d, cfg)
		if err := fresh.Restore(data); err == nil {
			t.Errorf("%s: restore accepted", name)
		}
	}

	// A non-fresh ingestor refuses restore outright.
	if err := in.Restore(snap); err == nil {
		t.Error("restore into a non-fresh ingestor accepted")
	}

	// Different seed means a different config hash: cross-seed resume is
	// a config mismatch, not silent corruption.
	other := DefaultConfig()
	other.Seed = 7
	if err := newTestIngestor(d, other).Restore(snap); err == nil {
		t.Error("restore across seeds accepted")
	}
}

// TestAssignmentsConsistent: under TrackAssignments, every frame
// resolves to a final stratum, and per-stratum assignment counts equal
// the strata's extrapolation weights.
func TestAssignmentsConsistent(t *testing.T) {
	d := seedResult(t, 1)
	cfg := DefaultConfig()
	cfg.TrackAssignments = true
	in := newTestIngestor(d, cfg)
	if err := in.AddChunk(d.fr.Profiles); err != nil {
		t.Fatal(err)
	}
	sel, err := in.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assign, err := in.Assignments()
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != len(d.fr.Profiles) {
		t.Fatalf("%d assignments for %d frames", len(assign), len(d.fr.Profiles))
	}
	counts := make([]int, len(sel.Strata))
	for f, s := range assign {
		if s < 0 || s >= len(sel.Strata) {
			t.Fatalf("frame %d assigned to stratum %d of %d", f, s, len(sel.Strata))
		}
		counts[s]++
	}
	for i, st := range sel.Strata {
		if counts[i] != st.Count {
			t.Errorf("stratum %d: %d assigned frames, weight %d", i, counts[i], st.Count)
		}
	}
	// Untracked ingestors refuse, rather than returning garbage.
	plain := newTestIngestor(d, DefaultConfig())
	if err := plain.AddChunk(d.fr.Profiles[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Assignments(); err == nil {
		t.Error("Assignments without TrackAssignments accepted")
	}
}

// ladderSelection is a hand-built two-stratum selection: stratum 0 has
// a substitution ladder (2, then 5, then 7), stratum 1 has none.
func ladderSelection() *Selection {
	return &Selection{
		Workload: "x",
		Frames:   10,
		Strata: []Stratum{
			{Label: 0, Count: 6, Representative: 2, Alternates: []int{5, 7}},
			{Label: 1, Count: 4, Representative: 3},
		},
	}
}

// TestPlanAndEstimateDegradation: the substitution ladder and the
// lost-stratum weight rescale mirror the batch degradation rules.
func TestPlanAndEstimateDegradation(t *testing.T) {
	sel := ladderSelection()
	stats := map[int]tbr.FrameStats{
		2: {Cycles: 100},
		3: {Cycles: 50},
		5: {Cycles: 110},
	}

	// Healthy: 6*100 + 4*50 = 800.
	est, err := sel.Estimate(stats)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cycles != 800 {
		t.Fatalf("healthy estimate %d cycles, want 800", est.Cycles)
	}

	// Representative 2 quarantined: alternate 5 stands in with full
	// weight (6*110 + 4*50 = 860) and the substitution is reported.
	q := map[int]bool{2: true}
	deg := sel.Degrade(q)
	est, err = deg.Estimate(stats)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cycles != 860 {
		t.Fatalf("substituted estimate %d cycles, want 860", est.Cycles)
	}
	if !deg.Degraded() || len(deg.Substitutions) != 1 || deg.Substitutions[0] != (core.Substitution{Group: 0, Original: 2, Substitute: 5}) {
		t.Fatalf("degradation %+v, want one 2->5 substitution", deg)
	}

	// Whole first reservoir quarantined: stratum lost, surviving 4-frame
	// stratum rescales to the full 10 frames (50*4 * 10/4 = 500).
	q = map[int]bool{2: true, 5: true, 7: true}
	deg = sel.Degrade(q)
	est, err = deg.Estimate(stats)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cycles != 500 {
		t.Fatalf("lost-stratum estimate %d cycles, want 500", est.Cycles)
	}
	if len(deg.Lost) != 1 || deg.Lost[0] != 0 || deg.CoveredFrames != 4 {
		t.Fatalf("degradation %+v, want stratum 0 lost with 4 covered frames", deg)
	}

	// Everything quarantined: an explicit error, never a zero estimate.
	q = map[int]bool{2: true, 5: true, 7: true, 3: true}
	if _, err := sel.Degrade(q).Estimate(stats); err == nil {
		t.Fatal("all-lost estimate accepted")
	}
}

// TestPlanMatchesReference: over random quarantine sets on the ladder
// selection and on a real streaming selection, the plan, the shared
// degradation record and its estimate equal the pre-unification
// Plan/EstimateWith reference bit for bit.
func TestPlanMatchesReference(t *testing.T) {
	d := seedResult(t, 1)
	in := newTestIngestor(d, DefaultConfig())
	if err := in.AddChunk(d.fr.Profiles); err != nil {
		t.Fatal(err)
	}
	seeded, err := in.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for name, sel := range map[string]*Selection{"ladder": ladderSelection(), "seed1": seeded} {
		var pool []int // every frame a plan can pick
		for _, st := range sel.Strata {
			pool = append(pool, st.Representative)
			pool = append(pool, st.Alternates...)
		}
		stats := map[int]tbr.FrameStats{}
		for _, f := range pool {
			stats[f] = tbr.FrameStats{Frame: f, Cycles: rng.Uint64N(1 << 30), FragmentsShaded: rng.Uint64N(1 << 30),
				DRAM: mem.DRAMStats{Accesses: rng.Uint64N(1 << 30)}, L2: mem.CacheStats{Accesses: rng.Uint64N(1 << 30)}}
		}
		subs, losses := 0, 0
		for trial := 0; trial < 300; trial++ {
			p := rng.Float64()
			q := map[int]bool{}
			for _, f := range pool {
				if rng.Float64() < p {
					q[f] = true
				}
			}
			label := fmt.Sprintf("%s/trial %d", name, trial)
			deg := sel.Degrade(q)
			plan := deg.Plan
			if want := refPlan(sel, q); !reflect.DeepEqual(plan, want) {
				t.Fatalf("%s: plan %v, reference %v", label, plan, want)
			}
			est, err := deg.Estimate(stats)
			want, wantDeg, wantErr := refEstimateWith(sel, plan, stats)
			if (err != nil) != (wantErr != nil) || est != want {
				t.Fatalf("%s: estimate %+v (%v), reference %+v (%v)", label, est, err, want, wantErr)
			}
			var wantSubs []core.Substitution
			for _, s := range wantDeg.subs {
				wantSubs = append(wantSubs, core.Substitution{Group: s[0], Original: s[1], Substitute: s[2]})
			}
			if !reflect.DeepEqual(deg.Substitutions, wantSubs) || !reflect.DeepEqual(deg.Lost, wantDeg.lost) ||
				deg.CoveredFrames != wantDeg.covered || deg.Frames != sel.Frames {
				t.Fatalf("%s: degradation %+v, reference %+v", label, deg, wantDeg)
			}
			subs += len(deg.Substitutions)
			losses += len(deg.Lost)
		}
		if subs == 0 || losses == 0 {
			t.Fatalf("%s: the quarantine sets gave %d substitutions and %d losses; both must occur", name, subs, losses)
		}
	}
}

// refPlan and refEstimateWith are the pre-unification streaming
// Selection.Plan and Selection.EstimateWith bodies, kept as the
// reference the shared degradation rules are held to. A substitution is
// (stratum, from, to).
func refPlan(s *Selection, quarantined map[int]bool) []int {
	plan := make([]int, len(s.Strata))
	for i, st := range s.Strata {
		plan[i] = -1
		if !quarantined[st.Representative] {
			plan[i] = st.Representative
			continue
		}
		for _, alt := range st.Alternates {
			if !quarantined[alt] {
				plan[i] = alt
				break
			}
		}
	}
	return plan
}

type refDegradation struct {
	subs    [][3]int
	lost    []int
	covered int
}

func refEstimateWith(s *Selection, plan []int, repStats map[int]tbr.FrameStats) (tbr.FrameStats, *refDegradation, error) {
	deg := &refDegradation{}
	var total tbr.FrameStats
	for i, st := range s.Strata {
		f := plan[i]
		if f < 0 {
			deg.lost = append(deg.lost, i)
			continue
		}
		stat, ok := repStats[f]
		if !ok {
			return tbr.FrameStats{}, nil, fmt.Errorf("missing stats for frame %d", f)
		}
		if f != st.Representative {
			deg.subs = append(deg.subs, [3]int{i, st.Representative, f})
		}
		deg.covered += st.Count
		scaled := stat.Scale(uint64(st.Count))
		total.Add(&scaled)
	}
	if deg.covered == 0 {
		return tbr.FrameStats{}, deg, fmt.Errorf("every stratum lost")
	}
	if deg.covered < s.Frames {
		total = total.ScaleF(float64(s.Frames) / float64(deg.covered))
	}
	total.Frame = -1
	return total, deg, nil
}

// TestShapeMismatchRejected: profiles with the wrong shader-count shape
// are rejected without advancing or corrupting the stream.
func TestShapeMismatchRejected(t *testing.T) {
	d := seedResult(t, 1)
	in := newTestIngestor(d, DefaultConfig())
	if err := in.AddChunk(d.fr.Profiles[:3]); err != nil {
		t.Fatal(err)
	}
	before, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := funcsim.FrameProfile{VSCount: []uint64{1}, FSCount: []uint64{2, 3}}
	if err := in.Add(&bad); err == nil {
		t.Fatal("mismatched profile accepted")
	}
	after, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("rejected profile mutated ingestor state")
	}
}

// TestSingleStratumCap: MaxStrata = 1 is degenerate but must stay
// well-defined — at capacity there is no pair of strata to merge, so
// the lone stratum absorbs every frame and the spawn radius widens to
// each tolerated distance (this used to panic with an index out of
// range in mergeClosest on the second distinct frame). The invariants
// everything else relies on — chunk-split determinism, capacity and
// reservoir bounds, a usable selection — must all still hold.
func TestSingleStratumCap(t *testing.T) {
	d := seedResult(t, 1)
	cfg := DefaultConfig()
	cfg.MaxStrata = 1
	cfg.ReservoirCap = 3

	ingest := func(chunk int) (*Ingestor, []byte) {
		in := newTestIngestor(d, cfg)
		profs := d.fr.Profiles
		for lo := 0; lo < len(profs); lo += chunk {
			hi := lo + chunk
			if hi > len(profs) {
				hi = len(profs)
			}
			if err := in.AddChunk(profs[lo:hi]); err != nil {
				t.Fatalf("chunk %d: ingest: %v", chunk, err)
			}
		}
		snap, err := in.Snapshot()
		if err != nil {
			t.Fatalf("chunk %d: snapshot: %v", chunk, err)
		}
		return in, snap
	}

	in, ref := ingest(len(d.fr.Profiles))
	if got := in.NumStrata(); got != 1 {
		t.Fatalf("%d strata under a cap of 1", got)
	}
	if in.Merges() != 0 {
		t.Fatalf("%d merges recorded with a single stratum", in.Merges())
	}
	if got := len(in.strata[0].res); got == 0 || got > cfg.ReservoirCap {
		t.Fatalf("reservoir size %d out of [1,%d]", got, cfg.ReservoirCap)
	}
	sel, err := in.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if sel.Frames != len(d.fr.Profiles) || sel.Strata[0].Count != sel.Frames {
		t.Fatalf("selection covers %d of %d frames", sel.Strata[0].Count, len(d.fr.Profiles))
	}
	for _, chunk := range []int{1, 7} {
		if _, snap := ingest(chunk); !bytes.Equal(snap, ref) {
			t.Errorf("chunk size %d: snapshot differs from all-at-once", chunk)
		}
	}
}
