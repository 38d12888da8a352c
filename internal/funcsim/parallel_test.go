package funcsim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/workload"
)

// referenceRun is the frame-at-a-time characterization RunObs must
// reproduce: one ProfileAt per frame in frame order, observations
// recorded as each frame completes.
func referenceRun(t *testing.T, tr *gltrace.Trace) (*Result, *obs.Snapshot) {
	t.Helper()
	st, err := NewStreamer(tr)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	res := &Result{Trace: tr.Name, Profiles: make([]FrameProfile, tr.NumFrames())}
	res.VSStatic, res.FSStatic = st.Static()
	for f := range res.Profiles {
		if err := st.ProfileAt(&res.Profiles[f], f); err != nil {
			t.Fatal(err)
		}
		reg.Counter("funcsim.draws").Add(uint64(tr.Frames[f].DrawCount()))
		reg.Counter("funcsim.frames").Inc()
		reg.Counter("funcsim.fragments").Add(res.Profiles[f].Fragments)
		reg.Histogram("funcsim.frame_fragments").Observe(res.Profiles[f].Fragments)
	}
	return res, reg.Snapshot()
}

// withProcs runs fn at GOMAXPROCS n, restoring the previous setting.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestRunObsFrameParallelMatchesSerial: the frame-parallel RunObs gives
// a result and an obs snapshot identical to the frame-at-a-time
// reference at every worker count, on randomized 2D and 3D traces and
// on a blend-heavy one (read-only depth tests interleaved with writes).
func TestRunObsFrameParallelMatchesSerial(t *testing.T) {
	traces := map[string]*gltrace.Trace{
		"blend-heavy jjo": workload.MustGenerate(workload.Profiles["jjo"], workload.TestScale),
	}
	for _, seed := range []uint64{3, 6, 33} {
		traces[fmt.Sprintf("random seed %d", seed)] = workload.MustGenerate(workload.RandomProfile(seed), workload.TestScale)
	}
	for name, tr := range traces {
		want, wantSnap := referenceRun(t, tr)
		for _, procs := range []int{1, 2, 4} {
			withProcs(procs, func() {
				reg := obs.New()
				got, err := RunObs(tr, reg)
				if err != nil {
					t.Fatalf("%s, GOMAXPROCS=%d: %v", name, procs, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, GOMAXPROCS=%d: result differs from the frame-at-a-time reference", name, procs)
				}
				if snap := reg.Snapshot(); !reflect.DeepEqual(snap, wantSnap) {
					t.Fatalf("%s, GOMAXPROCS=%d: obs snapshot differs:\n got %+v\nwant %+v", name, procs, snap, wantSnap)
				}
			})
		}
	}
}

// TestProfileRangeReusesScratchAcrossWindows: consecutive windows of
// different lengths over one streamer, with stale profiles in the
// destination, land on the reference profiles.
func TestProfileRangeReusesScratchAcrossWindows(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["bbr1"], workload.TestScale)
	want, _ := referenceRun(t, tr)
	st, err := NewStreamer(tr)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]FrameProfile, 7)
	withProcs(4, func() {
		for lo, step := 0, 1; lo < tr.NumFrames(); lo, step = lo+step, step%7+1 {
			win := buf[:min(step, tr.NumFrames()-lo)]
			if err := st.ProfileRange(context.Background(), win, lo); err != nil {
				t.Fatal(err)
			}
			for i := range win {
				if !reflect.DeepEqual(win[i], want.Profiles[lo+i]) {
					t.Fatalf("frame %d differs in window [%d,%d)", lo+i, lo, lo+len(win))
				}
			}
		}
	})
}

// TestProfileRangeErrors: out-of-range windows and resource-mode
// streamers are refused, and a cancelled context surfaces as ctx's
// error.
func TestProfileRangeErrors(t *testing.T) {
	tr := workload.MustGenerate(workload.Profiles["hcr"], workload.TestScale)
	st, err := NewStreamer(tr)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.NumFrames()
	for _, lo := range []int{-1, n - 1} {
		if err := st.ProfileRange(context.Background(), make([]FrameProfile, 2), lo); err == nil {
			t.Fatalf("window [%d,%d) of %d frames accepted", lo, lo+2, n)
		}
	}
	if err := st.ProfileRange(context.Background(), nil, n); err != nil {
		t.Fatalf("empty window at the end refused: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.ProfileRange(ctx, make([]FrameProfile, n), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled range: err = %v, want context.Canceled", err)
	}

	rs, err := NewResourceStreamer(tr.Name, tr.Viewport, tr.VertexShaders, tr.FragmentShaders, tr.Meshes, tr.Textures)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.ProfileRange(context.Background(), make([]FrameProfile, 1), 0); err == nil {
		t.Fatal("resource-mode streamer profiled a trace range")
	}
}
