// Recorded scene: author a workload through the immediate-mode Recorder
// API — the programmatic alternative to the workload profile DSL — then
// run MEGsim on the captured trace. The scene is a little orbit demo
// with two visually distinct phases (calm orbit, then a dense swarm),
// which MEGsim should separate into clusters.
//
//	go run ./examples/recorded_scene
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/geom"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/xmath/stats"
	"repro/megsim"
)

func main() {
	rec := megsim.NewRecorder("orbit-demo", 256, 128)

	// Resources.
	sphere := rec.AddMesh(scene.Sphere("planet", 6, 8))
	box := rec.AddMesh(scene.Box("satellite"))
	ground := rec.AddMesh(scene.Grid("ground", 8, 8, nil))
	tex := rec.AddTexture(megsim.Texture{Name: "albedo", Width: 128, Height: 128, BytesPerTexel: 4})

	gen := shader.NewGenerator(stats.NewRNG(42))
	solid, err := rec.AddProgram(gen.Vertex(shader.ComplexVertex), gen.Fragment(shader.ComplexFragment))
	if err != nil {
		log.Fatal(err)
	}
	simple, err := rec.AddProgram(gen.Vertex(shader.SimpleVertex), gen.Fragment(shader.SimpleFragment))
	if err != nil {
		log.Fatal(err)
	}

	const frames = 600
	proj := geom.Perspective(math.Pi/3, 2, 0.1, 100)
	for f := 0; f < frames; f++ {
		t := float64(f) / 60
		eye := geom.Vec3{X: 6 * math.Cos(t/4), Y: 3, Z: 6 * math.Sin(t/4)}
		view := geom.LookAt(eye, geom.Vec3{}, geom.Vec3{Y: 1})
		vp := proj.Mul(view)

		rec.BeginFrame()
		rec.UseProgram(simple)
		rec.BindTexture(0, tex)
		rec.Draw(ground, vp.Mul(geom.Translate(geom.Vec3{Y: -1}).Mul(geom.ScaleUniform(12))))

		rec.UseProgram(solid)
		rec.Draw(sphere, vp.Mul(geom.RotateY(t).Mul(geom.ScaleUniform(2))))

		// Phase 2 (second half): a swarm of satellites appears.
		satellites := 3
		if f >= frames/2 {
			satellites = 14
		}
		for s := 0; s < satellites; s++ {
			angle := t*0.8 + float64(s)*2*math.Pi/float64(satellites)
			pos := geom.Vec3{X: 3 * math.Cos(angle), Y: 0.5 * math.Sin(t+float64(s)), Z: 3 * math.Sin(angle)}
			rec.Draw(box, vp.Mul(geom.Translate(pos).Mul(geom.ScaleUniform(0.3))))
		}
		rec.EndFrame()
	}

	trace, err := rec.Finish()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %q: %d frames, %d primitives total\n",
		trace.Name, trace.NumFrames(), trace.TotalPrimitives())

	run, err := megsim.SampleResilient(context.Background(), trace, megsim.DefaultConfig(),
		megsim.DefaultGPUConfig(), megsim.ResilienceConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MEGsim: %d clusters, representatives %v (%.0fx reduction)\n",
		run.Selection.Clusters.K, run.Representatives(), run.ReductionFactor())

	// The two authored phases should land in different clusters:
	// compare the dominant cluster of each half.
	first := dominantCluster(run.Selection, 0, frames/2)
	second := dominantCluster(run.Selection, frames/2, frames)
	fmt.Printf("dominant cluster: first half %d, second half %d\n", first, second)
	if first == second {
		fmt.Println("warning: phases were not separated")
	} else {
		fmt.Println("the calm-orbit and swarm phases were separated, as expected")
	}
}

func dominantCluster(sel *megsim.Selection, lo, hi int) int {
	counts := map[int]int{}
	for f := lo; f < hi; f++ {
		counts[sel.ClusterOf(f)]++
	}
	best, bestN := -1, 0
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}
