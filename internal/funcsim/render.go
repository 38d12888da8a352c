package funcsim

import (
	"fmt"
	"image"
	"image/color"

	"repro/internal/geom"
	"repro/internal/gltrace"
	"repro/internal/raster"
)

// RenderFrame rasterizes one frame of a trace to an RGBA image, using a
// deterministic per-material color scheme and depth-based shading. It is
// a debugging/visualization aid for the synthetic workloads: the output
// shows scene structure (layers, overdraw, animation), not real shading.
// Blended draws composite at half opacity, mirroring the simulators'
// transparency semantics.
func RenderFrame(trace *gltrace.Trace, frame int) (*image.RGBA, error) {
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	if frame < 0 || frame >= trace.NumFrames() {
		return nil, fmt.Errorf("funcsim: frame %d out of range [0,%d)", frame, trace.NumFrames())
	}
	vp := trace.Viewport
	img := image.NewRGBA(image.Rect(0, 0, vp.Width, vp.Height))
	// Background: dark gray so unlit pixels are distinguishable from
	// black geometry.
	for i := 0; i < len(img.Pix); i += 4 {
		img.Pix[i], img.Pix[i+1], img.Pix[i+2], img.Pix[i+3] = 24, 24, 32, 255
	}
	depth := raster.NewDepthBuffer(vp.Width, vp.Height)
	clip := geom.AABB2{Max: geom.Vec2{X: float64(vp.Width), Y: float64(vp.Height)}}

	curFS, curTex := 0, 0
	draw := 0 // index of the next draw's transform in f.MVPs
	var (
		tris  []raster.ScreenTriangle
		scr   raster.DrawScratch
		quads raster.QuadBatch
	)
	f := &trace.Frames[frame]
	for ci := range f.Commands {
		cmd := &f.Commands[ci]
		switch cmd.Op {
		case gltrace.CmdClear:
			depth.Clear()
		case gltrace.CmdBindProgram:
			curFS = int(cmd.FS)
		case gltrace.CmdBindTexture:
			if cmd.Unit == 0 {
				curTex = int(cmd.Texture)
			}
		case gltrace.CmdDraw:
			tris, _ = raster.ProcessDraw(&trace.Meshes[cmd.Mesh], f.MVPs[draw], vp, cmd.DepthBias, tris[:0], &scr)
			draw++
			r, g, b := materialColor(curFS, curTex)
			for t := range tris {
				quads.Reset()
				quads.AppendQuads(&tris[t], clip)
				for i, n := 0, quads.Len(); i < n; i++ {
					qx, qy := int(quads.X[i]), int(quads.Y[i])
					qd := quads.Depth[4*i : 4*i+4]
					var mask uint8
					if cmd.Blend {
						mask = depth.TestMaskReadOnly(qx, qy, qd, quads.Mask[i])
					} else {
						mask = depth.TestMask(qx, qy, qd, quads.Mask[i])
					}
					for s := 0; s < 4; s++ {
						if mask&(1<<s) == 0 {
							continue
						}
						x := qx + (s & 1)
						y := qy + (s >> 1)
						if x >= vp.Width || y >= vp.Height {
							continue
						}
						// Depth cue: nearer is brighter.
						shade := 1 - 0.6*qd[s]
						pr := uint8(float64(r) * shade)
						pg := uint8(float64(g) * shade)
						pb := uint8(float64(b) * shade)
						if cmd.Blend {
							old := img.RGBAAt(x, y)
							pr = uint8((uint16(old.R) + uint16(pr)) / 2)
							pg = uint8((uint16(old.G) + uint16(pg)) / 2)
							pb = uint8((uint16(old.B) + uint16(pb)) / 2)
						}
						img.SetRGBA(x, y, color.RGBA{R: pr, G: pg, B: pb, A: 255})
					}
				}
			}
		}
	}
	return img, nil
}

// materialColor derives a stable, saturated color from the bound
// fragment shader and texture ids.
func materialColor(fs, tex int) (r, g, b uint8) {
	h := uint64(fs)*0x9e3779b97f4a7c15 + uint64(tex)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	r = uint8(96 + h%160)
	g = uint8(96 + (h>>8)%160)
	b = uint8(96 + (h>>16)%160)
	return r, g, b
}
