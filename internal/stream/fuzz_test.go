package stream

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/funcsim"
	"repro/internal/shader"
)

// FuzzStreamIngest feeds the ingestor arbitrary byte-derived profile
// streams — including malformed shader-count shapes, truncated chunks,
// and duplicate-heavy Frame fields — and checks the structural
// invariants that every well-formed campaign relies on: no panic,
// strata and reservoirs never exceed their caps, the live-vector
// account never exceeds the budget, rejected profiles leave the strata
// untouched, and the final state snapshot/restores byte-identically.
func FuzzStreamIngest(f *testing.F) {
	// Seed corpus: an empty stream, a short clean stream, a duplicate
	// Frame id stream, a wrong-shape profile mid-stream, and a stream
	// long enough to force merges at the tiny caps used below.
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add(bytes.Repeat([]byte{0x11, 0x11, 0x11, 0x11}, 8))
	f.Add([]byte{0x10, 0x20, 0xFF, 0x30, 0x40, 0x50})
	f.Add(bytes.Repeat([]byte{0x00, 0x40, 0x80, 0xC0, 0x33, 0x77, 0xBB, 0xEE}, 16))

	vs := []shader.Cost{{Instructions: 4, ALUOps: 3}, {Instructions: 9, ALUOps: 6, TexSamples: 1}}
	fs := []shader.Cost{{Instructions: 6, ALUOps: 4, TexSamples: 2, TexMemAccesses: 2}}

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultConfig()
		// The first byte picks the stratum cap in [1,4]: 1 is the
		// degenerate single-stratum configuration (no pair to merge at
		// capacity), which once panicked on the second distinct frame.
		cfg.MaxStrata = 4
		if len(data) > 0 {
			cfg.MaxStrata = 1 + int(data[0]&3)
		}
		cfg.ReservoirCap = 2
		cfg.Seed = 7
		in := NewIngestor("fuzz", vs, fs, cfg)

		// Each 4-byte word becomes one profile; the high bits of the
		// first byte select occasional malformed shapes.
		for off := 0; off+4 <= len(data); off += 4 {
			w := binary.LittleEndian.Uint32(data[off : off+4])
			p := funcsim.FrameProfile{
				// Colliding Frame ids on purpose: identity is arrival
				// position, so duplicates must be harmless.
				Frame:        int(w % 8),
				VSCount:      []uint64{uint64(w & 0xFF), uint64(w >> 8 & 0xFF)},
				FSCount:      []uint64{uint64(w >> 16 & 0xFF)},
				PrimsIn:      uint64(w&0xFFFF) + 1,
				PrimsVisible: uint64(w & 0xFFF),
				Fragments:    uint64(w >> 4 & 0xFFFF),
			}
			malformed := false
			switch data[off] >> 5 {
			case 5: // truncated shader counts
				p.VSCount = p.VSCount[:1]
				malformed = true
			case 6: // extra FS program
				p.FSCount = append(p.FSCount, 1)
				malformed = true
			case 7: // nil counts
				p.VSCount, p.FSCount = nil, nil
				malformed = true
			}

			if malformed {
				before, serr := in.Snapshot()
				if serr != nil {
					t.Fatalf("snapshot: %v", serr)
				}
				if err := in.Add(&p); err == nil {
					t.Fatalf("malformed profile at offset %d accepted", off)
				}
				after, serr := in.Snapshot()
				if serr != nil {
					t.Fatalf("snapshot after reject: %v", serr)
				}
				if !bytes.Equal(before, after) {
					t.Fatalf("rejected profile mutated ingestor state")
				}
				continue
			}
			if err := in.Add(&p); err != nil {
				t.Fatalf("well-formed profile rejected: %v", err)
			}

			if got := len(in.strata); got < 1 || got > cfg.MaxStrata {
				t.Fatalf("strata count %d outside [1,%d]", got, cfg.MaxStrata)
			}
			for _, st := range in.strata {
				if len(st.res) > cfg.ReservoirCap {
					t.Fatalf("reservoir %d exceeds cap %d", len(st.res), cfg.ReservoirCap)
				}
			}
			if in.alloc.live > vectorBudget(in) || in.PeakVectors() > vectorBudget(in) {
				t.Fatalf("vector account live=%d peak=%d exceeds budget %d",
					in.alloc.live, in.PeakVectors(), vectorBudget(in))
			}
		}

		// Whatever stream the fuzzer built, its state must round-trip
		// exactly and restore into a working ingestor.
		snap, err := in.Snapshot()
		if err != nil {
			t.Fatalf("final snapshot: %v", err)
		}
		in2 := NewIngestor("fuzz", vs, fs, cfg)
		if err := in2.Restore(snap); err != nil {
			t.Fatalf("restore of own snapshot: %v", err)
		}
		snap2, err := in2.Snapshot()
		if err != nil {
			t.Fatalf("re-snapshot: %v", err)
		}
		if !bytes.Equal(snap, snap2) {
			t.Fatalf("snapshot not byte-stable across restore")
		}
		if in.Frames() > 0 {
			sel, err := in.Finalize()
			if err != nil {
				t.Fatalf("finalize: %v", err)
			}
			if sel.Frames != in.Frames() || len(sel.Strata) != len(in.strata) {
				t.Fatalf("selection inconsistent with ingestor: frames %d/%d strata %d/%d",
					sel.Frames, in.Frames(), len(sel.Strata), len(in.strata))
			}
		}

		// Arbitrary bytes must never panic Restore either.
		in3 := NewIngestor("fuzz", vs, fs, cfg)
		_ = in3.Restore(data)
	})
}
