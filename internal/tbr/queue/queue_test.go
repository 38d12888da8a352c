package queue

import "testing"

func TestQueueNoStallWhenEmpty(t *testing.T) {
	q := New("q", 4)
	at := q.Admit(10)
	if at != 10 {
		t.Fatalf("Admit = %d, want 10", at)
	}
	q.Commit(20)
	if q.Stats.Stalls != 0 || q.Stats.Admitted != 1 {
		t.Fatalf("stats %+v", q.Stats)
	}
}

func TestQueueBackpressure(t *testing.T) {
	q := New("q", 2)
	// Fill both slots with items completing at 100 and 200.
	q.Admit(0)
	q.Commit(100)
	q.Admit(0)
	q.Commit(200)
	// Third item must wait for the first slot (free at 100).
	at := q.Admit(5)
	if at != 100 {
		t.Fatalf("Admit = %d, want 100", at)
	}
	q.Commit(150)
	// Fourth waits for the second slot (free at 200).
	at = q.Admit(5)
	if at != 200 {
		t.Fatalf("Admit = %d, want 200", at)
	}
	q.Commit(250)
	if q.Stats.Stalls != 2 {
		t.Fatalf("stalls = %d, want 2", q.Stats.Stalls)
	}
	if q.Stats.StallCycles != (100-5)+(200-5) {
		t.Fatalf("stall cycles = %d", q.Stats.StallCycles)
	}
}

func TestQueueFIFOSlotOrder(t *testing.T) {
	q := New("q", 2)
	q.Admit(0)
	q.Commit(50)
	q.Admit(0)
	q.Commit(10) // second slot frees earlier than the first
	// FIFO queues free slots in insertion order: must wait for 50.
	if at := q.Admit(0); at != 50 {
		t.Fatalf("Admit = %d, want 50 (FIFO head)", at)
	}
	q.Commit(60)
}

func TestQueueResetTimeKeepsStats(t *testing.T) {
	q := New("q", 1)
	q.Admit(0)
	q.Commit(1000)
	q.ResetTime()
	if at := q.Admit(0); at != 0 {
		t.Fatalf("Admit after ResetTime = %d", at)
	}
	q.Commit(1)
	if q.Stats.Admitted != 2 {
		t.Fatalf("stats should survive ResetTime: %+v", q.Stats)
	}
}

func TestQueuePanics(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	check("zero entries", func() { New("q", 0) })
	check("double admit", func() {
		q := New("q", 2)
		q.Admit(0)
		q.Admit(0)
	})
	check("commit without admit", func() {
		q := New("q", 2)
		q.Commit(0)
	})
}

func TestQueueThroughputBound(t *testing.T) {
	// A 4-entry queue in front of a 10-cycle consumer bounds steady
	// state admission rate to one per 10 cycles.
	q := New("q", 4)
	var last uint64
	for i := 0; i < 100; i++ {
		at := q.Admit(0) // producer always ready
		done := at + 10  // consumer takes 10 cycles... sequential
		if done < last+10 {
			done = last + 10
		}
		q.Commit(done)
		last = done
	}
	// After warmup, the 100th item cannot leave before ~1000 cycles.
	if last < 990 {
		t.Fatalf("throughput model broken: last done = %d", last)
	}
}

func TestQueueInvariantCheckCleanTraffic(t *testing.T) {
	// Normal two-phase usage never violates occupancy, so the armed
	// check must stay silent through fill, stall and wrap-around.
	q := New("q", 2)
	q.EnableInvariantCheck()
	var last uint64
	for i := 0; i < 20; i++ {
		at := q.Admit(uint64(i))
		done := at + 7
		if done < last+7 {
			done = last + 7
		}
		q.Commit(done)
		last = done
	}
}

func TestQueueInvariantCheckFires(t *testing.T) {
	// The occupancy invariant cannot fire through the public API — that
	// is the point of the invariant — so corrupt the ring state directly
	// and verify the check detects it. This is the firing-case test the
	// validation subsystem requires for every check.
	t.Run("head slot busy past admit", func(t *testing.T) {
		q := New("q", 2)
		q.doneAt[q.head] = 100 // occupant still holding the head slot
		defer func() {
			if recover() == nil {
				t.Fatal("verifyAdmit did not panic with the head slot busy")
			}
		}()
		q.verifyAdmit(50)
	})
	t.Run("head rotated onto busy slot", func(t *testing.T) {
		// A head index rotated past a still-busy slot (non-FIFO ring
		// corruption) is also caught by the head check.
		q := New("q", 2)
		q.doneAt[0] = 10
		q.doneAt[1] = 100
		q.head = 1
		defer func() {
			if recover() == nil {
				t.Fatal("verifyAdmit did not panic with the head on a busy slot")
			}
		}()
		q.verifyAdmit(50)
	})
}

func TestQueueArmedAdmitNeverFiresThroughAPI(t *testing.T) {
	// Admit resolves the stall against the head slot before verifying,
	// so through the public API the armed check is provably silent —
	// only corrupted ring state (the direct verifyAdmit cases above)
	// can trip it. Hammer an armed queue with adversarial ready cycles
	// to pin that down.
	q := New("q", 3)
	q.EnableInvariantCheck()
	readies := []uint64{0, 5, 5, 0, 100, 2, 2, 2, 50, 0}
	for i, r := range readies {
		at := q.Admit(r)
		q.Commit(at + uint64(13*(i%4)+1))
	}
}
