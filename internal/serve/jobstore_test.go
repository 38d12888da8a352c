package serve

import (
	"testing"
	"time"
)

func TestStoreDedupAndRetry(t *testing.T) {
	st := newStore()
	req := &CampaignRequest{}

	j1, fresh := st.Submit(req, "cmp-a", time.Time{})
	if !fresh {
		t.Fatal("first submission not fresh")
	}
	if j2, fresh := st.Submit(req, "cmp-a", time.Time{}); fresh || j2 != j1 {
		t.Fatal("queued job not deduplicated")
	}
	j1.setRunning()
	if j2, fresh := st.Submit(req, "cmp-a", time.Time{}); fresh || j2 != j1 {
		t.Fatal("running job not deduplicated")
	}

	select {
	case <-j1.done:
		t.Fatal("Done closed before completion")
	default:
	}
	j1.complete(&CampaignReport{Cycles: 7}, []byte("bytes"))
	select {
	case <-j1.done:
	default:
		t.Fatal("Done not closed after completion")
	}
	if b, ok := j1.Result(); !ok || string(b) != "bytes" {
		t.Fatal("Result missing after completion")
	}
	// Terminal states are final: a late failure must not overwrite.
	j1.fail(JobFailed, "too late")
	if st := j1.State(); st != JobSucceeded {
		t.Fatalf("terminal state overwritten: %s", st)
	}
	if j2, fresh := st.Submit(req, "cmp-a", time.Time{}); fresh || j2 != j1 {
		t.Fatal("succeeded job not reused as cached result")
	}

	// Failed and interrupted jobs are replaced on resubmission.
	jf, _ := st.Submit(req, "cmp-b", time.Time{})
	jf.fail(JobFailed, "boom")
	if _, ok := jf.Result(); ok {
		t.Fatal("failed job has a result")
	}
	jf2, fresh := st.Submit(req, "cmp-b", time.Time{})
	if !fresh || jf2 == jf {
		t.Fatal("failed job was not replaced")
	}
	ji, _ := st.Submit(req, "cmp-c", time.Time{})
	ji.fail(JobInterrupted, "drained")
	if ji2, fresh := st.Submit(req, "cmp-c", time.Time{}); !fresh || ji2 == ji {
		t.Fatal("interrupted job was not replaced")
	}

	// Remove rolls back a rejected admission without disturbing the
	// job that owns the fingerprint now.
	st.Remove(jf2)
	if _, ok := st.Get(jf2.ID); ok {
		t.Fatal("removed job still listed")
	}
	st.Remove(jf) // stale pointer: must not evict jf2's successor mapping
	if _, ok := st.Get(j1.ID); !ok {
		t.Fatal("unrelated job lost")
	}

	list := st.List()
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatal("List not sorted by ID")
		}
	}
}
