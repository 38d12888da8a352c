package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// stateVersion gates the snapshot decoder.
const stateVersion = 1

// state is the serialized form of an Ingestor: everything Add depends
// on, and nothing else. JSON float64 encoding is shortest-roundtrip
// exact, so Restore(Snapshot(in)) continues bit-identically — the
// foundation of the byte-identical mid-stream resume guarantee.
type state struct {
	Version    int            `json:"version"`
	ConfigHash string         `json:"configHash"`
	N          int            `json:"n"`
	GroupSum   [3]float64     `json:"groupSum"`
	SpawnR     float64        `json:"spawnR"`
	NextLabel  int            `json:"nextLabel"`
	Merges     int            `json:"merges"`
	Strata     []stratumState `json:"strata"`
	// Assignment tracking state, present only under TrackAssignments.
	Labels  []int          `json:"labels,omitempty"`
	Parents map[string]int `json:"parents,omitempty"`
}

type stratumState struct {
	Label int        `json:"label"`
	Count int        `json:"count"`
	Sum   []float64  `json:"sum"`
	Res   []resState `json:"res"`
}

type resState struct {
	Frame int       `json:"frame"`
	Pri   uint64    `json:"pri"`
	Vec   []float64 `json:"vec"`
}

// configHash fingerprints everything that must match for a snapshot to
// be resumable: the capacity/seed/feature configuration and the static
// shader weights of the workload. A snapshot taken under any other
// hash is rejected — resuming it would silently mix incompatible
// characterizations.
func (in *Ingestor) configHash() string {
	b, err := json.Marshal(struct {
		Name             string
		MaxStrata        int
		ReservoirCap     int
		Seed             uint64
		Feature          any
		TrackAssignments bool
		VSInstr, FSInstr []float64
		HasPrim          bool
	}{in.name, in.cfg.MaxStrata, in.cfg.ReservoirCap, in.cfg.Seed,
		in.cfg.Feature, in.cfg.TrackAssignments, in.vsInstr, in.fsInstr, in.hasPrim})
	if err != nil {
		panic(fmt.Sprintf("stream: config hash: %v", err)) // plain data; cannot fail
	}
	sum := sha256.Sum256(b)
	return "stream-" + hex.EncodeToString(sum[:12])
}

// Snapshot serializes the ingestor's full progress. The encoding is
// canonical — strata in label order, reservoirs in their maintained
// (pri, frame) order, union-find keys sorted by JSON map marshaling —
// so equal states produce equal bytes.
func (in *Ingestor) Snapshot() ([]byte, error) {
	st := state{
		Version:    stateVersion,
		ConfigHash: in.configHash(),
		N:          in.n,
		GroupSum:   in.groupSum,
		SpawnR:     in.spawnR,
		NextLabel:  in.nextLabel,
		Merges:     in.merges,
	}
	strata := make([]*stratum, len(in.strata))
	copy(strata, in.strata)
	sort.Slice(strata, func(i, j int) bool { return strata[i].label < strata[j].label })
	for _, s := range strata {
		ss := stratumState{Label: s.label, Count: s.count, Sum: s.sum}
		for _, e := range s.res {
			ss.Res = append(ss.Res, resState{Frame: e.frame, Pri: e.pri, Vec: e.vec})
		}
		st.Strata = append(st.Strata, ss)
	}
	if in.cfg.TrackAssignments {
		st.Labels = in.labels
		st.Parents = map[string]int{}
		for k, v := range in.parent {
			st.Parents[fmt.Sprint(k)] = v
		}
	}
	return json.Marshal(st)
}

// Restore rebuilds an ingestor mid-stream from a snapshot. The
// receiver must be freshly built by NewIngestor with the same name,
// static costs and configuration the snapshot was taken under —
// enforced by the config hash — and must not have ingested anything
// yet. Ingesting the remaining frames then yields state bit-identical
// to never having stopped.
func (in *Ingestor) Restore(data []byte) error {
	if in.n != 0 || len(in.strata) != 0 {
		return fmt.Errorf("stream: restore into a non-fresh ingestor")
	}
	var st state
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("stream: corrupt snapshot: %w", err)
	}
	if st.Version != stateVersion {
		return fmt.Errorf("stream: snapshot version %d (want %d)", st.Version, stateVersion)
	}
	if want := in.configHash(); st.ConfigHash != want {
		return fmt.Errorf("stream: snapshot config %q does not match ingestor %q", st.ConfigHash, want)
	}
	if st.N < 0 || st.NextLabel < 0 || st.Merges < 0 {
		return fmt.Errorf("stream: snapshot has negative counters")
	}
	if len(st.Strata) > in.cfg.MaxStrata {
		return fmt.Errorf("stream: snapshot has %d strata over cap %d", len(st.Strata), in.cfg.MaxStrata)
	}
	strata := make([]*stratum, 0, len(st.Strata))
	for i, ss := range st.Strata {
		if ss.Count <= 0 || len(ss.Sum) != in.dims {
			return fmt.Errorf("stream: snapshot stratum %d malformed", i)
		}
		if len(ss.Res) == 0 || len(ss.Res) > in.cfg.ReservoirCap {
			return fmt.Errorf("stream: snapshot stratum %d reservoir size %d out of [1,%d]", i, len(ss.Res), in.cfg.ReservoirCap)
		}
		s := &stratum{label: ss.Label, count: ss.Count, sum: in.alloc.get(in.dims)}
		copy(s.sum, ss.Sum)
		for j, r := range ss.Res {
			if len(r.Vec) != in.dims {
				return fmt.Errorf("stream: snapshot stratum %d reservoir %d has %d dims (want %d)", i, j, len(r.Vec), in.dims)
			}
			if j > 0 && !less(resEntry{frame: ss.Res[j-1].Frame, pri: ss.Res[j-1].Pri}, resEntry{frame: r.Frame, pri: r.Pri}) {
				return fmt.Errorf("stream: snapshot stratum %d reservoir not strictly ordered", i)
			}
			vec := in.alloc.get(in.dims)
			copy(vec, r.Vec)
			s.res = append(s.res, resEntry{frame: r.Frame, pri: r.Pri, vec: vec})
		}
		strata = append(strata, s)
	}
	// Snapshots store strata in label order; live order is spawn order,
	// which label order reproduces exactly (labels are assigned by an
	// increasing counter and survivors keep the lower-half label order).
	in.strata = strata
	in.n = st.N
	in.groupSum = st.GroupSum
	in.spawnR = st.SpawnR
	in.nextLabel = st.NextLabel
	in.merges = st.Merges
	if in.cfg.TrackAssignments {
		if len(st.Labels) != st.N {
			return fmt.Errorf("stream: snapshot has %d labels for %d frames", len(st.Labels), st.N)
		}
		in.labels = st.Labels
		for k, v := range st.Parents {
			var key int
			if _, err := fmt.Sscanf(k, "%d", &key); err != nil {
				return fmt.Errorf("stream: snapshot parent key %q: %w", k, err)
			}
			in.parent[key] = v
		}
	}
	return nil
}
