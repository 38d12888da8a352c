// Package stream is the online first phase of MEGsim for unbounded
// frame sequences: it consumes per-frame functional profiles one at a
// time and maintains a bounded set of strata — clusters with an
// incrementally updated centroid and a bounded reservoir of candidate
// representative frames — in O(strata · reservoir) memory, however
// long the stream runs. The batch pipeline materializes the full N × D
// characteristic matrix and (for Fig. 5) an N × N similarity matrix;
// the streaming phase materializes neither: each frame's vector is
// folded into a running centroid and either retained in one stratum's
// reservoir or discarded on the spot.
//
// The stratifier is a single-pass nearest-centroid scheme with a
// growing spawn radius (the BIRCH/stream-k-means family): a frame
// joins the nearest stratum when it is within the radius, spawns a new
// stratum when capacity allows, and otherwise forces the two closest
// strata to merge — which raises the radius to the merged distance, so
// the structure coarsens exactly as fast as capacity demands.
// Reservoir membership uses deterministic bottom-k hash priorities, so
// the retained sample of each stratum is uniform over its members yet
// independent of arrival interleaving and merge order.
//
// Everything is a deterministic function of (seed, frame sequence):
// the same stream split into any chunk sizes — or checkpointed and
// resumed mid-stream — yields bit-identical strata, reservoirs and
// selections. The differential oracle (internal/check) gates the
// result against batch MEGsim on randomized workloads.
package stream

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/shader"
)

// Default capacity parameters: a stratum budget sized to the cluster
// counts the batch BIC search picks on oracle-scale workloads (30-45),
// and a reservoir deep enough to survive representative quarantine
// with in-stratum substitutes.
const (
	defaultMaxStrata    = 32
	defaultReservoirCap = 8
)

// Config parameterizes the streaming first phase.
type Config struct {
	// MaxStrata bounds the number of strata (0 = defaultMaxStrata).
	// When a new frame needs a stratum beyond the cap, the two closest
	// existing strata merge first.
	MaxStrata int
	// ReservoirCap bounds each stratum's reservoir of candidate
	// representative frames (0 = defaultReservoirCap).
	ReservoirCap int
	// Seed drives the reservoir hash priorities. Same seed, same
	// stream, same result — regardless of chunking.
	Seed uint64
	// Feature is the vector-of-characteristics configuration, shared
	// with the batch pipeline (zero value = core.DefaultFeatureConfig).
	Feature core.FeatureConfig
	// TrackAssignments retains a per-frame stratum label (O(frames)
	// memory — oracle and test use only; the bounded-memory guarantee
	// applies to the default, disabled, mode).
	TrackAssignments bool
}

// DefaultConfig returns the paper-faithful streaming configuration.
func DefaultConfig() Config {
	return Config{
		MaxStrata:    defaultMaxStrata,
		ReservoirCap: defaultReservoirCap,
		Seed:         1,
		Feature:      core.DefaultFeatureConfig(),
	}
}

// withDefaults fills zero-valued fields.
func (c Config) withDefaults() Config {
	if c.MaxStrata <= 0 {
		c.MaxStrata = defaultMaxStrata
	}
	if c.ReservoirCap <= 0 {
		c.ReservoirCap = defaultReservoirCap
	}
	if c.Feature == (core.FeatureConfig{}) {
		c.Feature = core.DefaultFeatureConfig()
	}
	return c
}

// resEntry is one reservoir member: the frame's arrival index, its
// hash priority, and its raw (unnormalized) characteristic vector.
type resEntry struct {
	frame int
	pri   uint64
	vec   []float64
}

// stratum is one online cluster: an incrementally maintained raw-sum
// centroid and a bottom-k reservoir of member frames.
type stratum struct {
	// label is the stratum's stable identity across merges (the
	// surviving stratum keeps its label; absorbed labels redirect).
	label int
	// count is the number of member frames — the extrapolation weight.
	count int
	// sum is the raw vector sum of all members; centroid = sum/count.
	sum []float64
	// res holds the bottom-ReservoirCap members by (pri, frame),
	// ascending — a uniform sample of the stratum independent of
	// arrival and merge order.
	res []resEntry
}

// Ingestor is the streaming stratifier. It is single-goroutine, like a
// funcsim pass; concurrency lives above it (megsim.SampleStreaming
// characterizes windows of frames in parallel, then ingests them in
// frame order).
type Ingestor struct {
	cfg  Config
	name string

	// Static shader weights (Section III-B), fixed before frame one.
	vsInstr, fsInstr []float64
	numVS, numFS     int
	hasPrim          bool
	dims             int

	// Running normalization state: frames seen and per-group raw sums.
	// The group scale k_g = weight_g · n / S_g is the streaming twin of
	// the batch scaleGroup factor, recomputed as the stream grows.
	n        int
	groupSum [3]float64

	strata []*stratum
	// spawnR is the squared normalized spawn radius: frames farther
	// than this from every centroid spawn a new stratum. It only grows
	// (to the distance of each forced merge), so the partition coarsens
	// monotonically.
	spawnR    float64
	nextLabel int
	merges    int

	// Assignment tracking (TrackAssignments only): per-frame absorb
	// label plus a label union-find folded by merges.
	labels []int
	parent map[int]int

	alloc vecAccount
}

// NewIngestor builds an ingestor over a workload's static shader costs
// — the only global facts the first phase needs before frames arrive.
func NewIngestor(name string, vsStatic, fsStatic []shader.Cost, cfg Config) *Ingestor {
	cfg = cfg.withDefaults()
	in := &Ingestor{
		cfg:     cfg,
		name:    name,
		vsInstr: core.InstrWeights(vsStatic, cfg.Feature.UseTextureWeights),
		fsInstr: core.InstrWeights(fsStatic, cfg.Feature.UseTextureWeights),
		numVS:   len(vsStatic),
		numFS:   len(fsStatic),
		hasPrim: cfg.Feature.IncludePrim,
	}
	in.dims = in.numVS + in.numFS
	if in.hasPrim {
		in.dims++
	}
	if cfg.TrackAssignments {
		in.parent = map[int]int{}
	}
	return in
}

// Frames returns how many frames have been ingested. The next frame's
// identity is this value — frames are identified by arrival position,
// never by the profile's own Frame field (a hostile stream can repeat
// or shuffle those freely).
func (in *Ingestor) Frames() int { return in.n }

// PeakVectors exposes the allocator accounting the bounded-memory
// tests assert on: the largest number of feature vectors ever alive
// inside the ingestor.
func (in *Ingestor) PeakVectors() int { return in.alloc.peak }

// Add ingests one frame profile. The profile's count-vector shape must
// match the static costs the ingestor was built with; a mismatched
// profile is rejected without corrupting any state.
func (in *Ingestor) Add(p *funcsim.FrameProfile) error {
	if len(p.VSCount) != in.numVS || len(p.FSCount) != in.numFS {
		return fmt.Errorf("stream: profile has %d/%d shader counts, ingestor wants %d/%d",
			len(p.VSCount), len(p.FSCount), in.numVS, in.numFS)
	}
	frame := in.n

	// Raw characteristic vector — counts × static shader weights, the
	// pre-normalization form of the batch matrix row. Raw vectors are
	// what strata store; normalization is applied inside the distance,
	// so stored state never needs rescaling as n and the sums grow.
	v := in.alloc.get(in.dims)
	var gs [3]float64
	for s, cnt := range p.VSCount {
		v[s] = float64(cnt) * in.vsInstr[s]
		gs[0] += v[s]
	}
	for s, cnt := range p.FSCount {
		v[in.numVS+s] = float64(cnt) * in.fsInstr[s]
		gs[1] += v[in.numVS+s]
	}
	if in.hasPrim {
		v[in.dims-1] = float64(p.PrimsVisible)
		gs[2] += v[in.dims-1]
	}
	in.n++
	for g := range gs {
		in.groupSum[g] += gs[g]
	}

	k := in.scales()
	best, bestD := -1, 0.0
	for i, st := range in.strata {
		d := in.dist2ToCentroid(v, st, k)
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}

	switch {
	case best >= 0 && bestD <= in.spawnR:
		in.absorb(in.strata[best], frame, v)
	case len(in.strata) < in.cfg.MaxStrata:
		in.spawn(frame, v)
	case len(in.strata) < 2:
		// At capacity with a single stratum (MaxStrata = 1): there is no
		// pair to merge, so the frame is absorbed directly and the spawn
		// radius widens to the distance just tolerated — exactly what
		// merging the frame's would-be singleton into the survivor would
		// have produced.
		if bestD > in.spawnR {
			in.spawnR = bestD
		}
		in.absorb(in.strata[best], frame, v)
	default:
		// At capacity: collapse the two closest strata, widen the spawn
		// radius to the distance just tolerated, then spawn. The radius
		// growth is what keeps merges rare once the stream's diversity
		// has been seen.
		d := in.mergeClosest(k)
		if d > in.spawnR {
			in.spawnR = d
		}
		in.spawn(frame, v)
	}
	return nil
}

// AddChunk ingests a batch of profiles; identical to calling Add in
// order, which is why any chunking of a stream yields identical state.
func (in *Ingestor) AddChunk(ps []funcsim.FrameProfile) error {
	for i := range ps {
		if err := in.Add(&ps[i]); err != nil {
			return fmt.Errorf("stream: chunk profile %d: %w", i, err)
		}
	}
	return nil
}

// scales returns the per-group normalization factors k_g =
// weight_g · n / S_g — the streaming twin of the batch scaleGroup
// factor weight/groupSum·N, computed over the frames seen so far. A
// group with zero mass has every coordinate zero, so its factor is
// irrelevant and set to 0.
func (in *Ingestor) scales() [3]float64 {
	w := in.cfg.Feature.Weights
	var k [3]float64
	n := float64(in.n)
	if in.groupSum[0] > 0 {
		k[0] = w.Geometry * n / in.groupSum[0]
	}
	if in.groupSum[1] > 0 {
		k[1] = w.Raster * n / in.groupSum[1]
	}
	if in.groupSum[2] > 0 {
		k[2] = w.Tiling * n / in.groupSum[2]
	}
	return k
}

// dist2ToCentroid is the squared normalized distance from raw vector v
// to st's centroid: per group g, k_g² · Σ_{j∈g} (v_j − sum_j/count)².
func (in *Ingestor) dist2ToCentroid(v []float64, st *stratum, k [3]float64) float64 {
	inv := 1 / float64(st.count)
	var d0, d1, d2 float64
	for j := 0; j < in.numVS; j++ {
		dd := v[j] - st.sum[j]*inv
		d0 += dd * dd
	}
	for j := in.numVS; j < in.numVS+in.numFS; j++ {
		dd := v[j] - st.sum[j]*inv
		d1 += dd * dd
	}
	if in.hasPrim {
		dd := v[in.dims-1] - st.sum[in.dims-1]*inv
		d2 = dd * dd
	}
	return k[0]*k[0]*d0 + k[1]*k[1]*d1 + k[2]*k[2]*d2
}

// dist2Centroids is the squared normalized distance between two
// strata's centroids.
func (in *Ingestor) dist2Centroids(a, b *stratum, k [3]float64) float64 {
	ia, ib := 1/float64(a.count), 1/float64(b.count)
	var d0, d1, d2 float64
	for j := 0; j < in.numVS; j++ {
		dd := a.sum[j]*ia - b.sum[j]*ib
		d0 += dd * dd
	}
	for j := in.numVS; j < in.numVS+in.numFS; j++ {
		dd := a.sum[j]*ia - b.sum[j]*ib
		d1 += dd * dd
	}
	if in.hasPrim {
		dd := a.sum[in.dims-1]*ia - b.sum[in.dims-1]*ib
		d2 = dd * dd
	}
	return k[0]*k[0]*d0 + k[1]*k[1]*d1 + k[2]*k[2]*d2
}

// absorb folds frame (raw vector v) into st: centroid update plus a
// bottom-k reservoir offer. The vector is retained only if the frame
// wins a reservoir slot; otherwise it is freed and the frame evicted
// immediately.
func (in *Ingestor) absorb(st *stratum, frame int, v []float64) {
	st.count++
	for j, x := range v {
		st.sum[j] += x
	}
	in.recordLabel(frame, st.label)
	in.offer(st, resEntry{frame: frame, pri: framePriority(in.cfg.Seed, frame), vec: v})
}

// offer inserts e into st's bottom-k reservoir, evicting the largest
// priority when over capacity. The reservoir stays sorted ascending by
// (pri, frame), so membership is a pure function of the member set.
func (in *Ingestor) offer(st *stratum, e resEntry) {
	i := len(st.res)
	for i > 0 && less(e, st.res[i-1]) {
		i--
	}
	st.res = append(st.res, resEntry{})
	copy(st.res[i+1:], st.res[i:])
	st.res[i] = e
	if len(st.res) > in.cfg.ReservoirCap {
		// The dropped frame can never become a representative: free its
		// vector.
		in.alloc.put(st.res[len(st.res)-1].vec)
		st.res = st.res[:len(st.res)-1]
	}
}

func less(a, b resEntry) bool {
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.frame < b.frame
}

// spawn creates a fresh stratum seeded by frame's vector. The vector
// is copied into the sum and also becomes the first reservoir member.
func (in *Ingestor) spawn(frame int, v []float64) {
	sum := in.alloc.get(in.dims)
	copy(sum, v)
	st := &stratum{
		label: in.nextLabel,
		count: 1,
		sum:   sum,
		res:   []resEntry{{frame: frame, pri: framePriority(in.cfg.Seed, frame), vec: v}},
	}
	in.nextLabel++
	in.recordLabel(frame, st.label)
	in.strata = append(in.strata, st)
}

// mergeClosest collapses the closest pair of strata (ties break toward
// the lowest index pair, keeping the operation deterministic) and
// returns their squared centroid distance. The lower-indexed stratum
// survives; the union's reservoir is re-selected bottom-k, so the
// merged reservoir is exactly what a single stratum covering both
// member sets would hold.
func (in *Ingestor) mergeClosest(k [3]float64) float64 {
	bi, bj, bd := -1, -1, 0.0
	for i := 0; i < len(in.strata); i++ {
		for j := i + 1; j < len(in.strata); j++ {
			d := in.dist2Centroids(in.strata[i], in.strata[j], k)
			if bi < 0 || d < bd {
				bi, bj, bd = i, j, d
			}
		}
	}
	a, b := in.strata[bi], in.strata[bj]
	a.count += b.count
	for j, x := range b.sum {
		a.sum[j] += x
	}
	in.alloc.put(b.sum)
	for _, e := range b.res {
		in.offer(a, e)
	}
	if in.parent != nil {
		in.parent[b.label] = a.label
	}
	in.strata = append(in.strata[:bj], in.strata[bj+1:]...)
	in.merges++
	return bd
}

// recordLabel appends the frame's absorb-time stratum label
// (TrackAssignments only).
func (in *Ingestor) recordLabel(frame, label int) {
	if in.cfg.TrackAssignments {
		// Frames arrive in order, so the slice index is the frame.
		_ = frame
		in.labels = append(in.labels, label)
	}
}

// Assignments resolves every ingested frame's final stratum index
// (position in Finalize's Strata slice) through the merge union-find.
// Only available under TrackAssignments.
func (in *Ingestor) Assignments() ([]int, error) {
	if !in.cfg.TrackAssignments {
		return nil, fmt.Errorf("stream: assignments not tracked (Config.TrackAssignments)")
	}
	index := make(map[int]int, len(in.strata))
	for i, st := range in.strata {
		index[st.label] = i
	}
	out := make([]int, len(in.labels))
	for f, lbl := range in.labels {
		out[f] = index[in.resolve(lbl)]
	}
	return out, nil
}

// resolve follows the merge union-find to a surviving label.
func (in *Ingestor) resolve(label int) int {
	for {
		p, ok := in.parent[label]
		if !ok {
			return label
		}
		label = p
	}
}

// framePriority is the reservoir priority of a frame: the splitmix64
// finalizer over (seed, frame). Stateless and order-free, so bottom-k
// membership depends only on which frames a stratum has seen — never
// on arrival interleaving, chunk boundaries, or merge history — and a
// checkpointed ingestor carries no RNG state at all.
func framePriority(seed uint64, frame int) uint64 {
	x := seed + 0x9E3779B97F4A7C15*uint64(frame+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
