package serve

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/megsim"
)

// Cache is the service's content-addressed result cache. It holds four
// layers, each keyed by a hash of everything that determines the value:
//
//   - traces by WorkloadKey (the generators are pure functions of the
//     resolved spec, so a trace is shared by every campaign naming it);
//   - characterizations by WorkloadKey (MEGsim's cheap pass depends on
//     the trace alone — campaigns with different GPU or clustering
//     settings still share it);
//   - cluster-count explorations by exploreKey (the k-means/BIC search
//     over k depends on the characterization, the feature settings, the
//     seed and the search settings, but not on the threshold or the GPU
//     — campaigns that differ only in those share one search and each
//     cuts it at its own threshold). An entry keeps only each explored
//     k's centroids, iteration count and score;
//   - per-representative FrameStats by (WorkloadKey,
//     megsim.RunFingerprint, frame) — frame isolation makes a
//     representative's statistics a pure function of (trace,
//     result-affecting GPU config, frame), so campaigns that select
//     overlapping representatives (different thresholds or seeds over
//     the same workload) skip re-simulating the shared ones. The run
//     fingerprint names the trace only by profile and frame count, so
//     the workload key is what tells apart traces that differ in
//     viewport or detail.
//
// A fifth, small layer keeps megsim.FrameRunners by the same run key
// (maxRunners entries), so the idle
// simulators a runner keeps — each built once, with one whole-trace
// validation — serve every later work unit of the same run instead of
// being rebuilt per unit. The fabric worker uses it; the daemon builds
// one runner per job. Building a runner is free (it builds its
// simulators on first use), so this layer needs no singleflight.
//
// The four result layers are singleflight-deduplicated: concurrent
// misses on one key run the builder once and share the value (and
// error), so a burst of identical submissions costs one simulation.
// Errors are never cached — the next caller retries.
//
// Hits and misses are counted into the service registry
// (serve.cache.{trace,char,select,frame,runner}.{hit,miss}); a caller that
// joined an in-flight build counts as a hit (it paid nothing).
//
// Cached values are shared between campaigns and must never be
// modified: a campaign that needs to change one copies it first.
type Cache struct {
	mu       sync.Mutex
	traces   *fifoMap[*gltrace.Trace]
	chars    *fifoMap[*megsim.Characterization]
	explores *fifoMap[*cluster.Exploration]
	frames   *fifoMap[tbr.FrameStats]
	runners  *fifoMap[megsim.ResilientFrameFunc]
	flights  map[string]*flight

	traceHit, traceMiss   *obs.Counter
	charHit, charMiss     *obs.Counter
	selectHit, selectMiss *obs.Counter
	frameHit, frameMiss   *obs.Counter
	runnerHit, runnerMiss *obs.Counter
}

// Default cache capacities (entries, FIFO-evicted).
const (
	defaultMaxWorkloads = 32
	defaultMaxFrames    = 4096
)

// maxRunners bounds the runner layer. Each entry pins a trace and its
// idle simulators, so the layer holds only the few runs a daemon or
// worker is serving at once.
const maxRunners = 4

// NewCache builds a cache recording hit/miss counters into reg.
// maxFrames bounds the FrameStats layer (0 = defaultMaxFrames); the
// trace, characterization and exploration layers hold
// defaultMaxWorkloads entries each.
func NewCache(reg *obs.Registry, maxFrames int) *Cache {
	if maxFrames <= 0 {
		maxFrames = defaultMaxFrames
	}
	return &Cache{
		traces:     newFifoMap[*gltrace.Trace](defaultMaxWorkloads),
		chars:      newFifoMap[*megsim.Characterization](defaultMaxWorkloads),
		explores:   newFifoMap[*cluster.Exploration](defaultMaxWorkloads),
		frames:     newFifoMap[tbr.FrameStats](maxFrames),
		runners:    newFifoMap[megsim.ResilientFrameFunc](maxRunners),
		flights:    map[string]*flight{},
		traceHit:   reg.Counter("serve.cache.trace.hit"),
		traceMiss:  reg.Counter("serve.cache.trace.miss"),
		charHit:    reg.Counter("serve.cache.char.hit"),
		charMiss:   reg.Counter("serve.cache.char.miss"),
		selectHit:  reg.Counter("serve.cache.select.hit"),
		selectMiss: reg.Counter("serve.cache.select.miss"),
		frameHit:   reg.Counter("serve.cache.frame.hit"),
		frameMiss:  reg.Counter("serve.cache.frame.miss"),
		runnerHit:  reg.Counter("serve.cache.runner.hit"),
		runnerMiss: reg.Counter("serve.cache.runner.miss"),
	}
}

// Trace returns the cached trace for key, building (once, shared) on a
// miss. ctx bounds only the wait on another caller's in-flight build.
func (c *Cache) Trace(ctx context.Context, key string, build func() (*gltrace.Trace, error)) (*gltrace.Trace, error) {
	return cacheGet(ctx, c, c.traces, "trace:"+key, c.traceHit, c.traceMiss, build)
}

// characterization returns the cached functional characterization for
// key, building (once, shared) on a miss.
func (c *Cache) characterization(ctx context.Context, key string, build func() (*megsim.Characterization, error)) (*megsim.Characterization, error) {
	return cacheGet(ctx, c, c.chars, "char:"+key, c.charHit, c.charMiss, build)
}

// exploration returns the cached cluster-count exploration for key,
// building (once, shared) on a miss.
func (c *Cache) exploration(ctx context.Context, key string, build func() (*cluster.Exploration, error)) (*cluster.Exploration, error) {
	return cacheGet(ctx, c, c.explores, "select:"+key, c.selectHit, c.selectMiss, build)
}

// Runner returns the cached megsim.FrameRunner(tr, gpu) of the run
// (wkey, fp), creating it on a miss: wkey is the WorkloadKey tr was
// built from and fp is megsim.RunFingerprint(tr, gpu).
func (c *Cache) Runner(wkey, fp string, tr *gltrace.Trace, gpu tbr.Config) megsim.ResilientFrameFunc {
	key := wkey + "/" + fp
	c.mu.Lock()
	defer c.mu.Unlock()
	if fn, ok := c.runners.get(key); ok {
		c.runnerHit.Inc()
		return fn
	}
	c.runnerMiss.Inc()
	fn := megsim.FrameRunner(tr, gpu)
	c.runners.put(key, fn)
	return fn
}

// frameRunner wraps a frame function with the per-representative
// result cache under the run (wkey, fp), as for Runner: hits return the
// cached statistics without simulating (the supervisor still
// checkpoints and counts them); misses simulate via fn and populate the
// cache. The wrapped function stays pure per frame — exactly fn's
// contract — so SampleResilientPrepared's guarantees are unchanged. A
// cache-hit frame records no observability delta (there was no
// simulation); service-level metrics account for the hit instead.
func (c *Cache) frameRunner(wkey, fp string, fn megsim.ResilientFrameFunc) megsim.ResilientFrameFunc {
	return func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		key := fmt.Sprintf("frame:%s/%s#%d", wkey, fp, frame)
		return cacheGet(ctx, c, c.frames, key, c.frameHit, c.frameMiss, func() (tbr.FrameStats, error) {
			return fn(ctx, frame, reg)
		})
	}
}

// cacheGet is the shared lookup-or-build path: map hit, else join or
// start the singleflight. A joiner waits for the builder (or its own
// ctx — the builder runs under a different job's context, and one
// job's cancellation must not strand another).
func cacheGet[V any](ctx context.Context, c *Cache, m *fifoMap[V], key string, hit, miss *obs.Counter, build func() (V, error)) (V, error) {
	var zero V
	c.mu.Lock()
	if v, ok := m.get(key); ok {
		c.mu.Unlock()
		hit.Inc()
		return v, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-f.done:
		}
		if f.err == nil {
			hit.Inc()
			return f.val.(V), nil
		}
		return zero, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	miss.Inc()
	v, err := build()
	c.mu.Lock()
	if err == nil {
		m.put(key, v)
	}
	delete(c.flights, key)
	c.mu.Unlock()
	f.val, f.err = v, err
	close(f.done)
	return v, err
}

// flight is one in-progress build shared by concurrent callers.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// fifoMap is a bounded map with first-in-first-out eviction — enough
// for a result cache whose entries are equally cheap to rebuild.
// Callers synchronize access (Cache.mu).
type fifoMap[V any] struct {
	cap   int
	m     map[string]V
	order []string
}

func newFifoMap[V any](cap int) *fifoMap[V] {
	return &fifoMap[V]{cap: cap, m: make(map[string]V, cap)}
}

func (f *fifoMap[V]) get(key string) (V, bool) {
	v, ok := f.m[key]
	return v, ok
}

func (f *fifoMap[V]) put(key string, v V) {
	if _, ok := f.m[key]; !ok {
		for len(f.m) >= f.cap && len(f.order) > 0 {
			oldest := f.order[0]
			f.order = f.order[1:]
			delete(f.m, oldest)
		}
		f.order = append(f.order, key)
	}
	f.m[key] = v
}

func (f *fifoMap[V]) len() int { return len(f.m) }
