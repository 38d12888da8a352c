# Developer entry points. `make ci` is the full gate the CI workflow
# runs: vet, build, race-enabled tests, the tile-parallel determinism
# goldens, the differential validation oracle, the internal/check
# coverage floor, a one-iteration bench smoke and short fuzz smokes of
# every fuzz target, and megbench's self-tests (smoke run plus the
# pinned seed-1 report digests).

GO ?= go

# `make bench` sampling: enough repetitions for benchstat to attach
# confidence intervals to the committed baselines without taking all day.
BENCHTIME ?= 100ms
BENCHCOUNT ?= 5

# Minimum statement coverage for the validation subsystem itself — the
# checker that gates everything else must not rot unexercised.
CHECK_COVER_FLOOR ?= 85

# Minimum statement coverage for the run supervisor — the machinery
# that promises byte-identical resume must stay exercised.
RESILIENCE_COVER_FLOOR ?= 85

# Minimum statement coverage for the campaign service — the cache
# identity, backpressure and drain guarantees live or die in tests.
SERVE_COVER_FLOOR ?= 85

# Minimum statement coverage for the distributed campaign fabric — the
# failover and byte-identity guarantees of cluster mode.
FABRIC_COVER_FLOOR ?= 85

# Minimum statement coverage for the streaming first phase — the
# bounded-memory stratifier behind unbounded-stream campaigns.
STREAM_COVER_FLOOR ?= 85

# Minimum statement coverage for the chaos transport — the fault
# injector that certifies the fabric's trust layer must itself be
# certified.
CHAOS_COVER_FLOOR ?= 85

.PHONY: ci vet build test race determinism resilience serve fabric stream chaos validate cover-check resilience-cover-check serve-cover-check fabric-cover-check stream-cover-check chaos-cover-check bench bench-tbr bench-cluster bench-funcsim bench-check bench-smoke bench-selftest tile-bench-smoke fuzz-smoke

ci: vet build race determinism resilience serve fabric stream chaos validate cover-check resilience-cover-check serve-cover-check fabric-cover-check stream-cover-check chaos-cover-check bench-check bench-smoke bench-selftest tile-bench-smoke fuzz-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Explicit gate on the parallelism guarantees: serial, frame-parallel
# and tile-parallel (tile-workers 1, 2, 4 and beyond, plus the
# composition of both axes) must produce byte-identical stats and obs
# snapshots, race-detector clean.
determinism:
	$(GO) test -race -count=1 -run '^TestGoldenDeterminism' ./internal/tbr

# Explicit gate on the resilience guarantees: the kill-and-resume
# golden (byte-identical stats, obs snapshots and checkpoint bytes
# across kill points, worker counts and tile-worker counts, under
# injected faults) and the degraded-mode oracle (three fixed seeds,
# quarantined representative, accuracy within 3x-widened bands), both
# race-detector clean.
resilience:
	$(GO) test -race -count=1 -run '^TestGoldenKillAndResume$$' ./internal/resilience
	$(GO) test -race -count=1 -run '^TestDegradedAccuracyWithinWidenedBands$$' ./internal/resilience

# Explicit gate on the campaign service guarantees: concurrent
# identical submissions deduplicate to one execution with byte-identical
# results, the admission queue backpressures with 429 + Retry-After and
# drains cleanly, a drained daemon's checkpoints resume byte-identically
# after restart, and the CLI's -server mode matches a local run — all
# race-detector clean.
serve:
	$(GO) test -race -count=1 ./internal/serve
	$(GO) test -race -count=1 -run '^TestServerMode' ./cmd/megsim
	$(GO) test -race -count=1 ./cmd/megsimd

# Explicit gate on the cluster guarantees: killing a worker mid-campaign
# still produces byte-identical results (the coordinator fails over and
# the supervisor requeues lost frames), a campaign drained on one
# coordinator resumes byte-identically on another over a different
# fleet, routing policies respect draining/affinity invariants, and the
# worker/coordinator endpoints hold their refusal semantics — all
# race-detector clean.
fabric:
	$(GO) test -race -count=1 ./internal/fabric

# Explicit gate on the chaos-hardening guarantees: the deterministic
# fault transport replays identical fault sequences for identical
# seeds, and the end-to-end soak — a fleet with one byzantine worker
# behind the chaos transport, every honest worker killed and restarted
# mid-campaign — quarantines the byzantine worker, requeues the killed
# frames, and still produces a report byte-identical to a clean
# single-process run. Per-class property tests pin that every fault
# class either triggers recovery or is absorbed without a trace — all
# race-detector clean.
chaos:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -count=1 -run '^TestChaosSoakByzantineKillRestart$$|^TestChaosFaultClassesPreserveReport$$|^TestClusterGoldenWithAuditAndHedging$$' ./internal/fabric

# Explicit gate on the streaming guarantees: the online stratifier is
# chunk-split invariant and bounded-memory, its snapshots round-trip
# byte-identically, the goldens pin streaming-vs-batch selection
# agreement on the oracle seeds, and a campaign killed mid-stream
# resumes to a byte-identical report at tile-workers 1 and 4 — all
# race-detector clean.
stream:
	$(GO) test -race -count=1 ./internal/stream
	$(GO) test -race -count=1 -run '^TestSampleStreaming|^TestStream' ./megsim ./cmd/megsim
	$(GO) test -race -count=1 -run '^TestStream' ./internal/serve

# The statistical acceptance gate: the differential oracle of
# internal/check runs MEGsim-sampled vs full simulation over three fixed
# randomized workloads (race-enabled, invariants armed) and fails if any
# metric's relative error leaves its tolerance band. The JSON accuracy
# report lands in results/validate.json.
validate:
	$(GO) run -race ./cmd/experiments validate -seeds 1,2,3 -out results/validate.json

# Coverage floor for the validation subsystem.
cover-check:
	@cov=$$($(GO) test -cover ./internal/check | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	if [ -z "$$cov" ]; then echo "cover-check: no coverage reported for internal/check"; exit 1; fi; \
	echo "internal/check coverage: $$cov% (floor $(CHECK_COVER_FLOOR)%)"; \
	awk "BEGIN{exit !($$cov >= $(CHECK_COVER_FLOOR))}" || { echo "cover-check: coverage $$cov% below $(CHECK_COVER_FLOOR)% floor"; exit 1; }

# Coverage floor for the run supervisor.
resilience-cover-check:
	@cov=$$($(GO) test -cover ./internal/resilience | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	if [ -z "$$cov" ]; then echo "resilience-cover-check: no coverage reported for internal/resilience"; exit 1; fi; \
	echo "internal/resilience coverage: $$cov% (floor $(RESILIENCE_COVER_FLOOR)%)"; \
	awk "BEGIN{exit !($$cov >= $(RESILIENCE_COVER_FLOOR))}" || { echo "resilience-cover-check: coverage $$cov% below $(RESILIENCE_COVER_FLOOR)% floor"; exit 1; }

# Coverage floor for the campaign service.
serve-cover-check:
	@cov=$$($(GO) test -cover ./internal/serve | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	if [ -z "$$cov" ]; then echo "serve-cover-check: no coverage reported for internal/serve"; exit 1; fi; \
	echo "internal/serve coverage: $$cov% (floor $(SERVE_COVER_FLOOR)%)"; \
	awk "BEGIN{exit !($$cov >= $(SERVE_COVER_FLOOR))}" || { echo "serve-cover-check: coverage $$cov% below $(SERVE_COVER_FLOOR)% floor"; exit 1; }

# Coverage floor for the campaign fabric.
fabric-cover-check:
	@cov=$$($(GO) test -cover ./internal/fabric | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	if [ -z "$$cov" ]; then echo "fabric-cover-check: no coverage reported for internal/fabric"; exit 1; fi; \
	echo "internal/fabric coverage: $$cov% (floor $(FABRIC_COVER_FLOOR)%)"; \
	awk "BEGIN{exit !($$cov >= $(FABRIC_COVER_FLOOR))}" || { echo "fabric-cover-check: coverage $$cov% below $(FABRIC_COVER_FLOOR)% floor"; exit 1; }

# Coverage floor for the streaming first phase.
stream-cover-check:
	@cov=$$($(GO) test -cover ./internal/stream | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	if [ -z "$$cov" ]; then echo "stream-cover-check: no coverage reported for internal/stream"; exit 1; fi; \
	echo "internal/stream coverage: $$cov% (floor $(STREAM_COVER_FLOOR)%)"; \
	awk "BEGIN{exit !($$cov >= $(STREAM_COVER_FLOOR))}" || { echo "stream-cover-check: coverage $$cov% below $(STREAM_COVER_FLOOR)% floor"; exit 1; }

# Coverage floor for the chaos transport.
chaos-cover-check:
	@cov=$$($(GO) test -cover ./internal/chaos | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	if [ -z "$$cov" ]; then echo "chaos-cover-check: no coverage reported for internal/chaos"; exit 1; fi; \
	echo "internal/chaos coverage: $$cov% (floor $(CHAOS_COVER_FLOOR)%)"; \
	awk "BEGIN{exit !($$cov >= $(CHAOS_COVER_FLOOR))}" || { echo "chaos-cover-check: coverage $$cov% below $(CHAOS_COVER_FLOOR)% floor"; exit 1; }

# Benchmark baselines: run the tbr, cluster and funcsim suites, keep the raw
# benchstat-format text, and convert to JSON with cmd/benchjson. The
# JSON files are committed as baselines; compare a fresh run with
#   jq -r '.raw[]' results/BENCH_tbr.json > old.txt && benchstat old.txt new.txt
bench: bench-tbr bench-cluster bench-funcsim

bench-tbr:
	@mkdir -p results
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/tbr/... > results/BENCH_tbr.txt
	$(GO) run ./cmd/benchjson -in results/BENCH_tbr.txt -out results/BENCH_tbr.json

bench-cluster:
	@mkdir -p results
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/cluster > results/BENCH_cluster.txt
	$(GO) run ./cmd/benchjson -in results/BENCH_cluster.txt -out results/BENCH_cluster.json

# Functional characterization of the batch-cold template trace at 1 and
# 2 workers: the layer's thread-scaling baseline. Each op profiles 1407
# frames, so benchtime 1x per count is already a stable measurement.
bench-funcsim:
	@mkdir -p results
	$(GO) test -run '^$$' -bench '^BenchmarkCharacterize$$' -benchtime 1x -count $(BENCHCOUNT) -cpu 1,2 ./internal/funcsim > results/BENCH_funcsim.txt
	$(GO) run ./cmd/benchjson -in results/BENCH_funcsim.txt -out results/BENCH_funcsim.json

# Benchmark regression gate: rerun the tbr suite and compare against
# the committed baseline with cmd/benchjson -check. Allocation counts
# gate tightly (they are deterministic — a reintroduced per-tile
# allocation fails regardless of machine weather); wall clock gates
# primarily through the tile-workers=4 / serial ratio measured within
# the SAME run, which cancels host-speed variation (shared CI hosts
# have been observed to swing near 2x on an identical binary), plus a
# deliberately generous absolute backstop for gross regressions. The
# fresh run is left in results/BENCH_tbr.new.txt for benchstat
# comparison against `jq -r '.raw[]' results/BENCH_tbr.json`.
#
# -max-alloc-growth 2.0: the frame benchmarks' allocs/op is fixed
# setup amortized over a small, benchtime-dependent b.N, so it jitters
# ~50-80; losing arena reuse jumps it to several hundred (the
# pre-arena path measured ~547/op at tile-workers=4), which 2x of a
# ~50-70 baseline still catches with an order of magnitude to spare.
#
# -max-ratio-growth 1.5: serial and tile-workers=4 run about a minute
# apart inside one `go test` invocation, so the machine-weather window
# can shift between them; +-25% ratio jitter has been observed on an
# otherwise idle host. A hot-path-only 2x regression still lands the
# ratio near 2x baseline, well past the 1.5x limit.
bench-check:
	@mkdir -p results
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/tbr/... > results/BENCH_tbr.new.txt
	$(GO) run ./cmd/benchjson -check -baseline results/BENCH_tbr.json \
		-ratio 'BenchmarkTileParallelRaster/tile-workers=4:BenchmarkTileParallelRaster/serial' \
		-max-alloc-growth 2.0 -max-ratio-growth 1.5 \
		-in results/BENCH_tbr.new.txt

# One iteration of every benchmark: catches bitrot in the bench suite
# without paying for stable measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# megbench's own tests (bench/ is a separate module): a smoke run of
# every workload and the pinned seed-1 report digests, which catch any
# change that moves a campaign report's bytes.
bench-selftest:
	cd bench && $(GO) test -count=1 ./...

# One iteration of the tile-parallel raster benchmark across worker
# counts: keeps the sharded path exercised even if the full bench
# suite is trimmed.
tile-bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkTileParallelRaster$$' -benchtime 1x ./internal/tbr

# -fuzz must match exactly one target per package, so each fuzz target
# gets its own short invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 5s ./internal/gltrace
	$(GO) test -run '^$$' -fuzz '^FuzzGeneratedProgramExec$$' -fuzztime 5s ./internal/shader
	$(GO) test -run '^$$' -fuzz '^FuzzValidateArbitraryPrograms$$' -fuzztime 5s ./internal/shader
	$(GO) test -run '^$$' -fuzz '^FuzzSearch$$' -fuzztime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 5s ./internal/resilience
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCampaignRequest$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWorkUnit$$' -fuzztime 5s ./internal/fabric
	$(GO) test -run '^$$' -fuzz '^FuzzStreamIngest$$' -fuzztime 5s ./internal/stream
