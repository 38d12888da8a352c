# Developer entry points. `make ci` is the one gate, and the CI
# workflow runs nothing else: vet (plus a gofmt check), build, every package's tests under
# the race detector (the cross-mode determinism property and the
# kill/resume, service, cluster, streaming and chaos goldens included),
# the differential validation oracle, the coverage floors, the tbr/cluster/funcsim/raster/megsim/workload bench regression
# checks, a one-iteration bench smoke, megbench's self-tests (smoke run plus the
# pinned seed-1 report digests) and short fuzz smokes of every fuzz
# target.

GO ?= go

# `make bench` sampling: enough repetitions for benchstat to attach
# confidence intervals to the committed baselines without taking all day.
BENCHTIME ?= 100ms
BENCHCOUNT ?= 5

# Minimum statement coverage for the packages whose guarantees live or
# die in their own tests: the validation oracle (the checker that gates
# everything else), the run supervisor (byte-identical resume), the
# campaign service (cache identity, backpressure, drain), the cluster
# fabric (failover and byte identity), the streaming first phase
# (bounded memory) and the chaos transport (the fault injector that
# certifies the fabric's trust layer).
COVER_FLOOR ?= 85
COVER_PKGS := check resilience serve fabric stream chaos

# bench-<layer> and bench-check-<layer> are pattern rules, so they
# stay off .PHONY (make skips implicit-rule search for phony targets).
.PHONY: ci vet build test race validate cover-check bench bench-check bench-smoke bench-selftest fuzz-smoke loc api

ci: vet build race validate cover-check bench-check bench-smoke bench-selftest fuzz-smoke

# gofmt -l lists every file whose formatting differs; any output fails.
# bench/ is its own module, so the root `go vet ./...` skips it. The
# arm64 pass builds the portable path: internal/raster's triangle
# kernels are amd64 assembly, and every other architecture runs its Go
# walks.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	cd bench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -count=1: a local `make ci` must never report a cached pass.
race:
	$(GO) test -race -count=1 ./...

# The statistical acceptance gate: the differential oracle of
# internal/check runs MEGsim-sampled vs full simulation over three fixed
# randomized workloads (race-enabled, invariants armed) and fails if any
# metric's relative error leaves its tolerance band. The JSON accuracy
# report lands in results/validate.json.
validate:
	$(GO) run -race ./cmd/experiments validate -seeds 1,2,3 -out results/validate.json

# Coverage floors, one package at a time (see COVER_FLOOR).
cover-check:
	@for p in $(COVER_PKGS); do \
		cov=$$($(GO) test -cover ./internal/$$p | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$cov" ]; then echo "cover-check: no coverage reported for internal/$$p"; exit 1; fi; \
		echo "internal/$$p coverage: $$cov% (floor $(COVER_FLOOR)%)"; \
		awk "BEGIN{exit !($$cov >= $(COVER_FLOOR))}" || { echo "cover-check: internal/$$p coverage $$cov% below $(COVER_FLOOR)% floor"; exit 1; }; \
	done

# Benchmark baselines, one per layer: BENCH_<layer> runs the layer's
# packages and arguments below at GOMAXPROCS 1 and 2 (-cpu 1,2),
# keeps the raw benchstat-format text in results/BENCH_<layer>.txt and
# converts it to JSON with cmd/benchjson. The JSON files are committed
# baselines; compare a fresh run with
#   jq -r '.raw[]' results/BENCH_tbr.json > old.txt && benchstat old.txt new.txt
#
# cluster covers the k-means kernel (internal/cluster) and frame
# selection on the batch-cold template (BenchmarkSelect in
# internal/core); it skips internal/cluster's Ablation benchmarks,
# which compare the comparator algorithms kept in its test files and
# are not part of any campaign. funcsim characterizes the batch-cold
# template trace (1407 frames of a 3D game) and pvz (5000 frames of a
# 2D one, bound by depth clears), one sub-benchmark each: each op
# profiles a whole trace, so two ops per count are already a stable
# measurement. Not one: with -benchtime 1x the
# testing package reports the first count of the first -cpu value from
# its b.N=1 probe run, made at the GOMAXPROCS the test pass left behind
# (the last -cpu value), so that -cpu 1 sample would be a GOMAXPROCS 2
# one. raster times the two triangle walks on their own: AppendQuads
# over tile-clipped triangles (BenchmarkAppendQuadsTiles) and over one
# 64x64 triangle (BenchmarkRasterizeQuads64), and characterization's
# fused count-only pass over a sphere draw (BenchmarkCountDraw). megsim
# times one
# representative frame through
# megsim.FrameRunner (BenchmarkFrameRunner) on a warmed runner, so its
# allocs/op is one frame's and stays fixed; a runner that built a
# simulator per frame again would fail the alloc gate on any host.
# workload builds the full-length pvz trace at DefaultScale
# (BenchmarkGenerate), the trace every campaign holds in memory: its
# allocs/op is two exact-size slices per frame plus fixed setup, so a
# generator that grew frames by append again fails the alloc gate.
BENCH_LAYERS := tbr cluster funcsim raster megsim workload
BENCH_PKGS_tbr := ./internal/tbr/...
BENCH_ARGS_tbr := -bench . -benchtime $(BENCHTIME)
BENCH_PKGS_cluster := ./internal/cluster ./internal/core
BENCH_ARGS_cluster := -bench . -skip Ablation -benchtime $(BENCHTIME)
BENCH_PKGS_funcsim := ./internal/funcsim
BENCH_ARGS_funcsim := -bench '^BenchmarkCharacterize$$' -benchtime 2x
BENCH_PKGS_raster := ./internal/raster
BENCH_ARGS_raster := -bench '^Benchmark(AppendQuadsTiles|CountDraw|RasterizeQuads64)$$' -benchtime $(BENCHTIME)
BENCH_PKGS_megsim := ./megsim
BENCH_ARGS_megsim := -bench '^BenchmarkFrameRunner$$' -benchtime $(BENCHTIME)
BENCH_PKGS_workload := ./internal/workload
BENCH_ARGS_workload := -bench '^BenchmarkGenerate$$' -benchtime $(BENCHTIME)

# Per-layer gate flags for bench-check (see below).
#
# tbr -max-alloc-growth 2.0: the frame benchmarks' allocs/op is fixed
# setup amortized over a small, benchtime-dependent b.N, so it jitters
# ~50-80; losing arena reuse jumps it to several hundred, which 2x of a
# ~50-70 baseline still catches with an order of magnitude to spare.
#
# tbr counter gate: the frame benchmarks report cycles/op,
# dram-accesses/op, l2-accesses/op and tile-accesses/op from the
# FrameStats they simulate. These are pure functions of the trace and
# the configuration, so benchjson gates every such */op unit for exact
# equality with the baseline median on any host, and a count missing
# on either side fails. It needs no flag: a change that moves what the
# simulator computes fails it, a change that only moves wall clock
# meets the 2.5x backstop.
#
# cluster counter gate: BenchmarkKMeans and BenchmarkKMeansSeededWarmStart
# report iterations/op, BenchmarkSearch explored-k/op and iterations/op,
# and BenchmarkSelect (internal/core) explored-k/op and
# representatives/op. Every op runs one fixed seed, so these counts are
# exact and benchjson gates them like the tbr counters: an extra Lloyd
# pass or k creeping up fails on any host.
#
# funcsim and raster counter gates: BenchmarkCharacterize reports
# fragments/op and prims-visible/op, summed over the op's frame
# profiles, and the raster benchmarks quads/op (AppendQuads) and
# survivors/op (CountDraw). They are exact like the tbr counters: a
# kernel that drops or adds one covered sample fails on any host.
#
# megsim and workload counter gates: BenchmarkFrameRunner reports the
# simulated frame's cycles/op and dram-accesses/op, and frames/op, the
# frames one call simulates as an enabled obs registry counts them;
# BenchmarkGenerate reports the trace's commands/op and trace-bytes/op
# (the bytes of its per-frame command and transform slices). They are
# exact too: a runner that simulates an extra frame, even one whose
# stats it discards, or a generator that emits more commands or stores
# them wider, fails on any host.
#
# cluster, funcsim, raster, megsim and workload take benchjson's default gates: their allocs/op
# repeat within a few per cent (1.10x + 1 allows for that), and their
# wall clock gates on the 2.5x absolute backstop.
BENCH_GATE_tbr := -max-alloc-growth 2.0

bench: $(addprefix bench-,$(BENCH_LAYERS))

bench-%:
	@mkdir -p results
	$(GO) test -run '^$$' $(BENCH_ARGS_$*) -benchmem -count $(BENCHCOUNT) -cpu 1,2 $(BENCH_PKGS_$*) > results/BENCH_$*.txt
	$(GO) run ./cmd/benchjson -in results/BENCH_$*.txt -out results/BENCH_$*.json

# Benchmark regression gate, one layer at a time: rerun the layer's
# suite exactly as its baseline was recorded and compare with
# cmd/benchjson -check, procs by procs (a baseline that lacks the fresh
# run's GOMAXPROCS is refused). Allocation counts gate tightly (they
# are deterministic — a reintroduced per-tile allocation fails
# regardless of machine weather), work counts (any other */op unit but
# ns/op and B/op) must match exactly, and wall clock gates on a
# deliberately generous absolute backstop (-max-slowdown, default 2.5x)
# for gross regressions. The
# fresh runs are left in results/BENCH_<layer>.new.txt for benchstat
# comparison against `jq -r '.raw[]' results/BENCH_<layer>.json`.
bench-check: $(addprefix bench-check-,$(BENCH_LAYERS))

bench-check-%:
	@mkdir -p results
	$(GO) test -run '^$$' $(BENCH_ARGS_$*) -benchmem -count $(BENCHCOUNT) -cpu 1,2 $(BENCH_PKGS_$*) > results/BENCH_$*.new.txt
	$(GO) run ./cmd/benchjson -check -baseline results/BENCH_$*.json $(BENCH_GATE_$*) -in results/BENCH_$*.new.txt

# One iteration of every benchmark: catches bitrot in the bench suite
# without paying for stable measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# megbench's own tests (bench/ is a separate module): a smoke run of
# every workload and the pinned seed-1 report digests, which catch any
# change that moves a campaign report's bytes.
bench-selftest:
	cd bench && $(GO) test -count=1 ./...

# Non-test Go lines outside bench/: the size measure simplicity changes
# report. Not part of ci.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# Exported API size of ./internal/... and ./megsim: exported top-level
# names (funcs, types, and each name of a const or var block) plus
# exported methods, counted from `go doc -all`, which prints only
# exported declarations, each starting at column 0 below the package
# comment. Not part of ci.
api:
	@for p in $$($(GO) list ./internal/... ./megsim); do $(GO) doc -all $$p; done | awk ' \
		/^package / { decl = 0 } \
		/^(CONSTANTS|VARIABLES|FUNCTIONS|TYPES)$$/ { decl = 1 } \
		!decl { next } \
		/^(const|var) \($$/ { blk = 1; next } \
		blk && /^\)/ { blk = 0; next } \
		blk && /^\t[A-Z]/ { n++; next } \
		/^(func|type|const|var) / { n++ } \
		END { print n }'

# -fuzz must match exactly one target per package, so each fuzz target
# gets its own short invocation. FuzzCampaignModes (the cross-mode
# determinism property) runs whole campaigns through every execution
# mode, about half a second each, so it runs a fixed count instead of a
# time: -fuzztime 12x is 12 campaigns in all, the 4 of its seed corpus
# (replayed first, with any locally cached corpus) and then drawn ones.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 5s ./internal/gltrace
	$(GO) test -run '^$$' -fuzz '^FuzzGeneratedProgramExec$$' -fuzztime 5s ./internal/shader
	$(GO) test -run '^$$' -fuzz '^FuzzValidateArbitraryPrograms$$' -fuzztime 5s ./internal/shader
	$(GO) test -run '^$$' -fuzz '^FuzzSearch$$' -fuzztime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 5s ./internal/resilience
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCampaignRequest$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWorkUnit$$' -fuzztime 5s ./internal/fabric
	$(GO) test -run '^$$' -fuzz '^FuzzCampaignModes$$' -fuzztime 12x ./internal/fabric
	$(GO) test -run '^$$' -fuzz '^FuzzStreamIngest$$' -fuzztime 5s ./internal/stream
	$(GO) test -run '^$$' -fuzz '^FuzzQuadWalks$$' -fuzztime 5s ./internal/raster
	$(GO) test -run '^$$' -fuzz '^FuzzCountDraw$$' -fuzztime 5s ./internal/raster
