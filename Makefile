GO ?= go
NPROC ?= $(shell nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)

.PHONY: build test vet perfbench race bench chaos-smoke mine-smoke fleet-demo ci serve

build:
	$(GO) build ./...

# Tier-1 verification (see ROADMAP.md).
test: build
	$(GO) test ./...

# go vet, and fail on unformatted Go. gofmt scans tracked files only, so
# build caches inside the checkout (the benchmark's .bench_build module
# cache) are never read.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# Vet and test the nested benchmark module. perfbench has its own go.mod,
# so the root `go test ./...` never compiles it, yet it imports the
# simulator's packages (memo.Request and memo.Stats among them): this is
# where an API change that breaks the benchmark shows up.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The campaign runner and the budgeted enumeration are concurrent code:
# every PR must pass the race detector, not just the plain suite.
race:
	$(GO) test -race ./...

# Time the partitioned candidate walk at 1/2/4/8 workers and verify the
# shard streams concatenate to the sequential stream; time the whole
# verdict (sim.Simulate under compiled cat Power, walk and check split
# across the workers) at the same counts and verify every outcome equals
# the one-worker outcome; check that enabling the obs counters stays
# within noise of the nil-sink path, and that a traced one-worker
# Simulate of the cold-heavy shape stays within 10% of an untraced one;
# hold the check, enumeration and one-worker Simulate allocation
# ceilings (one on a shape whose trace combinations are mostly
# infeasible, one on the cold-heavy shape) and herdd's per-row
# allocation ceiling for a warm batch, the SAT encoder's allocation
# ceiling for one Power instance, the allocation ceiling of one
# comparison over the PPC pair table (its deciders share one compiled
# test, its walk deciders one candidate walk, and its bmc deciders one SAT
# instance, and their evaluators, solver, circuit and search slot come
# from pools that outlive the test, as do the test's traces and
# skeletons) and the bytes it allocates per test over 200 diy PPC tests,
# the bytes one verdict cache miss allocates over 200 light diy PPC tests
# as herdd serves them, and the wire codec's allocation ceilings for encoding,
# decoding and relaying one warm row's result/v1 frame, and the bytes
# allocated per row of a warm streamed batch through herd-gw over one
# herdd (pooled stream buffers, no per-row ranking); and record the
# result (with the runner's core count) in BENCH_enumerate.json. The
# walk rows are medians of round-robin repetitions over the worker
# counts.
# GOMAXPROCS is pinned to the machine's core count explicitly: the
# original record was taken with an inherited GOMAXPROCS=1, which
# serialised the 2/4/8-worker timings and flattened the scaling curve.
# -p 1 builds and runs the packages one at a time: by default go test
# runs as many side by side as there are cores, so the record's
# multi-worker walk rows were timed while other packages compiled.
bench:
	GOMAXPROCS=$(NPROC) BENCH_ENUM_OUT=$(CURDIR)/BENCH_enumerate.json $(GO) test -p 1 -run 'TestBenchEnumerateJSON|TestObsOverheadSmoke|TestCheckAllocsCeiling|TestEnumAllocsCeiling|TestSimulateAllocsCeiling|TestInfeasibleAllocsCeiling|TestColdHeavyAllocsCeiling|TestWarmBatchAllocsCeiling|TestBMCEncodeAllocsCeiling|TestComparePairsAllocsCeiling|TestComparePairsBytesCeiling|TestColdRunBytesCeiling|TestResultFrameAllocsCeiling|TestWarmGatewayBatchAllocsCeiling' -count=1 -v . ./internal/serve/ ./internal/bmc/ ./internal/crosscheck/ ./internal/memo/ ./internal/wire/ ./internal/fleet/

# The fleet acceptance test under the race detector: a 500-test batch
# through herd-gw while one backend is killed mid-batch and another runs
# 500ms slow with a seeded 25% 5xx rate. TestChaosBatchSurvivesFaults
# runs it once per wire format (subtests buffered and streamed); every
# index must come back exactly once and correct. Bounded well under 2
# minutes.
chaos-smoke:
	$(GO) test -race -run 'TestChaos' -count=1 -v -timeout 150s ./internal/fleet/

# The differential-mining acceptance test under the race detector: a
# fixed-seed campaign sweeping 500+ generated tests across the smoke pair
# table with zero disagreements, a restart that resumes entirely from the
# memo journal, and the planted-bug minimization check. Records the
# mining throughput in BENCH_mine.json. Bounded well under 30 seconds.
mine-smoke:
	BENCH_MINE_OUT=$(CURDIR)/BENCH_mine.json $(GO) test -race -run 'TestMineSmoke|TestMinimize|TestMinerEmitsWitness' -count=1 -v -timeout 120s ./internal/mine/

# A local 2-node fleet behind herd-gw, for poking at failover by hand.
fleet-demo: build
	./scripts/fleet_demo.sh

ci: vet test perfbench race chaos-smoke mine-smoke

# The litmus-simulation service (cmd/herdd): HTTP verdicts with a
# content-addressed cache. See the "herdd" section of README.md.
serve:
	$(GO) run ./cmd/herdd
