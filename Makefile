GO ?= go

.PHONY: build test lint loc fuzz check check-parallel check-purego smoke-serve smoke-online bench-e2e bench-smoke bench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs minicost-vet, the repo's own analyzer suite (determinism,
# hotpath, shardcontract, obsnames, floatcmp). Zero findings is the gate;
# legitimate exceptions carry //minicost: directives at the offending line.
lint:
	$(GO) run ./cmd/minicost-vet ./...

# loc prints the non-test Go line count, the figure CHANGES.md quotes for a
# PR's net size.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './.git/*' | xargs cat | wc -l

# fuzz runs short native-fuzzing lanes over the untrusted parsers — the
# trace CSV loader, the /v1/observe JSON body and the trainer checkpoint
# decoder (minicostd -checkpoint) — and the plan encoder. The two
# agentserver lanes are differential: the wire codec against encoding/json
# on every input. One pattern per invocation (go test allows a single -fuzz
# target at a time). Each new input is minimized for at most 200 runs: go
# test's default, 60 s, let one 28 kB checkpoint mutation take the whole
# FuzzLoadCheckpoint lane (its exec count froze a few seconds in).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzObserveBody -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/agentserver
	$(GO) test -run '^$$' -fuzz FuzzAppendPlan -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/agentserver
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/rl

# check is the CI gate: formatting, vet, minicost-vet, and the race
# detector across the short test suite (which includes the pooled-replica
# and batched-inference concurrency tests).
check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race -short ./...

# check-parallel runs the kernel-level packages with the race detector and a
# fixed multi-core GOMAXPROCS. What runs concurrently there is the par
# helpers (For, ForShards, ForChunked, ForBatched) and the A3C rounds at W > 1,
# whose workers roll out at once over shared read-only vectors; every mat
# and nn product runs on its caller's goroutine, so the kernel suites run
# serially beside them. On a single-core runner the par helpers would not
# interleave their goroutines.
check-parallel:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/par ./internal/mat ./internal/nn ./internal/rl

# check-purego builds the kernel-level packages without the amd64 assembly
# (gemm_noasm.go / vec_noasm.go, otherwise compiled on no machine CI has) and
# runs their suites — golden hashes and bitwise-equivalence tests included —
# on the portable loops the assembly is held to.
check-purego:
	$(GO) test -tags purego -count=1 ./internal/mat ./internal/nn ./internal/rl

# smoke-serve boots minicostd with no checkpoint, exercises observe -> plan,
# and asserts the daemon serves policy.Greedy's tiers, /healthz answers,
# /metrics exposes the serving and training metric families with no step
# trained, and three days of curl traffic were accepted whole; then boots a
# second daemon from a `minicost -save` checkpoint and plans through it.
smoke-serve:
	sh scripts/smoke_serve.sh

# smoke-online boots minicostd with the continuous-learning loop enabled and
# no checkpoint, posts drifting curl traffic through it, and asserts at least
# one fine-tune epoch trained, the drift score is exported on /metrics, and a
# candidate policy was hot-swapped into serving — then reboots from the
# learner checkpoint via -checkpoint ... -online.
smoke-online:
	sh scripts/smoke_online.sh

# bench-e2e runs the end-to-end benchmark BENCHMARK.json declares (live
# daemon over HTTP, online learning, offline training) through the driver's
# entry point, one workload after the other; results land under
# benchmark/out/. BENCH_E2E_FLAGS adds harness flags, e.g.
# BENCH_E2E_FLAGS="--trace 1" for the per-layer budget. This is the basis
# for performance claims.
BENCH_E2E_WORKLOADS ?= serve-ingest replan-sparse replan-dense serve-online train-offline
bench-e2e:
	@for w in $(BENCH_E2E_WORKLOADS); do \
		bash benchmark/run.sh --workload $$w $(BENCH_E2E_FLAGS) || exit 1; \
	done

# bench-smoke runs every workload of the same harness at tiny sizes with
# every output check on (needs 2 CPUs, like the harness itself).
bench-smoke:
	$(GO) run ./benchmark -smoke

# bench-check is the performance gate a speed claim quotes: BENCH_CHECK_PAIRS
# interleaved pairs of every workload (BENCH_CHECK_WORKLOADS) through
# benchmark/run.sh, on a git clone of BENCH_CHECK_BASE and on the working
# tree. It prints each side's median and quartiles per end-to-end metric and
# the pairs won, and fails when a median is worse than the base's by more
# than its BENCHMARK.json bound (scripts/bench_check.sh; ~1 min per pair and
# workload on two cores).
BENCH_CHECK_BASE ?= HEAD~1
BENCH_CHECK_PAIRS ?= 10
BENCH_CHECK_SEED ?= 11
BENCH_CHECK_WORKLOADS ?= $(BENCH_E2E_WORKLOADS)
bench-check:
	bash scripts/bench_check.sh -b '$(BENCH_CHECK_BASE)' -n $(BENCH_CHECK_PAIRS) -s $(BENCH_CHECK_SEED) -w '$(BENCH_CHECK_WORKLOADS)'
