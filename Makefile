# fluxgo build/test entry points.
#
# `make check` is the gate: vet, fluxlint (the repo's own static
# analysis, see cmd/fluxlint), and the full test suite under the race
# detector, including the chaos soak at its short default duration.
# Lengthen the soak (and pin a fault schedule) via the env vars the soak
# test reads, e.g.:
#
#   CHAOS_SOAK=30s CHAOS_SEED=42 make chaos
#
# `make debuglock` reruns the suite with the lock-order-checking mutex
# build (-tags debuglock): cycles in lock acquisition order panic with
# both stacks instead of deadlocking silently.

GO ?= go

# Hot-path packages covered by `make bench` / the CI bench job.
BENCH_PKGS = ./internal/wire/ ./internal/broker/ ./internal/kvs/ ./internal/cas/ ./internal/obs/ ./cmd/fluxlint/

.PHONY: build test check chaos recovery vet lint debuglock fuzz bench benchdiff leftovers

build:
	$(GO) build ./...

# go vet, then a gofmt gate: every tracked .go file outside testdata/
# must be gofmt-clean (fluxlint's fixtures under testdata/ are inputs,
# not code, and keep their hand layout).
vet:
	$(GO) vet ./...
	@files=$$(git ls-files '*.go' | grep -Ev '(^|/)testdata/') && \
	unformatted=$$(gofmt -l $$files) && \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Static analysis: ten passes over the module, zero findings required.
# -stats prints per-pass kept/suppressed counts; CI runs this target
# under a 30-second wall-clock budget (see .github/workflows/ci.yml), so
# pass-cost regressions fail loudly. BenchmarkLintRepo tracks the same
# cost at finer grain.
lint:
	$(GO) run ./cmd/fluxlint -stats ./...

test:
	$(GO) test ./...

check: vet lint
	$(GO) test -race ./...

# Fails while any test binary, go build or run, or benchmark process is
# still running: run it after a suite to catch a test that leaves a
# process behind. (The recipe's own shell names the pattern and grep,
# so the grep -v drops it.)
leftovers:
	@left=$$(ps -eo pid,etime,cmd | grep -E 'flux-bench|\.test|go-build|go run' | grep -v grep); \
	if [ -n "$$left" ]; then echo "processes left running:"; echo "$$left"; exit 1; fi

# Race suite with the runtime lock-order checker compiled in.
debuglock:
	$(GO) test -race -tags debuglock ./...

# Longer fault-injection soak; honours CHAOS_SOAK / CHAOS_SEED.
chaos:
	$(GO) test -race -run 'TestChaosSoak' -v ./internal/session/

# Fuzzing, 10 s per target: the kvs.fence body, binary and JSON
# (FuzzFenceBody), the binary kvs.load request and response bodies,
# which have no JSON form (FuzzLoadBody), the in-place
# directory readers (FuzzDirLookup), the merge write path against
# the map-based reference (FuzzApplyOps) and the broker's event
# recipient table against the per-event scan (FuzzEventRecipients).
# Minimising each new input is capped at 200 runs, so a large seed
# (a 256-entry fence batch) cannot stall a target's time budget.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFenceBody$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/kvs/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadBody$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/kvs/
	$(GO) test -run '^$$' -fuzz '^FuzzDirLookup$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/cas/
	$(GO) test -run '^$$' -fuzz '^FuzzApplyOps$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/kvs/
	$(GO) test -run '^$$' -fuzz '^FuzzEventRecipients$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/broker/

# Durability gate: the WAL truncation sweep, the restart protocol tests,
# and the seeded crash-restart soak (kill/crash/restart of ranks and
# shard masters under link + storage faults, then prove every
# acknowledged commit survived). Honours FLUX_CHAOS_SEEDS / CHAOS_SOAK:
#
#   FLUX_CHAOS_SEEDS=1,2,3,4,5,6 CHAOS_SOAK=2s make recovery
recovery:
	$(GO) test -race -run 'TestWALTruncationSweep|TestDurableCommitRecovery' -v ./internal/cas/
	$(GO) test -race -run 'TestRestart|TestKillRootRefused|TestCrashRootRefused' -v ./internal/session/
	$(GO) test -race -run 'TestCrashRestartSoak' -v ./internal/kvs/

# Hot-path microbenchmarks plus the 10k-rank event-storm scenario,
# archived as JSON (see cmd/benchjson and EXPERIMENTS.md for the
# tracked before/after numbers). The storm is a single wall-clock
# sample of 2048 events fanned out to 10000 in-process ranks — a scale
# demonstrator, so it is archived here but deliberately excluded from
# the benchdiff gate (one noisy multi-minute sample would make a 15%
# threshold flap).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 6 $(BENCH_PKGS) > /tmp/bench_raw.txt
	$(GO) run ./cmd/flux-sim -scenario storm -ranks 10000 -events 2048 -bench >> /tmp/bench_raw.txt
	$(GO) run ./cmd/benchjson -label current -o BENCH_core.json < /tmp/bench_raw.txt

# Perf gate: rerun the hot-path benchmarks and fail on a >15% min-ns/op
# or min-allocs/op regression against the committed archive (see
# cmd/benchdiff).
# Benchmarks present on one side only (e.g. the archived event storm)
# are reported but never fail the gate. Six repetitions per benchmark:
# the diff compares min against min, and the min of six samples sits
# close enough to the true floor that scheduler noise stays inside the
# 15% threshold (min-of-three flaps on shared runners).
benchdiff:
	$(GO) test -run '^$$' -bench . -benchmem -count 6 $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -label fresh -o /tmp/bench_fresh.json
	$(GO) run ./cmd/benchdiff -old BENCH_core.json -new /tmp/bench_fresh.json
