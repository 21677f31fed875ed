# Convenience targets; everything is plain `go` underneath.

GO ?= go
BENCH_COUNT ?= 10

.PHONY: all build test race bench bench-smoke bench-correct bench-json golden-matrix fmt vet lint mech-smoke serve-chaos fault-chaos store-chaos profile-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# benchstat-ready output: repeated runs of the per-layer microbenchmarks.
#   make bench > new.txt   (then: benchstat old.txt new.txt)
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/perfbench/

# One iteration per benchmark across the repo — the CI smoke job. Every
# run is on the trace tier, the machine's only executor.
# The allocation guards follow: zero steady-state allocations in the
# dispatch loop, a bounded allocation per recycled engine request, a
# bounded byte count per fresh ES40 cache hierarchy, one allocation (the
# trace) per trace a warmed machine forms again after Reset, and none for
# an EH patch and its restore on a live trace, which rewrite its step in
# place and form nothing (TestTraceReformAllocs).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	$(GO) test -run '^TestSteadyStateAllocs$$|^TestSuiteRuns$$|^TestRecycledRequestAllocs$$|^TestNewES40Bytes$$|^TestTraceReformAllocs$$' ./internal/perfbench/ ./internal/core/ ./internal/cache/ ./internal/machine/

# The repository benchmark's correctness gate: one short dbtbench run per
# workload. Each run checks its results against every pinned digest
# (dbtbench/golden.json); the target fails unless the last line of every
# run reports "correct":true and "failed":0.
bench-correct:
	@for w in fig16 traced serve; do \
		last=$$(bash dbtbench/run.sh --workload $$w --seed 1 --seconds 1 | tail -n 1); \
		echo "$$w: $$last"; \
		echo "$$last" | grep -q '"correct":true' && echo "$$last" | grep -q '"failed":0[,}]' || \
			{ echo "bench-correct: workload $$w is not correct" >&2; exit 1; }; \
	done

# Pool chaos suite under the race detector: ≥8 concurrent sessions with
# faults firing at every injection point, results checked bit-identical
# against serial replays (fixed seed; see internal/serve/chaos_test.go).
serve-chaos:
	$(GO) test -race -short -v ./internal/serve
	$(GO) test -race -short ./cmd/dbtserve

# Guest-fault suite under the race detector: the three fault workload
# kinds (page-straddling MDA, self-modifying, multi-context) across every
# mechanism in the mechanism table, with and without fixed-seed fault injection; fault
# delivery must be precise and interpreter-identical (DESIGN.md §12). The
# trap-bit table, and the watch queries it filters (Watched, WatchedRange),
# are checked against a brute-force reference model, and traps taken
# mid-trace in the machine's trace executor (with and without
# injection) against the single-stepping reference machine. Traced runs of
# random programs with MDA mega-steps, whose constituents fault mid-sequence
# on protected pages, must match the reference at every budget, and so
# must such programs under a fault plan, injection stream included
# (TestTraceFaultPlanParity). A unit
# whose block allocation fails after emission must register none of its
# exits or adaptive sites (translate's commit point) and hand back its
# adaptive streak counters (TestAdaptiveCountersRewoundOnFailedCommit).
# Injected spurious and duplicate traps at proven-aligned host PCs must
# not count as static-align violations
# (TestStaticAlignViolationsIgnoreInjectedTraps). The reference interpreter
# itself is pinned: every census of the selected models and the fault
# programs against a golden file (TestCensusGolden), a census that rewrites
# its shared-library code (TestCensusSharedLibSMC), and Exec's access
# record and fault precision for every guest op (TestExecAccessRecord).
# The straight-line guest executor matches CPU.Step one instruction at a
# time at every budget, with each touched page protected or unmapped, and
# when a store rewrites the next instruction (TestRunMatchesStep). A fetch
# from a page the guest cannot execute faults precisely before its bytes
# are decoded (TestFetchFaultBeforeDecode).
# Trace formation is pinned on the translator's unit shapes: one trace
# from a unit's entry through its last stub
# (TestFormationCoversForwardRegion), and a trace is dropped only by a
# write into its code, so with no flush the tier invalidates no more traces
# than the engine patches and links (TestTraceInvalidationsFollowCodeWrites).
# Stretch accounting (one budget check, I-line fetch and static charge per
# straight-line stretch) matches the reference at every budget, with a
# trap at every access, for stretch entries of every kind and under two
# cost models switched with traces live (TestTraceStretchParity). Code
# patches applied between Run slices — an EH patch and its restore, a
# chain link to a unit outside the trace and to one of its own steps, a
# retargeted link, an unlink, a rewrite on the line being fetched, and a
# BR into a mega-step or an undecodable word, which must drop the trace —
# keep the tier coherent and every slice equal to the reference, I-cache
# accesses included (TestPatchInPlaceParity).
fault-chaos:
	$(GO) test -race -run 'TestFaultCosimAllMechanisms|TestChaosGuestFaults|TestSelfModifyingInvalidates|TestMultiContextReset|TestTranslateCommitAfterAllocFault|TestAdaptiveCountersRewoundOnFailedCommit|TestStaticAlignViolationsIgnoreInjectedTraps|TestCensusGolden|TestCensusSharedLibSMC|TestTraceInvalidationsFollowCodeWrites|TestFetchFaultBeforeDecode' -v ./internal/core
	$(GO) test -race -run 'TestExecAccessRecord|TestRunMatchesStep' -v ./internal/guest
	$(GO) test -race -run 'TestServeGuestFaults' ./internal/serve
	$(GO) test -race -run 'TestTrapTableReferenceModel' -v ./internal/mem
	$(GO) test -race -run 'TestTrapMidRun|TestTraceParityRandomPrograms|TestTraceMegaStepFaults|TestTraceFaultPlanParity|TestFormationCoversForwardRegion|TestTraceStretchParity|TestPatchInPlaceParity' -v ./internal/machine

# Persistent-store crash/corruption suite under the race detector: the
# full internal/store suite (atomic-write protocol, SIGKILL-mid-write
# recovery, every store.* injection point against concurrent writers),
# the warm-from-store golden matrix (144 entries bit-identical to cold,
# injected corruption quarantined with cold fallback), the
# serve/dbtserve warm-restart round trips, and the check that a request
# the pool refuses never runs its AOT builder or profile trainer.
store-chaos:
	$(GO) test -race -v ./internal/store
	$(GO) test -race -run 'TestStoreWarmGoldenMatrix' ./internal/core
	$(GO) test -race -run 'TestWarmStart|TestStoreCorruptionDegradesToCold|TestProfilesMergeAcrossDrains|TestLoaderRequestWithoutStoreKeyBypassesStore|TestStoreWarmRestart|TestRefusedRequestNeverBuildsOrTrains' ./internal/serve ./cmd/dbtserve

# The README's profile flows through the dbtrun CLI on
# cmd/dbtrun/testdata/sum.gasm: -profile-out then -mech speh -profile-in
# reports no misalignment traps, and so does the second of two
# -mech speh -store DIR runs. Then the benchmark store paths: the second
# of two -store DIR -bench 470.lbm runs under static and under aot loads
# every artifact from the store and prints the same results.
profile-smoke:
	$(GO) test -run '^(TestProfileSmoke|TestBenchStoreWarm)$$' -v ./cmd/dbtrun

# One experiment run per row of the mechanism table (internal/policy), the
# check that a bare Options{Mechanism: m} is DefaultOptions(m) for every
# one of them, and the pinned site and trap decision of every mechanism ×
# extension combination (TestPolicyDecisionTable) — the CI
# mechanism-smoke job.
mech-smoke:
	$(GO) test -run '^(TestOptionsLiteralMatchesDefault|TestPolicyDecisionTable)$$' -v ./internal/core
	$(GO) test -run '^TestRegistryMechanismSmoke$$' -v ./internal/experiments

# The checked-in benchmark ledger → BENCH_5.json: the result line of one
# 30 s repository-benchmark run (dbtbench/run.sh) per workload, at
# --trace 0 (end-to-end metrics) and --trace 1 (per-layer metrics): six
# JSON lines, in the order fig16, traced, serve, each at --trace 0 then 1.
# BENCH_2.json to BENCH_4.json are earlier perfbench summaries, kept as
# history.
bench-json:
	@mkdir -p .bench_build && : > .bench_build/BENCH_5.json
	@for w in fig16 traced serve; do for t in 0 1; do \
		out=$$(bash dbtbench/run.sh --workload $$w --seed 1 --seconds 30 --trace $$t) || exit 1; \
		echo "$$out" | tail -n 1 >> .bench_build/BENCH_5.json; \
	done; done
	mv .bench_build/BENCH_5.json BENCH_5.json

# The golden equivalence matrix under the race detector: the 144 pinned
# fingerprints, the engine-reuse replay, the trace-tier parity sweep
# (every matrix config re-run on one recycled engine — fingerprints must
# match the goldens bit for bit), the DumpBlock golden, which pins
# the emitted host code and its per-instruction records byte for byte,
# and every row of the memory-kind table: its MDA sequence runs on the
# machine at every alignment and fits the row's length budget.
golden-matrix:
	$(GO) test -race -run 'TestMechanismEquivalence|TestEngineReuseEquivalence|TestTraceTierFingerprintParity|TestDumpBlockGolden|TestMDASequencesOnMachine|TestMdaSeqLenMatchesEmission' -v ./internal/core

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Static analysis: go vet always; staticcheck when the binary is on PATH
# (CI installs it, local runs degrade gracefully).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
