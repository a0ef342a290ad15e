#!/bin/sh
# check.sh — the same gate as `make check`, for environments without make:
# vet, build, and the full test suite under the race detector.
set -eu
cd "$(dirname "$0")"

echo "== go vet ./..."
go vet ./...
echo "== dcnlint ./... (determinism, unit-safety, lifecycle + immutability analyzers)"
go run ./cmd/dcnlint ./...
if [ "${LINT_FULL:-0}" = "1" ]; then
	# Pinned third-party analyzers, fetched with `go run pkg@version`.
	# Opt-in because they need module-proxy network access.
	echo "== staticcheck + govulncheck (LINT_FULL=1)"
	go run honnef.co/go/tools/cmd/staticcheck@"${STATICCHECK_VERSION:-v0.4.7}" ./...
	go run golang.org/x/vuln/cmd/govulncheck@"${GOVULNCHECK_VERSION:-v1.1.3}" ./...
fi
echo "== go build ./..."
go build ./...
echo "== dissemination oracle + filter tests under -race"
# The interest-filter correctness surface, run first and by name: the
# brute-force sensing oracle (filter on and off), the filter-on/off and
# spatial-exact bit-identity replays, the folded-mode bounded-error
# oracle, and the frozen-delivery-set edge cases, then the kernel's own
# tests. A filtering or spatial-tier bug fails here in seconds instead of
# somewhere inside the full suite below.
go test -race -count=1 \
	-run 'TestCachedSumsMatchBruteForce|TestFilteredChurnBitIdentical|TestSpatialExactChurnBitIdentical|TestFoldedChurnBoundedError|TestRetuneWhileOnAir|TestDetachWithPendingInterest|TestWidebandDeliverySpansBands' \
	./internal/medium
go test -race -count=1 ./internal/sim
echo "== reception oracle under -race"
# Every reception segment of a randomised churn run (co- and adjacent-
# channel interference, capture, retune, power-off) checked against the
# exact Binomial(bits, BitErrorRate(SINR)) on a twin stream: the fast
# reception paths must give the same error count and stream position.
go test -race -count=1 -run 'TestFastReceptionMatchesExactOracle' ./internal/radio
echo "== crash-safety surface under -race"
# Interrupt/resume bit-identity (the representative subset of the full
# 17-table suite), keep-going failure collection, the deterministic-vs-
# environmental retry classifier, store corruption recovery, and the
# budget/watchdog machinery — by name, so a crash-safety regression
# fails in seconds instead of somewhere inside the full suite below.
go test -race -count=1 \
	-run 'TestCrashResumeBitIdentitySubset|TestRunEngine' \
	./internal/experiments
go test -race -count=1 \
	-run 'TestKeepGoingBudgetTripMarksTables|TestSignalCancelsWithResumeHint|TestExitCodeContract' \
	./internal/cli
go test -race -count=1 ./internal/store ./internal/watchdog ./internal/parallel
echo "== go test -race ./..."
# Race instrumentation is 5-20x on a single core; give the experiment
# grids headroom beyond the 10m default before calling a hang.
go test -race -timeout 1800s ./...
echo "== bench smoke (1 iteration)"
go run ./cmd/dcnbench -bench 'KernelScheduleCancel|SensedPowerDense|OnAirFanout$' \
	-benchtime 1x -pkgs ./internal/sim,./internal/medium -out /dev/null
go run ./cmd/dcnbench -bench 'CellSetup' \
	-benchtime 1x -pkgs ./internal/testbed -out /dev/null
# City-scale smoke: one iteration proves the 5,000-node spatial-tier
# benchmarks still set up (near snapshot build, far-field fold, grid
# culled fan-out) without paying measurement time.
go run ./cmd/dcnbench -bench 'SensedPower5kNodes|OnAirFanout5kNodes' \
	-benchtime 1x -pkgs ./internal/medium -out /dev/null
# Lint-gate smoke: one iteration of the whole-module analyzer run keeps
# the interprocedural engine's cost visible in the bench artifacts.
go run ./cmd/dcnbench -bench 'LintModule' \
	-benchtime 1x -pkgs ./internal/lint -out /dev/null
echo "== bench compare smoke (vs BENCH_PR7.json)"
# The medium sensing benchmarks (sped up severalfold in PR 3, again via
# the SoA link rows in PR 7) plus the PR 4 dissemination fan-out: all
# are tight enough that a >20% regression signal here is real, not
# measurement noise. The store round trip rides
# along so a cell-cache slowdown (it sits on every -store sweep's path)
# trips the same gate.
smoke_json=$(mktemp)
# Best of three: a ~12 ns/op benchmark can read 25% high during a CPU
# burst on a shared runner, so each attempt uses 2M fixed iterations
# (100k measured only ~1 ms) and the gate passes if any attempt is
# clean — a real regression fails all three.
compare_ok=0
for attempt in 1 2 3; do
	go run ./cmd/dcnbench -bench 'SensedPowerDense|InterferenceDense|OnAirFanout$' \
		-benchtime 2000000x -pkgs ./internal/medium -out "$smoke_json"
	if go run ./cmd/dcnbench -compare BENCH_PR7.json "$smoke_json"; then
		compare_ok=1
		break
	fi
	echo "bench compare attempt $attempt failed; retrying in case of host noise"
done
if [ "$compare_ok" -ne 1 ]; then
	echo "bench compare failed on all 3 attempts" >&2
	exit 1
fi
go run ./cmd/dcnbench -bench 'CellStoreRoundTrip' \
	-benchtime 100x -pkgs ./internal/store -out /dev/null
rm -f "$smoke_json"
echo "check: OK"
