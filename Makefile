GO ?= go
BENCH ?= .
BENCH_OUT ?= BENCH_PR9.json
BENCH_BASE ?= BENCH_PR7.json

# Pinned third-party analyzer versions for `make lint-full` (LINT_FULL=1).
# Both are fetched with `go run pkg@version`, so they need module-proxy
# network access and are kept out of the default offline gate.
STATICCHECK_VERSION ?= v0.4.7
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: check vet lint lint-full build test race fuzz bench benchsmoke bench-compare

## check: the full local gate — vet, the dcnlint determinism/unit-safety
## analyzers, build, tests under the race detector, and a one-iteration
## smoke run of the fast benchmarks. Set LINT_FULL=1 to also run the
## pinned staticcheck + govulncheck pass (needs network).
check: vet lint build race benchsmoke
ifeq ($(LINT_FULL),1)
check: lint-full
endif

vet:
	$(GO) vet ./...

## lint: the project-specific go/analysis suite (detsource, maporder,
## dbmunits, confinedgo, seedtaint, deliveryfreeze, snapfreeze) with the
## interprocedural call-graph engine.
## Offline: stdlib-only driver.
lint:
	$(GO) run ./cmd/dcnlint ./...

## lint-full: pinned staticcheck + govulncheck via `go run pkg@version`.
## Requires module-proxy network access; not part of the offline gate.
lint-full:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz: a short fuzzing pass over the frame codec invariants, then over
## the fast reception decision against the exact Binomial draw.
fuzz:
	$(GO) test ./internal/frame -run FuzzFCS -fuzz FuzzFCS -fuzztime 30s
	$(GO) test ./internal/radio -run FuzzReceptionDecision -fuzz FuzzReceptionDecision -fuzztime 30s

## bench: run the microbenchmarks and write parsed JSON to $(BENCH_OUT).
bench:
	$(GO) run ./cmd/dcnbench -bench '$(BENCH)' -out $(BENCH_OUT)

## benchsmoke: one iteration of the fast kernel/medium/testbed
## benchmarks, to catch benchmark-code rot without paying full
## measurement time.
benchsmoke:
	$(GO) run ./cmd/dcnbench -bench 'KernelScheduleCancel|SensedPowerDense|OnAirFanout$$' \
		-benchtime 1x -pkgs ./internal/sim,./internal/medium -out /dev/null
	$(GO) run ./cmd/dcnbench -bench 'CellSetup' \
		-benchtime 1x -pkgs ./internal/testbed -out /dev/null
	$(GO) run ./cmd/dcnbench -bench 'SensedPower5kNodes|OnAirFanout5kNodes' \
		-benchtime 1x -pkgs ./internal/medium -out /dev/null
	$(GO) run ./cmd/dcnbench -bench 'LintModule' \
		-benchtime 1x -pkgs ./internal/lint -out /dev/null

## bench-compare: run the benchmarks into $(BENCH_OUT), then fail if any
## shared benchmark's ns/op regressed >20% against $(BENCH_BASE).
bench-compare: bench
	$(GO) run ./cmd/dcnbench -compare $(BENCH_BASE) $(BENCH_OUT)
