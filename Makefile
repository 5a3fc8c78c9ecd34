# Developer and CI entry points. `make verify` is the tier-1 gate;
# `make check` adds vet, lint, formatting, and the race detector (on the
# concurrency-sensitive subset) on top. CI splits verify / race /
# fuzz-smoke into parallel jobs (.github/workflows/ci.yml).

GO ?= go

# Packages exercising concurrency-sensitive code under the race
# detector: the server guard stack and e2e chaos test, the metrics
# registry (including span trees and sliding-window rotation), the
# fault-injection hooks and the scan contexts they make (Hook.Context,
# whose poll count every shard of a query shares), the cancellation
# paths of the core retriever and the scan baselines, the sharded
# execution engine and its kernels, and the open-loop load generator's
# concurrent senders, plus the method registry (every method through the
# engine's worker pool), and the
# row-range workers of the parallel preprocessing (vec.ForRows, the Gram
# split) with the decomposition that runs on them, the LEMP batch join,
# whose engine.Batch workers each count into a sink of their own that the
# join adds to its caller's, and the search contract's shared threshold
# (TestSharedThresholdConcurrentPublish). `make race` runs everything.
RACE_PKGS = ./internal/server/... ./internal/obs/... ./internal/faults/... ./internal/core/... ./internal/scan/... ./internal/engine/... ./internal/load/... ./internal/snap/... ./internal/method/... ./internal/vec/... ./internal/svd/... ./internal/lemp/... ./internal/search/...

# Per-target budget for the fuzz smoke (`go test -fuzz` accepts exactly
# one target per invocation).
FUZZTIME ?= 10s

.PHONY: all verify build test check vet cross lint lint-race perf-gate perf-facts fmt-check precommit race race-subset fuzz-smoke bench bench-shard repo-bench load-smoke loc

all: check

## verify: the tier-1 gate — build everything, run every test.
verify: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## check: verify + static analysis + formatting + race detector on the
## concurrency-sensitive subset and on the lint driver (fast enough for
## a local loop; CI also runs the full `make race`).
check: verify vet cross lint lint-race perf-gate fmt-check race-subset

## vet: includes asmdecl, which checks internal/vec's assembly against its
## Go declarations, and copylocks, which keeps sync and sync/atomic values
## (obs.Counter included) from being copied.
vet:
	$(GO) vet ./...

## cross: build and vet for a target with no assembly — internal/vec's
## AVX2 kernels are amd64-only and every other GOARCH runs their plain-Go
## bodies — for a 32-bit one, where int holds 32 bits (tests included:
## vet compiles them; the 386 test run itself waits for a portable exp,
## since the golden catalogs differ there), and for one that is not
## Linux, where internal/snap's WAL syncs with fsync instead of fdatasync
## (wal_other.go). Needs no network and no second toolchain.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 CGO_ENABLED=0 $(GO) build ./...
	GOARCH=386 CGO_ENABLED=0 $(GO) vet ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/snap

## lint: project-specific static analysis. fexlint's seven analyzers
## enforce FEXIPRO's exactness, concurrency, and reproducibility
## invariants (float comparisons, RNG seeding, discarded errors, the
## mutex contracts of `locks` — lock-hold discipline, lock-order deadlock
## candidates, //fex:guard field enforcement — //fex:hot allocation
## freedom, Search⇄SearchContext and Config⇄flag parity, goroutine join
## edges). Cancellable scans, stage counters and strict prunes are the
## test batteries' (DESIGN.md §9). Exits 0 clean / 1 findings / 2 load
## error. A deliberate exception carries `//lint:ignore <analyzer>
## <reason>` on or above its line; there is no other way to silence a
## finding. See DESIGN.md §12.
lint:
	$(GO) run ./cmd/fexlint ./...

## lint-race: the lint driver's own tests under the race detector — the
## loader type-checks the units `go list -export` reports in parallel,
## over one shared file set, and the per-unit analysis phase runs in
## parallel too (about 7 s).
lint-race:
	$(GO) test -race ./internal/lint/...

## perf-gate: compiler-fact perf contracts (DESIGN.md §14). Runs the
## real compiler with `-gcflags='-m -d=ssa/check_bce'` and checks the
## diagnostics against the committed .fexperf-facts.json: //fex:hot
## loops must stay free of heap escapes, their bounds-check counts may
## only ratchet down, and //fex:inline kernels must stay inlinable.
## Skips (exit 0, with a reason) on toolchain skew; regenerate the
## manifest with `make perf-facts` after an intentional change.
perf-gate:
	$(GO) run ./cmd/fexlint -perf ./...

## perf-facts: regenerate .fexperf-facts.json from the current tree and
## toolchain. Commit the result; CI diffs against it.
perf-facts:
	$(GO) run ./cmd/fexlint -write-perf-facts ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## loc: non-test Go lines outside benchmark/ and testdata — the whole
## tree and internal/lint's share. ROADMAP counts net-negative LoC as a
## success, so CI prints this where a PR's before and after can be read.
LOC_FILES = -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*'
loc:
	@echo "non-test Go lines: total $$(find . $(LOC_FILES) | xargs cat | wc -l), internal/lint $$(find ./internal/lint $(LOC_FILES) | xargs cat | wc -l)"

## precommit: the fast pre-push gate — formatting, vet, and fexlint,
## failing at the first broken step. Run this before every commit.
precommit: fmt-check vet lint

## race: full test suite under the race detector.
race:
	$(GO) test -race ./...

## race-subset: the race detector on the packages where it earns its
## keep (see RACE_PKGS above); what `make check` runs locally.
race-subset:
	$(GO) test -race $(RACE_PKGS)

## fuzz-smoke: run each fuzz target for FUZZTIME on top of the committed
## regression corpus (internal/data/testdata/fuzz). New crashers found
## here should be committed as corpus seeds. It starts with TestBodies -v,
## whose log names the kernel bodies this processor runs — portable, avx2
## and, with AVX-512 VNNI, avx512vnni — and the ones it skips: the bodies
## FuzzHeadBlock, FuzzDotTail, FuzzDot, FuzzBuildKernels and FuzzBlockedScan
## cover on this run. FuzzHeadBlock compares the head test's run kernel,
## Collect — each body against plain Go and row by row — over runs of
## blocks of int8 floors, every shape the layout admits; FuzzDotTail the
## batched tail kernel's bodies, over batches of table rows, against an
## int64 sum mod 2³²; FuzzDot the float dot's bodies, Dot and DotRange at
## every length up to 70 and every lo, bit for bit against plain Go on
## fuzzed float bits; FuzzBuildKernels the build's Gram
## and V₁ transform, each body bit for bit against plain Go, on fuzzed
## shapes and float bits; FuzzBlockedScan the blocked scan against the
## per-item one under each body, the fixed-threshold (above-t) collector
## case beside the top-k ones; FuzzBuilderStream the streamed snapshot
## writer against the payload-then-write encoding, byte for byte, on
## sections up to well past its 64 KiB buffer; FuzzParseNumber the request scanner's
## number reader against the grammar, strconv.ParseFloat's bits and
## strconv.ParseInt, at any offset of any bytes.
fuzz-smoke:
	$(GO) test ./internal/vec -run='^TestBodies$$' -v
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzReadMatrixBinary -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzReadMatrixCSV -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/engine -run='^$$' -fuzz=FuzzPartitionRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/vec -run='^$$' -fuzz=FuzzHeadBlock -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/vec -run='^$$' -fuzz=FuzzDotTail -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/vec -run='^$$' -fuzz='^FuzzDot$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/vec -run='^$$' -fuzz=FuzzBuildKernels -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzDynamicOps -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzSearchMatchesNaive -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzIntegerBound -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzBlockedScan -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzLoadSnapshot -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzReadIndex -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/snap -run='^$$' -fuzz=FuzzSnapshotLoad -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/snap -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/snap -run='^$$' -fuzz=FuzzBuilderStream -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzParseNumber -fuzztime=$(FUZZTIME)

## load-smoke: fexload in self-contained mode — it starts an in-process
## fexserve over a synthetic catalog, offers a short open-loop workload
## with interleaved mutations, and must produce a well-formed fexload/v1
## -slojson report (fexload itself validates the report and exits
## non-zero otherwise; the grep pins the schema tag on disk).
load-smoke:
	$(GO) run ./cmd/fexload -items 500 -dim 8 -rate 300 -duration 2s \
		-mutate-every 10 -burst-every 1s -burst-dur 250ms -burst-factor 2 \
		-slojson fexload-smoke.json
	@grep -q '"schema": "fexload/v1"' fexload-smoke.json || \
		{ echo "load-smoke: report missing fexload/v1 schema tag"; exit 1; }
	@rm -f fexload-smoke.json

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

## repo-bench: the repository benchmark declared in BENCHMARK.json —
## four workloads end to end, answers checked against a naive oracle
## (≈ 2 min; `go run ./benchmark -workload W -trace 1` for one workload's
## per-layer numbers, see benchmark/README.md).
repo-bench:
	$(GO) run ./benchmark

## bench-shard: the sharded execution engine benchmark (sequential
## retriever vs engine at several shard counts), then a sharded
## -statsjson dump whose per-stage counters can be diffed field by field
## against a sequential run of the same workload.
bench-shard:
	$(GO) test -bench=BenchmarkShardedSearch -benchtime=1x -run='^$$' .
	$(GO) run ./cmd/fexbench -statsjson -profiles movielens -items 5000 -queries 20 -k 10 -methods F-SIR -shards 8 -workers 4
