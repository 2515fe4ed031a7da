# Seraph — build, test and reproduction targets.

GO ?= go

.PHONY: all build vet test race bench bench-micro bench-index bench-delta chaos-recovery record repro verify examples fuzz fuzz-wal clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# End-to-end serving benchmark: every workload of BENCHMARK.json against
# a freshly built seraph-server (see bench/README.md).
bench:
	bash bench/run.sh

# Go micro-benchmarks of the root package and internal packages.
bench-micro:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# Indexed-vs-scan MATCH ablation (bench_index_test.go).
bench-index:
	$(GO) test -run '^$$' -bench 'SelectivePredicate|TypedExpansion|EngineSelectivity' -benchmem .

# Delta-driven vs full evaluation ablation (bench_delta_test.go).
bench-delta:
	$(GO) test -run '^$$' -bench 'BagDifference|EngineDeltaEval' -benchmem .

# Crash-recovery chaos matrix: seeded kill points against the durable
# WAL + checkpoint stack (see internal/chaos/recovery.go).
chaos-recovery:
	$(GO) test -race -run 'TestRecovery' -v ./internal/chaos/

# Record deliverable outputs.
record:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Regenerate the paper's tables and figures.
repro:
	$(GO) run ./cmd/seraph-repro

# Assert the paper reproduction (CI).
verify:
	$(GO) run ./cmd/seraph-repro -verify

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/micromobility
	$(GO) run ./examples/netmon
	$(GO) run ./examples/crime
	$(GO) run ./examples/referencedata

# The four targets of CI's fuzz-smoke job, 20s each.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime 20s ./internal/parser/
	$(GO) test -run '^$$' -fuzz FuzzParseRegistration -fuzztime 20s ./internal/parser/
	$(GO) test -run '^$$' -fuzz FuzzRegisterAndPush -fuzztime 20s ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 20s ./internal/wal/

fuzz-wal:
	$(GO) test ./internal/wal -fuzz FuzzWALReplay -fuzztime 30s

clean:
	rm -f test_output.txt bench_output.txt
	rm -rf bin
