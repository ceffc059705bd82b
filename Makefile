GO ?= go

.PHONY: build test test-race fuzz-smoke vet lint-docs loc bench bench-smoke bench-e2e soak-smoke soak-full api-surface api-check clean

build:
	$(GO) build ./...

# The second run builds the packages on the local-multiply path with the
# purego tag, which leaves the assembly micro-kernels (AVX-512 and AVX2) out:
# the portable dense and sparse loops every non-AVX2 machine runs are
# exercised on the amd64 runner too. The third runs core's width-dependent parity tests at one and
# at four threads — matrix.KernelWorkers follows GOMAXPROCS, and the 2-vCPU
# runner picks neither width by itself.
test:
	$(GO) test ./...
	$(GO) test -tags purego ./internal/matrix ./internal/core ./internal/distnet
	$(GO) test -cpu 1,4 -run 'MultiplyBox|MultiplyColumn|Aggregat|OneTile' ./internal/core

# The whole tree — and the repository benchmark, a module of its own — must
# stay race-detector-clean; both runs together take about a minute.
test-race:
	$(GO) test -race ./...
	cd benchmark && $(GO) test -race ./...

# Ten-second fuzz smokes: hostile bytes against the storage reader, the
# wire block decoder, and every decoder a socket reaches — the streaming
# block readers of the frame layer, the driver↔worker bodies, the serve
# submit/result bodies — must come back as typed errors, never a panic or
# a runaway allocation.
fuzz-smoke:
	$(GO) test -fuzz=FuzzRead -fuzztime=10s -run '^$$' ./internal/storage
	$(GO) test -fuzz=FuzzDecodeBlock -fuzztime=10s -run '^$$' ./internal/codec
	$(GO) test -fuzz=FuzzDecodeManifest -fuzztime=10s -run '^$$' ./internal/codec
	$(GO) test -fuzz=FuzzFrameBlocks -fuzztime=10s -run '^$$' ./internal/codec
	$(GO) test -fuzz=FuzzWireBodies -fuzztime=10s -run '^$$' ./internal/distnet
	$(GO) test -fuzz=FuzzServeBodies -fuzztime=10s -run '^$$' ./internal/serve

# The sockets speak internal/codec's call layer; net/rpc stays out of the
# tree, tests included — an import of it fails here with its file:line.
# internal/distnet sits below the engine and the queries: its non-test
# dependencies must not reach internal/engine or internal/ml, or the engine
# could never run on the TCP executor without an import cycle.
vet:
	$(GO) vet ./...
	@if grep -rn --include='*.go' '"net/rpc"' .; then echo 'vet: net/rpc imported above; use internal/codec calls' >&2; exit 1; fi
	@if $(GO) list -deps ./internal/distnet | grep -xE 'distme/internal/(engine|ml)'; then echo 'vet: internal/distnet depends on the package above; it must not import internal/engine or internal/ml' >&2; exit 1; fi

# Every ```go fence in README.md and docs/*.md must build against the
# current API, and every internal/<pkg>, cmd/<name> or examples/<name> path
# README.md, DESIGN.md and docs/*.md mention must exist — documentation
# cannot rot silently.
lint-docs:
	$(GO) run ./cmd/lint-docs

# Go lines, the one recipe behind every line count CHANGES.md and
# ROADMAP.md quote: non-test lines of the tree outside benchmark/, its test
# lines, the non-test lines of each internal/* package, and the exported
# surface.
loc:
	@printf '%-22s %6d\n' total $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)
	@printf '%-22s %6d\n' tests $$(find . -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)
	@for p in internal/*; do printf '%-22s %6d\n' $$p $$(find $$p -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); done
	@printf '%-22s %6d\n' api/surface.txt $$(wc -l < api/surface.txt)

# Exported API surface of the public packages (root, internal/engine,
# internal/distnet), dumped one sorted line per symbol to api/surface.txt.
# api-check fails if the live surface differs from the checked-in file, so
# every surface change lands as a reviewable diff.
api-surface:
	$(GO) run ./cmd/apisurface -out api/surface.txt

api-check:
	$(GO) run ./cmd/apisurface -check

# Self-healing soak: seeded chaos workload under the autoscaler, every
# result asserted bit-identical to pre-chaos references, p99/leak/scaling
# gates enforced. The smoke profile fits a CI slot (under 90s); the full
# profile is the nightly long-horizon run with the baseline-degradation
# gate on.
soak-smoke:
	$(GO) run ./cmd/distme-bench -soak -soak-profile smoke -soak-out BENCH_soak.json

soak-full:
	$(GO) run ./cmd/distme-bench -soak -soak-profile full -soak-out BENCH_soak.json

# The repository benchmark (BENCHMARK.json, benchmark/) is a Go module of
# its own, so `go test ./...` at the root never reaches it. bench-smoke
# runs its tests — every workload end to end at smoke size; bench-e2e runs
# all four workloads at full length and prints the end-to-end metrics.
bench-smoke:
	cd benchmark && $(GO) test ./...

bench-e2e:
	bash benchmark/run.sh --all

# Full benchmark sweep (paper tables/figures + kernels + end-to-end). The
# seed-vs-current kernel numbers come from here: internal/matrix keeps the
# seed kernels beside the current ones, and
#   go test -bench 'Gemm|CSRMulDense|DenseMulCSC|CSRMulCSR' -cpu 1,2 ./internal/matrix
# prints the rows of each side by side — seed, fallback (the portable
# loop) and avx2 (the AVX2 micro-kernels) for Gemm and the two sparse–dense
# products, which also run the block shapes of the repository benchmark,
# and for Gemm avx512 (the 8×8 tile; skipped where CPUID or XCR0 says no);
# DenseMulCSC adds a packed row, the product as a cuboid tile runs it.
# BenchmarkSparseFanout is the measurement behind sparseFlopsThreshold.
bench:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
