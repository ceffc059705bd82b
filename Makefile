GO ?= go

.PHONY: build test test-race fuzz-smoke vet lint-docs loc bench bench-smoke bench-e2e soak-smoke soak-full api-surface api-check clean

build:
	$(GO) build ./...

# The second run builds the packages on the local-multiply path with the
# purego tag, which leaves the assembly micro-kernels (AVX-512 and AVX2) out:
# the portable dense and sparse loops every non-AVX2 machine runs are
# exercised on the amd64 runner too. The third runs core's width-dependent parity tests at one and
# at four threads — matrix.KernelWorkers follows GOMAXPROCS, and the 2-vCPU
# runner picks neither width by itself. The fourth builds the portable loops
# at GOAMD64=v3, where the compiler may fuse x += a*b into an FMA by itself:
# it pins that the dense loop (fused through math.FMA) and the sparse loops
# (kept unfused by their float64 conversions) still give the micro-kernels'
# bits when the compiler may choose.
test:
	$(GO) test ./...
	$(GO) test -tags purego ./internal/matrix ./internal/core ./internal/distnet
	$(GO) test -cpu 1,4 -run 'MultiplyBox|MultiplyColumn|Aggregat|OneTile' ./internal/core
	GOAMD64=v3 $(GO) test -tags purego ./internal/matrix ./internal/core

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
# could never run on the TCP executor without an import cycle. The root API
# and internal/engine are the engine; the simulated GPU, the cost model, the
# paper's experiments and comparison systems are the reproduction built on
# it, which plugs the GPU in as the engine's local multiplier — so imports
# point from the reproduction to the engine, and the root package's or
# internal/engine's non-test dependencies reaching internal/gpu, costmodel,
# experiments, systems or baselines fail here. Every Go file
# outside the build directories must be as gofmt prints it; the files it
# lists are the ones to format. The sparse kernels round each product apart
# (float64(a*b)) so that they give the same bits on every architecture; the
# amd64 compiler never fuses x += a*b, the arm64 one does where nothing
# forbids it, so internal/matrix is cross-compiled for arm64 and any fused
# multiply-add in spmm.go or kernels.go fails here with its file:line
# (gemm.go fuses on purpose, through math.FMA; the decompositions promise
# no bits).
vet:
	$(GO) vet ./...
	@unformatted=$$(find . -name '*.go' ! -path './.*' | xargs gofmt -l); if [ -n "$$unformatted" ]; then echo "$$unformatted" >&2; echo 'vet: the files above are not gofmt-formatted' >&2; exit 1; fi
	@if grep -rn --include='*.go' '"net/rpc"' .; then echo 'vet: net/rpc imported above; use internal/codec calls' >&2; exit 1; fi
	@if $(GO) list -deps ./internal/distnet | grep -xE 'distme/internal/(engine|ml)'; then echo 'vet: internal/distnet depends on the package above; it must not import internal/engine or internal/ml' >&2; exit 1; fi
	@if $(GO) list -deps . ./internal/engine | grep -xE 'distme/internal/(gpu|costmodel|experiments|systems|baselines)'; then echo 'vet: the root package or internal/engine depends on the package above; the reproduction plugs into the engine, not the other way round' >&2; exit 1; fi
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/matrix 2>&1) || { echo "$$asm" >&2; exit 1; }; \
	fused=$$(echo "$$asm" | grep -E '/internal/matrix/(spmm|kernels)\.go:[0-9]+\)[[:space:]]+FN?M(ADD|SUB)D[[:space:]]' | sed -E 's|.*/(internal/matrix/[a-z_]+\.go:[0-9]+)\)[[:space:]]+([A-Z]+).*|\1: \2|' | sort -u); \
	if [ -n "$$fused" ]; then echo "$$fused" >&2; echo 'vet: the arm64 compiler fused a sparse kernel step above; round the product apart with float64(a*b)' >&2; exit 1; fi

# Every ```go fence in README.md and docs/*.md must build against the
# current API, and every internal/<pkg>, cmd/<name> or examples/<name> path
# and every backticked exported pkg.Name or pkg.Type.Member README.md,
# DESIGN.md and docs/*.md mention must exist — documentation cannot rot
# silently.
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
# every surface change lands as a reviewable diff. It also fails, with its
# file:line, on any exported field of an exported …Options or …Config struct
# in the module that no non-test code sets (benchmark/ counts as a caller):
# the fields are matched by type, from source, which takes about 15 seconds.
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
# and for Gemm avx512 (the 8×24 tile, 8×8 for the last 8 or 16 columns;
# skipped where CPUID or XCR0 says no); DenseMulCSC adds a packed row, the
# product as a cuboid tile runs it. BenchmarkGemmTile runs each dense tile
# alone with its operands in L1 (pass -cpu 1): its GFLOPS row is the tile's
# ceiling, which for 8×24 is one 512-bit FMA a cycle.
# BenchmarkSparseFanout is the measurement behind sparseFlopsThreshold.
bench:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
