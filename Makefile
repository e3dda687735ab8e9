GO ?= go

.PHONY: build test vet bench bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo's benchmark: four serving workloads, end-to-end and per-layer
# metrics (see BENCHMARK.json and bench/privspbench/README.md).
bench:
	$(GO) run ./bench/privspbench

# Bit-rot guard, measures nothing: the benchmark harness at a twentieth of
# the work, then one iteration of every go-test benchmark: the serving path
# (scan kernels, stores, the paper's tables, the client graph's region
# assembly, in-process and loopback queries), the build's pre-computation
# and KD-tree packing, and the graph's searches.
bench-smoke:
	$(GO) run ./bench/privspbench -smoke
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/pir/ ./internal/scheme/base/ ./internal/precomp/ \
		./internal/graph/ ./internal/kdtree/ ./internal/server/
