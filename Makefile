# MINOS reproduction — build / test / lint entry points.
# CI (.github/workflows/ci.yml) runs exactly these targets.

GO ?= go

.PHONY: all build test race lint vet check bench-module bench-smoke bench-live bench-node bench-obs bench-offload bench-scale clean

all: build

build:
	$(GO) build ./...

# Tier-1 gate: plain unit tests (includes the analyzer fixtures).
test:
	$(GO) test ./...

# Race-detector pass. The simulation-heavy experiments package runs
# 10-20x slower under -race; the generous timeout is deliberate.
race:
	$(GO) test -race -timeout 45m ./...

# go vet plus the protocol/determinism analyzers (internal/lint). The
# full nine-analyzer suite runs whole-program (facts flow across
# packages) and writes a SARIF 2.1.0 log for code-scanning upload; its
# wall clock is printed to stderr (budget: well under 2 minutes).
lint: vet
	$(GO) run ./cmd/minos-lint -sarif minos-lint.sarif ./...

# vet also fails when the toolchain's gofmt would reformat, or cannot
# parse, any Go file outside the vendored third_party/ tree (go vet
# skips testdata, so this is the only parse check the fixtures get).
vet:
	$(GO) vet ./...
	@files=$$(git ls-files --cached --others --exclude-standard '*.go' | grep -v '^third_party/') && [ -n "$$files" ] \
		|| { echo "gofmt check: no Go files listed (not a git worktree?)"; exit 1; }; \
	unformatted=$$(echo "$$files" | xargs "$$($(GO) env GOROOT)/bin/gofmt" -l 2>&1) \
		|| { echo "gofmt failed:"; echo "$$unformatted"; exit 1; }; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

check: lint test

# minosbench/ is a Go module of its own (it replaces the root module
# with ../), so the root build and tests skip it; vet and test it here.
bench-module:
	cd minosbench && $(GO) vet ./... && $(GO) test ./...

# Quick-scale sweep with the parallel runner; records per-figure wall
# clock in BENCH_sweep.json (CI uploads it as the perf trajectory).
bench-smoke:
	$(GO) run ./cmd/minos-bench -requests 400 -ablations -json BENCH_sweep.json > /dev/null

# Live cluster over loopback TCP: all five models through the batched
# wire path. Updates the "after.live" section of BENCH_live.json in
# place (the committed before/after microbenchmark numbers are kept).
bench-live:
	$(GO) run ./cmd/minos-live -nodes 3 -workers 4 -requests 400 -tcp -json BENCH_live.json

# Node write-path benchmarks: serial and parallel write
# microbenchmarks per model over both the channel fabric ("mem") and
# the shared-memory ring fabric ("ring", which also engages the nodes'
# run-to-completion mode), plus livebench Lin-Synch throughput runs,
# with the NVM delay off and at the paper's 1295 ns. Updates the
# "after" section of BENCH_node.json in place (the committed "before"
# baseline rows — fabric-less, i.e. mem — are kept). CI uploads the
# result as the bench-node artifact.
bench-node:
	$(GO) run ./cmd/minos-benchnode -label after -json BENCH_node.json

# MINOS-B vs MINOS-O: the same livebench cells with the soft-NIC
# offload engine off ("before") and on ("after"), across both
# in-process fabrics, uniform/zipfian/hot-churn key distributions, and
# two persistency models (Lin-Synch, Lin-Strict). Writes both labels
# of BENCH_offload.json in one run. CI uploads it as bench-offload.
bench-offload:
	$(GO) run ./cmd/minos-benchoffload -requests 1500 -json BENCH_offload.json

# Open-loop scale sweep: the coordinated-omission-safe load engine
# drives 1M logical clients over 16 connections against a 5-node
# cluster, doubling the offered rate until goodput falls off the knee,
# per persistency model × fabric (ring, tcp) × offload mode. Writes
# BENCH_scale.json. Pass SCALE_FLAGS=-smoke for the short CI variant
# (one small ring cell); CI uploads the result as bench-scale.
bench-scale:
	$(GO) run ./cmd/minos-benchscale $(SCALE_FLAGS) -json BENCH_scale.json

# Observability overhead: the serial write microbenchmark with tracing
# off, sampled (1-in-8, the production default), and full, per model.
# Fails if sampled tracing costs >= 5% on the no-delay write path.
# Updates the "after" section of BENCH_obs.json in place.
bench-obs:
	$(GO) run ./cmd/minos-benchobs -label after -json BENCH_obs.json

clean:
	$(GO) clean ./...
