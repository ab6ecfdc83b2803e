# Local mirror of .github/workflows/ci.yml: `make ci` runs the same
# lint + test + bench-smoke gates the workflow does, so a green local
# run means a green pipeline.

GO ?= go

# Keep in sync with the bench-smoke job in .github/workflows/ci.yml.
BENCH_PATTERN := BenchmarkSingleFlow|BenchmarkReceiveBatch|BenchmarkManyFlows|BenchmarkWorkerScaling|BenchmarkDispatch|BenchmarkTelemetryOverhead
BENCH_PKGS    := ./internal/softswitch ./internal/softswitch/runtime

SHELL := /bin/bash -o pipefail

.PHONY: all lint lint-baseline fuzz-smoke test bench bench-baseline chain-budget fleetsim-smoke migrate-smoke ci

all: ci

# Keep in sync with the staticcheck step in .github/workflows/ci.yml.
STATICCHECK_VERSION := 2024.1.1

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/harmlesslint -baseline lint-baseline.json ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; fi
	$(MAKE) fuzz-smoke

# Refresh lint-baseline.json (commit the result deliberately). The
# baseline should normally be empty: burn a finding in only while its
# fix is genuinely deferred — stale entries fail `make lint` so the
# file can only shrink honestly.
lint-baseline:
	$(GO) run ./cmd/harmlesslint -write-baseline lint-baseline.json ./...

# ~10s per fuzz target (keep in sync with the lint job in
# .github/workflows/ci.yml): catches wire decoders that panic on
# near-valid frames, in-place VLAN ops that disagree with their copying
# reference, an SNMP BER decoder that panics, and a scenario loader
# that accepts what it cannot round-trip or run, as soon as they land.
FUZZ_PKGS := ./internal/openflow ./internal/pkt ./internal/sim ./internal/snmp

fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
			$(GO) test -run "^$$target$$" -fuzz "^$$target$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

test:
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race -short ./...

# The smoke run: every key datapath bench must complete (-benchtime 1x,
# -count 2), then benchdiff -check fails on panics / FAILs /
# 0-iteration rows and prints the delta vs the committed baseline.
# The cached-vs-uncached pair gate needs real timings, so it reruns
# BenchmarkManyFlows measured (-benchtime 20000x) and fails if the flow
# cache is a net tax on ANY workload — same-run siblings, so the gate
# holds on any hardware. The whole-repo sweep then proves every other
# bench still runs too.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -count 2 $(BENCH_PKGS) 2>&1 | tee bench.txt
	$(GO) run ./cmd/benchdiff -bench bench.txt -baseline BENCH_BASELINE.json -check
	$(GO) test -run '^$$' -bench 'BenchmarkManyFlows' -benchtime 20000x ./internal/softswitch 2>&1 | tee bench-pairs.txt
	$(GO) run ./cmd/benchdiff -bench bench-pairs.txt -check -pair-check
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... 2>&1 | tee bench-full.txt
	$(GO) run ./cmd/benchdiff -bench bench-full.txt -check > /dev/null
	$(MAKE) chain-budget

# The chain hit path's budget, from one traced 5 s perfbench run of
# chain-fastpath: fails when the benchmark exits nonzero (a gate
# failed, or it could not run), and reports the per-frame allocations,
# the GC cycles per million frames and the chain/bare-softswitch ratio
# to $GITHUB_STEP_SUMMARY (stdout outside CI).
CHAIN_BUDGET_METRICS := alloc.objects_per_frame alloc.bytes_per_frame gc.cycles_per_mframe softswitch.chain_over_bare

chain-budget:
	bash perfbench/run.sh --workload chain-fastpath --seed 1 --seconds 5 --trace 1 > chain-budget.json
	@line="$$(tail -n 1 chain-budget.json)"; \
	{ echo "## Chain hit-path budget (chain-fastpath, traced, 5 s)"; echo; \
	  echo "| metric | value |"; echo "|---|---|"; \
	  for m in $(CHAIN_BUDGET_METRICS); do \
		v="$$(echo "$$line" | grep -o "\"$$m\": *{\"value\": *[^,}]*" | sed 's/.*: *//')"; \
		echo "| $$m | $${v:-missing} |"; \
	  done; } >> "$${GITHUB_STEP_SUMMARY:-/dev/stdout}"

# Refresh BENCH_BASELINE.json on the current machine (commit the
# result deliberately). Same -benchtime 1x regime as the smoke run so
# deltas compare like with like; more -count samples for stability.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -count 5 $(BENCH_PKGS) 2>&1 | tee bench.txt
	$(GO) run ./cmd/benchdiff -bench bench.txt -write BENCH_BASELINE.json \
		-note "make bench-baseline snapshot (-benchtime 1x -count 5); deltas vs different hardware are informational"

# Mirror of the fleetsim-smoke CI job: 1040 switches and 1M flow
# arrivals on virtual time, run twice; both digests must match the one
# recorded in examples/fleetsim/ci-smoke.digest bitwise, and the
# packet-mode failover scenario must pass its zero-loss checks.
fleetsim-smoke:
	$(GO) build -o fleetsim ./cmd/fleetsim
	./fleetsim -scenario examples/fleetsim/ci-smoke.json -wall-budget 55s -v -out verdict-a.json > /dev/null
	./fleetsim -scenario examples/fleetsim/ci-smoke.json -wall-budget 55s -out verdict-b.json > /dev/null
	@da="$$(grep -o '"digest": *"[0-9a-f]*"' verdict-a.json | grep -o '[0-9a-f]\{64\}')"; \
	db="$$(grep -o '"digest": *"[0-9a-f]*"' verdict-b.json | grep -o '[0-9a-f]\{64\}')"; \
	want="$$(cat examples/fleetsim/ci-smoke.digest)"; \
	echo "run A:    $$da"; echo "run B:    $$db"; echo "recorded: $$want"; \
	test -n "$$da" && test "$$da" = "$$db" && test "$$da" = "$$want"
	./fleetsim -scenario examples/fleetsim/packet-failover.json -wall-budget 55s > /dev/null

# Mirror of the migrate-smoke CI job: the example three-wave campaign
# (one wave killed by a mid-soak server death and rolled back, one
# controller failover survived) run twice; both runs must pass their
# zero-loss + cost-conformance verdicts and produce bitwise-identical
# digests.
migrate-smoke:
	$(GO) build -o migrate-bin ./cmd/migrate
	./migrate-bin -spec examples/migrate/campaign.json -wall-budget 55s -v -out campaign-a.json > /dev/null
	./migrate-bin -spec examples/migrate/campaign.json -wall-budget 55s -out campaign-b.json > /dev/null
	@da="$$(grep -o '"digest": *"[0-9a-f]*"' campaign-a.json)"; \
	db="$$(grep -o '"digest": *"[0-9a-f]*"' campaign-b.json)"; \
	echo "run A: $$da"; echo "run B: $$db"; \
	test -n "$$da" && test "$$da" = "$$db"

ci: lint test bench fleetsim-smoke migrate-smoke
