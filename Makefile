GO ?= go
FUZZTIME ?= 5s

.PHONY: build test race short bench bench-test ab examples vet lint check fuzz serve-smoke distributed-smoke cli-smoke experiments

build:
	$(GO) build ./...

# experiments rewrites every table of EXPERIMENTS.md: the region between
# <!-- experiments:ID --> and <!-- /experiments:ID --> becomes
# `cmd/experiments -exp=all`'s region of the same ID (about 10 s; the
# timed cells are medians of 5 sequential sweeps). Prose outside the
# markers is kept. internal/experiments' tests diff every other cell.
experiments:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out" "$$out.md"' EXIT; \
	$(GO) run ./cmd/experiments -exp=all > "$$out"; \
	awk 'FNR == NR { if ($$1 == "<!--" && $$2 ~ /^experiments:/) id = $$2; \
	                 if (id != "") region[id] = region[id] $$0 "\n"; \
	                 if ($$2 ~ /^\/experiments:/) id = ""; next } \
	     $$1 == "<!--" && $$2 ~ /^experiments:/ { printf "%s", region[$$2]; skip = 1; next } \
	     skip { if ($$2 ~ /^\/experiments:/) skip = 0; next } \
	     { print }' "$$out" EXPERIMENTS.md > "$$out.md"; \
	cp "$$out.md" EXPERIMENTS.md

test: fuzz
	$(GO) test ./...

# fuzz smoke: run each hostile-input fuzzer briefly beyond its checked-in
# seed corpus (go test accepts one -fuzz target per invocation, hence one
# run each). FUZZTIME=2m makes it a real session.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=$(FUZZTIME) ./internal/data
	$(GO) test -run='^$$' -fuzz='^FuzzReadTable$$' -fuzztime=$(FUZZTIME) ./internal/data
	$(GO) test -run='^$$' -fuzz='^FuzzReadStore$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz='^FuzzReadStoreTypedErrors$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz='^FuzzRunFrame$$' -fuzztime=$(FUZZTIME) ./internal/serve

# serve-smoke drives the statistics daemon end to end: run -save-stats,
# observe upload, optimize solve + cache hit, metrics, SIGTERM drain; then a
# daemon with one solve slot and no queue under a dozen concurrent requests:
# zero 5xx, the 429 shed path must fire and be counted, clean drain.
serve-smoke:
	./scripts/serve_smoke.sh

# distributed-smoke runs a coordinator against two real worker processes:
# a -metrics json run and a schedule on the live fleet, then a run with one
# worker SIGKILLed mid-run, each with stdout byte-identical to the
# single-process run.
distributed-smoke:
	./scripts/distributed_smoke.sh

# cli-smoke runs every design-time subcommand and every (subcommand, flag)
# pair no other smoke drives, one asserted line each, checks that flags a
# subcommand does not read are usage errors, then runs cmd/experiments
# against EXPERIMENTS.md (a few seconds after the builds).
cli-smoke:
	./scripts/cli_smoke.sh

# The block scheduler and the concurrent store are the main race surface;
# this is the gate CI runs in addition to the plain test job. Timed one
# package at a time on a 2-CPU, 8 GB host: internal/core 99 s,
# experiments 67 s, optimizer 58 s (it runs 1,469 join trees, each a whole
# workflow), engine 28 s, estimate 23 s, every other package under 20 s,
# and internal/suite about 4 min (run one golden subtest at a time,
# process start-ups included). Twice the slowest is under go test's default
# 10m package budget, so none is set. The detector is hungry: experiments
# peaks at 4.0 GB RSS, estimate and wftest each at 5.4–5.8 GB and
# internal/suite above 6 GB (wf16's goldens), so on a host that small run
# `go test -race -p 1 ./...`.
race:
	$(GO) test -race ./...

short:
	$(GO) test -short ./...

# bench runs the repository's benchmark (BENCHMARK.json, bench/README.md):
# each of the four workloads once, end-to-end metrics on stdout.
bench:
	@set -e; for w in plan-heavy exec-heavy serve-churn dist-run; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 30 --trace 0; \
	done

# ab compares the working tree with commit REF by the alternated-pairs
# protocol (scripts/ab.sh): 10 pairs per workload, medians, quartiles,
# per-pair wins and a sign test on every end-to-end metric.
#   make ab REF=HEAD~1 [WORKLOADS="plan-heavy serve-churn"]
ab:
	bash scripts/ab.sh $(REF) $(WORKLOADS)

# bench-test compiles and tests the benchmark harness. bench/ is a nested
# module that `go test ./...` never sees, so an exported-API change under
# internal/ that breaks it shows up only here.
bench-test:
	cd bench && $(GO) test .

# examples smoke-runs every runnable example program; each must exit 0.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

vet:
	$(GO) vet ./...

# lint always vets and fails on a file gofmt would change (the repository's
# own files: the benchmark's build directory holds exported copies of other
# commits); staticcheck runs only where it is installed (CI installs it,
# minimal dev containers may not have it).
lint: vet
	@unformatted=$$(gofmt -l $$(git ls-files -co --exclude-standard '*.go')); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

check: build lint test race
