# Developer conveniences. Everything here is plain go tooling; the
# targets only save typing.

GO ?= go

# Headline-benchmark artifact checked by benchdiff: its embedded
# baseline (the previous PR's tree, re-measured on the same box when
# the artifact was generated) against its "after" rows. Override when a
# new PR lands a fresh artifact: make benchdiff BENCH_HEAD=BENCH_PR10.json
# Cross-artifact diffs remain available by hand:
#   go run ./cmd/benchtab -benchdiff BENCH_PR7.json,BENCH_PR8.json
# but are not the gate, because box-speed drift between PRs would be
# indistinguishable from code regressions.
BENCH_HEAD ?= BENCH_PR10.json

.PHONY: all build test race bench bench-json bench-smoke bench-module benchdiff vet staticcheck fmt check chaos crash-torture examples obs-smoke obs-ingest-smoke load-smoke tables fuzz clean

all: build vet test

# Pre-merge gate: static checks (vet always, staticcheck when
# installed), the observability smoke (cluster trace + leak ledger end to end),
# the streaming-ingestion smoke (dlaload burst, zero lost acks),
# the crash-recovery torture suites, the full race-enabled test suite
# (uncached, so a flaky test cannot hide behind a cached pass), a
# single-iteration pass over every benchmark so perf-path regressions
# that only benchmarks exercise break the gate too, the bench/ module
# (its own go.mod, so ./... never reaches it), and the
# headline-benchmark diff between the committed artifacts.
check: bench-smoke bench-module vet staticcheck obs-smoke obs-ingest-smoke load-smoke crash-torture benchdiff
	$(GO) test -race -count=1 ./...

# The end-to-end benchmark harness lives in its own module under
# bench/; vet it and run its smoke tests against this checkout.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# Observability smoke: boot a 3+-node in-memory cluster, run one
# conjunction query, and assert a merged >=3-node cluster trace plus a
# non-empty per-querier leak ledger through the dlactl merge paths.
obs-smoke:
	$(GO) test -run '^TestObsSmoke$$' -count=1 -v ./cmd/dlactl/

# Ingest-plane observability smoke: a 3-node durable cluster takes an
# appender burst, then every write-pipeline stage histogram, the
# ordered glsn watermarks, the flight recorder (HTTP + dlactl flight),
# and the dlactl top table are asserted, with a redaction sweep over
# all of it.
obs-ingest-smoke:
	$(GO) test -run '^TestObsIngestSmoke$$' -count=1 -v ./cmd/dlactl/

# Ingestion smoke: the dlaload burst scenario against a memnet cluster
# through the loadgen engine — every record acked, zero lost acks, and a
# non-empty knee row with the synchronous baseline in the same run.
load-smoke:
	$(GO) test -run '^TestLoadSmoke$$' -count=1 -v ./internal/loadgen/

# staticcheck is optional tooling; skip quietly where not installed.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Fault-schedule suite: crash/restart, seeded loss, degraded auditing,
# with every node journaling to its segment store.
chaos:
	$(GO) test -run Chaos -tags chaos -count=1 ./internal/chaos/

# Recovery torture: crash-loop the segment store alone, then a 3-node
# cluster on it, with seeded torn-tail/failed-fsync/bit-flip injection.
# TORTURE_SEED=n varies the fault schedule.
crash-torture:
	$(GO) test -race -tags torture -run Torture -count=1 \
		./internal/storage/ ./internal/chaos/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: compiles and executes the perf
# paths without measuring them. Cheap enough to run pre-merge.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Hot-path acceptance numbers -> $(BENCH_HEAD) (see scripts/bench.sh),
# then diff its baseline/after sections to catch headline regressions.
bench-json:
	./scripts/bench.sh
	$(GO) run ./cmd/benchtab -benchdiff $(BENCH_HEAD)

# Check the committed bench artifact (baseline vs after): fails on >10%
# ns/op regression of either headline benchmark, or on any row missing
# alloc fields.
benchdiff:
	$(GO) run ./cmd/benchtab -benchdiff $(BENCH_HEAD)

# Regenerate every paper table and figure plus measured claims.
tables:
	$(GO) run ./cmd/benchtab -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ecommerce-audit
	$(GO) run ./examples/intrusion-detection
	$(GO) run ./examples/membership

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=60s ./internal/query/

clean:
	rm -rf bin provision
