# Developer conveniences. Everything here is plain go tooling; the
# targets only save typing.

GO ?= go

.PHONY: all build test race bench bench-smoke bench-module vet staticcheck fmt check chaos crash-torture examples obs-smoke obs-ingest-smoke tables fuzz clean

all: build vet test

# Pre-merge gate: a single-iteration pass over every benchmark so
# perf-path regressions that only benchmarks exercise break the gate
# too, the bench/ module (its own go.mod, so ./... never reaches it),
# static checks (vet always, staticcheck when installed), the
# observability smokes (cluster trace + leak ledger, ingest pipeline),
# the build-tagged fault-schedule and crash-recovery torture suites
# (tier-1 never compiles them), every example program, the full
# race-enabled test suite (uncached, so a flaky test cannot hide behind
# a cached pass), and the journal tests, the held-record readers racing
# overwrites and deletes, the fragment store against its reference
# model, the attribute index (its Compare semantics, with the real
# string hash and through collision chains), the writer's record encoder against its field-by-field
# reference path, the Appender's glsn leases and shared ack slabs
# beside concurrent writers, the sequencer's vote count (per peer, stale
# votes dropped), the integrity circulation (checks from every node at
# once, sweeps, a copied fragment, a dead peer, a remote sweep whose
# requester stops waiting or whose report must beat its deadline),
# the fixed-base paths (concurrent same-base table builds, the pooled
# fold scratch), the audit plane's certified, cross-node, union and
# index-versus-scan queries with its differential test against the
# centralized baseline, its cross-node predicates (what their TTP and
# holders see, the binding of each tag to its glsn, the ledger) and
# conjunctions through a blind TTP (rigged TTPs included), the
# blind-TTP batch comparison and intersection (the TTP's refusals, a
# holder's refusal of a bad verdict or seed, a JSON body from an older
# node), and secure set union (its members' views, the permuted decrypt
# batch), again at GOMAXPROCS 1, 2 and 8, where their interleavings
# differ most.
check: bench-smoke bench-module vet staticcheck obs-smoke obs-ingest-smoke chaos crash-torture examples
	$(GO) test -race -count=1 ./...
	$(GO) test -race -count=3 -cpu 1,2,8 -run 'Journal|WAL|Compact|Replay|Staged|Pipelined|Materialize|VisitFragments|Fragstore|Index|RecordEncoder|Appender|Lease|Propose|Vote' ./internal/cluster/
	$(GO) test -race -count=3 -cpu 1,2,8 -run 'Check' ./internal/integrity/
	$(GO) test -race -count=3 -cpu 1,2,8 -run 'FixedBase|FirstHop' ./internal/mathx/ ./internal/crypto/commutative/
	$(GO) test -race -count=3 -cpu 1,2,8 -run 'Certified|Centralized|Cross|IndexScan|Differential|Union|Conj|Final|TTP' ./internal/audit/
	$(GO) test -race -count=3 -cpu 1,2,8 -run 'Batch|Intersect|JSON' ./internal/smc/compare/
	$(GO) test -race -count=3 -cpu 1,2,8 -run Union ./internal/smc/union/

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

# Formatting is part of vet: any file gofmt would rewrite fails it.
# The tagged fault-schedule and torture suites are vetted too, since
# tier-1 never compiles them.
vet:
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) vet -tags 'chaos torture' ./internal/chaos/ ./internal/storage/

fmt:
	gofmt -l -w .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: compiles and executes the perf
# paths without measuring them. Cheap enough to run pre-merge; the
# timeout fails a wedged benchmark after 30 s rather than after go
# test's 10-minute default (the whole pass takes ~8 s, its slowest
# package ~3 s, on 2 vCPUs).
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -timeout 30s ./...

# Regenerate every paper table and figure plus the eqs. 10-13 sweeps.
tables:
	$(GO) run ./cmd/benchtab -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ecommerce-audit
	$(GO) run ./examples/intrusion-detection
	$(GO) run ./examples/membership
	$(GO) run ./examples/streaming

# Every fuzz target in the tree for 10s each, found with go test -list
# (which prints a package's matching names, then its "ok <pkg>" line);
# go test -fuzz takes one target per run. Not part of check: it is a
# time-boxed search, not a gate.
fuzz:
	@set -e; \
	targets=$$($(GO) test -list '^Fuzz' ./... | \
		awk '/^Fuzz/ { n[++k] = $$1 } /^ok/ { for (i = 1; i <= k; i++) print n[i] ":" $$2; k = 0 }'); \
	[ -n "$$targets" ]; \
	for t in $$targets; do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "== $$name ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz="^$$name\$$" -fuzztime=10s "$$pkg"; \
	done

clean:
	rm -rf bin provision
