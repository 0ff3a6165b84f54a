# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test bench bench-json bench-serve bench-coord phase-baseline phase-gate cover fuzz examples atmbench clean

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# Regenerates every paper table/figure plus the ablations.
bench:
	go test -bench=. -benchmem ./...

# Engine throughput and cache-effectiveness report: the example nets plus
# a generated 50-net corpus, one cold pass and two warm passes through one
# engine, with a serial rerun of the cold pass for the speedup ratio.
# Writes BENCH_engine.json (cold and warm throughput are reported
# separately; see docs/TRACING.md) and the per-job checkpoint journal
# BENCH_journal.jsonl (crash-safe resume evidence; CI uploads both),
# compacted to one line per canonical hash before upload.
bench-json:
	rm -f BENCH_journal.jsonl
	go run ./cmd/qssd -gen 50 -repeat 3 -workers 4 -compare-serial \
		-mk 9,10 -margin \
		-journal BENCH_journal.jsonl \
		-o BENCH_engine.json examples/nets/*.pn
	go run ./cmd/qssd -journal BENCH_journal.jsonl -compact
	@grep -E '"(cold_nets_per_sec|warm_nets_per_sec|hit_rate|speedup|gomaxprocs)"' BENCH_engine.json
	@grep -m1 -E '"(deadline|mk)"' BENCH_engine.json

# Service throughput report (see docs/SERVICE.md): boot the sharded HTTP
# service on a free port, drive the same corpus through it over HTTP (one
# cold pass + two warm passes), and write BENCH_service.json with
# requests/sec and the cold-miss / warm-hit cache split. The server is
# shut down gracefully (SIGINT -> drain + journal flush) afterwards.
bench-serve:
	go build -o /tmp/qssd_bench ./cmd/qssd
	rm -rf /tmp/qssd_bench_journal /tmp/qssd_serve.log && mkdir -p /tmp/qssd_bench_journal
	/tmp/qssd_bench serve -addr 127.0.0.1:0 -shards 2 -workers 4 \
		-journal-dir /tmp/qssd_bench_journal > /tmp/qssd_serve.log 2>&1 & \
	SRV=$$!; \
	ADDR=""; \
	for i in $$(seq 1 100); do \
		ADDR=$$(sed -n 's|^qssd: serving on \(http://[^ ]*\).*|\1|p' /tmp/qssd_serve.log); \
		[ -n "$$ADDR" ] && break; sleep 0.1; \
	done; \
	[ -n "$$ADDR" ] || { cat /tmp/qssd_serve.log; kill $$SRV 2>/dev/null; echo "bench-serve: server never came up"; exit 1; }; \
	/tmp/qssd_bench -server $$ADDR -gen 50 -repeat 3 -workers 4 \
		-o BENCH_service.json examples/nets/*.pn || { kill -INT $$SRV; exit 1; }; \
	kill -INT $$SRV; wait $$SRV
	@grep -E '"(requests_per_sec|cold_nets_per_sec|warm_nets_per_sec|server_url)"' BENCH_service.json
	@grep -E '"(cold_cache|warm_cache)"' BENCH_service.json

# Coordinator availability report (see docs/SERVICE.md): boot three
# single-shard backends and a coordinator in front, drive the phase
# corpus through the coordinator, SIGKILL one backend two seconds into
# the run, and write BENCH_coord.json. Availability should stay 1.0 and
# the coordinator's failover counter nonzero — the kill lands mid-batch
# and the survivors absorb the dead host's prefix range. Everything is
# shut down gracefully (SIGINT -> drain) afterwards; the killed backend
# is reaped with `wait || true` since SIGKILL is the point.
bench-coord:
	go build -o /tmp/qssd_bench ./cmd/qssd
	rm -f /tmp/qssd_coord.log /tmp/qssd_b0.log /tmp/qssd_b1.log /tmp/qssd_b2.log /tmp/qssd_coord.jsonl
	set -e; \
	PIDS=""; ADDRS=""; \
	for i in 0 1 2; do \
		/tmp/qssd_bench serve -addr 127.0.0.1:0 -shards 1 -workers 2 \
			> /tmp/qssd_b$$i.log 2>&1 & \
		PIDS="$$PIDS $$!"; \
	done; \
	for i in 0 1 2; do \
		A=""; \
		for t in $$(seq 1 100); do \
			A=$$(sed -n 's|^qssd: serving on \(http://[^ ]*\).*|\1|p' /tmp/qssd_b$$i.log); \
			[ -n "$$A" ] && break; sleep 0.1; \
		done; \
		[ -n "$$A" ] || { cat /tmp/qssd_b$$i.log; kill $$PIDS 2>/dev/null; echo "bench-coord: backend $$i never came up"; exit 1; }; \
		ADDRS="$$ADDRS,$$A"; \
	done; \
	ADDRS=$${ADDRS#,}; \
	/tmp/qssd_bench coord -addr 127.0.0.1:0 -backends "$$ADDRS" \
		-journal /tmp/qssd_coord.jsonl -probe-interval 100ms -breaker-threshold 2 \
		> /tmp/qssd_coord.log 2>&1 & \
	CRD=$$!; \
	COORD=""; \
	for t in $$(seq 1 100); do \
		COORD=$$(sed -n 's|^qssd: coordinating on \(http://[^ ]*\).*|\1|p' /tmp/qssd_coord.log); \
		[ -n "$$COORD" ] && break; sleep 0.1; \
	done; \
	[ -n "$$COORD" ] || { cat /tmp/qssd_coord.log; kill $$PIDS $$CRD 2>/dev/null; echo "bench-coord: coordinator never came up"; exit 1; }; \
	VICTIM=$$(echo $$PIDS | awk '{print $$1}'); \
	( sleep 1; kill -9 $$VICTIM 2>/dev/null ) & \
	/tmp/qssd_bench -server $$COORD -gen 200 -gen-seed 1 -repeat 3 -workers 4 -mk 9,10 -margin \
		-o BENCH_coord.json examples/nets/*.pn || { kill -INT $$CRD $$PIDS 2>/dev/null; exit 1; }; \
	kill -INT $$CRD; wait $$CRD; \
	for p in $$PIDS; do kill -INT $$p 2>/dev/null || true; done; wait || true
	@grep -E '"(availability|latency_p50_ms|latency_p99_ms|requests_per_sec)"' BENCH_coord.json
	@grep -oE '"(failovers|retries|degraded_serves|unavailable)": *[0-9]+' BENCH_coord.json

# Phase-regression gate (see docs/TRACING.md): run a small fixed traced
# corpus and compare each phase's total time (>2x fails) and count
# (>1.25x fails) against the committed BENCH_phases.json. phase-baseline
# refreshes the committed baseline from the same corpus.
PHASE_CORPUS = -gen 20 -gen-seed 1 -workers 4 -mk 9,10 -margin
phase-gate:
	go run ./cmd/qssd $(PHASE_CORPUS) -o /tmp/phasegate_run.json
	go run ./cmd/phasegate -report /tmp/phasegate_run.json -baseline BENCH_phases.json

phase-baseline:
	go run ./cmd/qssd $(PHASE_CORPUS) -o /tmp/phasegate_run.json
	go run ./cmd/phasegate -report /tmp/phasegate_run.json -baseline BENCH_phases.json -write

cover:
	go test -coverprofile=cover.out ./...
	go tool cover -func=cover.out | tail -1

fuzz:
	go test -fuzz='FuzzParse$$' -fuzztime=30s ./internal/petri/
	go test -fuzz='FuzzParsePN$$' -fuzztime=30s ./internal/petri/
	go test -fuzz='FuzzFarkasLadder$$' -fuzztime=30s ./internal/linalg/
	go test -fuzz='FuzzRestrictTInvariants$$' -fuzztime=30s ./internal/invariant/
	go test -fuzz='FuzzWeaklyHard$$' -fuzztime=30s ./internal/timing/

examples:
	go run ./examples/quickstart
	go run ./examples/multirate
	go run ./examples/pipeline
	go run ./examples/multitask
	go run ./examples/protocol
	go run ./examples/atmserver

atmbench:
	go run ./cmd/atmbench

clean:
	rm -f cover.out test_output.txt bench_output.txt BENCH_engine.json BENCH_journal.jsonl BENCH_service.json BENCH_coord.json
