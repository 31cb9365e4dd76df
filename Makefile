GO ?= go
SEEDS ?= 10
FUZZTIME ?= 10s
E2E_DIR ?= /tmp/elmem-e2e
SCENARIOS ?=

.PHONY: build test benchmark-test race vet bench bench-skew bench-serve bench-tenant allocs chaos fuzz e2e examples check

## build: compile every package
build:
	$(GO) build ./...

## test: run the full test suite
test:
	$(GO) test ./...

## benchmark-test: the nested benchmark/ module's own tests. It is outside
## `go test ./...` but imports memproto, client and cluster, so a signature
## break must fail here, not in the acceptance run
benchmark-test:
	cd benchmark && $(GO) test .

## race: run the concurrency stress tests under the race detector — the
## data plane (cache/server/agentrpc), the control plane (taskgroup/
## core/agent/cluster), whose migration phases fan out across goroutines,
## and the root package's full-stack tests, which drive loadgen's
## concurrent request goroutines
race:
	$(GO) test -race . ./internal/cache/... ./internal/server/... \
		./internal/taskgroup/... ./internal/core/... ./internal/agent/... \
		./internal/cluster/... ./internal/faultnet/... ./internal/agentrpc/... \
		./internal/hotkey/... ./internal/client/...

## vet: run go vet across the module
vet:
	$(GO) vet ./...

## bench: every go-test benchmark in one run — cache lock striping and
## server throughput (single-lock vs sharded sub-benchmarks), the server
## hot path (in-process parse/handle/write, allocs/op must read 0) and
## loopback pipelining at depth 1/8/64, and the migration data plane's
## pairs/s with and without 5ms injected RTT (EXPERIMENTS.md keeps the
## historical JSON-vs-binary A/B that retired the JSON plane)
bench:
	$(GO) test -run '^$$' -bench . -benchmem -cpu 4 ./internal/cache/ ./internal/server/ ./internal/agentrpc/

## bench-skew: the hot-key replication load-spread experiment — a 4-node
## in-process cluster under adversarial Zipf θ=1.2 and flash-crowd reads;
## the regression bar is a ≥2× reduction in max-node/mean-node op ratio
## with replication on (see EXPERIMENTS.md)
bench-skew:
	$(GO) run ./cmd/elmem-bench -experiment skew

## bench-serve: the serve-through scaling experiment — concurrent Zipf
## read-through traffic (miss → simulated backing store → fill) driven
## across a live ScaleIn+ScaleOut, plain fills vs lease-protected; the
## regression bar is a measurably lower db-loads count with leases on and
## bounded p99 through both handovers (see EXPERIMENTS.md)
bench-serve:
	$(GO) run ./cmd/elmem-bench -experiment serve

## bench-tenant: the multi-tenant memory arbitration experiment — a
## noisy-neighbor tenant mix run unpartitioned, statically split, and
## under the MRC arbiter; the regression bars are a ≥15% aggregate
## hit-rate gain for arbitration over the static even split and the
## reserved-floor tenant within 5% of its isolated baseline, results in
## BENCH_tenant.json (see EXPERIMENTS.md)
bench-tenant:
	$(GO) run ./cmd/elmem-bench -experiment tenant

## allocs: the allocation regression gates — zero allocs/op on the server's
## data-path hot path and on the ownership table's per-op route (ReadPlan,
## InFlightHash; settled and mid-handover), the cluster client's
## per-request budget (Get, Set, single-owner MultiGet), phase-1
## metadata: a fixed allocation budget per (target, class) whatever the
## item count, at most 4 wire bytes per offered item over TCP, and the
## phase-3 push: at most 0.092 allocations per pair shipped, and the
## warm-restart snapshot writer: at most 0.05 allocations per pair written
allocs:
	$(GO) test -run TestHotPathAllocs -count 1 -v ./internal/server/
	$(GO) test -run 'TestReadPlanAllocs|TestInFlightHashAllocs' -count 1 -v ./internal/hashring/
	$(GO) test -run TestClientAllocs -count 1 -v ./internal/client/
	$(GO) test -run 'TestSendMetadataAllocsPerTargetClass|TestSendDataAllocsPerPair' -count 1 -v ./internal/agent/
	$(GO) test -run TestOfferWireBytesPerItem -count 1 -v ./internal/agentrpc/
	$(GO) test -run TestWriteSnapshotAllocsPerPair -count 1 -v ./internal/cache/

## chaos: the deterministic fault-injection sweep — SEEDS seeds, each run
## twice under faults plus once fault-free, checking the five migration
## invariants and schedule reproducibility; a failing seed replays with
## `go run ./cmd/elmem-chaos -seed <n>`
chaos:
	$(GO) run ./cmd/elmem-chaos -seeds $(SEEDS)

## fuzz: time-boxed native fuzzing of the decoders that read bytes off a
## socket or a file — the memcached request parser, the client-side reply
## reader, the agent frame decoder, the server's call-frame dispatch and the
## snapshot reader — and of the arena chunk layout (every item field reads
## back, the expiry tail never overlaps the key or the value)
fuzz:
	$(GO) test -fuzz FuzzParser -fuzztime $(FUZZTIME) ./internal/memproto/
	$(GO) test -fuzz FuzzReplyReader -fuzztime $(FUZZTIME) ./internal/memproto/
	$(GO) test -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/agentrpc/
	$(GO) test -fuzz FuzzDispatch -fuzztime $(FUZZTIME) ./internal/agentrpc/
	$(GO) test -fuzz FuzzRestoreSnapshot -fuzztime $(FUZZTIME) ./internal/cache/
	$(GO) test -fuzz FuzzChunkLayout -fuzztime $(FUZZTIME) ./internal/cache/

## e2e: the process-level end-to-end suite — real elmem-node/-master/
## -loadgen binaries driven through scripted failure scenarios (crash-
## restart mid-migration, master restart, partitions, clock skew, payload
## sweeps, warm-restart snapshots). Filter with SCENARIOS=crash,partition;
## process logs land under $(E2E_DIR)/logs/<scenario>/
e2e:
	$(GO) run ./cmd/elmem-e2e -workdir $(E2E_DIR) -scenarios '$(SCENARIOS)'

## examples: build every example program and run the two self-checking
## ones (quickstart, fusecache-demo) to completion
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/fusecache-demo

## check: everything the CI gate runs
check: build vet test benchmark-test race allocs chaos fuzz examples e2e
