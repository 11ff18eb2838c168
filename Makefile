GO ?= go

.PHONY: check build fmt vet test race fuzz fuzz-smoke bench-smoke obs-race metrics-smoke shard-chaos replica-chaos replica-smoke router-chaos partition-chaos loc

## check: everything CI should gate on — formatting, vet, every test
## under the race detector (twice each: the chaos suites that used to run
## again in targets of their own below are part of ./..., and the second
## pass keeps the second chance those runs gave a flaky test to show),
## the fuzz targets over their seed corpora, and bench-smoke: the bench/
## harness is a module of its own that imports internal/, so only this
## target notices when a change to those packages breaks it
check: fmt vet race fuzz-smoke bench-smoke

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on -count=2 ./...

## obs-race: the observability layer's concurrency tests, unconditionally
## re-run (-count=1) — lock-free Record paths racing the exporter
obs-race:
	$(GO) test -race -count=1 ./internal/obs

## shard-chaos: the shard-kill chaos suite, unconditionally re-run under
## the race detector — panics and sticky WAL failures injected into live
## mixed traffic must stay contained to their shard; plus all of
## internal/shard, unfiltered: its lifecycle suites (breaker, supervisor,
## truncate, reseed and their property test) are not all named Shard
shard-chaos:
	$(GO) test -race -count=1 -run Shard ./internal/serve
	$(GO) test -race -count=1 ./internal/shard

## replica-chaos: the replication chaos suite, unconditionally re-run
## under the race detector — primary kill + POST /admin/promote must
## preserve every acked shipped write, a deposed primary must start fenced, and a
## rejoining node must truncate its divergent tail and drain lag to 0;
## plus all of internal/replica, unfiltered: its meta, fencing, snapshot
## and role-rule suites are not all named Replica
replica-chaos:
	$(GO) test -race -count=1 -run Replica ./internal/serve
	$(GO) test -race -count=1 ./internal/replica

## router-chaos: the routing chaos suite, unconditionally re-run under
## the race detector — with live traffic flowing through rrc-router,
## killing the primary must lose zero acked writes, reads must keep
## serving throughout, the router must converge on the promoted node
## unaided, and a rejoining deposed primary must be fenced on contact;
## plus all of internal/router, unfiltered: its retry-budget, topology,
## retention and upstream suites are not all named Router
router-chaos:
	$(GO) test -race -count=1 -run Router ./internal/serve
	$(GO) test -race -count=1 ./internal/router

## partition-chaos: the partitioned-fleet chaos suite, unconditionally
## re-run under the race detector — P=3 replicated pairs behind
## key-routed rrc-router, one pair's primary SIGKILLed under live mixed
## traffic: the other partitions must serve error-free, the victim must
## converge unaided with zero acked-write loss, and no epoch may leak
## across partitions; the partition identity/ownership unit suites run
## unfiltered under shard-chaos, router-chaos and replica-chaos
partition-chaos:
	$(GO) test -race -count=1 -run Partition ./internal/serve

## replica-smoke: end-to-end primary+standby+router soak over real
## sockets — traffic flows through rrc-router, the primary is SIGKILLed
## at half-time, the router auto-promotes the standby, and the client-
## visible error rate across the whole soak must stay under budget;
## all three /metrics scraped and validated, replication lag asserted
## back to 0 before the kill, offline forensics on both roots after
replica-smoke:
	sh scripts/replica_smoke.sh

## metrics-smoke: end-to-end /metrics check — train with -metrics-out,
## serve sharded (-shards=4), scrape, and validate the exposition with
## rrc-inspect -expfmt, including the per-shard rrc_shard_* families
metrics-smoke:
	sh scripts/metrics_smoke.sh

## fuzz-smoke: run every fuzz target over its checked-in seed corpus only
## (no mutation) — fast enough to gate on; ./internal/router brings the
## topology parser and the upstream request writer and response reader,
## ./internal/httpserve the serving loop both binaries run
fuzz-smoke:
	$(GO) test ./internal/core ./internal/dataset ./internal/wal ./internal/sessions ./internal/router ./internal/httpserve ./internal/shard ./internal/replica ./cmd/rrc-server -run '^Fuzz' -count=1

## bench-smoke: vet and test the end-to-end harness in bench/ — a module
## of its own, so `go build ./... && go test ./...` never sees it, yet it
## imports internal/{wal,shard,sessions,...}; its tests boot a 2,000-user
## routed fleet through all four workloads (~25s)
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

## fuzz: short bounded fuzzing with mutation — model loader, TSV readers,
## the follower's stream-frame parser, the WAL segment scanner behind
## Open, ReadFrom and Verify, the session snapshot loader, the
## router's topology file, its upstream request head (differential against
## net/http's ReadRequest) and response reader, the serving loop (raw bytes on
## a connection), the partition identity's index/count form, the root
## markers (partition, epoch) and the stateless recommend request scanner
## (differential against encoding/json)
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzReadModel -fuzztime 20s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzReadServingModel -fuzztime 20s
	$(GO) test ./internal/dataset -run '^$$' -fuzz FuzzReadWith -fuzztime 20s
	$(GO) test ./internal/dataset -run '^$$' -fuzz FuzzValidateReader -fuzztime 10s
	$(GO) test ./internal/router -run '^$$' -fuzz FuzzParseTopology -fuzztime 10s
	$(GO) test ./internal/router -run '^$$' -fuzz FuzzUpstreamHead -fuzztime 10s
	$(GO) test ./internal/router -run '^$$' -fuzz FuzzUpstreamResponse -fuzztime 10s
	$(GO) test ./internal/httpserve -run '^$$' -fuzz FuzzServeConn -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzOpenSegment -fuzztime 10s
	$(GO) test ./internal/sessions -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime 20s
	$(GO) test ./internal/shard -run '^$$' -fuzz FuzzParsePartitionID -fuzztime 10s
	$(GO) test ./internal/shard -run '^$$' -fuzz FuzzLoadPartition -fuzztime 10s
	$(GO) test ./internal/replica -run '^$$' -fuzz FuzzLoadMeta -fuzztime 10s
	$(GO) test ./cmd/rrc-server -run '^$$' -fuzz FuzzDecodeRecommend -fuzztime 10s

## loc: the three line counts every re-anchor and simplicity PR quotes —
## non-test Go outside bench/, test Go outside bench/, Go under bench/
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@find ./bench -name '*.go' | xargs cat | wc -l
