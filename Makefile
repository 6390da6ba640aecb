# Development targets for the LDplayer reproduction. `make check` is the
# gate every change must pass: gofmt-clean sources, vet, build, the full
# test suite (which holds the repo's static analyzers as
# TestRepoLintClean — `make lint` is the same check from the command
# line — and the end-to-end smoke of every `make bench-e2e` workload,
# TestSmokeEveryWorkload in internal/benchkit), a short-form run of the engine hot-path benchmarks
# (which also executes their allocation sanity assertions), the
# observability, telemetry and virtual-time smokes, and a short fuzz
# budget over the decoders of untrusted bytes (DNS wire, block frame,
# qlog events, pcap/pcapng, zone master files) and the replay engine's
# pending table. The race-detector suite (`make race`) runs as its own CI
# job in parallel with the gate, as does the repeat-under-load flake
# hunt (`make flake`); run them locally before pushing concurrency or
# timing changes.

GO ?= go

.PHONY: check fmt vet lint build test race flake fallback bench-smoke bench-e2e bench-ledger bench obs-smoke qlog-smoke sim-smoke fuzz-smoke

check: fmt vet build test bench-smoke obs-smoke qlog-smoke sim-smoke fuzz-smoke

# Every Go file as gofmt writes it; `gofmt -l .` names the ones that are not.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# The repo's static analyzers (ldlint) over every package, all of them
# on every run; exits non-zero on any diagnostic. `go run ./cmd/ldlint
# -list` names them, `-h` documents the //ldlint: directive grammar.
# TestRepoLintClean runs the same check inside `make test`.
lint:
	$(GO) run ./cmd/ldlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Flake hunt over the packages whose tests run against the wall clock and
# real sockets: twenty repetitions under the race detector beside a busy
# loop, so a send/record ordering race or a pacing assertion that only
# holds on an idle box fails here, not once a month in CI. authserver is
# here for the shards Engine.Respond lends from goroutine to goroutine,
# SPSC qlog producers included; netsim for its delivered+dropped
# conservation counters. The hog is killed however the tests end.
FLAKE_PKGS ?= ./internal/replay ./internal/core ./internal/netio ./internal/authserver ./internal/netsim
flake:
	@( while :; do :; done ) & hog=$$!; trap 'kill $$hog' EXIT; \
	$(GO) test -count=20 -race $(FLAKE_PKGS)

# A fast smoke run of the meta-DNS-server hot path: enough iterations to
# exercise the cached, miss, and many-zone routes without benchmarking
# noise dominating CI time. The EngineRespond benchmarks repeat one
# question, so all but EngineRespondManyZones (cache off) measure cache
# hits; ShardRespondHit is the hit path as a serve loop runs it (a held
# shard, ~1.1 k questions round-robin); ShardRespondMiss (a new name
# every iteration, inserted into a full cache) and LookupNXDomainDNSSEC
# are the miss path. Pipeline is the qlog ring→collector→sink rate
# (events/s); drop -benchtime for numbers.
bench-smoke:
	$(GO) test -run XXX -bench='EngineRespond|ShardRespond' -benchtime=100x ./internal/authserver/
	$(GO) test -run XXX -bench='LookupNXDomainDNSSEC' -benchtime=100x ./internal/zone/
	$(GO) test -run XXX -bench='Pipeline' -benchtime=100x ./internal/qlog/

# The portable netio path (one datagram per system call behind the same
# Recv/Stage/SendStaged API) is the only UDP path off linux/amd64|arm64,
# and nothing else compiles or runs it: test it on 386, where the batch
# syscalls are not wired, and vet it for a non-Linux target.
FALLBACK_PKGS ?= ./internal/netio ./internal/authserver ./internal/replay
fallback:
	GOARCH=386 $(GO) test $(FALLBACK_PKGS)
	GOOS=darwin GOARCH=arm64 $(GO) vet $(FALLBACK_PKGS)

# The repo's benchmark (BENCHMARK.json): closed-loop goodput through the
# shipped ldplayer→metadns pipeline on four workloads, built and run the
# way the driver does. See internal/benchkit/README.md.
bench-e2e:
	bash cmd/ldbench/run.sh

# One workload plus a traced repetition and the per-layer cost ledger —
# the rows a performance change names beforehand.
# `make bench-ledger WORKLOAD=broot-udp-closed`.
WORKLOAD ?= broot-udp-closed
bench-ledger:
	bash cmd/ldbench/run.sh -trace 1 -workload $(WORKLOAD)

# End-to-end observability check: a live meta-DNS-server and a fast-mode
# replay share one registry; /metrics must expose non-zero series from
# both sides and /trace must carry query-lifecycle spans.
obs-smoke:
	$(GO) test -run TestObsSmoke -count=1 ./internal/obs/

# End-to-end telemetry check: a live batched server with a qlog pipeline
# attached streams one event per query into a binary capture whose
# fields, cache-hit flags, and counts must match the traffic exactly.
qlog-smoke:
	$(GO) test -run TestQlogSmoke -count=1 ./internal/qlog/

# Virtual-time simulation smoke: a seeded chaos scenario under SimClock
# must replay bit-identically (event log and counters), and the
# TTL×RTT what-if sweep must simulate ≥100× faster than wall time.
# Wall-time record for `go test ./internal/netsim/... ./internal/experiments/...`:
# before the virtual clock (PR 7 tree) the time-dependent slice spent
# netsim 1.3s + chaostest 3.5s + experiments 145.4s; after, the
# converted chaos scenarios run in ~1.0s (real sleeps and drain windows
# eliminated) and the new sweep simulates ~16 virtual minutes in ~0.3s —
# the remaining experiments time is compute-bound figure generation,
# not sleeps. The target prints its own wall time for comparison.
sim-smoke:
	@start=$$(date +%s%N); \
	$(GO) test -run 'TestSimScenarioSeedBitReproducible|TestSimScenarioBlackholeTerminates' -count=1 ./internal/netsim/chaostest/ && \
	$(GO) test -run 'TestVirtualWhatIfSweep' -count=1 ./internal/experiments/ || exit 1; \
	end=$$(date +%s%N); \
	echo "sim-smoke: ok in $$(( (end - start) / 1000000 )) ms wall (baseline before vclock: ~150 s for the netsim+experiments slice)"

# Short fuzz budget over every decoder of untrusted bytes and the
# pending table: hostile decode must never panic, decode→encode must reach
# a byte-identical fixed point, and arbitrary block files must error
# cleanly through the full open/index/parallel-decode path and, read
# front to back as the controller↔client link and the qlog stream read
# them (FuzzBlockStream), through the sequential frame reader;
# FuzzQlogBlockDecode is the qlog event cursor behind that reader.
# FuzzTextTrace drives the hand-editable text trace reader: every entry
# it returns must re-encode and read back as itself.
# FuzzPcapRead drives both capture readers and the DNS extractor (every
# packet handed back must fit inside its input), FuzzZoneParse the
# master-file parser (a zone that parses must compile and answer every
# owner). The zone lookup target checks the compiled-index Lookup against
# the map-walking reference on arbitrary (qname, qtype, DO); the
# authserver target checks that a response-cache hit, a miss and a
# cache-off engine answer arbitrary query bytes identically. The replay
# target drives the pending table and a map model of it through random
# send / answer / retry-deadline / take-back / close sequences and checks
# after every step that each sent query is in exactly one place.
fuzz-smoke:
	$(GO) test -run XXX -fuzz 'FuzzMessageUnpack$$' -fuzztime 5s ./internal/dnswire/
	$(GO) test -run XXX -fuzz 'FuzzPackUnpackRoundTrip$$' -fuzztime 5s ./internal/dnswire/
	$(GO) test -run XXX -fuzz 'FuzzLookupDifferential$$' -fuzztime 5s ./internal/zone/
	$(GO) test -run XXX -fuzz 'FuzzZoneParse$$' -fuzztime 5s ./internal/zone/
	$(GO) test -run XXX -fuzz 'FuzzPcapRead$$' -fuzztime 5s ./internal/pcap/
	$(GO) test -run XXX -fuzz 'FuzzRespondHitVsMiss$$' -fuzztime 5s ./internal/authserver/
	$(GO) test -run XXX -fuzz 'FuzzBlockRoundTrip$$' -fuzztime 5s ./internal/trace/
	$(GO) test -run XXX -fuzz 'FuzzBlockDecode$$' -fuzztime 5s ./internal/trace/
	$(GO) test -run XXX -fuzz 'FuzzBlockHeader$$' -fuzztime 5s ./internal/trace/
	$(GO) test -run XXX -fuzz 'FuzzBlockStream$$' -fuzztime 5s ./internal/trace/
	$(GO) test -run XXX -fuzz 'FuzzTextTrace$$' -fuzztime 5s ./internal/trace/
	$(GO) test -run XXX -fuzz 'FuzzQlogBlockDecode$$' -fuzztime 5s ./internal/qlog/
	$(GO) test -run XXX -fuzz 'FuzzPendTable$$' -fuzztime 5s ./internal/replay/

# Full benchmark sweep (regenerates the paper's tables and figures).
bench:
	$(GO) test -bench=. -benchtime=1x ./...
