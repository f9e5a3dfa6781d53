# RUDOLF reproduction — CI entry points.
#
#   make build    compile every package and command
#   make test     run the full test suite
#   make race     run the test suite under the race detector (the differential
#                 tests double as the proof that the 64-aligned chunk-parallel
#                 evaluators are race-free, and the serve hot-swap test that
#                 rule publishes never tear; see DESIGN.md §8-9)
#   make race-deadline  rerun the deadline tests (TimedOut|Deadline|Queued in
#                 internal/serve) ten times under the race detector: they
#                 race real 20-100 ms request deadlines against a blocked
#                 expert, a stalled body or a long refinement, and one pass
#                 cannot show they are not flaky (~15 s)
#   make vet      static analysis
#   make fmt      fail if any .go file is not gofmt-clean (gofmt -l prints
#                 nothing); run `gofmt -w .` to fix
#   make bench    run the go-test benchmarks (no test re-run) for BENCHTIME
#                 each; `make ci` runs every one once (BENCHTIME=1x) so a
#                 benchmark that panics or fails fails CI. Serving
#                 performance is judged by benchmark/ (BENCHMARK.json)
#   make serve    run the online scoring daemon (cmd/rudolfd) on :8080
#   make loadgen  drive traffic at a running daemon and report p50/p99
#   make smoke    boot rudolfd on a random port, score a generated batch,
#                 swap rules, refine on labeled feedback, and assert /metrics
#                 and /v1/trace moved (scripts/smoke.sh)
#   make trace-demo  boot rudolfd, drive load + one refinement, dump GET
#                 /v1/trace and validate the Chrome trace with scripts/checktrace
#                 (set TRACE_OUT=path to keep the trace file)
#   make crash-smoke  boot rudolfd with a durable data directory, drive load
#                 plus feedback/publish churn, SIGKILL it mid-flight, restart
#                 on the same directory, and assert the acknowledged state
#                 survived the crash (scripts/crash-smoke.sh)
#   make cluster-smoke  boot a durable leader plus two -follow followers,
#                 drive concurrent load with a mid-load rule publish, assert
#                 roles, the read_only write rejection and leader-exact
#                 /v1/rules ETag convergence, SIGKILL + restart one follower,
#                 and require the aggregate follower throughput to clear a
#                 core-aware factor (scripts/cluster-smoke.sh)
#   make check    fmt + build + vet + test + race (each package once) +
#                 race-deadline
#   make ci       the full CI gate: check + smoke + crash-smoke +
#                 cluster-smoke + trace-demo + bench at BENCHTIME=1x

GO        ?= go
PKGS      ?= ./...
BENCH     ?= .
BENCHTIME ?= 1s
ADDR      ?= 127.0.0.1:8080
TRACE_OUT ?=

.PHONY: all fmt build test race race-deadline vet bench serve loadgen smoke crash-smoke cluster-smoke trace-demo check ci clean

all: ci

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

race:
	$(GO) test -race $(PKGS)

race-deadline:
	$(GO) test -race -count=10 -run 'TimedOut|Deadline|Queued' ./internal/serve

vet:
	$(GO) vet $(PKGS)

fmt:
	test -z "$$(gofmt -l .)"

bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) -benchmem $(PKGS)

serve:
	$(GO) run ./cmd/rudolfd -addr $(ADDR)

loadgen:
	$(GO) run ./cmd/loadgen -url http://$(ADDR)

smoke:
	GO=$(GO) bash scripts/smoke.sh

crash-smoke:
	GO=$(GO) bash scripts/crash-smoke.sh

cluster-smoke:
	GO=$(GO) bash scripts/cluster-smoke.sh

trace-demo:
	GO=$(GO) TRACE_OUT=$(TRACE_OUT) bash scripts/trace-demo.sh

check: fmt build vet test race race-deadline

ci: check smoke crash-smoke cluster-smoke trace-demo
	$(MAKE) bench BENCHTIME=1x

clean:
	$(GO) clean -testcache
