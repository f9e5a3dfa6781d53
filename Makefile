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
#   make sh-syntax  fail if any scripts/*.sh does not parse (bash -n), so a
#                 broken smoke script fails the fast gate, not only `make ci`
#   make examples run each examples/* program (stdout discarded) and fail on
#                 the first non-zero exit; `go build` only compiles them
#   make bench    run the go-test benchmarks (no test re-run) for BENCHTIME
#                 each; `make ci` runs every one once (BENCHTIME=1x) so a
#                 benchmark that panics or fails fails CI. Serving
#                 performance is judged by benchmark/ (BENCHMARK.json)
#   make serve    run the online scoring daemon (cmd/rudolfd) on :8080
#   make loadgen  drive traffic at a running daemon and report tx/s, client
#                 and /metrics latency, stage means and the slowest request
#                 id; exits non-zero if any request failed or none succeeded
#   make smoke    boot rudolfd on a random port, drive load with loadgen,
#                 then assert with curl/jq: explain attribution and the
#                 rule-health join, a velocity rule tripping, the slow ring
#                 and debug state, an alert firing and resolving, and a clean
#                 drain (scripts/smoke.sh)
#   make trace-demo  boot rudolfd, drive load with loadgen, label audited
#                 decisions as feedback and refine once (curl/jq), dump GET
#                 /v1/trace and validate the Chrome trace with scripts/checktrace
#                 (set TRACE_OUT=path to keep the trace file)
#   make crash-smoke  boot rudolfd with a durable data directory, drive load
#                 with loadgen, then feedback/publish churn and 3 of 5 probes
#                 of a velocity burst (curl/jq), SIGKILL it, restart on the
#                 same directory, and assert version, feedback, WAL replay and
#                 window margin exactly 0 on the last probe (scripts/crash-smoke.sh)
#   make cluster-smoke  boot a durable leader plus two -follow followers,
#                 drive concurrent load with a mid-load rule publish, assert
#                 roles, the read_only write rejection and leader-exact
#                 /v1/rules ETag convergence, SIGKILL + restart one follower,
#                 and require the aggregate follower throughput to clear a
#                 core-aware factor (scripts/cluster-smoke.sh)
#   make check    sh-syntax + fmt + build + vet + examples + test + race
#                 (each package once) + race-deadline
#   make ci       the full CI gate: check + smoke + crash-smoke +
#                 cluster-smoke + trace-demo + bench at BENCHTIME=1x

GO        ?= go
PKGS      ?= ./...
BENCH     ?= .
BENCHTIME ?= 1s
ADDR      ?= 127.0.0.1:8080
TRACE_OUT ?=

.PHONY: all sh-syntax fmt build examples test race race-deadline vet bench serve smoke crash-smoke cluster-smoke trace-demo loadgen check ci clean

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

sh-syntax:
	for f in scripts/*.sh; do bash -n "$$f" || exit 1; done

examples:
	for d in examples/*/; do $(GO) run ./$$d >/dev/null || exit 1; done

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

check: sh-syntax fmt build vet examples test race race-deadline

ci: check smoke crash-smoke cluster-smoke trace-demo
	$(MAKE) bench BENCHTIME=1x

clean:
	$(GO) clean -testcache
