// Command rudolfd is the online scoring daemon: it serves the current rule
// set against live transaction traffic over HTTP, ingests fraud/legit
// feedback, refines its rules in place, and hot-swaps every published
// version atomically. See DESIGN.md §9 for the serving architecture.
//
// Usage:
//
//	rudolfd [-addr 127.0.0.1:8080] [-schema schema.json -rules rules.txt]
//	        [-data-dir state/ | -follow URL] [-size N] [-seed N]
//	        [-workers N] [-max-batch N] [-drain 10s]
//	        [-fsync always|interval|never] [-fsync-interval 100ms]
//	        [-snapshot-interval 1m] [-wal-segment-bytes N]
//	        [-log-format text|json] [-log-level info]
//	        [-debug-addr 127.0.0.1:6060] [-trace-capacity N]
//	        [-slow-ring N] [-slow-floor 250ms]
//	        [-audit-ring N] [-audit-sample N] [-drift-half-life 5m]
//	        [-alerts alerts.txt] [-alert-interval 15s] [-alert-webhook URL]
//
// Without -schema, the daemon boots on the synthetic financial-institute
// schema with the generated incumbent rule set (-size, -seed), which is the
// zero-config path cmd/loadgen and `make smoke` exercise.
//
// Endpoints: POST /v1/score, GET+POST /v1/rules, POST /v1/feedback,
// POST /v1/refine, GET /v1/stats, GET /v1/schema, GET /v1/status,
// GET /v1/trace, GET /v1/debug/slow, GET /v1/debug/state,
// GET /v1/rules/health, GET /v1/audit, GET+POST /v1/alerts,
// the replication surface
// GET /v1/wal/segments, GET /v1/wal/snapshot and GET /v1/wal/stream
// (durable leaders only), plus the unversioned infra endpoints
// GET /healthz, GET /readyz, GET /metrics; any other unversioned path
// answers the uniform 404 envelope. Published rules (POST /v1/rules and -rules files) use the
// textual rule language documented in README.md ("The rule language"),
// including the windowed velocity atoms (COUNT(user, 10m) >= 5) when the
// schema declares a time attribute; under a windowed rule set the daemon
// observes every scored transaction into the sliding-window aggregate
// store (DESIGN.md §14).
//
// The hot path is always observable (DESIGN.md §15): per-stage latency
// histograms on /metrics, and a tail-sampled slow-request ring — requests
// slower than a live p99-tracking threshold (or the -slow-floor) keep their
// full span tree for GET /v1/debug/slow. GET /v1/debug/state consolidates
// trace/window/WAL/capture/runtime introspection into one JSON document.
//
// The daemon also alerts on its own telemetry (DESIGN.md §17): a built-in
// alert engine periodically evaluates declarative threshold rules — over
// the /metrics series (delta-window quantiles and rates), the per-rule
// health signals of GET /v1/rules/health, and the replication gauges — and
// drives each alert through pending → firing → resolved with for-duration
// hysteresis. GET /v1/alerts serves the live readout (?refresh=1 evaluates
// on demand), POST /v1/alerts installs a replacement rule set node-locally
// on any role, /metrics exports ALERTS{name,severity,state} gauges, and
// -alert-webhook streams firing/resolved transitions as JSON POSTs with
// bounded queueing and capped-backoff retries. -alerts loads a rule file
// (one rule per line, e.g.
// `alert slo severity=page for=1m: p99(rudolf_stage_duration_seconds{stage="eval"}) > 5ms`);
// without it a conservative compiled-in SLO set is active.
//
// -debug-addr opens a second, loopback-only listener exposing
// net/http/pprof (/debug/pprof/...), kept off the scoring port so profiling
// can never be reached through the service's ingress.
//
// -data-dir makes the serving state durable: analyst feedback and rule-set
// publishes are appended to a write-ahead log before they are acknowledged,
// periodic snapshots bound replay time, and a restart (graceful or kill -9)
// replays snapshot+WAL before the listener accepts traffic, so /readyz
// never reports ready with half-restored state. SIGINT/SIGTERM drains
// gracefully: /readyz flips to 503, in-flight requests finish, and the
// durable state is flushed. Without -data-dir the state lives in memory
// only. The daemon's flags set serve.Config fields directly
// (cli.ServeFlags), so each knob is named, documented and defaulted once.
//
// -follow <leader-url> runs the daemon as a read-only replication follower
// (DESIGN.md §16): it fetches the schema from the leader, bootstraps from
// the leader's newest snapshot, tails its WAL stream, and serves /v1/score,
// GET /v1/rules and the observability endpoints at the leader's exact rule
// version (identical /v1/rules ETags). Mutating requests answer 403 with
// code "read_only" and a Location header to the leader. /readyz stays 503
// until replay catches up to the leader's position; GET /v1/status reports
// the node's role either way. If the leader prunes past the follower's
// position the process exits non-zero — restart it to re-bootstrap.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	rudolf "repro"
	"repro/internal/cli"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		debugAddr = flag.String("debug-addr", "", "separate listener for net/http/pprof (empty: disabled)")
	)
	opts := cli.ServeFlags(flag.CommandLine)
	flag.Parse()

	logger, err := cli.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	opts.Logger = logger
	cfg, err := opts.ServerConfig()
	if err != nil {
		fatal(err)
	}

	srv, err := rudolf.NewServer(cfg)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	logger.Info("listening", "addr", bound, "version", srv.Version(), "rules", srv.Rules().Len())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}

	if *debugAddr != "" {
		stopDebug, err := startDebugServer(*debugAddr, logger)
		if err != nil {
			fatal(err)
		}
		defer stopDebug()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Follower mode: replicate from the leader next to the HTTP listener.
	// Replication errors are unrecoverable in place (e.g. the leader pruned
	// past our position, so the state must be re-bootstrapped): initiate the
	// same graceful drain a signal would, then exit non-zero so a supervisor
	// restarts the process into a clean bootstrap.
	var followErr error
	if cfg.FollowURL != "" {
		go func() {
			if err := srv.Follow(ctx); err != nil {
				logger.Error("replication failed", "leader", cfg.FollowURL, "err", err)
				followErr = err
				stop()
			}
		}()
	}

	if err := srv.Serve(ctx, ln); err != nil {
		fatal(err)
	}
	logger.Info("drained")
	if followErr != nil {
		fatal(fmt.Errorf("replication: %w", followErr))
	}
}

// startDebugServer exposes net/http/pprof on its own listener, so profiling
// endpoints never share a port with the scoring traffic. The default
// http.DefaultServeMux is deliberately avoided: only the pprof routes are
// mounted, nothing else can leak onto the debug port.
func startDebugServer(addr string, logger *slog.Logger) (stop func(), err error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	logger.Info("pprof debug server listening", "addr", ln.Addr().String())
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("debug server", "err", err)
		}
	}()
	return func() { hs.Close() }, nil //nolint:errcheck // best-effort teardown
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rudolfd:", err)
	os.Exit(1)
}
