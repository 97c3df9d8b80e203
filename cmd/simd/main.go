// Command simd is the simulation daemon: it serves the bench scenario
// registry over HTTP with a deterministic result cache, admission
// control, and a live observability plane (see internal/serve).
//
//	simd -addr :8080 &
//	curl localhost:8080/v1/scenarios                   # catalog + param schemas
//	curl -d '{"scenario":"fig9"}' localhost:8080/v1/run
//	curl -d '{"compose":{"phases":[{"pattern":"halo"},{"pattern":"fetchadd"}]}}' \
//	     localhost:8080/v1/compose                     # composed multi-phase job
//	curl -d '{"scenario":"chaos"}' localhost:8080/v1/runs    # async submit
//	curl -N localhost:8080/v1/runs/<id>/events               # SSE live attach
//	curl localhost:8080/metrics
//
// The job API is versioned under /v1/ (see DESIGN.md for the wire
// contract); only the /healthz and /metrics probes are unversioned.
//
// -log enables structured request logging on stderr; -debug-addr starts
// a second listener serving net/http/pprof (kept off the service port so
// profiling is never exposed where jobs are).
//
// -store-dir enables the persistent result store: artifacts write
// through to a content-addressed on-disk layout and survive restarts
// (a cache miss consults disk, verified by re-hash, before executing).
//
// -self/-peers join a static cluster: job keys map onto a
// consistent-hash ring, non-owned submissions proxy to the owner, and a
// local cold miss pulls the artifact from a peer (byte-verified) before
// paying for execution. Every replica lists the same peer set:
//
//	simd -addr 127.0.0.1:8081 -self 127.0.0.1:8081 \
//	     -peers 127.0.0.1:8081,127.0.0.1:8082 -store-dir /var/lib/simd/a
//
// (cmd/simnet launches and supervises such a cluster in one command.)
//
// On SIGINT/SIGTERM the daemon drains: /healthz flips to 503, new jobs
// are refused, attached SSE streams get a drain event and close,
// in-flight requests finish (up to -drain-timeout), then the process
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 2, "jobs executing simulations concurrently")
	perScenario := flag.Int("per-scenario", 1, "concurrent jobs per scenario name")
	queue := flag.Int("queue", 16, "jobs in system before submissions get 429")
	cacheMB := flag.Int64("cache-mb", 64, "result cache budget, MiB")
	sweepWorkers := flag.Int("sweep-workers", 0, "per-job sweep workers (0 = GOMAXPROCS/workers)")
	shards := flag.Int("shards", 0,
		"lane workers inside each simulation (execution only: never part "+
			"of a job's cache identity)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	logRequests := flag.Bool("log", false, "log one structured line per request to stderr")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof (empty = disabled)")
	storeDir := flag.String("store-dir", "", "persistent result store directory (empty = memory-only)")
	self := flag.String("self", "", "this replica's advertised host:port in the cluster")
	peers := flag.String("peers", "", "comma-separated cluster membership, -self included (empty = solo)")
	peerTimeout := flag.Duration("peer-timeout", 2*time.Second, "budget for one peer cache-fill attempt")
	flag.Parse()

	opts := serve.Options{
		Workers:      *workers,
		PerScenario:  *perScenario,
		QueueDepth:   *queue,
		CacheBytes:   *cacheMB << 20,
		SweepWorkers: *sweepWorkers,
		Shards:       *shards,
		StoreDir:     *storeDir,
		Self:         *self,
		PeerTimeout:  *peerTimeout,
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.Peers = append(opts.Peers, p)
			}
		}
	}
	if *logRequests {
		opts.AccessLog = os.Stderr
	}
	srv, err := serve.NewServer(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		os.Exit(2)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *debugAddr != "" {
		// The pprof mux is http.DefaultServeMux (the blank import's
		// registrations); serve it on its own listener only.
		go func() {
			fmt.Fprintf(os.Stderr, "simd: pprof on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "simd: pprof listener: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "simd: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop advertising health, refuse new jobs, let
	// in-flight requests finish, then abort whatever is left.
	fmt.Fprintln(os.Stderr, "simd: draining")
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = httpSrv.Shutdown(shutCtx)
	srv.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "simd: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "simd: drained")
}
