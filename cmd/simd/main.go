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
// On SIGINT/SIGTERM the daemon drains: /healthz flips to 503, new jobs
// are refused, attached SSE streams get a drain event and close,
// in-flight requests finish (up to -drain-timeout), then the process
// exits 0. A second signal during the drain ends the process at once.
//
// The "simd: listening on <addr>" line on stderr is printed once the
// listener is bound and names the bound address, so -addr 127.0.0.1:0
// (a kernel-chosen port) is usable: read the port from that line.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is the whole program behind main: parse args, serve until
// SIGINT/SIGTERM, drain, and return the process exit status (0 drained,
// 1 could not bind or drain in time, 2 bad usage).
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 2, "jobs executing simulations concurrently")
	perScenario := fs.Int("per-scenario", 1, "concurrent jobs per scenario name")
	queue := fs.Int("queue", 16, "jobs in system before submissions get 429")
	cacheMB := fs.Int64("cache-mb", 64, "result cache budget, MiB")
	sweepWorkers := fs.Int("sweep-workers", 0, "per-job sweep workers (0 = GOMAXPROCS/workers)")
	shards := fs.Int("shards", 0,
		"lane workers inside each simulation (execution only: never part "+
			"of a job's cache identity)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	logRequests := fs.Bool("log", false, "log one structured line per request to stderr")
	debugAddr := fs.String("debug-addr", "", "listen address for net/http/pprof (empty = disabled)")
	storeDir := fs.String("store-dir", "", "persistent result store directory (empty = memory-only)")
	self := fs.String("self", "", "this replica's advertised host:port in the cluster")
	peers := fs.String("peers", "", "comma-separated cluster membership, -self included (empty = solo)")
	peerTimeout := fs.Duration("peer-timeout", 2*time.Second, "budget for one peer cache-fill attempt")
	if err := fs.Parse(args); err != nil {
		return 2
	}

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
		opts.AccessLog = stderr
	}
	srv, err := serve.NewServer(opts)
	if err != nil {
		fmt.Fprintf(stderr, "simd: %v\n", err)
		return 2
	}
	defer srv.Close()

	// Signals are caught before the address is announced, so whoever reads
	// the line below may send one at once and still get a drain.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Bind before announcing: a taken port is an error and nothing else,
	// and the line names the address the kernel actually gave us.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "simd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "simd: listening on %s\n", ln.Addr())
	httpSrv := &http.Server{Handler: srv.Handler()}

	if *debugAddr != "" {
		// The pprof mux is http.DefaultServeMux (the blank import's
		// registrations); serve it on its own listener only.
		go func() {
			fmt.Fprintf(stderr, "simd: pprof on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(stderr, "simd: pprof listener: %v\n", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "simd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	// The first signal asked for a drain; the next one gets the default
	// disposition back, so a second Ctrl-C ends a drain that is stuck
	// behind a long job instead of being swallowed for -drain-timeout.
	stop()

	// Graceful drain: stop advertising health, refuse new jobs, let
	// in-flight requests finish, then abort whatever is left.
	fmt.Fprintln(stderr, "simd: draining")
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "simd: drain incomplete: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "simd: drained")
	return 0
}
