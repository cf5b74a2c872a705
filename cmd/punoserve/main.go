// Command punoserve runs the simulation service: an HTTP/JSON API over a
// persistent worker pool with a content-addressed result cache and
// singleflight deduplication (internal/serve).
//
//	punoserve -addr 127.0.0.1:8377 -cache-dir /var/cache/puno
//
//	curl -XPOST localhost:8377/v1/jobs -d '{"workload":"intruder","scheme":"PUNO","seed":7}'
//	curl 'localhost:8377/v1/jobs/KEY?wait=1'   # KEY: the "id" (= "key") the POST returned
//	curl 'localhost:8377/v1/jobs/KEY/result?format=json'
//
// Because every simulation is deterministic, results are cached by the
// SHA-256 of (config, workload, seed, code version) and served from the
// cache forever — a cached artifact can never go stale. SIGINT/SIGTERM
// drains gracefully: the listener closes, queued jobs finish into the
// cache, and any -cpuprofile/-memprofile files are flushed first so a
// profile survives even a drain that is killed midway.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/prof"
	"repro/internal/serve"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("punoserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8377", "listen address (host:port; port 0 picks a free port)")
		cacheDir     = fs.String("cache-dir", "", "disk tier for result artifacts (empty: memory only)")
		cacheEntries = fs.Int("cache-entries", 0, "in-memory LRU capacity (0 = 1024)")
		workers      = fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 0, "bounded queue depth; full queue answers 429 (0 = 4x workers)")
		codeVersion  = fs.String("codeversion", "", "cache-key code version (default: the build's VCS revision)")
		cpuProf      = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf      = fs.String("memprofile", "", "write a heap profile to this file on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	profiler, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer profiler.Stop()

	svc, err := serve.New(serve.Options{
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
		Workers:      *workers,
		QueueDepth:   *queue,
		CodeVersion:  *codeVersion,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "punoserve listening on http://%s (code version %s)\n",
		ln.Addr(), svc.Stats().CodeVersion)

	// Every response is a few bytes of JSON or one artifact already in
	// memory, so a client that stops reading — like one that never finishes
	// its request line, or parks an idle keep-alive connection — is cut off
	// rather than left pinning a goroutine. The ?wait=1 long-poll, open by
	// design for as long as a simulation takes, clears its own write
	// deadline (serve.Handler).
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	var runErr error
	select {
	case err := <-errc:
		runErr = err
	case <-ctx.Done():
		// Flush profiles before draining: a drain can take as long as the
		// queued simulations, and a second signal kills the process, so the
		// profile data must already be on disk. Stop is idempotent — the
		// deferred call just reports this flush's error again.
		profErr := profiler.Stop()
		if err := srv.Shutdown(context.Background()); err != nil && runErr == nil {
			runErr = err
		}
		<-errc // http.ErrServerClosed
		svc.Drain()
		st := svc.Stats()
		fmt.Fprintf(stdout, "drained: runs=%d submitted=%d collapsed=%d cache_hits=%d\n",
			st.Runs, st.Submitted, st.Collapsed, st.Cache.Hits+st.Cache.DiskHits)
		if runErr == nil {
			runErr = profErr
		}
	}
	if perr := profiler.Stop(); runErr == nil {
		runErr = perr
	}
	return runErr
}
