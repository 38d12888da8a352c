// Command megsimd serves MEGsim sampling campaigns over HTTP/JSON:
// clients POST a campaign (workload + methodology + GPU + resilience
// spec), get back a job ID, and poll for the result. The daemon
// deduplicates identical campaigns through a content-addressed result
// cache at trace, characterization, and per-representative frame
// granularity, bounds admission with backpressure (429 + Retry-After),
// exposes live Prometheus metrics on /metrics, and drains gracefully on
// SIGINT/SIGTERM — in-flight jobs checkpoint at the next frame boundary
// when -checkpoint-dir is set, so resubmitting the same campaign after
// a restart resumes instead of recomputing.
//
// The daemon also runs as either half of a cluster: -worker turns it
// into a stateless simulation worker serving single frames over the
// fabric protocol, and -coordinator turns it into the cluster's
// coordinator — the same campaign API, with each campaign's
// representative frames dispatched to the worker its fingerprint hashes
// to, failing over to the next worker when one dies, and lost frames
// absorbed by the resilience supervisor's requeue path.
//
// Usage:
//
//	megsimd -addr :8350
//	megsimd -addr :8350 -workers 4 -queue 128 -checkpoint-dir /var/lib/megsimd
//	megsimd -addr :8351 -worker                              # simulation worker
//	megsimd -addr :8350 -coordinator http://a:8351,http://b:8351 -checkpoint-dir /var/lib/megsimd
//	megsim -server localhost:8350 -benchmark hcr             # submit from the CLI
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	// SIGINT/SIGTERM trigger the graceful drain: stop admitting, cancel
	// queued jobs, let running jobs checkpoint, then exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "megsimd:", err)
		os.Exit(1)
	}
}

// flagNeeds maps each flag that only tunes a mode to the flag that
// turns the mode on.
var flagNeeds = map[string]string{
	"audit-fraction": "coordinator",
	"chaos-seed":     "coordinator",
}

// workerFlags are the only flags -worker mode reads; every
// campaign-service and coordinator flag is refused with it.
var workerFlags = map[string]bool{"worker": true, "addr": true, "drain-timeout": true}

// run is the whole daemon behind a single error return, mirroring the
// megsim CLI's structure so the lifecycle is testable in-process.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("megsimd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8350", "listen address")
		queue        = fs.Int("queue", serve.DefaultQueueCapacity, "admission queue capacity (submissions beyond it get 429)")
		workers      = fs.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS)")
		ckptDir      = fs.String("checkpoint-dir", "", "checkpoint jobs at frame granularity under this directory (enables resume across restarts)")
		frameCache   = fs.Int("frame-cache", 0, "per-representative frame results kept in the cache (0 = default)")
		drainTimeout = fs.Duration("drain-timeout", time.Minute, "max wait for in-flight jobs to reach a frame boundary on shutdown")
		workerMode   = fs.Bool("worker", false, "run as a cluster simulation worker (serves single frames, not campaigns)")
		coordinator  = fs.String("coordinator", "", "comma-separated worker URLs; run as the cluster coordinator dispatching frames to this fleet")
		auditFrac    = fs.Float64("audit-fraction", 0, "fraction of frames the coordinator re-dispatches to a second worker and digest-checks (byzantine defense; 0 = off, 1 = every frame)")
		chaosSeed    = fs.Uint64("chaos-seed", 0, "arm the deterministic chaos transport on the coordinator's worker client with this seed (staging fault-injection profile; 0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A flag its mode ignores is refused, not silently dropped: a
	// worker serves frames, not campaigns, and a flag that only tunes
	// another does nothing without it.
	enabled := map[string]bool{"coordinator": *coordinator != ""}
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		switch dep := flagNeeds[f.Name]; {
		case *workerMode && !workerFlags[f.Name]:
			bad = append(bad, fmt.Sprintf("-%s cannot be combined with -worker", f.Name))
		case !*workerMode && dep != "" && !enabled[dep]:
			bad = append(bad, fmt.Sprintf("-%s needs -%s", f.Name, dep))
		}
	})
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	if *workerMode {
		return runWorker(ctx, *addr, *drainTimeout, stdout)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d: need 0 (GOMAXPROCS) or a positive pool size", *workers)
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
	}

	cfg := serve.Config{
		QueueCapacity:   *queue,
		Workers:         *workers,
		CheckpointDir:   *ckptDir,
		MaxCachedFrames: *frameCache,
		Log:             stdout,
	}
	if *coordinator != "" {
		// Coordinator and campaign service share one registry, so
		// /metrics exports the per-worker fleet gauges alongside the
		// job counters.
		reg := obs.NewWith(obs.Options{TraceCapacity: -1})
		var client *http.Client
		if *chaosSeed != 0 {
			tr, err := chaos.NewTransport(chaos.StagingProfile(*chaosSeed), nil)
			if err != nil {
				return err
			}
			client = &http.Client{Transport: tr, Timeout: 5 * time.Minute}
			fmt.Fprintf(stdout, "megsimd: CHAOS armed on the worker client (seed %d) — staging only\n", *chaosSeed)
		}
		coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
			Workers:       strings.Split(*coordinator, ","),
			Obs:           reg,
			Client:        client,
			AuditFraction: *auditFrac,
			AuditSeed:     *chaosSeed,
			Log:           stdout,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		cfg.Obs = reg
		cfg.Dispatcher = coord
		fmt.Fprintf(stdout, "megsimd: coordinating %d workers\n", len(coord.Workers()))
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Report the resolved address (the test listens on port 0).
	fmt.Fprintf(stdout, "megsimd: listening on http://%s\n", ln.Addr())

	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request headers (slowloris); IdleTimeout reclaims keep-alive
	// connections that went quiet. Request bodies and long polls are
	// governed by the handlers, not here.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "megsimd: draining (in-flight jobs checkpoint at the next frame boundary)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		hs.Close()
		return fmt.Errorf("drain: %w", err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "megsimd: drained cleanly")
	return nil
}

// runWorker is the daemon's -worker mode: a stateless fabric simulation
// worker. On SIGINT/SIGTERM it drains — new frames get 503 (the
// coordinator fails over without burying the worker) while in-flight
// frames finish inside the HTTP server's shutdown wait.
func runWorker(ctx context.Context, addr string, drainTimeout time.Duration, stdout io.Writer) error {
	w := fabric.NewWorker(fabric.WorkerConfig{Log: stdout})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "megsimd: worker listening on http://%s\n", ln.Addr())

	hs := &http.Server{
		Handler:           w.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	w.Drain()
	fmt.Fprintln(stdout, "megsimd: worker draining (in-flight frames finish)")
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "megsimd: drained cleanly")
	return nil
}
