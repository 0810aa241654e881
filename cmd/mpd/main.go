// Command mpd is the multiprefix daemon: a long-running HTTP/JSON
// service over the backend registry (internal/server). It exposes
//
//	POST /v1/multiprefix        full multiprefix of one value vector
//	POST /v1/multireduce        per-label reductions only
//	POST /v1/multiprefix/batch  many vectors against one label set
//	POST /v1/multireduce/batch  batch form of the reductions
//	POST /v1/update             bind/mutate a plan's resident values
//	POST /v1/query              point reads over resident values
//	GET  /v1/stats              atomic counter snapshot
//	GET  /metrics               Prometheus text exposition
//	GET  /healthz               process liveness (stays 200 during drain)
//	GET  /readyz                traffic readiness (503 while warming or draining)
//
// Robustness is the point: admission control sheds load with 429
// before work lands on the engine teams, per-request deadlines
// propagate into the engines, concurrent requests sharing a plan are
// coalesced into fused batch rounds, and engine failures walk a
// degradation ladder (fused batch -> per-vector isolation -> serial
// retry -> typed error) so one poisoned request never takes out its
// co-batch. SIGTERM/SIGINT drains: readiness flips, new compute
// requests get 503 + Retry-After, in-flight requests finish (bounded
// by -drain-timeout), then the process exits.
//
// The -chaos flag arms deterministic fault injection (internal/fault)
// in production traffic shape: "panic=200,cancel=300,seed=7" makes
// every 200th request panic inside one engine combine and every 300th
// arrive already cancelled, which exercises the whole ladder end to
// end. make check-service boots mpd with chaos armed and asserts the
// ladder holds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"multiprefix/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8722", "listen address (host:port; :0 picks a free port)")
		backendName  = flag.String("backend", "auto", "default plan backend: auto, serial, sorted, sharded, chunked (the study engines spinetree, parallel, vector and pram are not served)")
		workers      = flag.Int("workers", 0, "engine workers per plan (0 = GOMAXPROCS)")
		maxInFlight  = flag.Int("max-inflight", 0, "max concurrently admitted compute requests (0 = 4x GOMAXPROCS); excess is shed with 429")
		maxBody      = flag.Int64("max-body", 0, "max request body bytes (0 = 64 MiB)")
		maxN         = flag.Int("max-n", 0, "max elements per request (0 = 2^21)")
		maxM         = flag.Int("max-m", 0, "max label-space size per request (0 = 2^18)")
		deadline     = flag.Duration("deadline", 0, "default per-request compute deadline (0 = 2s)")
		maxDeadline  = flag.Duration("max-deadline", 0, "cap on client-requested deadlines (0 = 30s)")
		batchCap     = flag.Int("batch-cap", 0, "max request vectors fused into one engine round (0 = 16)")
		planCache    = flag.Int("plan-cache", 0, "plan cache capacity, LRU beyond it (0 = 64)")
		retryAfter   = flag.Duration("retry-after", 0, "Retry-After hint on 429/503 (0 = 1s)")
		clientRPS    = flag.Float64("client-rps", 0, "per-client fairness quota in requests/s, keyed by X-Client-ID (0 = no per-client limit)")
		clientBurst  = flag.Int("client-burst", 0, "per-client token-bucket burst (0 = 2x -client-rps)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "max time to wait for in-flight requests on SIGTERM")
		chaos        = flag.String("chaos", "", `deterministic fault injection: "panic=N,cancel=N,seed=S" (0 or absent disables a point)`)
		warm         = flag.String("warm", "", "plan-cache warm file: pre-build persisted plans before readiness, re-persist the live key set on drain")
	)
	flag.Parse()

	opts := server.Options{
		Backend:         *backendName,
		Workers:         *workers,
		MaxInFlight:     *maxInFlight,
		MaxBody:         *maxBody,
		MaxN:            *maxN,
		MaxM:            *maxM,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		BatchCap:        *batchCap,
		PlanCacheCap:    *planCache,
		RetryAfter:      *retryAfter,
		ClientRPS:       *clientRPS,
		ClientBurst:     *clientBurst,
	}
	if err := parseChaos(*chaos, &opts); err != nil {
		log.Fatalf("mpd: bad -chaos: %v", err)
	}

	srv := server.New(opts)
	hs := &http.Server{Handler: srv.Handler()}

	// Warm before readiness: /readyz stays 503 {"status":"warming"}
	// while the previous process's plan set pre-builds, so a load
	// balancer never routes traffic into a cold cache.
	if *warm != "" {
		srv.BeginWarm()
		go func() {
			n, err := srv.WarmFromFile(*warm)
			if err != nil {
				log.Printf("mpd: warm: %v", err)
				return
			}
			log.Printf("mpd: warm: %d plans pre-built from %s", n, *warm)
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("mpd: listen %s: %v", *addr, err)
	}
	log.Printf("mpd: serving on %s (backend=%s)", ln.Addr(), *backendName)
	if opts.ChaosPanicEvery > 0 || opts.ChaosCancelEvery > 0 {
		log.Printf("mpd: chaos armed: panic every %d, cancel every %d, seed %d",
			opts.ChaosPanicEvery, opts.ChaosCancelEvery, opts.ChaosSeed)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("mpd: %s: draining (in-flight finishes, new work is rejected)", sig)
	case err := <-serveErr:
		log.Fatalf("mpd: serve: %v", err)
	}

	// Drain first so /readyz flips and compute returns 503 before the
	// listener dies: a load balancer stops routing here while requests
	// already admitted run to completion under Shutdown.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("mpd: shutdown: %v", err)
	}
	// Persist the live plan key set after in-flight traffic settles but
	// before Close empties the cache, so the next process can warm it.
	if *warm != "" {
		if err := srv.PersistPlansToFile(*warm); err != nil {
			log.Printf("mpd: persist plans: %v", err)
		} else {
			log.Printf("mpd: persisted plan key set to %s", *warm)
		}
	}
	srv.Close()
	st := srv.Stats()
	log.Printf("mpd: drained: %d requests, %d ok, %d errors, %d shed, %d fused rounds, %d serial fallbacks",
		st.Requests, st.OK, st.Errors, st.Shed, st.FusedRounds, st.SerialFallbacks)
}

// parseChaos fills the chaos fields of opts from a spec like
// "panic=200,cancel=300,seed=7". Every key is optional.
func parseChaos(spec string, opts *server.Options) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("%q is not key=value", part)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("%q: %w", part, err)
		}
		switch k {
		case "panic":
			opts.ChaosPanicEvery = int(n)
		case "cancel":
			opts.ChaosCancelEvery = int(n)
		case "seed":
			opts.ChaosSeed = n
		default:
			return fmt.Errorf("unknown key %q (want panic, cancel or seed)", k)
		}
	}
	return nil
}
