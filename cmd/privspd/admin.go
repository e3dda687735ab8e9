package main

import (
	"context"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/telemetry"
)

// newAdminMux builds the operator surface: Prometheus-text /metrics over
// the daemon's registry, a /healthz liveness probe, a /readyz readiness
// probe (503 while the daemon is shedding at its in-flight budget), and
// the pprof handlers — registered explicitly, so nothing rides the default
// mux and the admin listener serves exactly what is listed here.
//
// /healthz and /readyz answer different questions on purpose: healthz is
// pure liveness (the process is up and serving its admin port) and stays
// 200 under overload; readyz reflects admission headroom, so a balancer
// can steer new load away from a shedding daemon that is otherwise
// perfectly healthy. ready may be nil (always ready).
func newAdminMux(reg *telemetry.Registry, ready func() bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			// The response is already streaming; nothing to do but note it.
			log.Printf("privspd: /metrics: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready == nil || ready() {
			w.Write([]byte("ready\n"))
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("shedding\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startAdmin serves mux on addr with header/idle timeouts (an admin port
// must not be a slowloris target) and a graceful Shutdown wired to ctx.
// The listen itself is synchronous so a bad address fails startup, not a
// goroutine. The returned wait function joins the shutdown; call it after
// ctx is cancelled.
func startAdmin(ctx context.Context, addr string, mux *http.ServeMux) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	log.Printf("privspd: admin on http://%s/ (endpoints: /metrics /healthz /readyz /debug/pprof/)", ln.Addr())
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("privspd: admin: %v", err)
		}
	}()
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			hs.Close()
		}
	}()
	return func() { <-stopped; <-served }, nil
}
