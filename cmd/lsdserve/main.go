// Command lsdserve hosts trained LSD matchers over HTTP/JSON. It loads
// every model artifact (*.lsdm, written by `lsd -save`) from a
// directory into an atomically-swappable registry and serves match
// requests against them:
//
//	lsdserve -models ./models -addr :8080
//
//	GET  /healthz     — liveness + loaded model count
//	GET  /v1/models   — loaded models with checksums and labels
//	POST /v1/match    — match one source {model, dtd, xml, workers}
//	POST /v1/batch    — match many sources concurrently
//	POST /admin/load  — hot-load an artifact file into the registry
//
// SIGHUP reloads the model directory without dropping in-flight
// requests; SIGINT/SIGTERM shut down gracefully.
//
// -debug-addr starts a second listener serving net/http/pprof. It is
// off by default and refuses non-loopback addresses: the profiling
// endpoints expose heap contents and must never ride on the public
// listener or an external interface.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Connection timeouts for both listeners. ReadHeaderTimeout drops a
// client that opens a connection and never finishes its headers;
// IdleTimeout closes keep-alive connections nobody uses. There is no
// WriteTimeout: it would cut off a long /v1/batch reply or a CPU
// profile mid-write.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds a listener's server with the timeouts above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("lsdserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	models := fs.String("models", "", "directory of model artifacts (*"+serve.ArtifactExt+") to serve")
	workers := fs.Int("workers", 0, "max workers per request (0 = one per CPU)")
	ready := fs.String("ready-fd", "", "write the bound address to this file once listening (for scripts)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this loopback address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *models == "" {
		return fmt.Errorf("lsdserve: -models directory is required")
	}
	if *debugAddr != "" {
		host, _, err := net.SplitHostPort(*debugAddr)
		if err != nil {
			return fmt.Errorf("lsdserve: -debug-addr: %w", err)
		}
		if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
			return fmt.Errorf("lsdserve: -debug-addr %q is not a loopback address; the pprof endpoints expose process internals and must stay local", *debugAddr)
		}
	}

	reg := serve.NewRegistry()
	loaded, err := reg.LoadDir(*models, 0)
	if err != nil {
		return fmt.Errorf("loading models: %w", err)
	}
	for _, m := range loaded {
		fmt.Fprintf(out, "loaded model %q (%d labels, sha256 %.12s…)\n", m.Name, len(m.Labels), m.Checksum)
	}
	if len(loaded) == 0 {
		fmt.Fprintf(out, "warning: no %s artifacts in %s; serving an empty registry\n", serve.ArtifactExt, *models)
	}

	srv := serve.NewServer(reg, serve.Options{MaxWorkers: *workers, AdminDir: *models})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "lsdserve listening on %s (%d models)\n", ln.Addr(), reg.Len())
	if *ready != "" {
		if err := os.WriteFile(*ready, []byte(ln.Addr().String()), 0o644); err != nil {
			return fmt.Errorf("writing ready file: %w", err)
		}
	}

	httpSrv := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			// The main server is already up; close it before reporting.
			httpSrv.Close()
			return fmt.Errorf("lsdserve: debug listener: %w", err)
		}
		// A dedicated mux, not http.DefaultServeMux: the pprof import
		// registers itself there, and a dedicated mux guarantees the
		// debug listener serves profiling endpoints and nothing else.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv := newHTTPServer(dmux)
		debugErrc := make(chan error, 1)
		go func() { debugErrc <- debugSrv.Serve(dln) }()
		// The debug server lives and dies with the main server: Close on
		// every return path, abandoning any in-flight profile dump.
		defer debugSrv.Close()
		fmt.Fprintf(out, "debug server listening on %s\n", dln.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	for {
		select {
		case err := <-errc:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				// Reload in place: each artifact swaps in atomically;
				// requests in flight finish on the snapshot they hold.
				reloaded, err := reg.LoadDir(*models, 0)
				if err != nil {
					fmt.Fprintf(out, "reload failed: %v\n", err)
					continue
				}
				fmt.Fprintf(out, "reloaded %d models from %s\n", len(reloaded), *models)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := httpSrv.Shutdown(ctx)
			cancel()
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "lsdserve: shut down\n")
			return nil
		}
	}
}
