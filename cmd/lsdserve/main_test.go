package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/modeltest"
)

// startServer runs the daemon on an ephemeral port and waits for it to
// come up. The returned base URL is ready to hit; done receives run's
// error when the daemon exits.
func startServer(t *testing.T, modelsDir string) (string, chan error) {
	t.Helper()
	readyFile := filepath.Join(t.TempDir(), "ready")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-models", modelsDir,
			"-ready-fd", readyFile,
		}, os.Stdout)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if addr, err := os.ReadFile(readyFile); err == nil && len(addr) > 0 {
			return "http://" + string(addr), done
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before ready: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func modelCount(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Models []struct {
			Name string `json:"name"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return len(body.Models)
}

// TestServeLifecycle boots the daemon, serves a match, hot-reloads a
// second model on SIGHUP, and shuts down cleanly on SIGTERM. Signals
// go to our own process, so this test cannot run in parallel with
// another daemon test.
func TestServeLifecycle(t *testing.T) {
	dir := t.TempDir()
	modeltest.WriteArtifact(t, dir, "houses")
	base, done := startServer(t, dir)

	if n := modelCount(t, base); n != 1 {
		t.Fatalf("%d models loaded, want 1", n)
	}

	raw, err := json.Marshal(map[string]any{
		"model": "houses",
		"dtd":   modeltest.SourceDTD,
		"xml":   modeltest.SourceXML,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/match", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var match struct {
		Mapping map[string]string `json:"mapping"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&match); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(match.Mapping) == 0 {
		t.Fatalf("match: status %d, mapping %v", resp.StatusCode, match.Mapping)
	}

	// Hot reload: drop a second artifact in the directory and HUP the
	// process.
	modeltest.WriteArtifact(t, dir, "condos")
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for modelCount(t, base) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP reload never picked up the second model")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}
}

// TestDebugServerLifecycle boots the daemon with -debug-addr, confirms
// the pprof index answers on the debug listener, and confirms the
// debug listener dies with the main server on SIGTERM. Like
// TestServeLifecycle it signals its own process, so it cannot run in
// parallel with another daemon test.
func TestDebugServerLifecycle(t *testing.T) {
	dir := t.TempDir()
	modeltest.WriteArtifact(t, dir, "houses")

	outFile, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer outFile.Close()
	readyFile := filepath.Join(t.TempDir(), "ready")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-models", dir,
			"-ready-fd", readyFile,
			"-debug-addr", "127.0.0.1:0",
		}, outFile)
	}()

	// The debug line is printed after the ready file, so poll the out
	// file until the bound debug address shows up.
	var debugBase string
	deadline := time.Now().Add(10 * time.Second)
	for debugBase == "" {
		if time.Now().After(deadline) {
			t.Fatal("debug server never announced its address")
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before ready: %v", err)
		default:
		}
		logged, err := os.ReadFile(outFile.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(logged), "\n") {
			if addr, ok := strings.CutPrefix(line, "debug server listening on "); ok {
				debugBase = "http://" + strings.TrimSpace(addr)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(debugBase + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d, want 200", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}
	// The debug listener must be gone once run returns.
	if resp, err := http.Get(debugBase + "/debug/pprof/"); err == nil {
		resp.Body.Close()
		t.Fatal("debug server still answering after shutdown")
	}
}

// TestDebugAddrRejectsNonLoopback asserts the daemon refuses to expose
// pprof on a non-loopback interface.
func TestDebugAddrRejectsNonLoopback(t *testing.T) {
	dir := t.TempDir()
	for _, addr := range []string{"0.0.0.0:6060", ":6060", "192.0.2.1:6060", "no-port"} {
		err := run([]string{"-models", dir, "-debug-addr", addr}, os.Stdout)
		if err == nil {
			t.Errorf("-debug-addr %q accepted, want rejection", addr)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}, os.Stdout); err == nil {
		t.Error("run without -models succeeded, want error")
	}
	if err := run([]string{"-models", filepath.Join(t.TempDir(), "missing")}, os.Stdout); err == nil {
		t.Error("run with missing models dir succeeded, want error")
	}
}

// TestHTTPServerTimeouts pins the listeners' timeouts: a bounded wait
// for request headers and for idle keep-alive connections, and no
// write or whole-request read deadline, which would cut off a long
// batch.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer(h)
	if srv.Handler != h {
		t.Error("server does not serve the given handler")
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v; want neither set", srv.WriteTimeout, srv.ReadTimeout)
	}
}
