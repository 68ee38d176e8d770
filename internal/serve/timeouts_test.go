package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerSetsAllTimeouts pins the hardening contract: every
// connection-state timeout of the one constructor is set.
func TestNewHTTPServerSetsAllTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("newHTTPServer leaves a connection state unbounded: %+v", srv)
	}
}

// TestServerClosesSlowHeaderClient is the behavioral pin for the slowloris
// guard: a connection that sends no request headers must be closed by the
// server within (roughly) the ReadHeader timeout instead of holding its
// slot forever.
func TestServerClosesSlowHeaderClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", NewWorker().Handler())
	srv.ReadHeaderTimeout = 150 * time.Millisecond
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Dribble a partial request line, then stall: a compliant hardened
	// server must hang up once ReadHeader expires.
	if _, err := conn.Write([]byte("GET /v1/worker/health HT")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("server kept the stalled connection open past %v", elapsed)
		}
		// Any other error (e.g. connection reset) is also a close: fine.
	}
	if elapsed > 3*time.Second {
		t.Errorf("stalled connection closed only after %v; want ~ReadHeader (150ms)", elapsed)
	}
}

// TestServeUntilDrainsOnCancel pins serveUntil's lifecycle: cancelling the
// context shuts the server down cleanly (nil error) and frees the port.
func TestServeUntilDrainsOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- NewWorker().ListenAndServe(ctx, addr) }()

	// Wait for the server to come up, then stop it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/v1/worker/health")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never came up on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clean shutdown must return nil, got %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("ListenAndServe did not return after cancellation")
	}
}
