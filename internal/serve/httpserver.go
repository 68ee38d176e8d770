package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// The daemon and the worker both face the open network in production ETL
// deployments; a client that dribbles header bytes, never finishes a body,
// or parks an idle keep-alive connection must not hold a connection slot
// forever. The bounds are generous enough for the largest statistics upload
// (maxUploadBytes) on a slow link.
const (
	readHeaderTimeout = 10 * time.Second // the request headers (slowloris guard)
	readTimeout       = 2 * time.Minute  // the whole request, body included
	writeTimeout      = 2 * time.Minute  // the response, from the end of the request headers
	idleTimeout       = 2 * time.Minute  // a keep-alive connection between requests
)

// newHTTPServer returns an http.Server with every connection-state timeout
// set — the one constructor both the daemon and the worker use, so neither
// can regress to an unbounded server.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serveUntil runs the server until the context is cancelled, then drains
// in-flight requests (bounded) and returns nil on a clean shutdown.
func serveUntil(ctx context.Context, srv *http.Server) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	<-errc // always http.ErrServerClosed after Shutdown
	return nil
}
