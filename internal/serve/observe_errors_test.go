package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// zeroReader yields zero bytes forever — an upload of unbounded size
// without allocating one.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// brokenBody fails mid-read, like a client that disconnected during the
// upload.
type brokenBody struct{}

func (brokenBody) Read([]byte) (int, error) { return 0, errors.New("connection reset by peer") }
func (brokenBody) Close() error             { return nil }

// TestObserveUploadErrorStatus: only an actually oversized body is 413; any
// other failure reading the upload is a 400. Before the fix, every read
// error — including a client disconnect — was mislabeled 413.
func TestObserveUploadErrorStatus(t *testing.T) {
	doc, _ := tinyWorkflow(t, 11, 600)
	srv, _ := newTestServer(t, doc, Options{})
	h := srv.Handler()

	// Oversized: one byte past the cap trips MaxBytesReader.
	over := io.LimitReader(zeroReader{}, maxUploadBytes+1)
	req := httptest.NewRequest(http.MethodPost, "/v1/observe?workflow=tiny", over)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "upload exceeds") {
		t.Fatalf("413 body %q does not name the limit", rec.Body.String())
	}

	// Broken mid-upload: a read error that is NOT the size cap.
	req = httptest.NewRequest(http.MethodPost, "/v1/observe?workflow=tiny", nil)
	req.Body = brokenBody{}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("broken upload: %d, want 400 (was mislabeled 413 before the fix)", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "reading upload") {
		t.Fatalf("400 body %q", rec.Body.String())
	}
}

// TestObserveRefusesSketchTierUpload: an upload carrying the retired sketch
// kinds — the stream an approximate-tier producer sent for this workflow
// when the tier existed, in store format version 2 — is refused as a
// stream of a retired version, which the 422 names, and the catalog is left
// as it was.
func TestObserveRefusesSketchTierUpload(t *testing.T) {
	doc, _ := tinyWorkflow(t, 11, 600)
	srv, _ := newTestServer(t, doc, Options{})
	upload, err := os.ReadFile("testdata/sketch_tier_upload.etlstat")
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/observe?workflow=tiny", bytes.NewReader(upload))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("sketch-tier upload: %d %s, want 422", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "version 2 stream, this build reads only version 4") {
		t.Fatalf("422 body %q does not name the refused version", rec.Body.String())
	}
	if _, ok := srv.catalog.get("tiny"); ok {
		t.Fatal("a refused upload reached the catalog")
	}
}

// TestUnknownWorkflowTyped: planFor on a workflow with no document returns
// the typed error instead of panicking on the nil map entry, and the
// HTTP surface turns it into a 404.
func TestUnknownWorkflowTyped(t *testing.T) {
	doc, _ := tinyWorkflow(t, 11, 600)
	srv, _ := newTestServer(t, doc, Options{})
	_, err := srv.planFor("ghost")
	var unknown *unknownWorkflowError
	if !errors.As(err, &unknown) || unknown.Workflow != "ghost" {
		t.Fatalf("planFor(ghost) = %v, want *UnknownWorkflowError", err)
	}
	if !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("error %q does not name the workflow", err)
	}
}
