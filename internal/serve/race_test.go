package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
)

// TestStaleGenerationInsertRejected is the headline bugfix, replayed
// deterministically at the solved() layer. A solve starts against
// generation 1, a drifted upload supersedes it mid-flight, and the solve's
// late cache insert must be rejected — before the fix the insert landed
// after the invalidation and resurrected the superseded solution.
func TestStaleGenerationInsertRejected(t *testing.T) {
	doc, db := tinyWorkflow(t, 11, 600)
	srv, ts := newTestServer(t, doc, Options{})
	stream1 := observedStream(t, doc, db)
	if resp, body := post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", stream1); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe gen 1: %d %s", resp.StatusCode, body)
	}

	// A solve against generation 1, held open at the window where the bug
	// lived: catalog read done, result not yet cached.
	started := make(chan struct{})
	release := make(chan struct{})
	solveDone := make(chan error, 1)
	go func() {
		_, _, err := srv.solved(context.Background(), "tiny", 1, "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte(`{"from":"generation 1"}`), nil
		})
		solveDone <- err
	}()
	<-started

	// The upload that makes generation 1 stale.
	_, db2 := tinyWorkflow(t, 977, 1800)
	stream2 := observedStream(t, doc, db2)
	resp, body := post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", stream2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe gen 2: %d %s", resp.StatusCode, body)
	}
	var obs observeResponse
	if err := json.Unmarshal(body, &obs); err != nil {
		t.Fatal(err)
	}
	if obs.Generation != 2 || !obs.Reoptimize {
		t.Fatalf("second upload did not drift: %+v", obs)
	}

	// Let the stale solve land its insert.
	close(release)
	if err := <-solveDone; err != nil {
		t.Fatalf("stale solve errored: %v", err)
	}

	// The next request for the same key must NOT see the stale body: it
	// executes a fresh solve at generation 2, and THAT result caches.
	executed := false
	got, hit, err := srv.solved(context.Background(), "tiny", 2, "k", func() ([]byte, error) {
		executed = true
		return []byte(`{"from":"generation 2"}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit || !executed {
		t.Fatalf("stale generation-1 body served from cache: hit=%v executed=%v body=%s", hit, executed, got)
	}
	if string(got) != `{"from":"generation 2"}` {
		t.Fatalf("solved returned %s", got)
	}
	_, hit, err = srv.solved(context.Background(), "tiny", 2, "k", func() ([]byte, error) {
		t.Error("current-generation result was not cached")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("repeat at generation 2: hit=%v err=%v", hit, err)
	}
}

// TestObserveOptimizeRaceNoStaleCache interleaves drifted uploads with
// optimize requests over the full HTTP path (run under -race in CI). Every
// upload alternates between two mutually-drifted streams, so each one
// invalidates; once the uploads stop, the cache may not hold anything older
// than the last generation, and the final optimize must answer from it.
func TestObserveOptimizeRaceNoStaleCache(t *testing.T) {
	doc, db := tinyWorkflow(t, 11, 600)
	srv, ts := newTestServer(t, doc, Options{})
	_, db2 := tinyWorkflow(t, 977, 1800)
	streams := [][]byte{observedStream(t, doc, db), observedStream(t, doc, db2)}
	if resp, body := post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", streams[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed observe: %d %s", resp.StatusCode, body)
	}

	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, body := post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", streams[(i+1)%2])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("upload %d: %d %s", i, resp.StatusCode, body)
			}
		}
	}()
	go func() {
		defer wg.Done()
		req := []byte(`{"workflow":"tiny"}`)
		for i := 0; i < rounds; i++ {
			resp, body := post(t, ts.URL+"/v1/optimize", "application/json", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("optimize %d: %d %s", i, resp.StatusCode, body)
			}
		}
	}()
	wg.Wait()

	entry, ok := srv.catalog.get("tiny")
	if !ok {
		t.Fatal("catalog lost the workflow")
	}
	if entry.Generation != rounds+1 {
		t.Fatalf("catalog at generation %d after %d uploads", entry.Generation, rounds+1)
	}
	if b := srv.cache.Bound("tiny"); b != entry.Generation {
		t.Fatalf("cache bound %d lags the catalog generation %d", b, entry.Generation)
	}

	// Quiesced: the answer must come from the newest statistics.
	req := []byte(`{"workflow":"tiny"}`)
	resp, body := post(t, ts.URL+"/v1/optimize", "application/json", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final optimize: %d %s", resp.StatusCode, body)
	}
	var opt optimizeResponse
	if err := json.Unmarshal(body, &opt); err != nil {
		t.Fatal(err)
	}
	if opt.Generation != entry.Generation {
		t.Fatalf("final optimize served generation %d, catalog is at %d — stale cache entry survived",
			opt.Generation, entry.Generation)
	}

	// And the fresh answer is cached: the repeat is a byte-identical hit.
	resp, body2 := post(t, ts.URL+"/v1/optimize", "application/json", req)
	if h := resp.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("repeat after quiesce X-Cache = %q", h)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cache hit differs from the solved body")
	}
}

// TestConcurrentFirstUploads sends a workflow's first uploads eight at a
// time, straight to the handler, over a fresh catalog each round (run under
// -race in CI). Each upload compares itself with the generation it
// replaced, so every one must be answered 200, the generations must be 1
// to 8, and none may compare with a generation it did not replace — before
// the fix, one that read the catalog before another's Put compared with
// nothing and panicked.
func TestConcurrentFirstUploads(t *testing.T) {
	doc, db := tinyWorkflow(t, 11, 600)
	stream := observedStream(t, doc, db)
	const uploads = 8
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		cat, err := OpenCatalog(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(cat, map[string]*Document{"tiny": doc}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		gens := make([]int, uploads)
		var wg sync.WaitGroup
		for i := range gens {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe?workflow=tiny", bytes.NewReader(stream)))
				var obs observeResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &obs) != nil {
					t.Errorf("round %d: upload answered %d %s", round, rec.Code, rec.Body)
					return
				}
				gens[i] = obs.Generation
			}()
		}
		wg.Wait()
		slices.Sort(gens)
		for i, g := range gens {
			if g != i+1 {
				t.Fatalf("round %d: generations %v, want 1 to %d", round, gens, uploads)
			}
		}
	}
}
