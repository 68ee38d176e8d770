package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAdmissionShedAndQueue drives the limiter deterministically: with one
// slot and a queue of one, the second acquire waits, the third sheds with
// a typed BusyError, and releasing the slot admits the waiter.
func TestAdmissionShedAndQueue(t *testing.T) {
	a := newAdmission(1, 1)
	ctx := context.Background()

	release1, err := a.acquire(ctx)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	admitted := make(chan func(), 1)
	go func() {
		rel, err := a.acquire(ctx)
		if err != nil {
			t.Errorf("queued acquire: %v", err)
		}
		admitted <- rel
	}()
	// Wait until the goroutine occupies the queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if w, _ := a.depth(); w == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued acquire never started waiting")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the third caller is shed immediately.
	_, err = a.acquire(ctx)
	var busy *busyError
	if !errors.As(err, &busy) {
		t.Fatalf("third acquire = %v, want *BusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("BusyError.RetryAfter = %v", busy.RetryAfter)
	}

	release1()
	select {
	case rel := <-admitted:
		rel()
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not admitted after release")
	}
	if w, in := a.depth(); w != 0 || in != 0 {
		t.Fatalf("depth after drain: waiting=%d inflight=%d", w, in)
	}

	// A waiter whose context dies leaves the queue.
	release1, err = a.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := a.acquire(cctx)
		errc <- err
	}()
	for {
		if w, _ := a.depth(); w == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	release1()
}

// TestAdmissionUnlimited: MaxSolves 0 admits everything and never sheds.
func TestAdmissionUnlimited(t *testing.T) {
	a := newAdmission(0, 0)
	var rels []func()
	for i := 0; i < 100; i++ {
		rel, err := a.acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		rels = append(rels, rel)
	}
	if _, in := a.depth(); in != 100 {
		t.Fatalf("inflight = %d", in)
	}
	for _, rel := range rels {
		rel()
	}
	if _, in := a.depth(); in != 0 {
		t.Fatalf("inflight after release = %d", in)
	}
}

// TestServe429Shed: with one solve slot held and a zero-length queue, an
// optimize request is shed as a typed 429 with Retry-After — and the shed
// shows up in /metrics. The slot is occupied deterministically through the
// limiter itself, not by racing a real solve.
func TestServe429Shed(t *testing.T) {
	doc, db := tinyWorkflow(t, 11, 600)
	srv, ts := newTestServer(t, doc, Options{MaxSolves: 1, SolveQueue: 0})
	stream := observedStream(t, doc, db)
	if resp, body := post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", stream); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}

	release, err := srv.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/optimize", "application/json", []byte(`{"workflow":"tiny"}`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("optimize under full admission: %d %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var shed struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retryAfter"`
	}
	if err := json.Unmarshal(body, &shed); err != nil {
		t.Fatalf("429 body %s: %v", body, err)
	}
	if shed.RetryAfter < 1 || !strings.Contains(shed.Error, "capacity") {
		t.Fatalf("429 body %+v", shed)
	}
	resp, body = post(t, ts.URL+"/v1/estimate", "application/json", []byte(`{"workflow":"tiny"}`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("estimate under full admission: %d %s", resp.StatusCode, body)
	}

	_, mbody := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(mbody), "etlopt_serve_sheds_total 2") {
		t.Fatalf("metrics missing shed count:\n%s", mbody)
	}

	// Releasing the slot restores service.
	release()
	resp, body = post(t, ts.URL+"/v1/optimize", "application/json", []byte(`{"workflow":"tiny"}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize after release: %d %s", resp.StatusCode, body)
	}
}

// TestServeOverloadShedsCleanly is the same under-provisioned daemon under
// real contention: 16 clients post optimize and estimate requests at one
// solve slot with no queue — every estimate of its own budget, so a cache
// miss that needs the slot; the optimizes share two keys, whose repeats
// after a solve are cache hits. Whatever the interleaving, every answer is
// a 200 or a typed 429, never a 5xx, and the shed counter equals the 429s
// the clients saw.
func TestServeOverloadShedsCleanly(t *testing.T) {
	doc, db := tinyWorkflow(t, 11, 600)
	_, ts := newTestServer(t, doc, Options{MaxSolves: 1, SolveQueue: 0})
	stream := observedStream(t, doc, db)
	if resp, body := post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", stream); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}

	const clients, rounds = 16, 8
	counts := make([]map[int]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		counts[c] = make(map[int]int)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				url, body := ts.URL+"/v1/optimize", fmt.Sprintf(`{"workflow":"tiny","allowPartial":%v}`, c%4 == 0)
				if c%2 == 1 {
					url, body = ts.URL+"/v1/estimate", fmt.Sprintf(`{"workflow":"tiny","budget":%d}`, 1000+c*rounds+i)
				}
				resp, err := http.Post(url, "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				resp.Body.Close()
				counts[c][resp.StatusCode]++
			}
		}(c)
	}
	wg.Wait()

	total := make(map[int]int)
	for _, m := range counts {
		for code, n := range m {
			total[code] += n
		}
	}
	for code, n := range total {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Errorf("%d answer(s) with status %d, want only 200 and 429", n, code)
		}
	}
	if total[http.StatusOK] == 0 {
		t.Error("no request was served")
	}
	t.Logf("%d served, %d shed", total[http.StatusOK], total[http.StatusTooManyRequests])
	_, mbody := get(t, ts.URL+"/metrics")
	want := fmt.Sprintf("etlopt_serve_sheds_total %d\n", total[http.StatusTooManyRequests])
	if !strings.Contains(string(mbody), want) {
		t.Fatalf("clients saw %d 429s; metrics say:\n%s", total[http.StatusTooManyRequests], mbody)
	}
}
