// Command loadgen drives an etlopt statistics daemon with a spec-defined
// request mix and reports sustained throughput and latency percentiles.
//
// With no -addr it self-hosts: it opens a throwaway catalog, mounts the
// serve handler on a loopback listener, and drives that (an ad-hoc load
// tool: it publishes nothing, the daemon's measured numbers come from the
// serve-churn workload of bench/, `make bench`). With -addr it drives a
// running daemon over the network (the load-smoke CI job).
//
// The spec file (see loadspecs/) sets duration, warmup, concurrency, an
// optional aggregate QPS throttle, the workflow set, the data scale for
// the observed-statistics streams, and the optimize/estimate/observe mix.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/serve"
	"github.com/essential-stats/etlopt/internal/suite"
)

func main() {
	spec := flag.String("spec", "loadspecs/bench.yaml", "load specification file")
	addr := flag.String("addr", "", "daemon base URL, e.g. http://127.0.0.1:8080 (empty: self-host an in-process daemon)")
	out := flag.String("out", "", "write the JSON report here (empty: stdout only)")
	flag.Parse()
	if err := run(*spec, *addr, *out); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type sample struct {
	op       string
	status   int
	ms       float64
	measured bool
}

type latencySummary struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

type opSummary struct {
	Requests  int64          `json:"requests"`
	QPS       float64        `json:"qps"`
	LatencyMs latencySummary `json:"latencyMs"`
}

type report struct {
	Spec            string         `json:"spec"`
	Addr            string         `json:"addr"`
	SelfHosted      bool           `json:"selfHosted"`
	Concurrency     int            `json:"concurrency"`
	TargetQPS       float64        `json:"targetQps,omitempty"`
	MeasuredSeconds float64        `json:"measuredSeconds"`
	Requests        int64          `json:"requests"`
	QPS             float64        `json:"qps"`
	LatencyMs       latencySummary `json:"latencyMs"`
	// Status buckets count the WHOLE run, warmup included — an error or a
	// shed during the cold-start convoy still matters to a smoke gate.
	// Requests/QPS/latencies cover only the post-warmup window.
	Status map[string]int64     `json:"status"`
	Ops    map[string]opSummary `json:"ops"`
}

func run(specPath, addr, outPath string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}

	// Observed-statistics streams, one per workflow: both the seed upload
	// and the observe ops in the mix replay these. Re-uploading the same
	// stream advances the generation without drift, so cached solutions
	// legitimately survive — the cache-reuse path under churn.
	streams := make(map[string][]byte, len(spec.Workflows))
	for _, name := range spec.Workflows {
		w, err := suiteByName(name)
		if err != nil {
			return err
		}
		cy, err := core.Run(w.Graph, w.Catalog, w.Data(spec.Scale), core.DefaultConfig())
		if err != nil {
			return fmt.Errorf("observing %s: %w", name, err)
		}
		var buf bytes.Buffer
		if err := cy.SaveStats(&buf); err != nil {
			return err
		}
		streams[name] = buf.Bytes()
	}

	base := strings.TrimRight(addr, "/")
	selfHosted := base == ""
	if selfHosted {
		var stop func()
		base, stop, err = selfHost()
		if err != nil {
			return err
		}
		defer stop()
	}

	client := &http.Client{Timeout: 60 * time.Second}

	// Seed: every workflow needs one generation before optimize answers.
	for _, name := range spec.Workflows {
		status, err := post(client, base+"/v1/observe?workflow="+name, "application/octet-stream", streams[name])
		if err != nil {
			return fmt.Errorf("seeding %s: %w", name, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("seeding %s: daemon answered %d", name, status)
		}
	}

	seq := spec.schedule()
	var pace <-chan time.Time
	if spec.QPS > 0 {
		tick := time.NewTicker(time.Duration(float64(time.Second) / spec.QPS))
		defer tick.Stop()
		pace = tick.C
	}

	start := time.Now()
	warmEnd := start.Add(spec.Warmup)
	deadline := start.Add(spec.Duration)
	perWorker := make([][]sample, spec.Concurrency)
	var wg sync.WaitGroup
	for wk := 0; wk < spec.Concurrency; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var samples []sample
			for i := wk; time.Now().Before(deadline); i++ {
				if pace != nil {
					<-pace
					if !time.Now().Before(deadline) {
						break
					}
				}
				op := seq[i%len(seq)]
				wf := spec.Workflows[i%len(spec.Workflows)]
				t0 := time.Now()
				status := doOp(client, base, op, wf, streams[wf])
				samples = append(samples, sample{
					op:       op,
					status:   status,
					ms:       float64(time.Since(t0)) / float64(time.Millisecond),
					measured: !t0.Before(warmEnd),
				})
			}
			perWorker[wk] = samples
		}(wk)
	}
	wg.Wait()
	measured := time.Since(warmEnd)

	rep := aggregate(specPath, base, selfHosted, spec, perWorker, measured)
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if outPath != "" {
		if err := os.WriteFile(outPath, enc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", outPath)
	} else {
		os.Stdout.Write(enc)
	}
	fmt.Fprintf(os.Stderr,
		"loadgen: %d requests over %.1fs — %.1f req/s, p50 %.1fms p99 %.1fms (2xx=%d 429=%d 4xx=%d 5xx=%d)\n",
		rep.Requests, rep.MeasuredSeconds, rep.QPS,
		rep.LatencyMs.P50, rep.LatencyMs.P99,
		rep.Status["2xx"], rep.Status["429"], rep.Status["4xx"], rep.Status["5xx"])
	return nil
}

// selfHost mounts a fresh daemon (suite workflows, throwaway catalog) on a
// loopback listener and returns its base URL.
func selfHost() (string, func(), error) {
	dir, err := os.MkdirTemp("", "loadgen-catalog-")
	if err != nil {
		return "", nil, err
	}
	cat, err := serve.OpenCatalog(dir)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	srv, err := serve.New(cat, nil, serve.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() {
		hs.Close()
		os.RemoveAll(dir)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func doOp(client *http.Client, base, op, wf string, stream []byte) int {
	var status int
	var err error
	switch op {
	case "observe":
		status, err = post(client, base+"/v1/observe?workflow="+wf, "application/octet-stream", stream)
	default: // optimize | estimate (validated by the spec parser)
		body := []byte(fmt.Sprintf(`{"workflow":%q}`, wf))
		status, err = post(client, base+"/v1/"+op, "application/json", body)
	}
	if err != nil {
		return 0 // transport failure; bucketed as "error"
	}
	return status
}

func post(client *http.Client, url, contentType string, body []byte) (int, error) {
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func aggregate(specPath, base string, selfHosted bool, spec *Spec, perWorker [][]sample, measured time.Duration) *report {
	rep := &report{
		Spec:            specPath,
		Addr:            base,
		SelfHosted:      selfHosted,
		Concurrency:     spec.Concurrency,
		TargetQPS:       spec.QPS,
		MeasuredSeconds: measured.Seconds(),
		Status:          map[string]int64{"2xx": 0, "429": 0, "4xx": 0, "5xx": 0},
		Ops:             map[string]opSummary{},
	}
	var all []float64
	perOp := map[string][]float64{}
	for _, samples := range perWorker {
		for _, s := range samples {
			rep.Status[bucket(s.status)]++
			if !s.measured {
				continue
			}
			rep.Requests++
			all = append(all, s.ms)
			perOp[s.op] = append(perOp[s.op], s.ms)
		}
	}
	if sec := rep.MeasuredSeconds; sec > 0 {
		rep.QPS = float64(rep.Requests) / sec
	}
	rep.LatencyMs = percentiles(all)
	for op, ms := range perOp {
		s := opSummary{Requests: int64(len(ms)), LatencyMs: percentiles(ms)}
		if sec := rep.MeasuredSeconds; sec > 0 {
			s.QPS = float64(len(ms)) / sec
		}
		rep.Ops[op] = s
	}
	return rep
}

func bucket(status int) string {
	switch {
	case status == 0:
		return "error"
	case status == http.StatusTooManyRequests:
		return "429"
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 200 && status < 300:
		return "2xx"
	default:
		return "3xx"
	}
}

func percentiles(ms []float64) latencySummary {
	if len(ms) == 0 {
		return latencySummary{}
	}
	sort.Float64s(ms)
	at := func(q float64) float64 { return ms[int(q*float64(len(ms)-1))] }
	return latencySummary{
		P50: at(0.50), P90: at(0.90), P95: at(0.95), P99: at(0.99),
		Max: ms[len(ms)-1],
	}
}

func suiteByName(name string) (*suite.Workflow, error) {
	for _, w := range suite.All() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("no suite workflow %q (wf01..wf30)", name)
}
