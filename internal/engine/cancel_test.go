package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// bigDB scales the retail schema up far enough that a full run takes many
// milliseconds on any engine — long enough for a cancellation to land
// mid-execution rather than after the finish line.
func bigDB(n int) (DB, *workflow.Catalog) {
	const customers, products = 500, 300
	orders := &data.Table{Rel: "Orders", Attrs: []workflow.Attr{
		{Rel: "Orders", Col: "cid"}, {Rel: "Orders", Col: "oid"}, {Rel: "Orders", Col: "pid"},
	}}
	orders.Rows = make([]data.Row, n)
	for i := range orders.Rows {
		orders.Rows[i] = data.Row{int64(i%customers + 1), int64(i), int64(i%products + 1)}
	}
	product := &data.Table{Rel: "Product", Attrs: []workflow.Attr{
		{Rel: "Product", Col: "pid"}, {Rel: "Product", Col: "price"},
	}}
	product.Rows = make([]data.Row, products)
	for i := range product.Rows {
		product.Rows[i] = data.Row{int64(i + 1), int64((i + 1) * 10)}
	}
	customer := &data.Table{Rel: "Customer", Attrs: []workflow.Attr{
		{Rel: "Customer", Col: "cid"}, {Rel: "Customer", Col: "region"},
	}}
	customer.Rows = make([]data.Row, customers)
	for i := range customer.Rows {
		customer.Rows[i] = data.Row{int64(i + 1), int64(i%10 + 1)}
	}
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "Orders", Card: int64(n), Columns: []workflow.Column{
			{Name: "cid", Domain: customers + 1}, {Name: "oid", Domain: int64(n)}, {Name: "pid", Domain: products + 1},
		}},
		{Name: "Product", Card: products, Columns: []workflow.Column{
			{Name: "pid", Domain: products + 1}, {Name: "price", Domain: 10000},
		}},
		{Name: "Customer", Card: customers, Columns: []workflow.Column{
			{Name: "cid", Domain: customers + 1}, {Name: "region", Domain: 11},
		}},
	}}
	return DB{"Orders": orders, "Product": product, "Customer": customer}, cat
}

// waitGoroutines polls until the live goroutine count drops back to the
// baseline captured before the cancelled run — the manual leak check (no
// external leak-detector dependency).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancellation: %d live, baseline %d", n, baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancellationAllConfigs cancels instrumented runs mid-flight,
// sequential and with four blocks in flight, and checks the three
// cancellation guarantees:
//
//   - the run returns the context's error (wrapped, errors.Is-visible) plus
//     a partial result;
//   - no goroutines leak — the count returns to its pre-run baseline;
//   - no torn observations: every statistic present in the partial store is
//     byte-identical to the fault-free golden value (observers commit only
//     complete observations, and the store is write-once).
//
// Run it under -race: the interesting failures are racy ones.
func TestCancellationAllConfigs(t *testing.T) {
	db, cat := bigDB(150_000)
	an, err := workflow.Analyze(retailGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	observe := observableStats(res)
	golden, err := New(an, db, nil).RunPlans(nil, res, observe)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}

	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"batch/w1", 1},
		{"batch/w4", 4},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cancelled := false
			for attempt := 0; attempt < 8 && !cancelled; attempt++ {
				eng := New(an, db, nil)
				eng.Workers = cfg.workers
				ctx, cancel := context.WithCancel(context.Background())
				delay := time.Duration(attempt+1) * 500 * time.Microsecond
				timer := time.AfterFunc(delay, cancel)
				out, err := eng.RunPlansCtx(ctx, nil, res, observe)
				timer.Stop()
				cancel()
				if err == nil {
					continue // finished before the cancel landed; try again
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("attempt %d: want context.Canceled, got %v", attempt, err)
				}
				cancelled = true
				if out == nil {
					t.Fatal("cancelled run returned no partial result")
				}
				if out.Observed != nil {
					for _, v := range out.Observed.Values() {
						want, ok := golden.Observed.Get(v.Stat)
						if !ok {
							t.Fatalf("partial store holds %v, absent from golden run", v.Stat.Key())
						}
						if v.Hist != nil {
							continue // histograms are checked whole below
						}
						if want.Scalar != v.Scalar {
							t.Fatalf("torn observation %v: partial %d, golden %d",
								v.Stat.Key(), v.Scalar, want.Scalar)
						}
					}
				}
			}
			if !cancelled {
				t.Fatal("every attempt completed before cancellation; fixture too small")
			}
			waitGoroutines(t, baseline)
		})
	}
}
