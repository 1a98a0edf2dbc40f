package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/tpcds"
)

// TestConcurrentVectorizedQueries stresses the parallel execution paths:
// many goroutines share one store through separate fused engines — with
// different parallelism, batch-size and scan-sharing settings, so
// morsel-parallel scans, partition-wise parallel aggregation, parallel join
// builds and the cross-query scan-share subsystem all run at once — and
// every result must match the serial answer (run under -race on CI).
//
// Workers deliberately overlap queries on the *same* tables with staggered
// starts: each worker runs its own query plus a scan of store_sales (the
// table nearly every query touches), so sharing engines exercise the
// mid-flight attach, cache and LIMIT-abandonment paths under stress rather
// than only disjoint scans.
func TestConcurrentVectorizedQueries(t *testing.T) {
	st, err := tpcds.NewLoadedStore(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	serial := OpenWithStore(st, Config{EnableFusion: true, Parallelism: 1, BatchSize: 1})
	engines := []*Engine{
		OpenWithStore(st, Config{EnableFusion: true, Parallelism: 4}),
		OpenWithStore(st, Config{EnableFusion: true, Parallelism: 8, BatchSize: 64}),
		OpenWithStore(st, Config{EnableFusion: true, Parallelism: 3, BatchSize: 7}),
		OpenWithStore(st, Config{EnableFusion: true, Parallelism: 4, ShareScans: true}),
		OpenWithStore(st, Config{EnableFusion: true, Parallelism: 8, BatchSize: 64, ShareScans: true}),
		OpenWithStore(st, Config{EnableFusion: true, Parallelism: 2, BatchSize: 32, ShareScans: true}),
	}

	// Scan-heavy (q09, q28), join+agg (q65, f18), multi-key aggregation with
	// HAVING (f26) and COUNT(DISTINCT) (f11) — the operators that run
	// partitioned in parallel. The LIMIT scan abandons its (possibly shared)
	// morsel stream early while other workers keep consuming the same
	// partitions, and the bare aggregation overlaps every worker on
	// store_sales.
	const limitScan = "SELECT ss_item_sk, ss_quantity FROM store_sales LIMIT 7"
	const overlapScan = "SELECT COUNT(*) AS c, SUM(ss_quantity) AS sq, MIN(ss_sales_price) AS mp FROM store_sales"
	queries := map[string]string{"__limit": limitScan, "__overlap": overlapScan}
	names := []string{"q65", "q09", "q28", "f18", "f26", "f11"}
	for _, name := range names {
		q, ok := tpcds.Get(name)
		if !ok {
			t.Fatalf("no query %s", name)
		}
		queries[name] = q.SQL
	}
	names = append(names, "__limit", "__overlap")
	want := make(map[string]string, len(queries))
	for name, sql := range queries {
		res, err := serial.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = exactRows(res.Rows)
	}

	const workers = 16
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			// Staggered starts: early workers' scans are mid-flight when
			// later workers arrive, exercising the attach path.
			time.Sleep(time.Duration(w) * 200 * time.Microsecond)
			eng := engines[w%len(engines)]
			for _, name := range []string{names[w%len(names)], "__overlap", "__limit"} {
				res, err := eng.Query(queries[name])
				if err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
					return
				}
				if got := exactRows(res.Rows); got != want[name] {
					errs <- fmt.Errorf("%s: concurrent result differs from serial", name)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
