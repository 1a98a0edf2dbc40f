package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/engine"
	"repro/internal/tpcds"
)

// SharedOptions configures the cross-query scan-sharing comparison: the
// same concurrent workload — several workers running identical-table
// queries over one store with staggered starts — once with ShareScans off
// and once on.
type SharedOptions struct {
	Scale       float64
	Seed        int64
	Iterations  int
	Parallelism int
	BatchSize   int
	// Concurrency is the number of workers running the query list at once.
	Concurrency int
	// CacheBytes bounds the decoded-chunk cache for the shared runs.
	CacheBytes int64
	Queries    []string
}

// DefaultSharedQueries are scan-heavy store_sales queries: every worker
// reads the same partitions, which is exactly the workload scan sharing
// amortizes.
var DefaultSharedQueries = []string{"q09", "q28", "q65", "q88"}

// DefaultSharedOptions models the paper's concurrent-queries motivation at
// benchmark scale: four identical query streams over one table.
func DefaultSharedOptions() SharedOptions {
	return SharedOptions{Scale: 1.0, Seed: 42, Iterations: 3, Parallelism: 4, BatchSize: 1024, Concurrency: 4}
}

// SharedQueryReport compares one query's physical decode work across modes,
// summed over all workers and iterations.
type SharedQueryReport struct {
	Name    string `json:"name"`
	Pattern string `json:"pattern"`
	// BytesScanned is the logical per-run scan volume, identical in every
	// mode and for every worker (sharing never changes what a query is
	// billed for).
	BytesScanned int64 `json:"bytes_scanned"`
	// UnsharedBytesDecoded / SharedBytesDecoded are the physical decode
	// bytes summed across workers and iterations.
	UnsharedBytesDecoded int64   `json:"unshared_bytes_decoded"`
	SharedBytesDecoded   int64   `json:"shared_bytes_decoded"`
	DecodeReduction      float64 `json:"decode_reduction"`
	// SharedHits/CacheHits break down where the shared runs got their
	// chunks (in-flight attach, decoded-chunk cache).
	SharedHits int64 `json:"shared_hits"`
	CacheHits  int64 `json:"cache_hits"`
	// Identical is true when every run in both modes returned rows
	// byte-identical to the serial unshared reference and the same
	// BytesScanned.
	Identical bool `json:"identical_results"`
}

// SharedComparison is the BENCH_shared.json payload.
type SharedComparison struct {
	Scale       float64 `json:"scale"`
	Parallelism int     `json:"parallelism"`
	BatchSize   int     `json:"batch_size"`
	Concurrency int     `json:"concurrency"`
	Iterations  int     `json:"iterations"`
	CacheBytes  int64   `json:"cache_bytes"`

	Queries []SharedQueryReport `json:"queries"`

	UnsharedWallMS       float64 `json:"unshared_wall_ms"`
	SharedWallMS         float64 `json:"shared_wall_ms"`
	Speedup              float64 `json:"speedup"`
	UnsharedBytesDecoded int64   `json:"unshared_bytes_decoded"`
	SharedBytesDecoded   int64   `json:"shared_bytes_decoded"`
	DecodeReduction      float64 `json:"decode_reduction"`
	AllIdentical         bool    `json:"all_identical"`
}

// sharedModeResult accumulates one mode's run.
type sharedModeResult struct {
	wall      time.Duration
	decoded   []int64 // per query, summed over workers × iterations
	shared    []int64
	cache     []int64
	identical []int64 // 0 = every run matched the reference
}

// RunSharedComparison measures the concurrent workload with scan sharing
// off and on against one shared store, verifying every individual run
// against a serial unshared reference.
func RunSharedComparison(opts SharedOptions) (*SharedComparison, error) {
	if opts.Iterations <= 0 {
		opts.Iterations = 1
	}
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = 4
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 1024
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 4
	}
	if len(opts.Queries) == 0 {
		opts.Queries = DefaultSharedQueries
	}
	st, err := tpcds.NewLoadedStore(opts.Scale, opts.Seed)
	if err != nil {
		return nil, err
	}
	var queries []tpcds.Query
	for _, name := range opts.Queries {
		q, ok := tpcds.Get(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown query %q", name)
		}
		queries = append(queries, q)
	}

	// Serial unshared reference: the correctness oracle for every run.
	serial := engine.OpenWithStore(st, engine.Config{EnableFusion: true, Parallelism: 1, BatchSize: 1})
	wantRows := make([]string, len(queries))
	wantScanned := make([]int64, len(queries))
	for i, q := range queries {
		res, err := serial.Query(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("bench: %s (reference): %w", q.Name, err)
		}
		wantRows[i] = renderRows(res.Rows)
		wantScanned[i] = res.Metrics.Storage.BytesScanned
	}

	runMode := func(share bool) (*sharedModeResult, error) {
		eng := engine.OpenWithStore(st, engine.Config{
			EnableFusion: true, Parallelism: opts.Parallelism, BatchSize: opts.BatchSize,
			ShareScans: share, ScanCacheBytes: opts.CacheBytes,
		})
		mode := &sharedModeResult{
			decoded:   make([]int64, len(queries)),
			shared:    make([]int64, len(queries)),
			cache:     make([]int64, len(queries)),
			identical: make([]int64, len(queries)),
		}
		for iter := 0; iter < opts.Iterations; iter++ {
			start := time.Now()
			var wg sync.WaitGroup
			errCh := make(chan error, opts.Concurrency)
			for w := 0; w < opts.Concurrency; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Staggered starts: later workers attach to earlier
					// workers' in-flight scans rather than racing them in
					// lockstep.
					time.Sleep(time.Duration(w) * 500 * time.Microsecond)
					for i, q := range queries {
						res, err := eng.Query(q.SQL)
						if err != nil {
							errCh <- fmt.Errorf("bench: %s (share=%v): %w", q.Name, share, err)
							return
						}
						atomic.AddInt64(&mode.decoded[i], res.Metrics.Share.BytesDecoded)
						atomic.AddInt64(&mode.shared[i], res.Metrics.Share.SharedHits)
						atomic.AddInt64(&mode.cache[i], res.Metrics.Share.CacheHits)
						if renderRows(res.Rows) != wantRows[i] || res.Metrics.Storage.BytesScanned != wantScanned[i] {
							atomic.AddInt64(&mode.identical[i], 1)
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				return nil, err
			}
			mode.wall += time.Since(start)
		}
		return mode, nil
	}

	unshared, err := runMode(false)
	if err != nil {
		return nil, err
	}
	shared, err := runMode(true)
	if err != nil {
		return nil, err
	}

	cmp := &SharedComparison{
		Scale: opts.Scale, Parallelism: opts.Parallelism, BatchSize: opts.BatchSize,
		Concurrency: opts.Concurrency, Iterations: opts.Iterations, CacheBytes: opts.CacheBytes,
		AllIdentical: true,
	}
	for i, q := range queries {
		qr := SharedQueryReport{
			Name: q.Name, Pattern: q.Pattern,
			BytesScanned:         wantScanned[i],
			UnsharedBytesDecoded: unshared.decoded[i],
			SharedBytesDecoded:   shared.decoded[i],
			SharedHits:           shared.shared[i],
			CacheHits:            shared.cache[i],
			Identical:            unshared.identical[i] == 0 && shared.identical[i] == 0,
		}
		if qr.SharedBytesDecoded > 0 {
			qr.DecodeReduction = float64(qr.UnsharedBytesDecoded) / float64(qr.SharedBytesDecoded)
		}
		if !qr.Identical {
			cmp.AllIdentical = false
		}
		cmp.UnsharedBytesDecoded += qr.UnsharedBytesDecoded
		cmp.SharedBytesDecoded += qr.SharedBytesDecoded
		cmp.Queries = append(cmp.Queries, qr)
	}
	cmp.UnsharedWallMS = float64(unshared.wall) / float64(time.Millisecond)
	cmp.SharedWallMS = float64(shared.wall) / float64(time.Millisecond)
	if shared.wall > 0 {
		cmp.Speedup = float64(unshared.wall) / float64(shared.wall)
	}
	if cmp.SharedBytesDecoded > 0 {
		cmp.DecodeReduction = float64(cmp.UnsharedBytesDecoded) / float64(cmp.SharedBytesDecoded)
	}
	return cmp, nil
}

// WriteJSON emits the comparison as indented JSON (the BENCH_shared.json
// artifact).
func (c *SharedComparison) WriteJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// WriteTable renders a human-readable view of the comparison.
func (c *SharedComparison) WriteTable(out io.Writer) {
	fmt.Fprintf(out, "Cross-query scan sharing (scale=%.2f, %d workers x %d iters, parallelism=%d, batch=%d)\n",
		c.Scale, c.Concurrency, c.Iterations, c.Parallelism, c.BatchSize)
	fmt.Fprintln(out, "query | decoded unshared | decoded shared | reduction | identical")
	fmt.Fprintln(out, "------+------------------+----------------+-----------+----------")
	for _, q := range c.Queries {
		fmt.Fprintf(out, "%-5s | %13.2f MB | %11.2f MB | %8.2fx | %v\n",
			q.Name, float64(q.UnsharedBytesDecoded)/1e6, float64(q.SharedBytesDecoded)/1e6,
			q.DecodeReduction, q.Identical)
	}
	fmt.Fprintf(out, "wall: %.2fms unshared vs %.2fms shared (%.2fx); decode reduction %.2fx; all identical: %v\n",
		c.UnsharedWallMS, c.SharedWallMS, c.Speedup, c.DecodeReduction, c.AllIdentical)
}
