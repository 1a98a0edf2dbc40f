package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/scanshare"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// A morsel is the unit of parallel scan work: a run of consecutive
// partitions totalling roughly morselTarget rows. Workers claim morsels
// from a shared counter (morsel-driven scheduling), decode their column
// chunks into batches, and hand them to the consumer through per-morsel
// slots so the output order — and therefore every downstream result — is
// identical to the serial scan's partition order.
type morsel struct {
	parts []*storage.Partition
}

// buildMorsels groups consecutive partitions until each group holds at
// least target rows. Grouping keeps per-morsel scheduling overhead amortized
// when tables have many small partitions (date-partitioned facts).
func buildMorsels(parts []*storage.Partition, target int) []morsel {
	var out []morsel
	var cur []*storage.Partition
	rows := 0
	for _, p := range parts {
		cur = append(cur, p)
		rows += p.NumRows
		if rows >= target {
			out = append(out, morsel{parts: cur})
			cur, rows = nil, 0
		}
	}
	if len(cur) > 0 {
		out = append(out, morsel{parts: cur})
	}
	return out
}

// morselTarget picks the morsel size: large enough to amortize channel and
// decode-setup overhead (at least one batch), small enough to keep every
// worker busy (~4 morsels per worker when the table is large).
func morselTarget(parts []*storage.Partition, batchSize, parallelism int) int {
	total := 0
	for _, p := range parts {
		total += p.NumRows
	}
	target := total / (parallelism * 4)
	if target < batchSize {
		target = batchSize
	}
	return target
}

// partitionBatches decodes one partition's columns in a single pass each —
// through the scan-share manager when sharing is on — and slices the vectors
// into dense batches (zero-copy subslices). stop abandons waits on other
// queries' in-flight decodes when this query goes away early.
func partitionBatches(p *storage.Partition, cols []string, batchSize int, share *scanshare.Manager, stop <-chan struct{}, m *Metrics, dst []*vec.Batch) ([]*vec.Batch, error) {
	decoded, err := decodePartition(p, cols, share, stop, m)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < p.NumRows; lo += batchSize {
		hi := lo + batchSize
		if hi > p.NumRows {
			hi = p.NumRows
		}
		bcols := make([][]types.Value, len(decoded))
		for c := range decoded {
			bcols[c] = decoded[c][lo:hi]
		}
		dst = append(dst, vec.NewDense(bcols, hi-lo))
	}
	return dst, nil
}

// morselItem is one in-order element of a scanned morsel: a decoded batch,
// or a marker for a pruned partition (b nil, skip its row count). Markers
// keep the as-if-scanned RowsProcessed recharge at the exact stream
// position the partition's batches would have occupied, which is what
// makes pruning invisible to LIMIT truncation.
type morselItem struct {
	b    *vec.Batch
	skip int64
}

type morselResult struct {
	batches []*vec.Batch
	items   []morselItem
	// skipped totals pruned rows of a pipeline morsel (recharged by the
	// pipeline consumer when the result is received).
	skipped int64
	err     error
}

// parallelScanIter is the morsel-parallel scan leaf. Workers race down the
// morsel list; each morsel's batches are delivered through a dedicated
// 1-slot channel and consumed strictly in morsel order. A token semaphore
// bounds decoded-but-unconsumed morsels so a fast scan cannot buffer the
// whole table, and close() releases the pool even when the consumer stops
// early (LIMIT) or the query errors.
type parallelScanIter struct {
	cols      []string
	morsels   []morsel
	batchSize int
	workers   int
	m         *Metrics
	pool      *workerPool
	// share, when non-nil, routes partition decodes through the cross-query
	// scan-share manager (set by buildScan before the first NextBatch).
	share *scanshare.Manager
	// ctrl prunes partitions before decode (set by buildScan; nil-safe).
	// Workers decide prunes; the consumer applies the recharge in order.
	ctrl *skipController

	started bool
	next    int64
	stop    chan struct{}
	tokens  chan struct{}
	results []chan morselResult
	wg      sync.WaitGroup

	mi     int
	cur    []morselItem
	curIdx int
}

func newParallelScan(cols []string, morsels []morsel, batchSize, workers int, m *Metrics, pool *workerPool) *parallelScanIter {
	if workers > len(morsels) {
		workers = len(morsels)
	}
	it := &parallelScanIter{
		cols:      cols,
		morsels:   morsels,
		batchSize: batchSize,
		workers:   workers,
		m:         m,
		pool:      pool,
		stop:      make(chan struct{}),
		tokens:    make(chan struct{}, 2*workers),
		results:   make([]chan morselResult, len(morsels)),
	}
	for i := range it.results {
		it.results[i] = make(chan morselResult, 1)
	}
	return it
}

func (it *parallelScanIter) start() {
	it.started = true
	it.wg.Add(it.workers)
	for w := 0; w < it.workers; w++ {
		go it.worker()
	}
}

func (it *parallelScanIter) worker() {
	defer it.wg.Done()
	for {
		select {
		case <-it.stop:
			return
		case it.tokens <- struct{}{}:
		}
		i := int(atomic.AddInt64(&it.next, 1)) - 1
		if i >= len(it.morsels) {
			<-it.tokens
			return
		}
		// The decode is the CPU work; it runs under a shared pool slot so
		// scan leaves and the blocking operators above them together never
		// exceed Parallelism concurrent workers.
		it.pool.acquire()
		var items []morselItem
		var err error
		for _, p := range it.morsels[i].parts {
			if it.ctrl.shouldPrune(p) {
				items = append(items, morselItem{skip: int64(p.NumRows)})
				continue
			}
			var batches []*vec.Batch
			if batches, err = partitionBatches(p, it.cols, it.batchSize, it.share, it.stop, it.m, nil); err != nil {
				break
			}
			for _, b := range batches {
				items = append(items, morselItem{b: b})
			}
		}
		it.pool.release()
		// Capacity-1 channel: the send never blocks, so a worker always
		// finishes its claimed morsel even if the consumer has gone away.
		it.results[i] <- morselResult{items: items, err: err}
	}
}

func (it *parallelScanIter) NextBatch() (*vec.Batch, error) {
	if !it.started {
		it.start()
	}
	for {
		if it.curIdx < len(it.cur) {
			item := it.cur[it.curIdx]
			it.curIdx++
			if item.b == nil {
				// Pruned partition: recharge exactly where its batches would
				// have been consumed.
				it.ctrl.recharge(item.skip)
				continue
			}
			it.m.addProcessed(int64(item.b.Len()))
			return item.b, nil
		}
		if it.mi >= len(it.morsels) {
			return nil, nil
		}
		res := <-it.results[it.mi]
		it.mi++
		<-it.tokens
		if res.err != nil {
			return nil, res.err
		}
		it.cur, it.curIdx = res.items, 0
	}
}

// close signals the workers to drain and waits for in-flight decodes to
// finish, so no worker touches storage metrics after close returns. Safe to
// call before the first NextBatch; the executor's close guard ensures it
// runs exactly once per Run.
func (it *parallelScanIter) close() {
	if it.started {
		close(it.stop)
		it.wg.Wait()
	}
}
