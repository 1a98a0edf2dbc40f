package exec

import (
	"fmt"
	"sync/atomic"
)

// WorkerPool bounds concurrent CPU work across every parallel operator that
// draws from it: scan-leaf morsel decodes, hash-join build partitions and
// aggregation partitions all take slots from one pool instead of spawning
// independent pools per operator. A pool may be private to one query run
// (the default when Options.Workers is nil) or resident in an engine and
// shared by every query the engine executes — the multi-tenant service
// posture, where total CPU concurrency must stay bounded at the configured
// Parallelism no matter how many queries are in flight.
//
// Slots are acquired per unit of work (one morsel decode, one batch of
// build or aggregation input) and never held while blocked on a channel.
// Operators stacked in one plan — or whole queries stacked on one engine —
// therefore cannot deadlock the pool: every slot hold is a finite piece of
// CPU work, so some holder always finishes and releases.
type WorkerPool struct {
	slots  chan struct{}
	closed atomic.Bool
}

// NewWorkerPool creates a pool with n slots (n < 1 is clamped to 1).
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = 1
	}
	return &WorkerPool{slots: make(chan struct{}, n)}
}

func (p *WorkerPool) acquire() { p.slots <- struct{}{} }
func (p *WorkerPool) release() { <-p.slots }

// Close drains the pool: it blocks until every outstanding slot has been
// released, then marks the pool closed so the drain is observable
// (a second Close returns immediately). Callers must stop submitting work
// before closing — an engine does so by waiting out its in-flight queries —
// so Close is a verification barrier, not a cancellation mechanism: it
// returns an error only if the pool was somehow still busy beyond doubt
// (which the acquire discipline makes impossible for well-formed runs).
func (p *WorkerPool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	// Claim every slot: this blocks until all in-flight holders release,
	// i.e. until the pool is fully drained. The slots are then returned so
	// a pool erroneously shared past Close fails loudly in tests (leak
	// detectors see the goroutines) rather than deadlocking silently.
	n := cap(p.slots)
	for i := 0; i < n; i++ {
		p.slots <- struct{}{}
	}
	for i := 0; i < n; i++ {
		<-p.slots
	}
	return nil
}

// String implements fmt.Stringer for debug output.
func (p *WorkerPool) String() string {
	return fmt.Sprintf("workerpool(%d slots, %d busy)", cap(p.slots), len(p.slots))
}

// workerPool is the historical private alias; per-run pools still build
// through it when no engine-resident pool is supplied.
type workerPool = WorkerPool

func newWorkerPool(n int) *workerPool { return NewWorkerPool(n) }
