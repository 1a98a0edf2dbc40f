// Package xfuse implements cross-query shared execution: concurrently
// arriving queries are held in a short admission window, their optimized
// plans folded together with the paper's Fuse primitive, and one fused plan
// executed on behalf of the whole batch. Each client's rows are
// reconstructed from the fused output through its compensating predicate
// (the mask-family kernels evaluate all clients' predicates in one pass),
// and each client's logical metrics — bytes scanned, rows processed — are
// attributed as if its query had run alone, so batching is observable only
// through Metrics.SharedExec and the saved physical work.
//
// Shared execution never narrows coverage: a plan shape we cannot fuse or
// attribute exactly bypasses the window entirely, a window that expires
// with a single query falls back to solo execution, and any error in the
// fused run returns every member to the solo path (a genuine query error
// reproduces there).
package xfuse

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/rescache"
	"repro/internal/storage"
)

// Config tunes the admission window.
type Config struct {
	// Window is how long the first eligible query of a batch waits for
	// companions before the batch seals.
	Window time.Duration
	// MaxQueries seals a batch early once this many queries joined.
	MaxQueries int
}

// Runner batches eligible queries and executes fused plans. One Runner
// serves one engine instance; Submit is safe for concurrent use.
type Runner struct {
	store *storage.Store
	// opts is the engine's execution-option template; per-run fields
	// (QueryText, SharedClients) are overwritten per fused plan.
	opts exec.Options
	cfg  Config
	// shapes caches AnalyzeChain's partition-metadata replay per
	// (chain fingerprint, table version), so attributing a fused group's
	// members walks partition metadata once per distinct shape, not once
	// per member per run.
	shapes *exec.ShapeCache
	// rcache, when non-nil, is the store's semantic result cache: batch
	// members probe it before grouping and fused runs feed it afterwards
	// (see rescache.go in this package).
	rcache *rescache.Cache

	mu     sync.Mutex
	cur    *batch
	closed bool
	// expects are outstanding service-layer arrival announcements
	// (ExpectArrivals), oldest first; expectTotal is the sum of their
	// remaining counts. While expectTotal > 0 the window timer defers
	// sealing (bounded by one grace period), and the arrival that brings
	// the total to zero seals the current batch immediately — the service
	// has delivered its whole dispatch round into one window.
	expects     []*expectHandle
	expectTotal int
	// wg tracks batch-execution goroutines so Close can drain them.
	wg sync.WaitGroup
}

type expectHandle struct{ remaining int }

// NewRunner creates a runner over the engine's store and option template.
func NewRunner(store *storage.Store, opts exec.Options, cfg Config) *Runner {
	if cfg.MaxQueries < 1 {
		cfg.MaxQueries = 1
	}
	r := &Runner{store: store, opts: opts, cfg: cfg, shapes: exec.NewShapeCache()}
	if opts.ResultCacheBytes > 0 {
		r.rcache = rescache.For(store, opts.ResultCacheBytes)
	}
	return r
}

// ShapeCache exposes the runner's chain-shape cache (for tests).
func (r *Runner) ShapeCache() *exec.ShapeCache { return r.shapes }

// ExpectArrivals announces that n queries are about to be submitted — the
// service layer's dispatch round. While announcements are outstanding, the
// admission window holds open past its timer (bounded by one grace period)
// and seals the moment the last announced query arrives, so queries from
// different connections land in one batch deterministically instead of
// racing a wall-clock window. The returned func cancels whatever part of
// the announcement never arrived (prepare errors, ineligible statements
// that failed earlier); it is idempotent and must eventually be called.
//
// Announcements are a scheduling hint: they change when batches seal,
// never what a batch computes, so a mismatched count costs at most one
// grace period of latency.
func (r *Runner) ExpectArrivals(n int) (done func()) {
	if n <= 0 {
		return func() {}
	}
	h := &expectHandle{remaining: n}
	r.mu.Lock()
	r.expects = append(r.expects, h)
	r.expectTotal += n
	r.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			r.expectTotal -= h.remaining
			h.remaining = 0
			sealNow := r.expectTotal == 0 && r.cur != nil
			b := r.cur
			if sealNow {
				r.sealLocked(b)
			}
			r.compactExpectsLocked()
			r.mu.Unlock()
		})
	}
}

// noteArrivalLocked consumes one outstanding expected arrival, reporting
// whether this arrival completed every announcement (the caller then seals
// the current batch once this query has joined it).
func (r *Runner) noteArrivalLocked() bool {
	if r.expectTotal == 0 {
		return false
	}
	r.expectTotal--
	for _, h := range r.expects {
		if h.remaining > 0 {
			h.remaining--
			break
		}
	}
	r.compactExpectsLocked()
	return r.expectTotal == 0
}

func (r *Runner) compactExpectsLocked() {
	live := r.expects[:0]
	for _, h := range r.expects {
		if h.remaining > 0 {
			live = append(live, h)
		}
	}
	r.expects = live
}

// Close seals any open window (releasing its waiters) and drains every
// batch-execution goroutine. Submissions after Close bypass batching and
// run solo; Close is idempotent.
func (r *Runner) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		if r.cur != nil {
			r.sealLocked(r.cur)
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// entry is one submitted query waiting on its batch.
type entry struct {
	sql  string
	plan logical.Operator
	cl   *classified

	// done is closed when the batch has decided this entry's fate; res,
	// stamp and err are valid after that. res == nil with err == nil means
	// "run solo, stamping stamp".
	done  chan struct{}
	res   *exec.Result
	stamp exec.SharedExecMetrics
	err   error
	// abandoned is set when the submitter's context was canceled; the
	// batch skips (or discards) this entry's work.
	abandoned atomic.Bool
	// rctx is this entry's result-cache transaction: begun at probe time
	// over the batch snapshot when the probe missed, consumed by the
	// post-run offer. nil when the cache is off, the plan
	// is ineligible, or the probe hit.
	rctx *rescache.Tx
}

// batch is one admission window's worth of eligible queries.
type batch struct {
	entries []*entry
	sealed  bool
	// graced marks a batch whose timer already fired once while arrival
	// announcements were outstanding; its rearmed timer seals
	// unconditionally.
	graced bool
	timer  *time.Timer
}

// Submit offers an optimized plan for shared execution. The three-way
// return mirrors the fallback contract:
//
//   - res != nil: the batch served this query; res is its complete result
//     with as-if-solo logical metrics and the SharedExec stamp set.
//   - res == nil, err == nil: run the plan solo. stamp is non-zero when
//     the query waited through a window (solo fallback) and zero when it
//     bypassed batching entirely (ineligible shape).
//   - err != nil: the submitter's ctx was canceled while waiting; no solo
//     run is owed.
//
// Submit blocks for at most one admission window plus the fused execution.
func (r *Runner) Submit(ctx context.Context, sql string, plan logical.Operator) (*exec.Result, exec.SharedExecMetrics, error) {
	var zero exec.SharedExecMetrics
	cl, ok := classify(plan)

	r.mu.Lock()
	roundDone := r.noteArrivalLocked()
	if !ok || r.closed {
		// Ineligible shapes still count as arrivals (the service announces
		// whole dispatch rounds without classifying), and the last arrival
		// seals the window even if it bypasses it.
		if roundDone && r.cur != nil {
			r.sealLocked(r.cur)
		}
		r.mu.Unlock()
		return nil, zero, nil
	}
	e := &entry{sql: sql, plan: plan, cl: cl, done: make(chan struct{})}
	b := r.cur
	if b == nil || b.sealed {
		b = &batch{}
		r.cur = b
		b.timer = time.AfterFunc(r.cfg.Window, func() { r.seal(b) })
	}
	b.entries = append(b.entries, e)
	if len(b.entries) >= r.cfg.MaxQueries || roundDone {
		r.sealLocked(b)
	}
	r.mu.Unlock()

	select {
	case <-e.done:
		return e.res, e.stamp, e.err
	case <-ctx.Done():
		e.abandoned.Store(true)
		return nil, zero, ctx.Err()
	}
}

func (r *Runner) seal(b *batch) {
	r.mu.Lock()
	// Outstanding arrival announcements hold the window open past its
	// timer, bounded by one grace period so announced-but-never-submitted
	// queries (prepare errors) cannot park a batch forever.
	if r.expectTotal > 0 && !b.sealed && !b.graced {
		b.graced = true
		b.timer = time.AfterFunc(4*r.cfg.Window, func() { r.seal(b) })
		r.mu.Unlock()
		return
	}
	r.sealLocked(b)
	r.mu.Unlock()
}

// sealLocked closes the batch to new arrivals and hands it to a dedicated
// execution goroutine. The goroutine — not a member — owns the run, so a
// member whose context cancels mid-flight never strands the rest of the
// batch. Queries arriving after the seal open a fresh batch.
func (r *Runner) sealLocked(b *batch) {
	if b.sealed {
		return
	}
	b.sealed = true
	if r.cur == b {
		r.cur = nil
	}
	if b.timer != nil {
		b.timer.Stop()
	}
	r.wg.Add(1)
	go r.execute(b)
}

// execute partitions the batch into fused groups and runs them. Members of
// single-entry groups (nothing fused with them) are released immediately to
// the solo path.
func (r *Runner) execute(b *batch) {
	defer r.wg.Done()
	var live []*entry
	for _, e := range b.entries {
		if !e.abandoned.Load() {
			live = append(live, e)
		}
	}
	n := int64(len(live))
	// One read view for the whole batch: cache probes, fused runs and the
	// members' as-if-solo charges (AnalyzeChain) all read this snapshot, so
	// an Append racing the batch cannot bill a member for data its rows did
	// not come from, nor cache a result under the wrong table version.
	snap := r.store.Snapshot()
	// Serve cached members before grouping: a hit needs no execution at
	// all, and excluding it keeps the fused plan to the members that do.
	live = r.probeCache(live, n, snap)
	byClass := map[planClass][]*entry{}
	for _, e := range live {
		byClass[e.cl.class] = append(byClass[e.cl.class], e)
	}
	for class, entries := range byClass {
		for _, g := range buildGroups(class, entries) {
			if len(g.members) < 2 {
				deliverSolo(g.members[0], n)
				continue
			}
			r.wg.Add(1)
			g := g
			go func() {
				defer r.wg.Done()
				r.runGroup(n, g, snap)
			}()
		}
	}
}

// deliverSolo releases an entry to the solo path with its window stamp.
func deliverSolo(e *entry, batched int64) {
	e.stamp = exec.SharedExecMetrics{BatchedQueries: batched, FusedPlans: 1, WindowWaits: 1}
	close(e.done)
}

// deliverSoloGroup falls a whole group back to solo execution — the
// fused-run error path. A genuine query error reproduces on the solo run;
// a shared-infrastructure error must not fail queries that would succeed
// alone.
func deliverSoloGroup(g *group, batched int64) {
	for _, e := range g.members {
		deliverSolo(e, batched)
	}
}

func (r *Runner) runGroup(batched int64, g *group, snap *storage.Snapshot) {
	opts := r.groupOptions(g, snap)
	switch g.class {
	case classSFP:
		r.runSFPGroup(batched, g, opts)
	case classScalar:
		r.runScalarGroup(batched, g, opts)
	}
}

// groupOptions builds the fused run's execution options: the batch's
// snapshot, one shared memory attribution for the whole batch, query text
// naming it, and a worker
// budget scaled by the batch size — the fused plan is doing its members'
// combined work, so it gets the workers they would have used (capped at the
// hardware), not one member's share. Results are bit-identical at any
// parallelism, so the scaling is unobservable in rows and logical metrics.
func (r *Runner) groupOptions(g *group, snap *storage.Snapshot) exec.Options {
	opts := r.opts
	opts.Snapshot = snap
	opts.SharedClients = len(g.members)
	opts.QueryText = sharedQueryText(len(g.members), g.members[0].sql)
	// A fused run serves several clients' combined work, so it gets its own
	// pool at the scaled width rather than drawing the engine-resident
	// pool's single-query share; the engine drains fused runs through
	// Runner.Close before closing its pool.
	opts.Workers = nil
	opts.Tenant = ""
	// The fused superset plan is not any member's sub-plan: caching it
	// would pollute the cache with compensating-predicate shapes no solo
	// query fingerprints to. Member-granularity reuse happens in the
	// runner instead (probeCache / offerResult).
	opts.ResultCacheBytes = 0
	if opts.Parallelism > 0 {
		scaled := opts.Parallelism * len(g.members)
		if max := runtime.GOMAXPROCS(0); scaled > max {
			scaled = max
		}
		if scaled > opts.Parallelism {
			opts.Parallelism = scaled
		}
	}
	return opts
}
