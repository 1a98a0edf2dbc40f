package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/scanshare"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// Push-based pipeline fusion. The plan's fusion rewrites merge logical
// operators, but a pull executor un-fuses them again at run time: every
// operator boundary is a virtual NextBatch call and every projection a dense
// batch materialization. This file compiles maximal non-blocking
// Scan→Filter→Project chains into one push-driven loop executed per morsel:
// the chain carries a survivor selection and column references through its
// stages, filters narrow the selection with the mask-family bitmap kernels,
// and projections alias pure column references instead of copying them.
// Pipeline breakers — aggregation finish, sort, join build, window, spool —
// keep their pull implementations and consume fused chains through the
// BatchIterator facade; the scalar-aggregation and sort-run sinks
// (pipesink.go) additionally accept pushed per-morsel sub-batches directly.
//
// Options.PullExec disables all of it, keeping the original pull path alive
// as the differential baseline.

// stageKind discriminates the fused stage forms.
type stageKind uint8

const (
	stageFilter stageKind = iota
	stageProject
)

// stageSpec is the compile-once description of one fused stage; per-worker
// instances are built from it because evaluators own scratch buffers and
// are bound to one goroutine. For filter stages the mask-family factoring
// analysis is itself worker-independent, so it is cached here (famSpec) on
// first instantiation and shared by every later worker — only the bitmap
// closure compilation repeats per worker.
type stageSpec struct {
	kind    stageKind
	cond    expr.Expr            // filter predicate
	assigns []logical.Assignment // project outputs
	layout  map[expr.ColumnID]int
	famSpec *maskFamilySpec // lazily built shared factoring for filter stages
}

// chainSpec is a compiled fusible chain: a scan leaf (with any partition
// pruner peeled from the filter directly above it) plus the fused stages in
// source-to-sink order.
type chainSpec struct {
	scan   *logical.Scan
	prune  storage.Pruner
	stages []stageSpec
	// pruneCond / pruneCol describe the peeled prune predicate (nil when no
	// pruning) for fingerprinting: the chain-shape cache keys ScanPartitions
	// replays on them instead of re-walking partition metadata.
	pruneCond expr.Expr
	pruneCol  *expr.Column
}

// compileChain recognizes a maximal non-blocking chain rooted at op: any
// stack of Filter/Project operators over a Scan leaf. Partition-prune
// peeling matches the pull builder exactly (only the filter directly above
// the scan peels), so both execution models scan identical partitions.
func compileChain(op logical.Operator) (*chainSpec, bool) {
	var rev []stageSpec
	cur := op
	for {
		switch o := cur.(type) {
		case *logical.Scan:
			return finishChain(o, nil, nil, nil, rev), true
		case *logical.Filter:
			if scan, ok := o.Input.(*logical.Scan); ok {
				pruner, pruneCond, pruneCol, residual := splitPartitionPruneCond(scan, o.Cond)
				if pruner != nil {
					if residual != nil {
						rev = append(rev, stageSpec{kind: stageFilter, cond: residual, layout: layoutOf(scan)})
					}
					return finishChain(scan, pruner, pruneCond, pruneCol, rev), true
				}
			}
			rev = append(rev, stageSpec{kind: stageFilter, cond: o.Cond, layout: layoutOf(o.Input)})
			cur = o.Input
		case *logical.Project:
			rev = append(rev, stageSpec{kind: stageProject, assigns: o.Cols, layout: layoutOf(o.Input)})
			cur = o.Input
		default:
			return nil, false
		}
	}
}

func finishChain(scan *logical.Scan, prune storage.Pruner, pruneCond expr.Expr, pruneCol *expr.Column, rev []stageSpec) *chainSpec {
	cs := &chainSpec{scan: scan, prune: prune, pruneCond: pruneCond, pruneCol: pruneCol}
	for i := len(rev) - 1; i >= 0; i-- {
		cs.stages = append(cs.stages, rev[i])
	}
	return cs
}

// pipeStage is one instantiated fused stage. Exactly one of the filter
// fields (fam is the bitmap mask-family kernel, cond the NaiveMasks
// baseline) or the project fields is populated. For projects, projSrc[i]
// >= 0 aliases input column projSrc[i] zero-copy; -1 computes projFns[i].
type pipeStage struct {
	kind    stageKind
	fam     *maskFamily
	cond    *batchEvaluator
	projSrc []int
	projFns []batchFn
}

// newPipeStages instantiates the chain's stages for one goroutine. The
// per-worker calls for one chain all happen sequentially on the coordinator
// goroutine (newChainIterator / the sink constructors), so the famSpec
// cache needs no lock.
func newPipeStages(cs *chainSpec, naiveMasks bool) ([]pipeStage, error) {
	stages := make([]pipeStage, len(cs.stages))
	for si := range cs.stages {
		ss := &cs.stages[si]
		switch ss.kind {
		case stageFilter:
			if naiveMasks {
				ev, err := newBatchEvaluator(ss.cond, ss.layout)
				if err != nil {
					return nil, err
				}
				stages[si] = pipeStage{kind: stageFilter, cond: ev}
			} else {
				if ss.famSpec == nil {
					ss.famSpec = newMaskFamilySpec([]expr.Expr{ss.cond}, ss.layout)
				}
				fam, err := ss.famSpec.instantiate()
				if err != nil {
					return nil, err
				}
				stages[si] = pipeStage{kind: stageFilter, fam: fam}
			}
		case stageProject:
			st := pipeStage{
				kind:    stageProject,
				projSrc: make([]int, len(ss.assigns)),
				projFns: make([]batchFn, len(ss.assigns)),
			}
			for i, a := range ss.assigns {
				if cr, ok := a.E.(*expr.ColumnRef); ok {
					if idx, ok2 := ss.layout[cr.Col.ID]; ok2 {
						st.projSrc[i] = idx
						continue
					}
				}
				st.projSrc[i] = -1
				fn, err := compileBatchExpr(a.E, ss.layout)
				if err != nil {
					return nil, err
				}
				st.projFns[i] = fn
			}
			stages[si] = st
		}
	}
	return stages, nil
}

// runStages pushes one source batch through the fused chain. Each stage
// charges its input rows exactly where the equivalent pull operator would,
// so RowsProcessed is byte-identical to the pull path on fully-consumed
// runs. Returns nil when a filter stage eliminates every row.
//
// Emitted batches never alias stage scratch (selections and computed
// columns are freshly allocated; aliased columns point into the decoded
// partition vectors), so a morsel's whole batch list stays valid while its
// worker reuses the stages on later batches.
func runStages(stages []pipeStage, b *vec.Batch, m *Metrics) *vec.Batch {
	for si := range stages {
		st := &stages[si]
		n := b.Len()
		m.addProcessed(int64(n))
		switch st.kind {
		case stageFilter:
			if st.fam != nil {
				truth := st.fam.eval(b)[0]
				count := truth.Count()
				if count == n && b.Sel == nil {
					break // every row passes: push the batch through untouched
				}
				if count == 0 {
					return nil
				}
				sel := make([]int, 0, count)
				for i := 0; i < n; i++ {
					if truth.True(i) {
						sel = append(sel, b.RowIdx(i))
					}
				}
				b = b.WithSel(sel)
			} else {
				vals := st.cond.eval(b)
				sel := make([]int, 0, n)
				for i := 0; i < n; i++ {
					if vals[i].IsTrue() {
						sel = append(sel, b.RowIdx(i))
					}
				}
				if len(sel) == 0 {
					return nil
				}
				if len(sel) == n && b.Sel == nil {
					break
				}
				b = b.WithSel(sel)
			}
		case stageProject:
			out := make([][]types.Value, len(st.projSrc))
			if b.Sel == nil {
				aliased := false
				for i, src := range st.projSrc {
					if src >= 0 {
						out[i] = b.Cols[src]
						aliased = true
						continue
					}
					col := make([]types.Value, n)
					st.projFns[i](b, col)
					out[i] = col
				}
				if aliased {
					// The pull projector would have copied every aliased
					// column into a fresh dense vector.
					m.addMaterializedSaved(1)
				}
				b = vec.NewDense(out, n)
			} else {
				// Survivors stay a selection: computed columns scatter into
				// physical positions, aliased columns ride along zero-copy,
				// and no dense gather happens at all.
				for i, src := range st.projSrc {
					if src >= 0 {
						out[i] = b.Cols[src]
						continue
					}
					tmp := make([]types.Value, n)
					st.projFns[i](b, tmp)
					col := make([]types.Value, b.N)
					for k, r := range b.Sel {
						col[r] = tmp[k]
					}
					out[i] = col
				}
				m.addMaterializedSaved(1)
				b = &vec.Batch{Cols: out, Sel: b.Sel, N: b.N}
			}
		}
	}
	return b
}

// buildPipeline tries to compile op as a push pipeline. ok=false means the
// operator is not a fusible chain root (or push execution is disabled) and
// the caller should fall through to the pull builders.
func (ex *executor) buildPipeline(op logical.Operator) (BatchIterator, bool, error) {
	if ex.opts.PullExec || ex.noPush > 0 {
		return nil, false, nil
	}
	switch op.(type) {
	case *logical.Filter, *logical.Project:
		// Only chain roots with at least one fusible stage; bare scans keep
		// the existing leaf builders, which are already materialization-free.
	default:
		return nil, false, nil
	}
	cs, ok := compileChain(op)
	if !ok || len(cs.stages) == 0 {
		return nil, false, nil
	}
	it, err := ex.newChainIterator(cs)
	if err != nil {
		return nil, false, err
	}
	return it, true, nil
}

// newChainIterator builds the physical form of a fused chain: morsel-
// parallel push workers when the scan is large enough, a serial fused loop
// otherwise.
func (ex *executor) newChainIterator(cs *chainSpec) (BatchIterator, error) {
	// Compile one stage instance up front so expression errors surface
	// before any goroutine starts; the serial path reuses it.
	stages, err := newPipeStages(cs, ex.opts.NaiveMasks)
	if err != nil {
		return nil, err
	}
	parts, err := ex.scanSource(cs.scan, cs.prune)
	if err != nil {
		return nil, err
	}
	ex.configureChainSkip(cs)
	ctrl, _ := ex.lookupScanCtrl(cs.scan)
	ex.metrics.addFusedPipelines(1)
	if ex.opts.Parallelism > 1 {
		morsels := buildMorsels(parts, morselTarget(parts, ex.opts.BatchSize, ex.opts.Parallelism))
		if len(morsels) > 1 {
			it, err := newPipelineIter(ex, cs, morsels)
			if err != nil {
				return nil, err
			}
			it.ctrl = ctrl
			ex.closers = append(ex.closers, it.close)
			return it, nil
		}
	}
	src := &scanIter{cols: cs.scan.ColNames, parts: parts, batchSize: ex.opts.BatchSize, m: ex.metrics, share: ex.share, ctrl: ctrl}
	return &chainIter{src: src, stages: stages, m: ex.metrics, co: batchCoalescer{target: ex.opts.BatchSize}}, nil
}

// batchCoalescer repacks a stream of decoded batches to the nominal batch
// size. Decode batches never span partitions, so date-partitioned facts with
// many small partitions feed the push loop far-below-nominal batches, where
// per-batch costs (mask-family setup, selection builds, evaluator dispatch)
// dominate per-row work. Repacking is one columnar copy per short batch;
// already-full batches pass through untouched, so large partitions and
// BatchSize 1 pay nothing. Row order is preserved exactly — results and
// per-row accounting are unchanged, only batch boundaries move.
type batchCoalescer struct {
	target int
	cols   [][]types.Value
	n      int
}

func (co *batchCoalescer) ensure(width int) {
	if co.cols == nil {
		co.cols = make([][]types.Value, width)
		for c := range co.cols {
			co.cols[c] = make([]types.Value, 0, co.target)
		}
	}
}

func (co *batchCoalescer) take(b *vec.Batch, lo, hi int) {
	co.ensure(len(b.Cols))
	if b.Sel == nil {
		for c := range co.cols {
			co.cols[c] = append(co.cols[c], b.Cols[c][lo:hi]...)
		}
	} else {
		for _, r := range b.Sel[lo:hi] {
			for c := range co.cols {
				co.cols[c] = append(co.cols[c], b.Cols[c][r])
			}
		}
	}
	co.n += hi - lo
}

// add accepts the next source batch and returns a full batch when one is
// ready (nil otherwise). Source batches never exceed the target, so at most
// one batch completes per add.
func (co *batchCoalescer) add(b *vec.Batch) *vec.Batch {
	bn := b.Len()
	if bn == 0 {
		return nil
	}
	if co.n == 0 && bn >= co.target {
		return b
	}
	fill := co.target - co.n
	if fill > bn {
		fill = bn
	}
	co.take(b, 0, fill)
	var out *vec.Batch
	if co.n >= co.target {
		out = co.flush()
	}
	if fill < bn {
		co.take(b, fill, bn)
	}
	return out
}

// flush returns the pending short batch, nil when empty.
func (co *batchCoalescer) flush() *vec.Batch {
	if co.n == 0 {
		return nil
	}
	b := vec.NewDense(co.cols, co.n)
	co.cols, co.n = nil, 0
	return b
}

// chainIter is the serial fused chain: one loop per source batch, no
// intermediate operator boundaries.
type chainIter struct {
	src     BatchIterator
	stages  []pipeStage
	m       *Metrics
	co      batchCoalescer
	srcDone bool
}

func (it *chainIter) NextBatch() (*vec.Batch, error) {
	for {
		var cb *vec.Batch
		if !it.srcDone {
			b, err := it.src.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				it.srcDone = true
				cb = it.co.flush()
			} else {
				cb = it.co.add(b)
			}
		}
		if cb == nil {
			if it.srcDone {
				return nil, nil
			}
			continue
		}
		it.m.addPipelineBatches(1)
		if out := runStages(it.stages, cb, it.m); out != nil {
			return out, nil
		}
	}
}

// orderedRun schedules morsels across workers and delivers each morsel's
// result strictly in morsel order — the generalization of the parallel
// scan's delivery discipline that every push pipeline (fused chains and the
// blocking sinks) shares. Workers claim morsel indices from an atomic
// counter; each result travels through a dedicated 1-slot channel so a
// worker always finishes its claimed morsel even if the consumer has gone
// away, and a token semaphore bounds produced-but-unconsumed morsels.
type orderedRun[T any] struct {
	n       int
	workers int
	next    int64
	stop    chan struct{}
	tokens  chan struct{}
	results []chan T
	wg      sync.WaitGroup
	started bool
	mi      int
}

func newOrderedRun[T any](n, workers int) *orderedRun[T] {
	if workers > n {
		workers = n
	}
	r := &orderedRun[T]{
		n:       n,
		workers: workers,
		stop:    make(chan struct{}),
		tokens:  make(chan struct{}, 2*workers),
		results: make([]chan T, n),
	}
	for i := range r.results {
		r.results[i] = make(chan T, 1)
	}
	return r
}

// start launches the workers; work(w, i) processes morsel i on worker w
// (the worker index keys per-worker stage and sink state). Idempotent.
func (r *orderedRun[T]) start(work func(w, i int) T) {
	if r.started {
		return
	}
	r.started = true
	r.wg.Add(r.workers)
	for w := 0; w < r.workers; w++ {
		go func(w int) {
			defer r.wg.Done()
			for {
				select {
				case <-r.stop:
					return
				case r.tokens <- struct{}{}:
				}
				i := int(atomic.AddInt64(&r.next, 1)) - 1
				if i >= r.n {
					<-r.tokens
					return
				}
				r.results[i] <- work(w, i)
			}
		}(w)
	}
}

// recv returns the next morsel's result in order; ok=false at exhaustion.
func (r *orderedRun[T]) recv() (T, bool) {
	var zero T
	if r.mi >= r.n {
		return zero, false
	}
	t := <-r.results[r.mi]
	r.mi++
	<-r.tokens
	return t, true
}

// close stops the workers and waits for in-flight morsels to finish. Safe
// to call before start and more than once.
func (r *orderedRun[T]) close() {
	if !r.started {
		return
	}
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
}

// pipelineIter is the morsel-parallel fused chain: each worker decodes its
// claimed morsel and pushes every batch through its own stage instances in
// one loop, delivering the chain's output batches in morsel order. All
// metric charges (scan output, per-stage inputs) happen worker-side; sums
// are order-independent and every pipeline consumer drains totally, so the
// totals match the pull path exactly.
type pipelineIter struct {
	run       *orderedRun[morselResult]
	morsels   []morsel
	cols      []string
	batchSize int
	m         *Metrics
	pool      *workerPool
	share     *scanshare.Manager
	// ctrl prunes partitions before decode (nil-safe). Workers decide and
	// tally prunes per morsel; the consumer recharges on receipt — pipelines
	// never run under LIMIT, so only the total matters, not the position.
	ctrl    *skipController
	wstages [][]pipeStage

	cur    []*vec.Batch
	curIdx int
}

func newPipelineIter(ex *executor, cs *chainSpec, morsels []morsel) (*pipelineIter, error) {
	run := newOrderedRun[morselResult](len(morsels), ex.opts.Parallelism)
	wstages := make([][]pipeStage, run.workers)
	for w := range wstages {
		st, err := newPipeStages(cs, ex.opts.NaiveMasks)
		if err != nil {
			return nil, err
		}
		wstages[w] = st
	}
	return &pipelineIter{
		run: run, morsels: morsels, cols: cs.scan.ColNames,
		batchSize: ex.opts.BatchSize, m: ex.metrics, pool: ex.pool,
		share: ex.share, wstages: wstages,
	}, nil
}

func (it *pipelineIter) work(w, i int) morselResult {
	// The decode and the fused stage loop are the CPU work; they run under
	// one shared pool slot like the pull scan's morsel decode.
	it.pool.acquire()
	defer it.pool.release()
	stages := it.wstages[w]
	var out, src []*vec.Batch
	var err error
	co := batchCoalescer{target: it.batchSize}
	push := func(cb *vec.Batch) {
		it.m.addProcessed(int64(cb.Len()))
		it.m.addPipelineBatches(1)
		if ob := runStages(stages, cb, it.m); ob != nil {
			out = append(out, ob)
		}
	}
	var skipped int64
	for _, p := range it.morsels[i].parts {
		if it.ctrl.shouldPrune(p) {
			skipped += int64(p.NumRows)
			continue
		}
		if src, err = partitionBatches(p, it.cols, it.batchSize, it.share, it.run.stop, it.m, src[:0]); err != nil {
			return morselResult{err: err}
		}
		for _, b := range src {
			if cb := co.add(b); cb != nil {
				push(cb)
			}
		}
	}
	if cb := co.flush(); cb != nil {
		push(cb)
	}
	return morselResult{batches: out, skipped: skipped}
}

func (it *pipelineIter) NextBatch() (*vec.Batch, error) {
	it.run.start(it.work)
	for {
		if it.curIdx < len(it.cur) {
			b := it.cur[it.curIdx]
			it.curIdx++
			return b, nil
		}
		res, ok := it.run.recv()
		if !ok {
			return nil, nil
		}
		if res.err != nil {
			return nil, res.err
		}
		it.ctrl.recharge(res.skipped)
		it.cur, it.curIdx = res.batches, 0
	}
}

func (it *pipelineIter) close() { it.run.close() }
