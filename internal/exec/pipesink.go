package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/memctl"
	"repro/internal/scanshare"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// Pipeline sinks: blocking operators that accept a fused chain's pushed
// per-morsel sub-batches directly rather than pulling through the
// BatchIterator facade. Two sinks exist — scalar (no GROUP BY) aggregation
// and sort-run generation. Both preserve first-seen ordering by consuming
// morsel results strictly in morsel order, charge rows exactly where the
// pull operators do, and keep memctl accounting and the spill paths intact.

// serialChain builds the serial fused loop over an already-resolved scan
// source — the sinks' fallback when the scan yields at most one morsel. The
// caller has committed to the scan (BytesScanned is charged), so this path
// must be taken rather than falling back to the pull builders.
func (ex *executor) serialChain(cs *chainSpec, parts []*storage.Partition) (BatchIterator, error) {
	stages, err := newPipeStages(cs, ex.opts.NaiveMasks)
	if err != nil {
		return nil, err
	}
	ctrl, _ := ex.lookupScanCtrl(cs.scan)
	src := &scanIter{cols: cs.scan.ColNames, parts: parts, batchSize: ex.opts.BatchSize, m: ex.metrics, share: ex.share, ctrl: ctrl}
	return &chainIter{src: src, stages: stages, m: ex.metrics, co: batchCoalescer{target: ex.opts.BatchSize}}, nil
}

// serialScalarGroupBy is the serial scalar-aggregation tail of buildGroupBy,
// factored out so the sink's one-morsel fallback can reuse it.
func (ex *executor) serialScalarGroupBy(g *logical.GroupBy, in BatchIterator) (BatchIterator, error) {
	acc, err := newGroupAccumulator(g, layoutOf(g.Input), nil, ex.tracker, ex.mempool.SpillDir(), ex.opts.NaiveMasks)
	if err != nil {
		return nil, err
	}
	return &groupByIter{
		in: in, acc: acc, scalar: true, batchSize: ex.opts.BatchSize, m: ex.metrics,
	}, nil
}

// buildScalarAggSink compiles a scalar aggregation over a fusible chain into
// a push pipeline: each worker runs the fused chain over its claimed morsel
// and folds the surviving rows into per-worker partial aggregate states.
// Order-insensitive aggregates (COUNT, MIN, MAX, integer SUM) merge partials
// in fixed morsel order; order-sensitive ones (AVG, float SUM) instead ship
// their masked argument values and replay them serially in morsel order, so
// float sums stay bit-for-bit identical to the serial accumulation.
func (ex *executor) buildScalarAggSink(g *logical.GroupBy) (BatchIterator, bool, error) {
	cs, ok := compileChain(g.Input)
	if !ok {
		return nil, false, nil
	}
	// Validate chain and aggregate compilation before committing to the
	// scan: once scanSource charges BytesScanned the sink must be used. The
	// spec survives into the parallel sink so the validation worker's mask
	// factoring is reused by every execution worker.
	spec := &scalarWorkerSpec{g: g, cs: cs, naiveMasks: ex.opts.NaiveMasks}
	if _, err := spec.newWorker(); err != nil {
		return nil, true, err
	}
	parts, err := ex.scanSource(cs.scan, cs.prune)
	if err != nil {
		return nil, true, err
	}
	ex.configureChainSkip(cs)
	ex.metrics.addFusedPipelines(1)
	morsels := buildMorsels(parts, morselTarget(parts, ex.opts.BatchSize, ex.opts.Parallelism))
	if len(morsels) <= 1 {
		in, err := ex.serialChain(cs, parts)
		if err != nil {
			return nil, true, err
		}
		it, err := ex.serialScalarGroupBy(g, in)
		return it, true, err
	}
	it, err := newScalarAggIter(ex, spec, morsels)
	if err != nil {
		return nil, true, err
	}
	ex.closers = append(ex.closers, it.run.close)
	return it, true, nil
}

// scalarWorker is one worker's chain stages plus aggregate evaluation state
// (evaluators own scratch buffers and are bound to one goroutine).
type scalarWorker struct {
	stages    []pipeStage
	aggs      *compiledAggs
	family    *maskFamily
	maskEvs   []*batchEvaluator
	nMasks    int
	argEvs    []*batchEvaluator
	sensitive []bool

	// per-batch scratch
	maskLog [][]int
	maskSub []*vec.Batch
}

// scalarWorkerSpec builds scalarWorkers for one sink, sharing the
// worker-independent analysis: the chain's stage factoring lives on cs
// (stageSpec.famSpec) and the aggregate mask-family factoring is cached here
// after the first worker builds it. Workers are constructed sequentially on
// the coordinator goroutine, so the cache needs no lock. Evaluators and
// compiled bitmap closures own scratch and stay per-worker.
type scalarWorkerSpec struct {
	g          *logical.GroupBy
	cs         *chainSpec
	naiveMasks bool
	famSpec    *maskFamilySpec
}

func (sp *scalarWorkerSpec) newWorker() (*scalarWorker, error) {
	g := sp.g
	stages, err := newPipeStages(sp.cs, sp.naiveMasks)
	if err != nil {
		return nil, err
	}
	layout := layoutOf(g.Input)
	aggs, err := compileAggs(g.Aggs, layout)
	if err != nil {
		return nil, err
	}
	nMasks := len(aggs.maskAst)
	var family *maskFamily
	var maskEvs []*batchEvaluator
	if sp.naiveMasks {
		maskEvs = make([]*batchEvaluator, nMasks)
		for i, ast := range aggs.maskAst {
			if maskEvs[i], err = newBatchEvaluator(ast, layout); err != nil {
				return nil, err
			}
		}
	} else if nMasks > 0 {
		// compileAggs derives maskAst deterministically from g.Aggs, so the
		// factoring cached off the first worker's ASTs is valid for them all.
		if sp.famSpec == nil {
			sp.famSpec = newMaskFamilySpec(aggs.maskAst, layout)
		}
		if family, err = sp.famSpec.instantiate(); err != nil {
			return nil, err
		}
	}
	argEvs := make([]*batchEvaluator, len(g.Aggs))
	sensitive := make([]bool, len(g.Aggs))
	for i, a := range g.Aggs {
		if argEvs[i], err = newBatchEvaluator(a.Agg.Arg, layout); err != nil {
			return nil, err
		}
		sensitive[i] = orderSensitive(a.Agg)
	}
	return &scalarWorker{
		stages: stages, aggs: aggs, family: family, maskEvs: maskEvs, nMasks: nMasks,
		argEvs: argEvs, sensitive: sensitive,
		maskLog: make([][]int, nMasks), maskSub: make([]*vec.Batch, nMasks),
	}, nil
}

// sensChunk is one batch's shipped argument values for an order-sensitive
// aggregate, reduced to exactly what aggState.add consumes for SUM/AVG: the
// float contribution (float64(v.I) for integer-kind values — converted
// worker-side, so the replayed additions are the very same floats the serial
// order would add) and the null flag. Chunks avoid re-growing one large
// slice batch after batch.
type sensChunk struct {
	f    []float64
	null []bool
}

// scalarMorselOut is one morsel's partial aggregation: merged states for the
// insensitive aggregates, shipped argument chunks for the sensitive ones.
type scalarMorselOut struct {
	states []aggState
	sens   [][]sensChunk
	rows   int64
	err    error
}

// consume folds one chain-output batch into the morsel's partials. Mask
// evaluation mirrors the group accumulator: the family kernel computes every
// distinct mask's truth bitmap in one pass, the NaiveMasks baseline one
// value vector per mask. Shipped values are copied out of evaluator scratch.
func (sw *scalarWorker) consume(b *vec.Batch, out *scalarMorselOut) {
	n := b.Len()
	var truths []*vec.Bitmap
	if sw.family != nil {
		truths = sw.family.eval(b)
	}
	for mi := 0; mi < sw.nMasks; mi++ {
		mlog := sw.maskLog[mi][:0]
		phys := make([]int, 0, n)
		if truths != nil {
			t := truths[mi]
			for i := 0; i < n; i++ {
				if t.True(i) {
					mlog = append(mlog, i)
					phys = append(phys, b.RowIdx(i))
				}
			}
		} else {
			vals := sw.maskEvs[mi].eval(b)
			for i := 0; i < n; i++ {
				if vals[i].IsTrue() {
					mlog = append(mlog, i)
					phys = append(phys, b.RowIdx(i))
				}
			}
		}
		sw.maskLog[mi] = mlog
		sw.maskSub[mi] = b.WithSel(phys)
	}
	for ai := range sw.aggs.aggs {
		a := &sw.aggs.aggs[ai]
		sub := b
		if a.maskIdx >= 0 {
			if len(sw.maskLog[a.maskIdx]) == 0 {
				continue
			}
			sub = sw.maskSub[a.maskIdx]
		}
		count := sub.Len()
		var vals []types.Value
		if sw.argEvs[ai] != nil {
			vals = sw.argEvs[ai].eval(sub)
		}
		if sw.sensitive[ai] {
			ck := sensChunk{f: make([]float64, len(vals)), null: make([]bool, len(vals))}
			for j, v := range vals {
				if v.Null {
					ck.null[j] = true
				} else if v.Kind == types.KindFloat64 {
					ck.f[j] = v.F
				} else {
					ck.f[j] = float64(v.I)
				}
			}
			out.sens[ai] = append(out.sens[ai], ck)
			continue
		}
		st := &out.states[ai]
		fn := a.agg.Fn
		if vals == nil {
			for j := 0; j < count; j++ {
				st.add(fn, types.Value{})
			}
		} else {
			for j := range vals {
				st.add(fn, vals[j])
			}
		}
	}
}

// scalarAggIter drives the scalar-aggregation sink: morsel-ordered partial
// delivery, deterministic merge, one output row.
type scalarAggIter struct {
	run       *orderedRun[scalarMorselOut]
	morsels   []morsel
	cols      []string
	batchSize int
	m         *Metrics
	pool      *workerPool
	share     *scanshare.Manager
	ctrl      *skipController
	workers   []*scalarWorker
	aggCalls  []expr.AggCall
	sensitive []bool

	built bool
	out   *vec.Batch
}

func newScalarAggIter(ex *executor, spec *scalarWorkerSpec, morsels []morsel) (*scalarAggIter, error) {
	g := spec.g
	run := newOrderedRun[scalarMorselOut](len(morsels), ex.opts.Parallelism)
	workers := make([]*scalarWorker, run.workers)
	for w := range workers {
		sw, err := spec.newWorker()
		if err != nil {
			return nil, err
		}
		workers[w] = sw
	}
	aggCalls := make([]expr.AggCall, len(g.Aggs))
	sensitive := make([]bool, len(g.Aggs))
	for i, a := range g.Aggs {
		aggCalls[i] = a.Agg
		sensitive[i] = orderSensitive(a.Agg)
	}
	ctrl, _ := ex.lookupScanCtrl(spec.cs.scan)
	return &scalarAggIter{
		run: run, morsels: morsels, cols: spec.cs.scan.ColNames,
		batchSize: ex.opts.BatchSize, m: ex.metrics, pool: ex.pool, share: ex.share,
		ctrl: ctrl, workers: workers, aggCalls: aggCalls, sensitive: sensitive,
	}, nil
}

func (it *scalarAggIter) work(w, i int) scalarMorselOut {
	// Decode, fused stages and accumulation are the CPU work; they run under
	// one shared pool slot like the pull scan's morsel decode. All metric
	// charges happen worker-side (order-independent sums; the sink always
	// drains totally, so totals match the pull path exactly).
	it.pool.acquire()
	defer it.pool.release()
	sw := it.workers[w]
	out := scalarMorselOut{
		states: make([]aggState, len(it.aggCalls)),
		sens:   make([][]sensChunk, len(it.aggCalls)),
	}
	var src []*vec.Batch
	var err error
	co := batchCoalescer{target: it.batchSize}
	push := func(cb *vec.Batch) {
		it.m.addProcessed(int64(cb.Len()))
		it.m.addPipelineBatches(1)
		ob := runStages(sw.stages, cb, it.m)
		if ob == nil || ob.Len() == 0 {
			return
		}
		it.m.addProcessed(int64(ob.Len())) // the aggregation's input charge
		out.rows += int64(ob.Len())
		sw.consume(ob, &out)
	}
	for _, p := range it.morsels[i].parts {
		if it.ctrl.shouldPrune(p) {
			// The sink drains totally, so the as-if-scanned recharge can
			// happen worker-side like every other charge here.
			it.ctrl.recharge(int64(p.NumRows))
			continue
		}
		if src, err = partitionBatches(p, it.cols, it.batchSize, it.share, it.run.stop, it.m, src[:0]); err != nil {
			return scalarMorselOut{err: err}
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
	return out
}

func (it *scalarAggIter) NextBatch() (*vec.Batch, error) {
	if it.built {
		b := it.out
		it.out = nil
		return b, nil
	}
	it.built = true
	it.run.start(it.work)
	final := make([]aggState, len(it.aggCalls))
	var totalRows int64
	for {
		res, ok := it.run.recv()
		if !ok {
			break
		}
		if res.err != nil {
			it.run.close()
			return nil, res.err
		}
		totalRows += res.rows
		for ai := range final {
			if it.sensitive[ai] {
				// The replay is aggState.add for SUM/AVG unrolled over the
				// shipped chunks: identical additions in identical order.
				st := &final[ai]
				for _, ck := range res.sens[ai] {
					for j := range ck.f {
						if ck.null[j] {
							continue
						}
						st.count++
						st.seen = true
						st.sumF += ck.f[j]
					}
				}
			} else {
				final[ai].merge(it.aggCalls[ai].Fn, &res.states[ai])
			}
		}
	}
	it.run.close()
	// The serial accumulator creates its one scalar group on the first
	// consumed row and charges it to HashRows; empty input emits the default
	// row uncounted.
	if totalRows > 0 {
		it.m.addHashRows(1)
	}
	for _, sw := range it.workers {
		if sw.family != nil {
			it.m.addMaskPrefixHits(sw.family.hits())
		}
	}
	bl := vec.NewBuilder(len(it.aggCalls), 1)
	row := make(Row, len(it.aggCalls))
	for ai := range it.aggCalls {
		row[ai] = final[ai].result(it.aggCalls[ai])
	}
	bl.Append(row)
	return bl.Flush(), nil
}

// buildSortRunSink compiles a sort over a fusible chain into a push
// pipeline: each worker runs the fused chain over its claimed morsel and
// buffers the surviving rows under a memctl reservation, cutting spill runs
// when the pool sheds memory; at morsel end the leftover stable-sorts into a
// final in-memory run. Emission k-way merges every run in (morsel, cut)
// order — each run is a contiguous input range and ties break toward the
// earliest, so the merged order is exactly one global stable sort.
func (ex *executor) buildSortRunSink(s *logical.Sort) (BatchIterator, bool, error) {
	cs, ok := compileChain(s.Input)
	if !ok {
		return nil, false, nil
	}
	// Validate stage and key compilation before committing to the scan.
	if _, err := newPipeStages(cs, ex.opts.NaiveMasks); err != nil {
		return nil, true, err
	}
	if _, err := sortKeyEvs(s); err != nil {
		return nil, true, err
	}
	parts, err := ex.scanSource(cs.scan, cs.prune)
	if err != nil {
		return nil, true, err
	}
	ex.configureChainSkip(cs)
	ex.metrics.addFusedPipelines(1)
	morsels := buildMorsels(parts, morselTarget(parts, ex.opts.BatchSize, ex.opts.Parallelism))
	if len(morsels) <= 1 {
		in, err := ex.serialChain(cs, parts)
		if err != nil {
			return nil, true, err
		}
		it, err := ex.newSortIter(s, in)
		return it, true, err
	}
	it, err := newSortRunIter(ex, s, cs, morsels)
	if err != nil {
		return nil, true, err
	}
	ex.closers = append(ex.closers, it.run.close)
	ex.onClose(it.sink.closeRuns)
	return it, true, nil
}

// writeSortedRun writes already-sorted rows out as one spill run.
func writeSortedRun(spillDir string, width int, rows []Row) (*storage.SpillFile, error) {
	w, err := storage.NewSpillWriter(spillDir, width)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := w.Append(row); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Finish()
}

// runRef is one sorted run: a spill file or in-memory rows (with the rows'
// reservation, released per row as the merge emits them).
type runRef struct {
	file     *storage.SpillFile
	rows     []Row
	resident int64
}

// sortRunSink collects finished morsels' runs. It is itself Spillable:
// under pressure the pool can convert any collected in-memory run — already
// sorted — into a file run in place.
type sortRunSink struct {
	width    int
	spillDir string
	tracker  *memctl.Tracker

	mu       sync.Mutex
	resident int64
	byMorsel map[int][]runRef
	files    []*storage.SpillFile // every run file ever created, for close
	sealed   bool
}

// SpillableBytes is called with the pool lock held; it must not take sk.mu.
func (sk *sortRunSink) SpillableBytes() int64 { return atomic.LoadInt64(&sk.resident) }

func (sk *sortRunSink) Label() string { return opSort }

func (sk *sortRunSink) Spill() (int64, error) {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if sk.sealed {
		return 0, nil
	}
	var freed int64
	var firstErr error
	for _, srcs := range sk.byMorsel {
		for ci := range srcs {
			src := &srcs[ci]
			if src.rows == nil {
				continue
			}
			f, err := writeSortedRun(sk.spillDir, sk.width, src.rows)
			if err != nil {
				firstErr = err
				break
			}
			sk.files = append(sk.files, f)
			sk.tracker.AddSpill(opSort, f.Bytes(), 1)
			freed += src.resident
			atomic.AddInt64(&sk.resident, -src.resident)
			src.file, src.rows, src.resident = f, nil, 0
		}
		if firstErr != nil {
			break
		}
	}
	if freed > 0 {
		sk.tracker.Release(opSort, freed)
	}
	return freed, firstErr
}

func (sk *sortRunSink) seal() {
	sk.mu.Lock()
	sk.sealed = true
	sk.mu.Unlock()
}

func (sk *sortRunSink) addFile(f *storage.SpillFile) {
	sk.mu.Lock()
	sk.files = append(sk.files, f)
	sk.mu.Unlock()
}

func (sk *sortRunSink) closeRuns() {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	for _, f := range sk.files {
		f.Close()
	}
}

// sortWorkerState buffers one worker's in-flight morsel rows. Spillable:
// the pool can cut the buffered prefix into a sorted run mid-morsel (runs
// stay contiguous input ranges, in cut order).
type sortWorkerState struct {
	sink  *sortRunSink
	evs   []*evaluator
	keys  []logical.SortKey
	width int

	mu       sync.Mutex
	buf      []Row
	resident int64
	runs     []runRef
}

// SpillableBytes is called with the pool lock held; it must not take ws.mu.
func (ws *sortWorkerState) SpillableBytes() int64 { return atomic.LoadInt64(&ws.resident) }

func (ws *sortWorkerState) Label() string { return opSort }

func (ws *sortWorkerState) Spill() (int64, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if len(ws.buf) == 0 {
		return 0, nil
	}
	sortRowsStable(ws.buf, ws.evs, ws.keys)
	f, err := writeSortedRun(ws.sink.spillDir, ws.width, ws.buf)
	if err != nil {
		return 0, err
	}
	ws.sink.addFile(f)
	ws.runs = append(ws.runs, runRef{file: f})
	freed := ws.resident
	atomic.StoreInt64(&ws.resident, 0)
	ws.buf = nil
	ws.sink.tracker.Release(opSort, freed)
	ws.sink.tracker.AddSpill(opSort, f.Bytes(), 1)
	return freed, nil
}

// addBatch gathers one chain-output batch into the worker's buffer, in
// bounded chunks with no lock held during Reserve — the pool may pick this
// very worker (or the sink) as the spill victim mid-batch.
func (ws *sortWorkerState) addBatch(b *vec.Batch) error {
	n := b.Len()
	chunk := make([]Row, 0, n)
	var bytes int64
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := ws.sink.tracker.Reserve(opSort, bytes); err != nil {
			return err
		}
		ws.mu.Lock()
		ws.buf = append(ws.buf, chunk...)
		atomic.AddInt64(&ws.resident, bytes)
		ws.mu.Unlock()
		chunk, bytes = chunk[:0:0], 0
		return nil
	}
	for i := 0; i < n; i++ {
		row := make(Row, ws.width)
		b.Gather(i, row)
		chunk = append(chunk, row)
		bytes += rowMemBytes(row)
		if bytes >= reserveChunkBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// finishMorsel stable-sorts the in-memory leftover as the morsel's final
// run and hands every run to the sink (holding ws.mu throughout, so a
// concurrent Spill can never observe a half-moved morsel). The leftover's
// reservation transfers to the sink.
func (ws *sortWorkerState) finishMorsel(mi int) {
	ws.mu.Lock()
	srcs := ws.runs
	ws.runs = nil
	if len(ws.buf) > 0 {
		sortRowsStable(ws.buf, ws.evs, ws.keys)
		srcs = append(srcs, runRef{rows: ws.buf, resident: ws.resident})
	}
	moved := ws.resident
	ws.buf = nil
	atomic.StoreInt64(&ws.resident, 0)
	if len(srcs) > 0 {
		ws.sink.deposit(mi, srcs, moved)
	}
	ws.mu.Unlock()
}

// abandonMorsel clears the worker state after a mid-morsel error so the
// worker's next morsel cannot mix rows; the reservation is refunded. Run
// files already created are closed by the sink at query close.
func (ws *sortWorkerState) abandonMorsel() {
	ws.mu.Lock()
	freed := ws.resident
	ws.buf = nil
	ws.runs = nil
	atomic.StoreInt64(&ws.resident, 0)
	if freed > 0 {
		ws.sink.tracker.Release(opSort, freed)
	}
	ws.mu.Unlock()
}

func (sk *sortRunSink) deposit(mi int, srcs []runRef, resident int64) {
	sk.mu.Lock()
	sk.byMorsel[mi] = srcs
	atomic.AddInt64(&sk.resident, resident)
	sk.mu.Unlock()
}

// sortRunIter drives the sort-run sink: parallel run generation, then a
// k-way merge over every run in (morsel, cut) order.
type sortRunIter struct {
	run       *orderedRun[error]
	morsels   []morsel
	cols      []string
	batchSize int
	width     int
	keys      []logical.SortKey
	evs       []*evaluator
	m         *Metrics
	pool      *workerPool
	share     *scanshare.Manager
	ctrl      *skipController
	tracker   *memctl.Tracker
	wstages   [][]pipeStage
	wstates   []*sortWorkerState
	sink      *sortRunSink

	built bool
	merge *sortMerger
}

func newSortRunIter(ex *executor, s *logical.Sort, cs *chainSpec, morsels []morsel) (*sortRunIter, error) {
	run := newOrderedRun[error](len(morsels), ex.opts.Parallelism)
	width := len(s.Input.Schema())
	sink := &sortRunSink{
		width: width, spillDir: ex.mempool.SpillDir(), tracker: ex.tracker,
		byMorsel: make(map[int][]runRef),
	}
	wstages := make([][]pipeStage, run.workers)
	wstates := make([]*sortWorkerState, run.workers)
	for w := 0; w < run.workers; w++ {
		st, err := newPipeStages(cs, ex.opts.NaiveMasks)
		if err != nil {
			return nil, err
		}
		wevs, err := sortKeyEvs(s)
		if err != nil {
			return nil, err
		}
		wstages[w] = st
		wstates[w] = &sortWorkerState{sink: sink, evs: wevs, keys: s.Keys, width: width}
	}
	evs, err := sortKeyEvs(s)
	if err != nil {
		return nil, err
	}
	ctrl, _ := ex.lookupScanCtrl(cs.scan)
	return &sortRunIter{
		run: run, morsels: morsels, cols: cs.scan.ColNames,
		batchSize: ex.opts.BatchSize, width: width, keys: s.Keys, evs: evs,
		m: ex.metrics, pool: ex.pool, share: ex.share, ctrl: ctrl, tracker: ex.tracker,
		wstages: wstages, wstates: wstates, sink: sink,
	}, nil
}

func (it *sortRunIter) work(w, i int) error {
	ws := it.wstates[w]
	stages := it.wstages[w]
	// Decode and the fused stage loop run under one shared pool slot; the
	// slot is released before gathering, whose Reserve calls may block on
	// spills and must never hold a slot.
	it.pool.acquire()
	var out, src []*vec.Batch
	var err error
	co := batchCoalescer{target: it.batchSize}
	push := func(cb *vec.Batch) {
		it.m.addProcessed(int64(cb.Len()))
		it.m.addPipelineBatches(1)
		if ob := runStages(stages, cb, it.m); ob != nil {
			it.m.addProcessed(int64(ob.Len())) // the sort's input charge
			out = append(out, ob)
		}
	}
	for _, p := range it.morsels[i].parts {
		if it.ctrl.shouldPrune(p) {
			// The sink drains totally, so the as-if-scanned recharge can
			// happen worker-side like every other charge here.
			it.ctrl.recharge(int64(p.NumRows))
			continue
		}
		if src, err = partitionBatches(p, it.cols, it.batchSize, it.share, it.run.stop, it.m, src[:0]); err != nil {
			it.pool.release()
			return err
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
	it.pool.release()
	for _, ob := range out {
		if err := ws.addBatch(ob); err != nil {
			ws.abandonMorsel()
			return err
		}
	}
	ws.finishMorsel(i)
	return nil
}

func (it *sortRunIter) NextBatch() (*vec.Batch, error) {
	if !it.built {
		if err := it.build(); err != nil {
			return nil, err
		}
		it.built = true
	}
	return it.merge.NextBatch()
}

func (it *sortRunIter) build() error {
	for _, ws := range it.wstates {
		it.tracker.Register(ws)
	}
	it.tracker.Register(it.sink)
	it.run.start(it.work)
	var firstErr error
	for {
		err, ok := it.run.recv()
		if !ok {
			break
		}
		if err != nil {
			firstErr = err
			break
		}
	}
	it.run.close()
	// Unregister before emission: the merge's consumers may reserve memory,
	// and those reservations must never route a spill into sealed state.
	for _, ws := range it.wstates {
		it.tracker.Unregister(ws)
	}
	it.tracker.Unregister(it.sink)
	it.sink.seal()
	if firstErr != nil {
		return firstErr
	}
	var cursors []*sortRunCursor
	it.sink.mu.Lock()
	for mi := 0; mi < len(it.morsels); mi++ {
		for _, src := range it.sink.byMorsel[mi] {
			if src.file != nil {
				cursors = append(cursors, &sortRunCursor{file: src.file, rd: src.file.NewReader(), width: it.width})
			} else {
				cursors = append(cursors, &sortRunCursor{rows: src.rows, residual: src.resident, tracker: it.tracker})
			}
		}
	}
	it.sink.mu.Unlock()
	for _, c := range cursors {
		if err := c.advance(it.evs); err != nil {
			return err
		}
	}
	it.merge = &sortMerger{
		cursors: cursors, evs: it.evs, keys: it.keys,
		width: it.width, batchSize: it.batchSize,
	}
	return nil
}
