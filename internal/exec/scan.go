package exec

import (
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/scanshare"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// buildFilter builds a filter; when the input is a scan of a partitioned
// table, conjuncts referencing only the partition column are peeled off
// into a partition pruner (the engine's analogue of Athena skipping S3
// prefixes), and the rest stay as the residual predicate.
func (ex *executor) buildFilter(f *logical.Filter) (BatchIterator, error) {
	if scan, ok := f.Input.(*logical.Scan); ok {
		if pruner, residual := splitPartitionPrune(scan, f.Cond); pruner != nil {
			prev := ex.sideCtrls[scan]
			in, err := ex.buildScan(scan, pruner)
			if err != nil {
				return nil, err
			}
			if residual == nil {
				return in, nil
			}
			// Within surviving partitions the partition column is constant
			// and the peeled conjuncts hold, so the residual alone decides
			// survivor sets; pruned rows would have been charged at the scan
			// emit and the filter input (factor 2).
			ex.configureScanSkip(scan, prev, expr.Conjuncts(residual), 2)
			return ex.newFilterIter(in, residual, layoutOf(scan))
		}
	}
	var prev *scanCtrlReg
	scan, isScan := f.Input.(*logical.Scan)
	if isScan {
		prev = ex.sideCtrls[scan]
	}
	in, err := ex.build(f.Input)
	if err != nil {
		return nil, err
	}
	if isScan {
		ex.configureScanSkip(scan, prev, expr.Conjuncts(f.Cond), 2)
	}
	return ex.newFilterIter(in, f.Cond, layoutOf(f.Input))
}

// splitPartitionPrune peels the conjuncts of cond that reference only the
// scan's partition column into a storage.Pruner, returning the pruner and
// the residual predicate (nil when every conjunct pruned). A nil pruner
// means nothing peeled — the caller filters the unpruned scan with cond.
// Both the pull filter and the push-pipeline compiler route through this
// helper, so the two execution models scan exactly the same partitions.
func splitPartitionPrune(scan *logical.Scan, cond expr.Expr) (storage.Pruner, expr.Expr) {
	pruner, _, _, residual := splitPartitionPruneCond(scan, cond)
	return pruner, residual
}

// splitPartitionPruneCond is splitPartitionPrune exposing the peeled prune
// predicate and the partition column it ranges over, for layers that
// fingerprint pruning work (the chain-shape cache) rather than execute it.
func splitPartitionPruneCond(scan *logical.Scan, cond expr.Expr) (storage.Pruner, expr.Expr, *expr.Column, expr.Expr) {
	if scan.Table.PartitionColumn == "" {
		return nil, nil, nil, cond
	}
	partCol := scan.ColumnFor(scan.Table.PartitionColumn)
	if partCol == nil {
		return nil, nil, nil, cond
	}
	var pruneConjs, residual []expr.Expr
	allowed := map[expr.ColumnID]bool{partCol.ID: true}
	for _, c := range expr.Conjuncts(cond) {
		if expr.RefersOnly(c, allowed) {
			pruneConjs = append(pruneConjs, c)
		} else {
			residual = append(residual, c)
		}
	}
	if len(pruneConjs) == 0 {
		return nil, nil, nil, cond
	}
	pruneCond := expr.And(pruneConjs...)
	env := &expr.SlotEnv{Slots: map[expr.ColumnID]int{partCol.ID: 0}}
	pruner := func(key types.Value) bool {
		env.Row = Row{key}
		return expr.Eval(pruneCond, env).IsTrue()
	}
	if len(residual) == 0 {
		return pruner, pruneCond, partCol, nil
	}
	return pruner, pruneCond, partCol, expr.And(residual...)
}

// newFilterIter compiles a filter predicate. The default path is a
// single-mask family — flattened conjuncts evaluated progressively over
// shrinking survivors, with bitmap intermediates; under Options.NaiveMasks
// the predicate compiles to one value-vector batch evaluator instead.
func (ex *executor) newFilterIter(in BatchIterator, cond expr.Expr, layout map[expr.ColumnID]int) (BatchIterator, error) {
	if ex.opts.NaiveMasks {
		ev, err := newBatchEvaluator(cond, layout)
		if err != nil {
			return nil, err
		}
		return &filterIter{in: in, cond: ev, m: ex.metrics}, nil
	}
	fam, err := newMaskFamily([]expr.Expr{cond}, layout)
	if err != nil {
		return nil, err
	}
	return &filterIter{in: in, fam: fam, m: ex.metrics}, nil
}

// scanSource resolves a scan leaf's partitions and, with sharing on, opens
// its scan-share session. Shared by the pull scan builder and the
// push-pipeline compiler so both charge the same BytesScanned and decode
// accounting. The session closes after the leaf's workers drain (closers
// run in append order), so callers must append it after their own closer.
func (ex *executor) scanSource(s *logical.Scan, prune storage.Pruner) ([]*storage.Partition, *scanshare.Scan, error) {
	scan := ex.store.ScanPartitions
	if ex.opts.Snapshot != nil {
		scan = ex.opts.Snapshot.ScanPartitions
	}
	parts, err := scan(s.Table.Name, s.ColNames, prune, &ex.metrics.Storage)
	if err != nil {
		return nil, nil, err
	}
	var share *scanshare.Scan
	if ex.share != nil {
		share = ex.share.Open(s.Table.Name, parts, s.ColNames, &ex.metrics.Share)
	}
	if !ex.opts.NoSkip {
		// Register a skip controller for this leaf; the filter, chain
		// compiler, or a hash join above will configure it with predicates.
		ex.registerScanCtrl(s, &skipController{m: ex.metrics, cols: s.ColNames, rcDepth: ex.rcDepth})
	}
	return parts, share, nil
}

func (ex *executor) buildScan(s *logical.Scan, prune storage.Pruner) (BatchIterator, error) {
	parts, share, err := ex.scanSource(s, prune)
	if err != nil {
		return nil, err
	}
	ctrl, _ := ex.lookupScanCtrl(s)
	if ex.opts.Parallelism > 1 {
		morsels := buildMorsels(parts, morselTarget(parts, ex.opts.BatchSize, ex.opts.Parallelism))
		if len(morsels) > 1 {
			it := newParallelScan(s.ColNames, morsels, ex.opts.BatchSize, ex.opts.Parallelism, ex.metrics, ex.pool)
			it.share = share
			it.ctrl = ctrl
			ex.closers = append(ex.closers, it.close)
			if share != nil {
				ex.closers = append(ex.closers, share.Close)
			}
			return it, nil
		}
	}
	if share != nil {
		ex.closers = append(ex.closers, share.Close)
	}
	return &scanIter{cols: s.ColNames, parts: parts, batchSize: ex.opts.BatchSize, m: ex.metrics, share: share, ctrl: ctrl}, nil
}

// decodePartition is the single decode entry point for both scan leaves:
// through the scan-share session when sharing is on, directly otherwise.
// Physical decode accounting (Metrics.Share) is charged either way, so
// shared-vs-unshared BytesDecoded comparisons are meaningful.
func decodePartition(p *storage.Partition, cols []string, share *scanshare.Scan, stop <-chan struct{}, m *Metrics) ([][]types.Value, error) {
	if share != nil {
		return share.Decode(p, stop)
	}
	decoded, err := p.DecodeColumns(cols)
	if err != nil {
		return nil, err
	}
	for _, c := range cols {
		m.Share.AddDecoded(p.Chunk(c).Bytes)
	}
	return decoded, nil
}

// scanIter is the serial scan leaf: it decodes each partition's column
// chunks in one pass (the batch analogue of Parquet decode work) and emits
// zero-copy batch-sized windows over the decoded vectors.
type scanIter struct {
	cols      []string
	parts     []*storage.Partition
	batchSize int
	m         *Metrics
	share     *scanshare.Scan
	ctrl      *skipController

	part    int
	decoded [][]types.Value
	rows    int
	off     int
}

func (it *scanIter) NextBatch() (*vec.Batch, error) {
	for {
		if it.decoded == nil {
			if it.part >= len(it.parts) {
				return nil, nil
			}
			p := it.parts[it.part]
			if it.ctrl.shouldPrune(p) {
				// The serial scan runs in its consumer's pull, so recharging
				// here lands at exactly the stream position the partition's
				// batches would have occupied — LIMIT truncation included.
				it.ctrl.recharge(int64(p.NumRows))
				it.part++
				continue
			}
			d, err := decodePartition(p, it.cols, it.share, nil, it.m)
			if err != nil {
				return nil, err
			}
			it.decoded, it.rows, it.off = d, p.NumRows, 0
		}
		if it.off >= it.rows {
			it.decoded = nil
			it.part++
			continue
		}
		hi := it.off + it.batchSize
		if hi > it.rows {
			hi = it.rows
		}
		cols := make([][]types.Value, len(it.decoded))
		for c := range it.decoded {
			cols[c] = it.decoded[c][it.off:hi]
		}
		n := hi - it.off
		it.off = hi
		it.m.addProcessed(int64(n))
		return vec.NewDense(cols, n), nil
	}
}

// filterIter qualifies rows by building a selection vector over its input
// batches — survivors are never materialized here, only marked. Exactly
// one of fam (bitmap mask family) and cond (naive baseline) is set.
type filterIter struct {
	in   BatchIterator
	fam  *maskFamily
	cond *batchEvaluator
	m    *Metrics
}

func (it *filterIter) NextBatch() (*vec.Batch, error) {
	for {
		b, err := it.in.NextBatch()
		if b == nil || err != nil {
			return nil, err
		}
		n := b.Len()
		it.m.addProcessed(int64(n))
		var sel []int
		if it.fam != nil {
			truth := it.fam.eval(b)[0]
			count := truth.Count()
			if count == n && b.Sel == nil {
				return b, nil
			}
			if count == 0 {
				continue
			}
			sel = make([]int, 0, count)
			for i := 0; i < n; i++ {
				if truth.True(i) {
					sel = append(sel, b.RowIdx(i))
				}
			}
			return b.WithSel(sel), nil
		}
		vals := it.cond.eval(b)
		sel = make([]int, 0, n)
		for i := 0; i < n; i++ {
			if vals[i].IsTrue() {
				sel = append(sel, b.RowIdx(i))
			}
		}
		switch {
		case len(sel) == 0:
			continue
		case len(sel) == n && b.Sel == nil:
			return b, nil
		default:
			return b.WithSel(sel), nil
		}
	}
}

func (ex *executor) buildProject(p *logical.Project) (BatchIterator, error) {
	in, err := ex.build(p.Input)
	if err != nil {
		return nil, err
	}
	layout := layoutOf(p.Input)
	evs := make([]batchFn, len(p.Cols))
	for i, a := range p.Cols {
		fn, err := compileBatchExpr(a.E, layout)
		if err != nil {
			return nil, err
		}
		evs[i] = fn
	}
	return &projectIter{in: in, evs: evs, m: ex.metrics}, nil
}

// projectIter evaluates each output expression vector-wise over the active
// rows, producing a dense batch (projection is the materialization point
// where upstream selections compact away).
type projectIter struct {
	in  BatchIterator
	evs []batchFn
	m   *Metrics
}

func (it *projectIter) NextBatch() (*vec.Batch, error) {
	b, err := it.in.NextBatch()
	if b == nil || err != nil {
		return nil, err
	}
	n := b.Len()
	it.m.addProcessed(int64(n))
	cols := make([][]types.Value, len(it.evs))
	for i, fn := range it.evs {
		out := make([]types.Value, n)
		fn(b, out)
		cols[i] = out
	}
	return vec.NewDense(cols, n), nil
}

type valuesIter struct {
	rows      [][]types.Value
	width     int
	batchSize int
	idx       int
}

func (it *valuesIter) NextBatch() (*vec.Batch, error) {
	if it.idx >= len(it.rows) {
		return nil, nil
	}
	bl := vec.NewBuilder(it.width, it.batchSize)
	for it.idx < len(it.rows) && !bl.Full() {
		bl.Append(it.rows[it.idx])
		it.idx++
	}
	return bl.Flush(), nil
}

type limitIter struct {
	in        BatchIterator
	remaining int64
}

func (it *limitIter) NextBatch() (*vec.Batch, error) {
	if it.remaining <= 0 {
		return nil, nil
	}
	b, err := it.in.NextBatch()
	if b == nil || err != nil {
		return nil, err
	}
	n := int64(b.Len())
	if n <= it.remaining {
		it.remaining -= n
		return b, nil
	}
	// Trim the batch to the first remaining active rows.
	sel := make([]int, it.remaining)
	for i := range sel {
		sel[i] = b.RowIdx(i)
	}
	it.remaining = 0
	return b.WithSel(sel), nil
}

// esrIter enforces the single-row contract of scalar subqueries: exactly
// one output row, NULL-extended when the input is empty, an error when the
// input has more than one row.
type esrIter struct {
	in    BatchIterator
	width int
	done  bool
}

func (it *esrIter) NextBatch() (*vec.Batch, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	var first Row
	for {
		b, err := it.in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		if first != nil || n > 1 {
			return nil, errTooManyRows
		}
		first = make(Row, it.width)
		b.Gather(0, first)
	}
	if first == nil {
		first = make(Row, it.width)
		for i := range first {
			first[i] = types.Unknown()
		}
	}
	bl := vec.NewBuilder(it.width, 1)
	bl.Append(first)
	return bl.Flush(), nil
}
