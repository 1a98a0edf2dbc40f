package xfuse

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
)

// sharedQueryText names a fused run for memory attribution and errors.
func sharedQueryText(clients int, firstSQL string) string {
	return fmt.Sprintf("[xfuse %d queries] %s", clients, firstSQL)
}

// stampMetrics rewrites a fused run's metrics into one member's as-if-solo
// view: logical counters (Storage, RowsProcessed, HashRows) become what the
// member's solo run would have charged, while the physical counters (Share,
// Pipeline, memory, MaskPrefixHits, Elapsed) keep telling the fused story,
// and SharedExec records how the query actually ran.
func stampMetrics(fused exec.Metrics, shape *exec.ChainShape, rowsProcessed, hashRows, batched, fusedPlans int64) exec.Metrics {
	m := fused
	m.Storage = shape.Storage
	m.RowsProcessed = rowsProcessed
	m.HashRows = hashRows
	m.SharedExec = exec.SharedExecMetrics{
		BatchedQueries: batched,
		FusedPlans:     fusedPlans,
		WindowWaits:    1,
	}
	return m
}

// runSFPGroup executes one fused Scan→Filter→Project chain for the group
// and demuxes its output: every member subscribes to the fused root with
// its compensating predicate and resolved output columns, and
// exec.RunShared routes each surviving row to the members whose predicates
// admit it (one mask-family pass for all members). Row order is the fused
// scan order, which Fuse preserves — identical to each member's solo order.
func (r *Runner) runSFPGroup(batched int64, g *group, opts exec.Options) {
	nm := len(g.members)
	layout := map[expr.ColumnID]int{}
	for i, c := range g.chain.Schema() {
		layout[c.ID] = i
	}
	subs := make([]exec.SharedSub, nm)
	for i := range g.members {
		cols := make([]int, len(g.outs[i]))
		for j, c := range g.outs[i] {
			pos, ok := layout[c.ID]
			if !ok {
				// Validated at fold time; a miss here means the fold was
				// unsound — fall everyone back rather than misroute.
				deliverSoloGroup(g, batched)
				return
			}
			cols[j] = pos
		}
		subs[i] = exec.SharedSub{Comp: g.comps[i], Cols: cols}
	}
	fres, perSub, err := exec.RunShared(g.chain, r.store, opts, subs)
	if err != nil {
		deliverSoloGroup(g, batched)
		return
	}
	for i, e := range g.members {
		shape, ok, err := r.shapes.AnalyzeChain(e.cl.chainRoot, opts.Snapshot)
		if err != nil || !ok {
			deliverSolo(e, batched)
			continue
		}
		rows := perSub[i]
		m := stampMetrics(fres.Metrics, shape,
			shape.SoloRowsProcessed(int64(len(rows))), 0, batched, int64(nm))
		offerResult(e, &m, rows)
		e.res = &exec.Result{Columns: e.cl.outCols, Rows: rows, Metrics: m}
		close(e.done)
	}
}

// runScalarGroup composes the members' scalar aggregations into one fused
// GroupBy over the fused chain (§III.E applied across queries): every
// member aggregate's FILTER mask is tightened with the member's
// compensating predicate, identical aggregates deduplicate, and a
// per-member COUNT(*) FILTER(comp) recovers the member's solo survivor
// count. The single fused output row is then replayed through each
// member's own Project stack (compiled by the ordinary executor, so
// expression semantics are bit-identical to solo).
func (r *Runner) runScalarGroup(batched int64, g *group, opts exec.Options) {
	nm := len(g.members)
	var merged []logical.AggAssign
	tailMaps := make([]expr.Mapping, nm)
	xfrowsCols := make([]*expr.Column, nm)
	for i, e := range g.members {
		tailMaps[i] = expr.Mapping{}
		for _, a := range e.cl.gb.Aggs {
			mapped := a.Agg
			if g.chainMaps[i] != nil {
				mapped = g.chainMaps[i].ApplyAgg(a.Agg)
			}
			mapped.Mask = compOrNil(expr.Simplify(expr.And(mapped.Mask, g.comps[i])))
			reused := false
			for _, ex := range merged {
				if expr.AggEqual(ex.Agg, mapped) {
					tailMaps[i].Add(a.Col.ID, ex.Col)
					reused = true
					break
				}
			}
			if !reused {
				// Keep the member's own column identity: its Project stack
				// above then resolves unmapped.
				merged = append(merged, logical.AggAssign{Col: a.Col, Agg: mapped})
			}
		}
		cnt := expr.AggCall{Fn: expr.AggCountStar, Mask: g.comps[i]}
		reused := false
		for _, ex := range merged {
			if expr.AggEqual(ex.Agg, cnt) {
				xfrowsCols[i] = ex.Col
				reused = true
				break
			}
		}
		if !reused {
			c := expr.NewColumn("$xfrows", cnt.ResultType())
			merged = append(merged, logical.AggAssign{Col: c, Agg: cnt})
			xfrowsCols[i] = c
		}
	}
	gbPlan := &logical.GroupBy{Input: g.chain, Aggs: merged}
	fres, err := exec.RunWith(gbPlan, r.store, opts)
	if err != nil || len(fres.Rows) != 1 {
		deliverSoloGroup(g, batched)
		return
	}
	fusedSchema := gbPlan.Schema()
	pos := map[expr.ColumnID]int{}
	for i, c := range fusedSchema {
		pos[c.ID] = i
	}
	frow := fres.Rows[0]
	for i, e := range g.members {
		rows, ok := r.rebuildScalarResult(e.cl, tailMaps[i], fusedSchema, frow, pos)
		if !ok {
			deliverSolo(e, batched)
			continue
		}
		shape, chOK, err := r.shapes.AnalyzeChain(e.cl.chainRoot, opts.Snapshot)
		if err != nil || !chOK {
			deliverSolo(e, batched)
			continue
		}
		survivors := frow[pos[xfrowsCols[i].ID]].I
		// The solo charge schedule past the chain: the aggregation charges
		// its input (the chain's survivors), and each Project above the
		// scalar GroupBy charges its single input row. HashRows counts the
		// one scalar group, created only when a row was consumed.
		rowsProcessed := shape.SoloRowsProcessed(survivors) + survivors + int64(len(e.cl.tops))
		var hashRows int64
		if survivors > 0 {
			hashRows = 1
		}
		m := stampMetrics(fres.Metrics, shape, rowsProcessed, hashRows, batched, int64(nm))
		offerResult(e, &m, rows)
		e.res = &exec.Result{Columns: e.cl.outCols, Rows: rows, Metrics: m}
		close(e.done)
	}
}

// rebuildScalarResult reconstructs one member's output row from the fused
// aggregation row. With no Project stack the member's aggregate columns are
// gathered directly; otherwise the fused row becomes a one-row Values leaf
// and the member's Projects (with deduplicated aggregate references
// remapped) execute over it through the ordinary executor — the same
// compiled-evaluator path a solo run uses, so computed expressions are
// bit-identical.
func (r *Runner) rebuildScalarResult(cl *classified, tail expr.Mapping, fusedSchema []*expr.Column, frow []types.Value, pos map[expr.ColumnID]int) ([]exec.Row, bool) {
	if len(cl.tops) == 0 {
		row := make(exec.Row, len(cl.outCols))
		for j, c := range cl.outCols {
			p, ok := pos[tail.Resolve(c).ID]
			if !ok {
				return nil, false
			}
			row[j] = frow[p]
		}
		return []exec.Row{row}, true
	}
	var cur logical.Operator = &logical.Values{Cols: fusedSchema, Rows: [][]types.Value{frow}}
	for i := len(cl.tops) - 1; i >= 0; i-- {
		t := cl.tops[i]
		assigns := make([]logical.Assignment, len(t.Cols))
		for j, a := range t.Cols {
			assigns[j] = logical.Assignment{Col: a.Col, E: tail.Apply(a.E)}
		}
		cur = &logical.Project{Input: cur, Cols: assigns}
	}
	res, err := exec.RunWith(cur, r.store, exec.Options{Parallelism: 1})
	if err != nil {
		return nil, false
	}
	return res.Rows, true
}
