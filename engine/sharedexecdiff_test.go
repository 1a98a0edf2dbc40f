package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
)

// This file holds shared execution's targeted tests: admission-window
// cancellation and stragglers, and per-worker sharing of the mask-family
// compile. The shared-vs-solo corpus comparison is the SharedExec,
// SharedExecTPCDS and SharedExecAppends rows of the differential harness
// (differential_test.go).

// TestSharedExecCancelAndStragglers is the admission-window concurrency
// test: a client that abandons its context never stalls or poisons the
// batch, concurrent clients with different predicates get exactly their own
// rows back, ineligible shapes bypass the window entirely, and a straggler
// arriving after the batch sealed falls back to a clean solo run. The batch
// seal is driven by MaxFusedQueries (the window is a long backstop), so the
// sequencing is deterministic; `go test -race ./engine/` covers the
// Submit/seal/execute interleavings.
func TestSharedExecCancelAndStragglers(t *testing.T) {
	st := diffTestStore(t)
	qB := "SELECT f_k1, f_qty FROM fact WHERE f_qty > 40"
	qC := "SELECT f_k1, f_qty FROM fact WHERE f_price < 700.5"
	qLimit := "SELECT f_k1 FROM fact WHERE f_qty > 10 LIMIT 3"
	qE := "SELECT f_tag FROM fact WHERE f_k2 IS NOT NULL"

	solo := OpenWithStore(st, Config{Parallelism: 4})
	soloRows := map[string]string{}
	soloProcessed := map[string]int64{}
	for _, q := range []string{qB, qC, qLimit, qE} {
		res, err := solo.Query(q)
		if err != nil {
			t.Fatalf("solo %q failed: %v", q, err)
		}
		soloRows[q] = exactRows(res.Rows)
		soloProcessed[q] = res.Metrics.RowsProcessed
	}

	eng := OpenWithStore(st, Config{
		Parallelism: 4, ShareExec: true,
		AdmissionWindow: sharedExecWindow, MaxFusedQueries: 3,
	})

	// Client A joins the batch with an already-canceled context: Submit must
	// return the context error immediately and leave the (abandoned) entry
	// behind without wedging the batch.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryContext(canceled, "SELECT f_k1 FROM fact WHERE f_qty > 5"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled client: err = %v, want context.Canceled", err)
	}

	// Clients B and C fill the batch to MaxFusedQueries; C's arrival seals
	// it. The abandoned entry is skipped, so the fused group is exactly
	// {B, C} — different predicates, so any routing error shows up as
	// cross-client row leakage.
	var wg sync.WaitGroup
	var resB, resC *Result
	var errB, errC error
	wg.Add(2)
	go func() { defer wg.Done(); resB, errB = eng.Query(qB) }()
	time.Sleep(20 * time.Millisecond) // let B join before C seals the batch
	go func() { defer wg.Done(); resC, errC = eng.Query(qC) }()
	wg.Wait()
	for _, cl := range []struct {
		name string
		q    string
		res  *Result
		err  error
	}{{"B", qB, resB, errB}, {"C", qC, resC, errC}} {
		if cl.err != nil {
			t.Fatalf("client %s failed: %v", cl.name, cl.err)
		}
		if got := exactRows(cl.res.Rows); got != soloRows[cl.q] {
			t.Fatalf("client %s: rows differ from solo\ngot:\n%s\nwant:\n%s", cl.name, got, soloRows[cl.q])
		}
		if got := cl.res.Metrics.RowsProcessed; got != soloProcessed[cl.q] {
			t.Fatalf("client %s: RowsProcessed %d != solo %d", cl.name, got, soloProcessed[cl.q])
		}
		sh := cl.res.Metrics.SharedExec
		if sh.BatchedQueries != 2 || sh.FusedPlans != 2 || sh.WindowWaits != 1 {
			t.Fatalf("client %s: SharedExec = %+v, want {BatchedQueries:2 FusedPlans:2 WindowWaits:1}", cl.name, sh)
		}
	}

	// A LIMIT query is ineligible: it must bypass the window (zero
	// SharedExec stamp) and still return solo-identical rows.
	resL, err := eng.Query(qLimit)
	if err != nil {
		t.Fatalf("LIMIT client failed: %v", err)
	}
	if got := exactRows(resL.Rows); got != soloRows[qLimit] {
		t.Fatalf("LIMIT client: rows differ from solo\ngot:\n%s\nwant:\n%s", got, soloRows[qLimit])
	}
	if resL.Metrics.SharedExec != (exec.SharedExecMetrics{}) {
		t.Fatalf("LIMIT client: SharedExec = %+v, want zero (bypass)", resL.Metrics.SharedExec)
	}

	// A straggler after the batch executed opens a fresh batch, waits out
	// the window alone, and falls back to a clean solo run.
	resE, err := eng.Query(qE)
	if err != nil {
		t.Fatalf("straggler failed: %v", err)
	}
	if got := exactRows(resE.Rows); got != soloRows[qE] {
		t.Fatalf("straggler: rows differ from solo\ngot:\n%s\nwant:\n%s", got, soloRows[qE])
	}
	sh := resE.Metrics.SharedExec
	if sh.BatchedQueries != 1 || sh.FusedPlans != 1 || sh.WindowWaits != 1 {
		t.Fatalf("straggler: SharedExec = %+v, want {BatchedQueries:1 FusedPlans:1 WindowWaits:1}", sh)
	}
}

// TestSharedExecMaskFamilyCompileSharing pins the worker-sharing contract of
// the mask-family compiler (the pipeline sinks compile one factoring spec
// per sink and instantiate per worker): raising Parallelism must not repeat
// the factoring analysis, only the cheap per-worker closure instantiation.
func TestSharedExecMaskFamilyCompileSharing(t *testing.T) {
	st := diffTestStore(t)
	query := "SELECT COUNT(*) AS c, SUM(f_qty) AS s FROM fact" +
		" WHERE f_qty > 10 AND f_price < 1500.5 AND f_tag IN ('alpha', 'delta', '')"
	run := func(parallelism int) exec.CompileCounters {
		before := exec.CompileStats()
		if _, err := OpenWithStore(st, Config{Parallelism: parallelism, BatchSize: 64}).Query(query); err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		after := exec.CompileStats()
		return exec.CompileCounters{
			MaskFamilyFactorings:     after.MaskFamilyFactorings - before.MaskFamilyFactorings,
			MaskFamilyInstantiations: after.MaskFamilyInstantiations - before.MaskFamilyInstantiations,
		}
	}
	d1 := run(1)
	d8 := run(8)
	if d1.MaskFamilyFactorings == 0 {
		t.Fatal("query compiled no mask families — the factoring counter is not engaging")
	}
	if d8.MaskFamilyFactorings != d1.MaskFamilyFactorings {
		t.Fatalf("factorings scale with parallelism: %d at p=8 vs %d at p=1 — the spec is not shared across workers",
			d8.MaskFamilyFactorings, d1.MaskFamilyFactorings)
	}
	if d8.MaskFamilyInstantiations < d1.MaskFamilyInstantiations {
		t.Fatalf("instantiations shrank with parallelism: %d at p=8 vs %d at p=1", d8.MaskFamilyInstantiations, d1.MaskFamilyInstantiations)
	}
}
