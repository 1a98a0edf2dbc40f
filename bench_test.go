// Package repro's top-level benchmarks regenerate the paper's evaluation
// (§V): one benchmark pair (baseline vs fused) per selected query of
// Figures 1 and 2, plus whole-workload benchmarks for the §V aggregates.
// Bytes-scanned and rows-processed counters are reported as custom metrics,
// so `go test -bench=. -benchmem` reproduces both the latency shape
// (Figure 1) and the data-read shape (Figure 2) in one run.
//
// An ablation pair per fusion rule measures the design choices DESIGN.md
// calls out (rules disabled individually via query selection).
package repro

import (
	"sync"
	"testing"

	"repro/engine"
	"repro/internal/storage"
	"repro/internal/tpcds"
)

const (
	benchScale = 0.2
	benchSeed  = 42
)

var (
	benchOnce  sync.Once
	benchStore *storage.Store
)

// engines returns a baseline and a fused engine over a shared, lazily
// generated store (generation cost is excluded from timings).
func engines(b *testing.B) (*engine.Engine, *engine.Engine) {
	b.Helper()
	benchOnce.Do(func() {
		st, err := tpcds.NewLoadedStore(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		benchStore = st
	})
	return engine.OpenWithStore(benchStore, engine.Config{EnableFusion: false}),
		engine.OpenWithStore(benchStore, engine.Config{EnableFusion: true})
}

// benchQuery runs one prepared query on one engine, reporting bytes scanned
// and the CPU proxy as custom metrics. Preparation happens once outside the
// timed loop (planning cost is measured separately by the Optimize
// benchmarks), matching how the paper's engine amortizes compilation.
func benchQuery(b *testing.B, eng *engine.Engine, name string) {
	b.Helper()
	q, ok := tpcds.Get(name)
	if !ok {
		b.Fatalf("unknown query %s", name)
	}
	prepared, err := eng.Prepare(q.SQL)
	if err != nil {
		b.Fatal(err)
	}
	var bytes, rows int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := prepared.Run()
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.Metrics.Storage.BytesScanned
		rows = res.Metrics.RowsProcessed
	}
	b.ReportMetric(float64(bytes), "bytes_scanned")
	b.ReportMetric(float64(rows), "rows_processed")
}

// --- Figure 1 + Figure 2: per-query baseline/fused pairs. The latency
// ratio between the Baseline and Fused variants reproduces Figure 1; the
// bytes_scanned metric ratio reproduces Figure 2. ---

func BenchmarkFigure_Q01_Baseline(b *testing.B) { base, _ := engines(b); benchQuery(b, base, "q01") }
func BenchmarkFigure_Q01_Fused(b *testing.B)    { _, fused := engines(b); benchQuery(b, fused, "q01") }
func BenchmarkFigure_Q09_Baseline(b *testing.B) { base, _ := engines(b); benchQuery(b, base, "q09") }
func BenchmarkFigure_Q09_Fused(b *testing.B)    { _, fused := engines(b); benchQuery(b, fused, "q09") }
func BenchmarkFigure_Q23_Baseline(b *testing.B) { base, _ := engines(b); benchQuery(b, base, "q23") }
func BenchmarkFigure_Q23_Fused(b *testing.B)    { _, fused := engines(b); benchQuery(b, fused, "q23") }
func BenchmarkFigure_Q28_Baseline(b *testing.B) { base, _ := engines(b); benchQuery(b, base, "q28") }
func BenchmarkFigure_Q28_Fused(b *testing.B)    { _, fused := engines(b); benchQuery(b, fused, "q28") }
func BenchmarkFigure_Q30_Baseline(b *testing.B) { base, _ := engines(b); benchQuery(b, base, "q30") }
func BenchmarkFigure_Q30_Fused(b *testing.B)    { _, fused := engines(b); benchQuery(b, fused, "q30") }
func BenchmarkFigure_Q65_Baseline(b *testing.B) { base, _ := engines(b); benchQuery(b, base, "q65") }
func BenchmarkFigure_Q65_Fused(b *testing.B)    { _, fused := engines(b); benchQuery(b, fused, "q65") }
func BenchmarkFigure_Q88_Baseline(b *testing.B) { base, _ := engines(b); benchQuery(b, base, "q88") }
func BenchmarkFigure_Q88_Fused(b *testing.B)    { _, fused := engines(b); benchQuery(b, fused, "q88") }
func BenchmarkFigure_Q95_Baseline(b *testing.B) { base, _ := engines(b); benchQuery(b, base, "q95") }
func BenchmarkFigure_Q95_Fused(b *testing.B)    { _, fused := engines(b); benchQuery(b, fused, "q95") }

// --- §V whole-workload aggregates: the 14%-overall and 60%-affected
// numbers come from the ratio of these two benchmarks. ---

func benchWorkload(b *testing.B, eng *engine.Engine, queries []tpcds.Query) {
	b.Helper()
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bytes = 0
		for _, q := range queries {
			res, err := eng.Query(q.SQL)
			if err != nil {
				b.Fatalf("%s: %v", q.Name, err)
			}
			bytes += res.Metrics.Storage.BytesScanned
		}
	}
	b.ReportMetric(float64(bytes), "bytes_scanned")
}

func BenchmarkWorkload_All_Baseline(b *testing.B) {
	base, _ := engines(b)
	benchWorkload(b, base, tpcds.Queries())
}

func BenchmarkWorkload_All_Fused(b *testing.B) {
	_, fused := engines(b)
	benchWorkload(b, fused, tpcds.Queries())
}

func BenchmarkWorkload_Affected_Baseline(b *testing.B) {
	base, _ := engines(b)
	benchWorkload(b, base, tpcds.AffectedQueries())
}

func BenchmarkWorkload_Affected_Fused(b *testing.B) {
	_, fused := engines(b)
	benchWorkload(b, fused, tpcds.AffectedQueries())
}

// --- Ablations: each fusion rule's contribution, measured on the queries
// that exercise it (rule off = baseline engine on those queries). ---

var ablations = []struct {
	rule    string
	queries []string
}{
	{"GroupByJoinToWindow", []string{"q01", "q30", "q65"}},
	{"JoinOnKeys", []string{"q09", "q28", "q88", "q95"}},
	{"UnionAllOnJoin", []string{"q23"}},
}

func BenchmarkAblation(b *testing.B) {
	base, fused := engines(b)
	for _, ab := range ablations {
		for _, mode := range []struct {
			name string
			eng  *engine.Engine
		}{{"off", base}, {"on", fused}} {
			b.Run(ab.rule+"/"+mode.name, func(b *testing.B) {
				var qs []tpcds.Query
				for _, n := range ab.queries {
					q, _ := tpcds.Get(n)
					qs = append(qs, q)
				}
				benchWorkload(b, mode.eng, qs)
			})
		}
	}
}

// --- §I comparator: spooling instead of fusion on the queries where both
// apply. Compare against the matching Fused benchmarks above. ---

func spoolEngine(b *testing.B) *engine.Engine {
	b.Helper()
	engines(b) // ensure store
	return engine.OpenWithStore(benchStore, engine.Config{EnableSpooling: true})
}

func BenchmarkSpool_Q65(b *testing.B) { benchQuery(b, spoolEngine(b), "q65") }
func BenchmarkSpool_Q88(b *testing.B) { benchQuery(b, spoolEngine(b), "q88") }
func BenchmarkSpool_Q95(b *testing.B) { benchQuery(b, spoolEngine(b), "q95") }
func BenchmarkSpool_Q23(b *testing.B) { benchQuery(b, spoolEngine(b), "q23") }

// --- Micro-benchmarks of the fusion machinery itself. ---

func BenchmarkOptimizeFusedPlan(b *testing.B) {
	_, fused := engines(b)
	q, _ := tpcds.Get("q65")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fused.Explain(q.SQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeBaselinePlan(b *testing.B) {
	base, _ := engines(b)
	q, _ := tpcds.Get("q65")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.Explain(q.SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeWorstCase plans Q28 — six MarkDistinct-bearing branches
// fused pairwise — the most expensive optimization in the workload.
func BenchmarkOptimizeWorstCase(b *testing.B) {
	_, fused := engines(b)
	q, _ := tpcds.Get("q28")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fused.Explain(q.SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepare times planning alone — parse, bind and optimize through
// Engine.Prepare, no EXPLAIN rendering — on the fusion engine: the three
// showcase queries whose plans fuse most, and one pass over all 40.
func BenchmarkPrepare(b *testing.B) {
	_, fused := engines(b)
	for _, name := range []string{"q28", "q09", "q88"} {
		q, _ := tpcds.Get(name)
		b.Run(name, func(b *testing.B) { benchPrepare(b, fused, []tpcds.Query{q}) })
	}
	b.Run("all40", func(b *testing.B) { benchPrepare(b, fused, tpcds.Queries()) })
}

var preparedSink *engine.Prepared

func benchPrepare(b *testing.B, eng *engine.Engine, qs []tpcds.Query) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			p, err := eng.Prepare(q.SQL)
			if err != nil {
				b.Fatalf("%s: %v", q.Name, err)
			}
			preparedSink = p
		}
	}
}
