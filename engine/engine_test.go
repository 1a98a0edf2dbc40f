package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/tpcds"
	"repro/internal/types"
)

// newTPCDSEngines builds a baseline and a fused engine over one shared
// TPC-DS store (scale kept small for test runtime).
func newTPCDSEngines(t testing.TB, scale float64) (*Engine, *Engine) {
	t.Helper()
	st, err := tpcds.NewLoadedStore(scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	return OpenWithStore(st, Config{EnableFusion: false}),
		OpenWithStore(st, Config{EnableFusion: true})
}

func TestEngineBasicQuery(t *testing.T) {
	cat := NewCatalog()
	cat.MustAdd(&Table{
		Name: "t",
		Columns: []Column{
			{Name: "a", Type: KindInt64},
			{Name: "b", Type: KindString},
		},
	})
	eng := Open(cat, Config{EnableFusion: true})
	if err := eng.Load("t", [][]Value{
		{Int(1), String("x")},
		{Int(2), String("y")},
		{Int(3), String("x")},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT b, COUNT(*) AS cnt FROM t GROUP BY b ORDER BY b")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].S != "x" || res.Rows[0][1].I != 2 {
		t.Errorf("first row = %v", res.Rows[0])
	}
	if res.Columns[1] != "cnt" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Metrics.Storage.BytesScanned == 0 {
		t.Error("metrics missing")
	}
}

func TestEngineExplain(t *testing.T) {
	base, fused := newTPCDSEngines(t, 0.05)
	q, _ := tpcds.Get("q65")
	basePlan, err := base.Explain(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	fusedPlan, err := fused.Explain(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fusedPlan, "fusion rules fired") {
		t.Errorf("fused explain should list rules:\n%s", fusedPlan)
	}
	if strings.Contains(basePlan, "fusion rules fired") {
		t.Error("baseline explain must not fire rules")
	}
	if !strings.Contains(fusedPlan, "Window") {
		t.Errorf("q65 fused plan should contain a window:\n%s", fusedPlan)
	}
}

func TestEngineErrors(t *testing.T) {
	cat := NewCatalog()
	cat.MustAdd(&Table{Name: "t", Columns: []Column{{Name: "a", Type: KindInt64}}})
	eng := Open(cat, Config{})
	if _, err := eng.Query("SELECT"); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := eng.Query("SELECT zzz FROM t"); err == nil {
		t.Error("bind error not surfaced")
	}
	if err := eng.Load("missing", nil); err == nil {
		t.Error("load into unknown table accepted")
	}
}

// canonicalRows renders rows order-insensitively with float rounding, for
// result equivalence checks.
func canonicalRows(rows [][]Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.Kind == types.KindFloat64 && !v.Null {
				// Round to 4 decimals: summation order may differ.
				parts[j] = types.Float(float64(int64(v.F*1e4+0.5)) / 1e4).String()
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestWorkloadFusionEquivalence is the central correctness gate of the
// reproduction: every workload query must return identical results with
// fusion on and off; affected queries must fire their expected rules and
// scan fewer bytes, and filler queries must be left alone.
func TestWorkloadFusionEquivalence(t *testing.T) {
	base, fused := newTPCDSEngines(t, 0.05)
	for _, q := range tpcds.Queries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			baseRes, err := base.Query(q.SQL)
			if err != nil {
				t.Fatalf("baseline failed: %v", err)
			}
			fusedRes, err := fused.Query(q.SQL)
			if err != nil {
				t.Fatalf("fused failed: %v", err)
			}

			// Result equivalence (bag semantics; ORDER BY queries are also
			// covered because sorted output canonicalizes identically).
			b := canonicalRows(baseRes.Rows)
			f := canonicalRows(fusedRes.Rows)
			if len(b) != len(f) {
				t.Fatalf("row counts differ: baseline=%d fused=%d\nbaseline plan:\n%s\nfused plan:\n%s",
					len(b), len(f), baseRes.Plan(), fusedRes.Plan())
			}
			for i := range b {
				if b[i] != f[i] {
					t.Fatalf("row %d differs:\n  baseline: %s\n  fused:    %s\nfused plan:\n%s",
						i, b[i], f[i], fusedRes.Plan())
				}
			}

			if q.Affected {
				if len(fusedRes.RulesFired) == 0 {
					t.Errorf("expected fusion rules to fire; plan:\n%s", fusedRes.Plan())
				}
				for _, rule := range q.Rules {
					found := false
					for _, fired := range fusedRes.RulesFired {
						if fired == rule {
							found = true
						}
					}
					if !found {
						t.Errorf("expected rule %s; fired %v", rule, fusedRes.RulesFired)
					}
				}
				if fusedRes.Metrics.Storage.BytesScanned >= baseRes.Metrics.Storage.BytesScanned {
					t.Errorf("affected query should scan fewer bytes: baseline=%d fused=%d",
						baseRes.Metrics.Storage.BytesScanned, fusedRes.Metrics.Storage.BytesScanned)
				}
			} else {
				if len(fusedRes.RulesFired) != 0 {
					t.Errorf("filler query changed plan: rules %v\nplan:\n%s", fusedRes.RulesFired, fusedRes.Plan())
				}
				if fusedRes.Metrics.Storage.BytesScanned != baseRes.Metrics.Storage.BytesScanned {
					t.Errorf("filler query bytes changed: baseline=%d fused=%d",
						baseRes.Metrics.Storage.BytesScanned, fusedRes.Metrics.Storage.BytesScanned)
				}
			}
		})
	}
}

// TestWorkloadDeterminism ensures repeated runs return identical results
// (guards against iteration-order nondeterminism in hash operators).
func TestWorkloadDeterminism(t *testing.T) {
	_, fused := newTPCDSEngines(t, 0.02)
	q, _ := tpcds.Get("q65")
	r1, err := fused.Query(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fused.Query(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	a, b := canonicalRows(r1.Rows), canonicalRows(r2.Rows)
	if len(a) != len(b) {
		t.Fatalf("row counts differ across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across runs", i)
		}
	}
}

func TestExplainIncludesEstimates(t *testing.T) {
	_, fused := newTPCDSEngines(t, 0.02)
	plan, err := fused.Explain("SELECT COUNT(*) AS c FROM store_sales")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "rows)") {
		t.Errorf("explain lacks cardinality estimates:\n%s", plan)
	}
}

func TestRuntimeErrorSurfaced(t *testing.T) {
	_, fused := newTPCDSEngines(t, 0.02)
	// A scalar subquery returning multiple rows fails at execution time.
	_, err := fused.Query("SELECT (SELECT ss_item_sk FROM store_sales) AS x FROM reason")
	if err == nil || !strings.Contains(err.Error(), "more than one row") {
		t.Errorf("expected single-row violation, got %v", err)
	}
}

func TestNullSemanticsThroughSQL(t *testing.T) {
	cat := NewCatalog()
	cat.MustAdd(&Table{Name: "t", Columns: []Column{
		{Name: "a", Type: KindInt64},
		{Name: "b", Type: KindInt64},
	}})
	eng := Open(cat, Config{EnableFusion: true})
	if err := eng.Load("t", [][]Value{
		{Int(1), Int(10)},
		{Int(2), {Kind: KindInt64, Null: true}},
		{Int(3), Int(30)},
	}); err != nil {
		t.Fatal(err)
	}
	// NULL never satisfies comparisons.
	res, err := eng.Query("SELECT a FROM t WHERE b > 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("comparison over NULL kept %d rows, want 2", len(res.Rows))
	}
	// COUNT(col) skips NULLs; COUNT(*) does not; SUM ignores NULLs.
	res, err = eng.Query("SELECT COUNT(b) AS cb, COUNT(*) AS cs, SUM(b) AS sb FROM t")
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].I != 2 || r[1].I != 3 || r[2].I != 40 {
		t.Errorf("NULL aggregate semantics wrong: %v", r)
	}
	// IS NULL works end to end.
	res, err = eng.Query("SELECT a FROM t WHERE b IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Errorf("IS NULL rows: %v", res.Rows)
	}
}

// TestConcurrentQueries checks the engine is safe for concurrent read-only
// use: one shared store, many goroutines, identical results.
func TestConcurrentQueries(t *testing.T) {
	_, fused := newTPCDSEngines(t, 0.02)
	q, _ := tpcds.Get("q65")
	want, err := fused.Query(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := canonicalRows(want.Rows)

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			res, err := fused.Query(q.SQL)
			if err != nil {
				errs <- err
				return
			}
			got := canonicalRows(res.Rows)
			if len(got) != len(wantRows) {
				errs <- fmt.Errorf("row count %d != %d", len(got), len(wantRows))
				return
			}
			for i := range got {
				if got[i] != wantRows[i] {
					errs <- fmt.Errorf("row %d differs", i)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
