package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/tpcds"
)

// prepareAllocBudget caps the allocations of planning q28, the most
// expensive plan in the workload (six MarkDistinct-bearing branches fused
// pairwise). Planning it allocated ~337K times when equivalence was decided
// by rendering expressions; with identities fixed at construction it
// allocates ~10K.
const prepareAllocBudget = 20000

func TestPrepareAllocBudget(t *testing.T) {
	eng := OpenWithStore(tpcdsStore(0.1, 42)(t), Config{EnableFusion: true})
	defer eng.Close()
	q, _ := tpcds.Get("q28")
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := eng.Prepare(q.SQL); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > prepareAllocBudget {
		t.Fatalf("Prepare(q28) allocates %.0f times per call, budget %d", allocs, prepareAllocBudget)
	}
	t.Logf("Prepare(q28): %.0f allocs", allocs)
}

// widePredicate is SELECT COUNT(*) FROM store_sales WHERE ss_quantity = 0
// OR ... with n disjuncts, the last repeating the first.
func widePredicate(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("ss_quantity = %d", i%(n-1))
	}
	return "SELECT COUNT(*) FROM store_sales WHERE " + strings.Join(parts, " OR ")
}

// wideBytesPerPart caps the bytes planning allocates per disjunct of a
// 512-term OR. The binder builds the chain one disjunct at a time and
// every node settles its simplified form at construction; settling it by
// re-reducing the whole flattened chain on each append allocated ~23 KB
// per part at this width (growing with the width), settling it from the
// already simplified prefix allocates ~1 KB.
const wideBytesPerPart = 4096

func TestWidePredicateAllocBudget(t *testing.T) {
	eng := OpenWithStore(tpcdsStore(0.01, 42)(t), Config{EnableFusion: true})
	defer eng.Close()
	const n = 512
	q := widePredicate(n)
	if _, err := eng.Prepare(q); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.Prepare(q); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perPart := (after.TotalAlloc - before.TotalAlloc) / n
	if perPart > wideBytesPerPart {
		t.Fatalf("Prepare of a %d-term OR allocates %d bytes per term, budget %d", n, perPart, wideBytesPerPart)
	}
	t.Logf("Prepare of a %d-term OR: %d bytes per term", n, perPart)
}

// BenchmarkPrepareWidePredicate times planning a 1000-term OR, which the
// binder builds one disjunct at a time.
func BenchmarkPrepareWidePredicate(b *testing.B) {
	eng := OpenWithStore(tpcdsStore(0.01, 42)(b), Config{EnableFusion: true})
	defer eng.Close()
	q := widePredicate(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := eng.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		widePreparedSink = p
	}
}

var widePreparedSink *Prepared

// TestSharedPreparedConcurrentRuns shares one Prepared across goroutines
// that run it and render its plan at once. Expression nodes carry no
// lazily written state, so under -race this must report nothing, and every
// run must return the first run's rows.
func TestSharedPreparedConcurrentRuns(t *testing.T) {
	eng := OpenWithStore(tpcdsStore(0.1, 42)(t), Config{EnableFusion: true})
	defer eng.Close()
	for _, name := range []string{"q09", "q28"} {
		q, _ := tpcds.Get(name)
		p, err := eng.Prepare(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, plan := exactRows(ref.Rows), p.Plan()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					res, err := p.Run()
					if err != nil {
						t.Error(err)
						return
					}
					if got := exactRows(res.Rows); got != want {
						t.Errorf("%s: concurrent run returned different rows", name)
					}
					if p.Plan() != plan || res.Plan() != plan {
						t.Errorf("%s: concurrent plan rendering differs", name)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestPlanningObservability checks the planning counters: per-phase times
// on every result, per-rule attempts and firings consistent with
// RulesFired, and both in EXPLAIN's header.
func TestPlanningObservability(t *testing.T) {
	st := tpcdsStore(0.1, 42)(t)
	fused := OpenWithStore(st, Config{EnableFusion: true})
	defer fused.Close()
	q, _ := tpcds.Get("q88")
	res, err := fused.Query(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if pl := res.Metrics.Planning; pl.Parse <= 0 || pl.Bind <= 0 || pl.Optimize <= 0 {
		t.Errorf("planning phases not timed: %+v", pl)
	}
	pl, err := fused.plan(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]bool{}
	for _, name := range pl.trace.Fired {
		fired[name] = true
	}
	for _, r := range pl.trace.Rules {
		if r.Attempts == 0 || (r.Firings > 0) != fired[r.Name] || r.Firings > r.Attempts {
			t.Errorf("rule %s: %d attempts, %d firings; in RulesFired: %v", r.Name, r.Attempts, r.Firings, fired[r.Name])
		}
	}
	if len(pl.trace.Rules) == 0 || !fired["JoinOnKeys"] {
		t.Fatalf("q88 should fire JoinOnKeys; trace %+v", pl.trace)
	}
	text, err := fused.Explain(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-- planning: parse ", "-- rule JoinOnKeys: "} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN header lacks %q:\n%s", want, text)
		}
	}
}
