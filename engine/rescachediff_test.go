package engine

import (
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/testgen"
)

// This file holds the result cache's targeted tests: the entry lifecycle
// across appends, a hit inside a fused batch, and the append-while-querying
// soak. The cold-vs-warm corpus comparison is the ResultCache and
// ResultCacheTPCDS rows of the differential harness (differential_test.go).

// rescacheTestStore builds a private testgen store. The shared
// diffTestStore cannot be used here: the cache lives on the store (first
// caller fixes its size) and the tests append to it, either of which would
// leak state into the differential harness.
func rescacheTestStore(t testing.TB) *storage.Store {
	st, err := testgen.NewStore(20260805, 700)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestResultCacheAppendInvalidation walks the full entry lifecycle on one
// deterministic query: miss+admit, hit, invalidation by an append to the
// scanned table (with the recomputed result provably different), re-admit,
// hit again — and an append to an unrelated table leaving the entry valid.
func TestResultCacheAppendInvalidation(t *testing.T) {
	st := rescacheTestStore(t)
	cold := OpenWithStore(st, Config{})
	warm := OpenWithStore(st, Config{ResultCacheBytes: 1 << 20})
	const q = "SELECT COUNT(*) AS c, SUM(f_qty) AS s, MIN(f_k2) AS m FROM fact WHERE f_qty > 10"

	query := func(eng *Engine) *Result {
		t.Helper()
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := query(warm)
	if rc := r1.Metrics.ResultCache; rc.Hits != 0 || rc.Misses == 0 {
		t.Fatalf("first run ResultCache = %+v, want a pure miss", rc)
	}
	preAppend := exactRows(r1.Rows)
	if got := exactRows(query(cold).Rows); got != preAppend {
		t.Fatalf("warm miss diverged from cold:\n%s\nvs\n%s", preAppend, got)
	}
	r2 := query(warm)
	if rc := r2.Metrics.ResultCache; rc.Hits != 1 || rc.ServedBytes == 0 {
		t.Fatalf("repeat run ResultCache = %+v, want a hit", rc)
	}
	if got := exactRows(r2.Rows); got != preAppend {
		t.Fatalf("cached rows differ:\n%s\nvs\n%s", got, preAppend)
	}
	if r2.Metrics.Storage.BytesScanned != r1.Metrics.Storage.BytesScanned ||
		r2.Metrics.RowsProcessed != r1.Metrics.RowsProcessed {
		t.Fatalf("hit re-charged %d/%d, miss charged %d/%d",
			r2.Metrics.Storage.BytesScanned, r2.Metrics.RowsProcessed,
			r1.Metrics.Storage.BytesScanned, r1.Metrics.RowsProcessed)
	}

	// Append through the engine: the row passes the WHERE, so the cached
	// aggregate is provably stale and the recomputation provably fresh.
	if err := warm.Append("fact", [][]Value{
		{Int(1), Int(4), Int(77), Float(3.25), String("beta"), Int(1)},
	}); err != nil {
		t.Fatal(err)
	}
	r3 := query(warm)
	if rc := r3.Metrics.ResultCache; rc.Hits != 0 {
		t.Fatalf("post-append run ResultCache = %+v, want invalidation (no hit)", rc)
	}
	postAppend := exactRows(r3.Rows)
	if postAppend == preAppend {
		t.Fatal("append did not change the aggregate — invalidation test is vacuous")
	}
	if got := exactRows(query(cold).Rows); got != postAppend {
		t.Fatalf("post-append warm run diverged from cold:\n%s\nvs\n%s", postAppend, got)
	}
	r4 := query(warm)
	if rc := r4.Metrics.ResultCache; rc.Hits != 1 {
		t.Fatalf("post-append repeat ResultCache = %+v, want re-admitted hit", rc)
	}
	if got := exactRows(r4.Rows); got != postAppend {
		t.Fatalf("re-admitted rows differ:\n%s\nvs\n%s", got, postAppend)
	}

	// An append to a table the entry never scanned leaves it valid.
	if err := warm.Append("dim", [][]Value{{Int(42), String("nowhere"), Int(1)}}); err != nil {
		t.Fatal(err)
	}
	r5 := query(warm)
	if rc := r5.Metrics.ResultCache; rc.Hits != 1 {
		t.Fatalf("append to dim invalidated a fact entry: ResultCache = %+v", rc)
	}
	if got := exactRows(r5.Rows); got != postAppend {
		t.Fatalf("entry surviving unrelated append serves wrong rows:\n%s\nvs\n%s", got, postAppend)
	}
}

// TestResultCacheHitInsideFusedBatch primes the cache, then submits three
// copies of the query concurrently to a ShareExec engine: every batch
// member must be served from cache before grouping, with rows and logical
// metrics identical to a solo run and both the ResultCache and the
// as-if-solo SharedExec story stamped.
func TestResultCacheHitInsideFusedBatch(t *testing.T) {
	st := rescacheTestStore(t)
	const q = "SELECT COUNT(*) AS c, SUM(f_qty) AS s FROM fact WHERE f_qty > 10"
	solo := OpenWithStore(st, Config{})
	soloRes, err := solo.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := exactRows(soloRes.Rows)

	eng := OpenWithStore(st, Config{
		ShareExec:        true,
		AdmissionWindow:  sharedExecWindow,
		MaxFusedQueries:  3,
		ResultCacheBytes: 1 << 20,
	})
	prime, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if prime.Metrics.ResultCache.Hits != 0 {
		t.Fatalf("priming run hit an empty cache: %+v", prime.Metrics.ResultCache)
	}
	if got := exactRows(prime.Rows); got != want {
		t.Fatalf("priming run rows differ from solo:\n%s\nvs\n%s", got, want)
	}

	results, errs := submitConcurrently(eng, []string{q, q, q})
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("client %d failed: %v", i, errs[i])
		}
		if got := exactRows(res.Rows); got != want {
			t.Fatalf("client %d: rows differ from solo run\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		rc := res.Metrics.ResultCache
		if rc.Hits != 1 || rc.ServedBytes == 0 {
			t.Fatalf("client %d: ResultCache = %+v, want the batch member served from cache", i, rc)
		}
		if got := res.Metrics.Storage.BytesScanned; got != soloRes.Metrics.Storage.BytesScanned {
			t.Fatalf("client %d: BytesScanned %d != solo %d", i, got, soloRes.Metrics.Storage.BytesScanned)
		}
		if got := res.Metrics.RowsProcessed; got != soloRes.Metrics.RowsProcessed {
			t.Fatalf("client %d: RowsProcessed %d != solo %d", i, got, soloRes.Metrics.RowsProcessed)
		}
		sh := res.Metrics.SharedExec
		if sh.BatchedQueries != 3 || sh.WindowWaits != 1 {
			t.Fatalf("client %d: SharedExec = %+v, want the 3-member batch story", i, sh)
		}
	}
}

// TestResultCacheAppendQueryRace drives concurrent appends against cached
// and uncached queries on one engine with scan sharing on — the -race soak
// for the Append path against all three caches (chunk LRU, ShapeCache,
// rescache). Correctness here is "no error, no race, and the final count
// sees every append"; per-query results legitimately land before or after
// any given racing append.
func TestResultCacheAppendQueryRace(t *testing.T) {
	st := rescacheTestStore(t)
	eng := OpenWithStore(st, Config{
		Parallelism:      4,
		ShareScans:       true,
		ResultCacheBytes: 1 << 20,
	})
	queries := []string{
		"SELECT COUNT(*) AS c, SUM(f_qty) AS s FROM fact WHERE f_qty > 10",
		"SELECT f_k1, f_qty FROM fact WHERE f_qty > 90",
		"SELECT f_tag FROM fact WHERE f_k1 = 0",
		"SELECT d_name, d_grp FROM dim WHERE d_grp >= 1",
	}
	const appends, rowsPerAppend, readers, reads = 40, 5, 4, 30
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			rows := make([][]Value, rowsPerAppend)
			for j := range rows {
				rows[j] = []Value{
					Int(int64(i % 8)), Int(int64(j)), Int(int64(20 + i)),
					Float(float64(i) + 0.5), String("soak"), Int(int64(i % 6)),
				}
			}
			if err := eng.Append("fact", rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if _, err := eng.Query(queries[(r+i)%len(queries)]); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	res, err := eng.Query("SELECT COUNT(*) AS c FROM fact")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0][0].I, int64(700+appends*rowsPerAppend); got != want {
		t.Fatalf("final count = %d, want %d (lost appends)", got, want)
	}
}
