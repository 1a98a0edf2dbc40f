package service

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/engine"
	"repro/internal/testgen"
)

// TestServiceSoak is the CI service race-soak scenario: a flooding tenant and
// several light tenants drive concurrent queries through the full network
// stack into one resident ShareExec engine, and the test asserts the
// service's whole contract at once:
//
//   - every result is byte-identical to a solo run of the same query;
//   - the flooding tenant cannot starve the light tenants (queue-wait
//     fairness bound);
//   - queries from different connections were actually batched by the
//     shared-execution window (BatchedQueries observed > 1);
//   - graceful shutdown drains, and no goroutines leak once the server
//     and the engine are closed.
func TestServiceSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	st := testStore(t)
	solo := engine.OpenWithStore(st, engine.Config{})

	// The shared query mix: a fusion-eligible statement every tenant
	// repeats (the paper's concurrent-dashboards motivation), plus a few
	// generated shapes for coverage.
	const hot = "SELECT f_k1, f_qty FROM fact WHERE f_qty > 5"
	queries := []string{
		hot,
		"SELECT f_tag, SUM(f_qty) FROM fact GROUP BY f_tag",
		testgen.New(7).Query(),
		testgen.New(11).Query(),
	}
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		res, err := solo.Query(q)
		if err != nil {
			t.Fatalf("solo %q: %v", q, err)
		}
		want[q] = exactRows(res.Rows)
	}

	eng := engine.OpenWithStore(st, engine.Config{
		ShareExec:        true,
		AdmissionWindow:  2 * time.Millisecond,
		ShareScans:       true,
		MemoryLimitBytes: 8 << 20,
		SpillDir:         t.TempDir(),
	})
	srv := New(eng, Config{
		TenantConcurrency: 3,
		Weights:           map[string]int{"flood": 1, "t1": 1, "t2": 1, "t3": 1},
	})
	ns := NewNetServer(srv)
	if err := ns.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := ns.Addr().String()

	type tenantLoad struct {
		name    string
		conns   int
		queries int // per connection
	}
	loads := []tenantLoad{
		{"flood", 2, 30},
		{"t1", 1, 8},
		{"t2", 1, 8},
		{"t3", 1, 8},
	}
	var batched atomic.Int64
	var wg sync.WaitGroup
	for _, ld := range loads {
		for c := 0; c < ld.conns; c++ {
			wg.Add(1)
			go func(ld tenantLoad, c int) {
				defer wg.Done()
				cl, err := Dial(addr)
				if err != nil {
					t.Errorf("%s conn %d: dial: %v", ld.name, c, err)
					return
				}
				defer cl.Close()
				ctx := context.Background()
				if err := cl.Hello(ctx, ld.name); err != nil {
					t.Errorf("%s conn %d: hello: %v", ld.name, c, err)
					return
				}
				// Keep up to 4 queries pipelined per connection.
				sem := make(chan struct{}, 4)
				var qwg sync.WaitGroup
				for i := 0; i < ld.queries; i++ {
					q := queries[i%len(queries)]
					if ld.name == "flood" && i%2 == 0 {
						q = hot // the flood hammers the hot statement
					}
					sem <- struct{}{}
					qwg.Add(1)
					go func(i int, q string) {
						defer qwg.Done()
						defer func() { <-sem }()
						res, err := cl.Query(ctx, q)
						if err != nil {
							t.Errorf("%s conn %d query %d: %v", ld.name, c, i, err)
							return
						}
						if got := exactRows(res.Rows); got != want[q] {
							t.Errorf("%s conn %d query %d: rows differ from solo run of %q", ld.name, c, i, q)
						}
						if res.Metrics.BatchedQueries > 1 {
							batched.Add(1)
						}
					}(i, q)
				}
				qwg.Wait()
			}(ld, c)
		}
	}
	wg.Wait()

	stats := srv.Stats()
	total := int64(0)
	for _, ld := range loads {
		total += int64(ld.conns * ld.queries)
	}
	if stats.Completed != total {
		t.Errorf("completed %d of %d queries", stats.Completed, total)
	}

	// Fairness: a light tenant's p99 queue wait must stay within a small
	// multiple of the flooding tenant's — a starved tenant would show
	// waits on the order of the whole run.
	p99 := func(ws []time.Duration) time.Duration {
		if len(ws) == 0 {
			return 0
		}
		sorted := append([]time.Duration(nil), ws...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[(len(sorted)*99)/100]
	}
	floodP99 := p99(stats.QueueWaits["flood"])
	bound := 3*floodP99 + 250*time.Millisecond
	for _, tenant := range []string{"t1", "t2", "t3"} {
		if got := p99(stats.QueueWaits[tenant]); got > bound {
			t.Errorf("tenant %s p99 queue wait %v exceeds fairness bound %v (flood p99 %v)",
				tenant, got, bound, floodP99)
		}
	}

	if batched.Load() == 0 {
		t.Errorf("no query was ever batched by shared execution (service-fed windows not working)")
	}

	if err := ns.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}

	// Goroutine-leak check: everything the service and engine started must
	// be gone; allow a short settle and a small slack for runtime-internal
	// goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after drain: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The engine rejects new work once closed.
	if _, err := eng.Query("SELECT f_k1 FROM fact"); err == nil {
		t.Error("closed engine accepted a query")
	}
}
