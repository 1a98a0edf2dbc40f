package engine

import (
	"sort"
	"testing"
	"time"
)

// TestSelfJoinReadsOneSnapshot runs a self-join of the fact table in a
// loop while another goroutine appends to it one row at a time. Both scans
// of a run must read the same append generation. Appended rows carry a tag
// no loaded row has and a unique join key, so the result has one row per
// appended row that both scans saw; BytesScanned must then be exactly what
// a run at that generation charges, which a scan reading a later
// generation than the other would overshoot.
func TestSelfJoinReadsOneSnapshot(t *testing.T) {
	const q = "SELECT a.f_qty, b.f_qty FROM fact a JOIN fact b ON a.f_k2 = b.f_k2 " +
		"WHERE a.f_tag = 'gen' AND b.f_tag = 'gen'"
	appendRow := func(eng *Engine, i int) error {
		return eng.Append("fact", [][]Value{{
			Int(int64(i % 8)), Int(int64(100000 + i)), Int(int64(i)), Float(0.5), String("gen"), Int(int64(i % 6)),
		}})
	}
	cfg := Config{EnableFusion: true, Parallelism: 2, ShareScans: true, ResultCacheBytes: 1 << 20}
	eng := OpenWithStore(rescacheTestStore(t), cfg)
	defer eng.Close()

	type outcome struct {
		rows  int
		bytes int64
	}
	const appends = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < appends; i++ {
			if err := appendRow(eng, i); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var seen []outcome
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		res, err := eng.Query(q)
		if err != nil {
			<-done
			t.Fatal(err)
		}
		seen = append(seen, outcome{len(res.Rows), res.Metrics.Storage.BytesScanned})
	}
	if t.Failed() {
		return
	}

	// Replay the appends on a fresh store, running the query at every
	// generation some run reported.
	sort.Slice(seen, func(i, j int) bool { return seen[i].rows < seen[j].rows })
	ref := OpenWithStore(rescacheTestStore(t), Config{})
	defer ref.Close()
	gen := 0
	var want outcome
	for i, o := range seen {
		if i == 0 || o.rows != seen[i-1].rows {
			for ; gen < o.rows; gen++ {
				if err := appendRow(ref, gen); err != nil {
					t.Fatal(err)
				}
			}
			res, err := ref.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want = outcome{len(res.Rows), res.Metrics.Storage.BytesScanned}
		}
		if o != want {
			t.Fatalf("run returned %d rows scanning %d bytes; generation %d is %d rows scanning %d bytes",
				o.rows, o.bytes, gen, want.rows, want.bytes)
		}
	}
}
