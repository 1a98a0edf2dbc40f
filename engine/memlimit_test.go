package engine

import (
	"errors"
	"os"
	"testing"

	"repro/internal/testgen"
)

// This file holds memory governance's failure-path tests. The spilling
// corpus comparison is the Spill and SpillTPCDS rows of the differential
// harness (differential_test.go).

// TestMemoryExceededError checks the failure mode when unspillable state
// cannot fit: the error unwraps to ErrMemoryExceeded and names the query.
func TestMemoryExceededError(t *testing.T) {
	st := diffTestStore(t)
	// A limit far below any join build or window buffer.
	eng := OpenWithStore(st, Config{MemoryLimitBytes: 1 << 10, SpillDir: t.TempDir()})
	var lastErr error
	for seed := int64(0); seed < 20; seed++ {
		_, err := eng.Query(testgen.New(seed).Query())
		if err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		t.Skip("no query exceeded a 1KB limit; corpus too small")
	}
	if !errors.Is(lastErr, ErrMemoryExceeded) {
		t.Fatalf("error does not unwrap to ErrMemoryExceeded: %v", lastErr)
	}
}

// TestSpillDirCleanupOnAbandonment checks that a query abandoned
// mid-emission (LIMIT over a spilled sort and a spilled aggregation) still
// removes every spill file.
func TestSpillDirCleanupOnAbandonment(t *testing.T) {
	st := diffTestStore(t)
	spillDir := t.TempDir()
	eng := OpenWithStore(st, Config{
		Parallelism: 4, MemoryLimitBytes: spillTestLimit(defaultSpillTestLimit), SpillDir: spillDir,
	})
	var spilled int64
	for seed := int64(0); seed < 25; seed++ {
		q := testgen.New(seed).Query() + " LIMIT 3"
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, q)
		}
		spilled += res.Metrics.SpilledBytes
	}
	if spilled == 0 {
		t.Log("warning: no LIMIT query spilled; cleanup path not exercised")
	}
	if ents, err := os.ReadDir(spillDir); err != nil {
		t.Fatal(err)
	} else if len(ents) != 0 {
		t.Fatalf("%d spill files leaked after abandoned queries", len(ents))
	}
}

// TestUnwritableSpillDir checks the failure path when the spill directory
// cannot be written: the query fails with a clear error instead of
// corrupting results, and succeeds again once pressure is gone.
func TestUnwritableSpillDir(t *testing.T) {
	st := diffTestStore(t)
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if f, err := os.CreateTemp(dir, "probe"); err == nil {
		f.Close()
		t.Skip("running as privileged user; cannot make dir unwritable")
	}
	eng := OpenWithStore(st, Config{MemoryLimitBytes: spillTestLimit(defaultSpillTestLimit), SpillDir: dir})
	var sawErr bool
	for seed := int64(0); seed < 40 && !sawErr; seed++ {
		if _, err := eng.Query(testgen.New(seed).Query()); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Skip("no query needed to spill; unwritable dir never hit")
	}
	// The same engine with an unlimited budget must still work: the failure
	// is contained to the pressured query.
	ok := OpenWithStore(st, Config{})
	if _, err := ok.Query(testgen.New(0).Query()); err != nil {
		t.Fatalf("unlimited engine failed after spill-dir failure: %v", err)
	}
}
