package rescache

import (
	"testing"
)

// TestAdmissionFloorAdapts drives the cache with observed decode profiles
// and verifies the density floor tracks the workload's bytes-per-row
// instead of assuming 8: wide-row workloads lower the bar (their identity
// scans are naturally low-density), narrow-row workloads raise it.
func TestAdmissionFloorAdapts(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	if got := c.AdmissionFloor(); got != 1.0/8 {
		t.Fatalf("unobserved floor = %v, want 1/8", got)
	}

	// Wide rows: 128 scanned bytes per scanned row → floor 1/128.
	tx := c.Begin(chainPlan(t, st, 1), st.Snapshot())
	rows, bytes := rowsOfBytes(10, 10) // 500 result bytes
	if admitted, _ := tx.Offer(rows, bytes, CostMetrics{BytesScanned: 128000, RowsScanned: 1000}); !admitted {
		t.Fatal("dense-enough result rejected") // density 2.0 clears any floor
	}
	if got := c.AdmissionFloor(); got != 1.0/128 {
		t.Fatalf("wide-row floor = %v, want 1/128", got)
	}

	// A cheap result (density 10/500 = 0.02) the fixed 1/8 would reject now
	// clears the adapted floor (1/128 ≈ 0.0078).
	tx2 := c.Begin(chainPlan(t, st, 2), st.Snapshot())
	if admitted, _ := tx2.Offer(rows, bytes, CostMetrics{BytesScanned: 1280, RowsScanned: 10}); !admitted {
		t.Fatal("wide-row workload: low-density result rejected despite adapted floor")
	}
	if _, ok := tx2.Lookup(); !ok {
		t.Fatal("adapted admission not served")
	}
}

// TestAdmissionFloorCheapVsExpensive pins the discrimination the floor
// exists for: under one observed profile, a bulk identity-scan-shaped
// result is rejected while a compute-dense result of the same size is
// admitted.
func TestAdmissionFloorCheapVsExpensive(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	// Establish a narrow-row profile: 4 bytes per scanned row → floor 1/4.
	seed := c.Begin(chainPlan(t, st, 1), st.Snapshot())
	rows, bytes := rowsOfBytes(10, 10)
	seed.Offer(rows, bytes, CostMetrics{BytesScanned: 4000, RowsScanned: 1000, RowsProcessed: 1000})
	if got := c.AdmissionFloor(); got != 1.0/4 {
		t.Fatalf("narrow-row floor = %v, want 1/4", got)
	}

	// Cheap: density 60/500 = 0.12 — the fixed 1/8 floor would have
	// admitted this bulky result; the adapted floor refuses it.
	cheap := c.Begin(chainPlan(t, st, 2), st.Snapshot())
	if admitted, _ := cheap.Offer(rows, bytes, CostMetrics{BytesScanned: 240, RowsScanned: 60}); admitted {
		t.Fatal("cheap bulky result admitted under narrow-row floor")
	}
	// Expensive: density 4000/500 = 8 clears it easily.
	dense := c.Begin(chainPlan(t, st, 3), st.Snapshot())
	if admitted, _ := dense.Offer(rows, bytes, CostMetrics{BytesScanned: 8000, RowsScanned: 2000, RowsProcessed: 2000}); !admitted {
		t.Fatal("dense result rejected")
	}
}

// TestAdmissionFloorClamps verifies the [2, 256] bytes-per-row clamp: a
// degenerate observation window can neither open the cache to everything
// nor close it entirely.
func TestAdmissionFloorClamps(t *testing.T) {
	st := testStore(t)
	low := New(1 << 20)
	tx := low.Begin(chainPlan(t, st, 1), st.Snapshot())
	rows, bytes := rowsOfBytes(4, 8)
	tx.Offer(rows, bytes, CostMetrics{BytesScanned: 1, RowsScanned: 1000})
	if got := low.AdmissionFloor(); got != 1.0/2 {
		t.Fatalf("low clamp floor = %v, want 1/2", got)
	}
	high := New(1 << 20)
	tx2 := high.Begin(chainPlan(t, st, 1), st.Snapshot())
	tx2.Offer(rows, bytes, CostMetrics{BytesScanned: 1 << 30, RowsScanned: 1})
	if got := high.AdmissionFloor(); got != 1.0/256 {
		t.Fatalf("high clamp floor = %v, want 1/256", got)
	}
}
