package core

import (
	"testing"

	"repro/internal/binder"
	"repro/internal/logical"
	"repro/internal/tpcds"
)

// TestScanSignatureIsNecessaryForFusion checks the JoinOnKeys pre-filter:
// Fuse never succeeds on a pair whose scan signatures differ. Pairs are
// every two subtrees of the same bound TPC-DS proxy query (where CTE
// duplicates make fusable pairs common) plus subtrees of neighbouring
// queries.
func TestScanSignatureIsNecessaryForFusion(t *testing.T) {
	b := binder.New(tpcds.NewCatalog())
	var perQuery [][]logical.Operator
	for _, q := range tpcds.Queries() {
		plan, _, err := b.BindSQL(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		var subtrees []logical.Operator
		logical.Walk(plan, func(op logical.Operator) bool {
			subtrees = append(subtrees, op)
			return true
		})
		perQuery = append(perQuery, subtrees)
	}
	var rejected, fused int
	check := func(p1, p2 logical.Operator) {
		if scanSignature(p1) == scanSignature(p2) {
			if _, ok := Fuse(p1, p2); ok {
				fused++
			}
			return
		}
		rejected++
		if _, ok := Fuse(p1, p2); ok {
			t.Fatalf("Fuse succeeded on a pair the signature rejects:\n%s\n%s", logical.Format(p1), logical.Format(p2))
		}
	}
	for qi, subtrees := range perQuery {
		next := perQuery[(qi+1)%len(perQuery)]
		for i, p1 := range subtrees {
			for _, p2 := range subtrees[i+1:] {
				check(p1, p2)
			}
			for _, p2 := range next {
				check(p1, p2)
			}
		}
	}
	if rejected == 0 || fused == 0 {
		t.Fatalf("vacuous: %d pairs rejected, %d fused", rejected, fused)
	}
	t.Logf("%d pairs rejected by signature, %d equal-signature pairs fused", rejected, fused)
}
