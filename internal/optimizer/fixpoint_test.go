package optimizer

import (
	"testing"

	"repro/internal/binder"
	"repro/internal/logical"
	"repro/internal/tpcds"
)

// TestNormalizeFixpointIsIdentity checks what normalize's fixpoint test
// relies on: on an optimized plan, every normalization rule returns the
// plan itself, so normalize stops after one round with the same root.
func TestNormalizeFixpointIsIdentity(t *testing.T) {
	b := binder.New(tpcds.NewCatalog())
	for _, fusion := range []bool{false, true} {
		for _, q := range tpcds.Queries() {
			bound, _, err := b.BindSQL(q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			plan, _ := Optimize(bound, Options{EnableFusion: fusion, MaxIterations: 10, Required: bound.Schema()})
			for _, rule := range []struct {
				name string
				f    func(logical.Operator) logical.Operator
			}{
				{"SimplifyExpressions", SimplifyExpressions},
				{"MergeFilters", MergeFilters},
				{"PushDownPredicates", PushDownPredicates},
				{"RemoveTrivialOperators", RemoveTrivialOperators},
			} {
				if out := rule.f(plan); out != plan {
					t.Errorf("fusion=%v %s: %s rebuilt an optimized plan:\n%s\nto\n%s",
						fusion, q.Name, rule.name, logical.Format(plan), logical.Format(out))
				}
			}
		}
	}
}
