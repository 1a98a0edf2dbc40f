package binder

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/testgen"
	"repro/internal/tpcds"
)

func TestBindSimpleCaseOperand(t *testing.T) {
	// Simple CASE (with operand) desugars to searched CASE.
	plan, _ := mustBind(t, `
		SELECT CASE s_store WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END AS label
		FROM sales`)
	if !strings.Contains(logical.Format(plan), "CASE WHEN") {
		t.Errorf("simple case not desugared:\n%s", logical.Format(plan))
	}
}

func TestBindCoalesceAndLike(t *testing.T) {
	mustBind(t, `SELECT COALESCE(s_item, 0) AS it FROM sales WHERE 'abc' LIKE 'a%'`)
	mustBind(t, `SELECT s_item FROM sales, item WHERE i_brand NOT LIKE '%x%' AND s_item = i_item`)
}

func TestBindNotBetween(t *testing.T) {
	plan, _ := mustBind(t, `SELECT s_item FROM sales WHERE s_qty NOT BETWEEN 3 AND 7`)
	txt := logical.Format(plan)
	if !strings.Contains(txt, "<") && !strings.Contains(txt, ">") {
		t.Errorf("NOT BETWEEN should produce comparisons:\n%s", txt)
	}
}

func TestBindNestedCTEs(t *testing.T) {
	// A CTE referencing an earlier CTE.
	plan, _ := mustBind(t, `
		WITH base AS (SELECT s_store, s_price FROM sales WHERE s_qty > 1),
		     agg AS (SELECT s_store, SUM(s_price) AS rev FROM base GROUP BY s_store)
		SELECT s_store FROM agg WHERE rev > 10`)
	if logical.CountScansOf(plan, "sales") != 1 {
		t.Errorf("nested CTEs should inline to one scan:\n%s", logical.Format(plan))
	}
}

func TestBindCTEShadowing(t *testing.T) {
	// An inner WITH shadows the outer CTE of the same name.
	plan, _ := mustBind(t, `
		WITH c AS (SELECT s_item FROM sales)
		SELECT * FROM (
			WITH c AS (SELECT i_item FROM item)
			SELECT i_item FROM c) x`)
	if logical.CountScansOf(plan, "item") != 1 || logical.CountScansOf(plan, "sales") != 0 {
		t.Errorf("inner CTE must shadow outer:\n%s", logical.Format(plan))
	}
}

func TestBindUnionNested(t *testing.T) {
	plan, _ := mustBind(t, `
		SELECT s_item FROM sales
		UNION ALL
		(SELECT i_item FROM item UNION ALL SELECT st_store FROM store)`)
	unions := 0
	logical.Walk(plan, func(op logical.Operator) bool {
		if _, ok := op.(*logical.UnionAll); ok {
			unions++
		}
		return true
	})
	if unions < 1 {
		t.Errorf("nested unions missing:\n%s", logical.Format(plan))
	}
}

func TestBindGroupByExpression(t *testing.T) {
	plan, _ := mustBind(t, `
		SELECT s_qty * 2 AS dbl, COUNT(*) AS c FROM sales GROUP BY s_qty * 2 ORDER BY dbl`)
	var gb *logical.GroupBy
	logical.Walk(plan, func(op logical.Operator) bool {
		if g, ok := op.(*logical.GroupBy); ok {
			gb = g
		}
		return true
	})
	if gb == nil || len(gb.Keys) != 1 {
		t.Fatalf("expression group-by wrong:\n%s", logical.Format(plan))
	}
}

func TestBindHavingUsesAggregates(t *testing.T) {
	plan, _ := mustBind(t, `
		SELECT s_store FROM sales GROUP BY s_store HAVING SUM(s_price) > 5 AND COUNT(*) > 1`)
	// HAVING must become a filter above the group-by.
	found := false
	logical.Walk(plan, func(op logical.Operator) bool {
		if f, ok := op.(*logical.Filter); ok {
			if _, isGB := f.Input.(*logical.GroupBy); isGB {
				found = true
			}
		}
		return true
	})
	if !found {
		t.Errorf("HAVING filter missing:\n%s", logical.Format(plan))
	}
}

func TestBindWindowStarExposure(t *testing.T) {
	_, names := mustBind(t, `
		SELECT *, AVG(s_price) OVER (PARTITION BY s_store) AS avg_p FROM sales`)
	foundAvg := false
	for _, n := range names {
		if n == "avg_p" {
			foundAvg = true
		}
	}
	if !foundAvg || len(names) != 6 {
		t.Errorf("names = %v", names)
	}
}

func TestBindMoreErrors(t *testing.T) {
	mustFail(t, `SELECT s_item FROM sales WHERE EXISTS (SELECT 1 FROM item)`, "EXISTS")
	mustFail(t, `SELECT SUM(s_price) FROM sales GROUP BY SUM(s_price)`, "")
	mustFail(t, `SELECT s_item FROM (SELECT s_item FROM sales)`, "alias")
	mustFail(t, `SELECT x FROM (VALUES (1), (2, 3)) t(x)`, "uneven")
	mustFail(t, `SELECT x FROM (VALUES (s_item)) t(x)`, "")
	mustFail(t, `SELECT x FROM (VALUES (1)) t(x, y)`, "")
	mustFail(t, `SELECT RANK() OVER (PARTITION BY s_item) FROM sales`, "")
	mustFail(t, `SELECT SUM(s_price, s_qty) FROM sales`, "one argument")
	mustFail(t, `SELECT AVG(*) FROM sales`, "")
	mustFail(t, `SELECT nope(s_item) FROM sales`, "unknown function")
	mustFail(t, `SELECT s_item FROM sales ORDER BY nope`, "")
	mustFail(t, `SELECT t.s_item.x FROM sales t`, "")
}

func TestBindLeftJoin(t *testing.T) {
	plan, _ := mustBind(t, `
		SELECT s_item, i_brand FROM sales LEFT JOIN item ON s_item = i_item`)
	var lj *logical.Join
	logical.Walk(plan, func(op logical.Operator) bool {
		if j, ok := op.(*logical.Join); ok && j.Kind == logical.LeftJoin {
			lj = j
		}
		return true
	})
	if lj == nil {
		t.Fatalf("left join missing:\n%s", logical.Format(plan))
	}
}

func TestBindCrossJoinExplicit(t *testing.T) {
	plan, _ := mustBind(t, `SELECT s_item FROM sales CROSS JOIN item`)
	var cj *logical.Join
	logical.Walk(plan, func(op logical.Operator) bool {
		if j, ok := op.(*logical.Join); ok && j.Kind == logical.CrossJoin {
			cj = j
		}
		return true
	})
	if cj == nil {
		t.Fatalf("cross join missing:\n%s", logical.Format(plan))
	}
}

func TestBindSelectWithoutFrom(t *testing.T) {
	plan, names := mustBind(t, `SELECT 1 + 2 AS three, 'x' AS s`)
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
	if logical.CountOperators(plan) < 2 {
		t.Errorf("plan too small:\n%s", logical.Format(plan))
	}
}

func TestBindDateLiteral(t *testing.T) {
	mustBind(t, `SELECT s_item FROM sales WHERE s_date = 10957`)
	_, _, err := New(testCatalog()).BindSQL(`SELECT DATE 'not-a-date' AS d`)
	if err == nil {
		t.Error("bad date literal accepted")
	}
}

// TestBindIncomparableOperands checks that comparisons types.Compare
// cannot order, non-boolean conditions, non-numeric arithmetic and SUM/AVG
// operands, and CASE branches or COALESCE arguments of kinds that do not
// combine fail at bind time with a *TypeError instead of panicking or
// computing ill-typed values at execution.
func TestBindIncomparableOperands(t *testing.T) {
	for _, q := range []string{
		`SELECT COUNT(*) FROM store_sales WHERE ss_quantity = 'a'`,
		`SELECT COUNT(*) FROM store_sales WHERE ss_quantity BETWEEN 0 AND 0 BETWEEN 0 AND 0`,
		`SELECT CASE WHEN(0) THEN (SELECT AVG(ss_ext_discount_amt) FROM store_sales WHERE ss_quantity BETWEEN 0 AND 0 BETWEEN 0 AND 0) END`,
		`SELECT COUNT(*) FROM store_sales WHERE ss_quantity IN (1, 'x')`,
		`SELECT COUNT(*) FROM store_sales WHERE ss_quantity IN (SELECT i_brand FROM item)`,
		`SELECT CASE ss_quantity WHEN 'x' THEN 1 END FROM store_sales`,
		`SELECT CASE WHEN 0 THEN 1 END FROM store_sales`,
		`SELECT COUNT(*) FROM store_sales WHERE ss_quantity`,
		`SELECT ss_quantity + 'a' FROM store_sales`,
		`SELECT -'a' FROM store_sales`,
		`SELECT NOT ss_quantity FROM store_sales`,
		`SELECT SUM('a') FROM store_sales`,
		`SELECT AVG(ss_quantity > 1) FROM store_sales`,
		`SELECT CASE WHEN ss_quantity > 1 THEN 1 ELSE 'a' END FROM store_sales`,
		`SELECT COALESCE(ss_quantity, 'a') FROM store_sales`,
	} {
		_, _, err := New(tpcds.NewCatalog()).BindSQL(q)
		var te *TypeError
		if !errors.As(err, &te) {
			t.Errorf("bind %q: err = %v, want a *TypeError", q, err)
		}
	}
}

// TestBindWorkloadCorpora checks the comparability rule rejects nothing the
// engine runs: every TPC-DS proxy query and every generated query binds.
func TestBindWorkloadCorpora(t *testing.T) {
	b := New(tpcds.NewCatalog())
	for _, q := range tpcds.Queries() {
		if _, _, err := b.BindSQL(q.SQL); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
	st, err := testgen.NewStore(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	gb := New(st.Catalog())
	var queries []string
	for seed := int64(0); seed < 140; seed++ {
		queries = append(queries, testgen.New(seed).Query())
		queries = append(queries, testgen.ShareSet(seed, 5)...)
	}
	queries = append(queries, testgen.QuerySet(424242, 24)...)
	for _, q := range queries {
		if _, _, err := gb.BindSQL(q); err != nil {
			t.Errorf("%v\n%s", err, q)
		}
	}
}
