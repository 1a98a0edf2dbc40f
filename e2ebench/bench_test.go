package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/tpcds"
	"repro/internal/types"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.5, 50, 50},
		{0.95, 95, 5},
		{1, 100, 0},
		{0.001, 1, 99},
	} {
		v, beyond := percentile(xs, c.q)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..100, %v) = %v, %d beyond; want %v, %d", c.q, v, beyond, c.want, c.wantBeyond)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if v, beyond := percentile(nil, 0.95); v != 0 || beyond != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, beyond)
	}
}

func TestTenSamplesBeyondP95(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{0, false}, {20, false}, {199, false}, {200, true}, {1000, true}} {
		if got := enoughFor(c.n, 0.95); got != c.want {
			t.Errorf("enoughFor(%d, 0.95) = %v, want %v", c.n, got, c.want)
		}
		if c.n > 0 {
			_, beyond := percentile(make([]float64, c.n), 0.95)
			if (beyond >= minBeyond) != c.want {
				t.Errorf("%d samples: %d beyond p95, enoughFor says %v", c.n, beyond, c.want)
			}
		}
	}
}

func TestRepresentativePass(t *testing.T) {
	// 40 queries; query i ran 8 times, at 1+i ms except one slow outlier
	// per query, and query 39 never completed.
	p := &phase{byQuery: make([][]float64, 40)}
	for i := 0; i < 39; i++ {
		for r := 0; r < 8; r++ {
			v := float64(1 + i)
			if r == 3 {
				v *= 10
			}
			p.byQuery[i] = append(p.byQuery[i], v)
			p.lat = append(p.lat, v)
		}
	}
	p.attempted = int64(len(p.lat))
	p.passCPU = []float64{3, 1, 2}
	rep := p.representativePass()
	if len(rep) != 39 || rep[0] != 1 || rep[38] != 39 {
		t.Fatalf("representative pass %v", rep)
	}
	o := newOutcome(p.attempted, 0)
	p.passMetrics(o)
	// 39 queries over 1+2+...+39 = 780 ms; nearest-rank p50 and p95 of
	// 1..39 are the 20th and 38th values.
	for name, want := range map[string]float64{
		"qps": 39 / 0.780, "query_p50_ms": 20, "query_p95_ms": 38, "cpu_ms_per_query": 2,
	} {
		if got := o.values[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "wave", parent: -1, start: 0, end: 100},
		{name: "panel", parent: 0, start: 10, end: 30},
		{name: "panel", parent: 0, start: 20, end: 50},  // overlaps the first
		{name: "panel", parent: 0, start: 90, end: 120}, // runs past its parent
		{name: "exec", parent: 2, start: 25, end: 45},
		{name: "other", parent: -1, start: 200, end: 260},
	}
	self := selfTimes(spans)
	// wave: children cover [10,50] and [90,100] of [0,100].
	want := []time.Duration{50, 20, 10, 30, 20, 60}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].name, self[i], want[i])
		}
	}
	by := selfTimeByName(spans)
	if by["panel"] != 60 || by["wave"] != 50 || by["exec"] != 20 {
		t.Errorf("selfTimeByName = %v", by)
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("query", -1)
	child := tr.begin("exec.run", root)
	time.Sleep(2 * time.Millisecond)
	d := tr.end(child)
	tr.end(root)
	if d < 2*time.Millisecond || tr.spans[child].parent != root {
		t.Fatalf("child span %+v, duration %v", tr.spans[child], d)
	}
	if self := selfTimes(tr.spans); self[root] < 0 || self[root] >= tr.spans[root].end-tr.spans[root].start {
		t.Errorf("root self time %v not reduced by its child", self[root])
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"qps", "setup_s", "optimizer.optimize_us.q28", "adhoc-large", "0x", strings.Repeat("a", 64)} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", ".qps", "-a", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, d := range allMetrics() {
		if !validName(d.name) {
			t.Errorf("metric %q has an invalid name", d.name)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists, units
// and workloads in step with what the command prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s: BENCHMARK.json has %v, the command prints %v", what, g, w)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		found := false
		for _, k := range workloads {
			found = found || k.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

func TestCanonicalPlan(t *testing.T) {
	a := "Project x#12, y#40\n  Scan t [x#12, y#40, z#7]\n"
	b := "Project x#3, y#5\n  Scan t [x#3, y#5, z#9]\n"
	if canonicalPlan(a) != canonicalPlan(b) {
		t.Errorf("%q and %q differ after renumbering", canonicalPlan(a), canonicalPlan(b))
	}
	if canonicalPlan("Scan t [x#1, y#1]") == canonicalPlan("Scan t [x#1, y#2]") {
		t.Error("distinct columns collapsed")
	}
}

func TestRowsCompareFloatBits(t *testing.T) {
	base := [][]types.Value{{types.Int(1), types.Float(0), types.String("a")}}
	for _, other := range [][][]types.Value{
		{{types.Int(1), types.Float(math.Copysign(0, -1)), types.String("a")}},
		{{types.Int(1), types.Float(math.NaN()), types.String("a")}},
		{{types.Int(1), types.NullOf(types.KindFloat64), types.String("a")}},
		{{types.Int(1), types.Float(0), types.String("b")}},
		{{types.Int(1), types.Float(0)}},
	} {
		if sameRows(base, other) {
			t.Errorf("sameRows(%v, %v) = true", base, other)
		}
		if rowsDigest(base) == rowsDigest(other) {
			t.Errorf("rowsDigest(%v) == rowsDigest(%v)", base, other)
		}
	}
	if !sameRows(base, [][]types.Value{{types.Int(1), types.Float(0), types.String("a")}}) {
		t.Error("equal rows compare unequal")
	}
}

// smoke runs a workload at toy size, untraced and traced, and requires its
// checks to pass and every metric to be measured.
func smoke(t *testing.T, name string, scale float64) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 3, dur: 400 * time.Millisecond, trace: trace, scale: scale,
				setupReps: 2, ingestEvery: 50 * time.Millisecond}
			o, err := w.run(cfg)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
				continue
			}
			if _, err := result(o, metricDefs(w, trace)); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed", w.name, trace, o.failed, o.attempted)
			}
		}
		return
	}
	t.Fatalf("no workload %q", name)
}

func TestSmokeAdhoc(t *testing.T)      { smoke(t, "adhoc", 0.02) }
func TestSmokeAdhocLarge(t *testing.T) { smoke(t, "adhoc-large", 0.05) }

// TestSmokeDashboard fails while a fused shared-execution run can bill a
// panel for a later append generation than the one its rows came from
// (see README.md, "Known defect").
func TestSmokeDashboard(t *testing.T) { smoke(t, "dashboard", 0.05) }

func TestChecksRejectWrongResults(t *testing.T) {
	rows := [][]types.Value{{types.Int(7), types.Float(1.5)}}
	a := &adhoc{refs: map[string]adhocRef{"q01": {rows, 100}}}
	q := tpcds.Query{Name: "q01"}
	if err := a.check(q, rows, 100); err != nil {
		t.Errorf("matching result rejected: %v", err)
	}
	if a.check(q, rows, 101) == nil {
		t.Error("wrong BytesScanned accepted")
	}
	if a.check(q, [][]types.Value{{types.Int(7), types.Float(math.Nextafter(1.5, 2))}}, 100) == nil {
		t.Error("float one ulp off accepted")
	}

	gen0 := resultOf([][]types.Value{{types.Int(1)}}, 10, nil)
	gen1 := resultOf([][]types.Value{{types.Int(2)}}, 20, nil)
	ref := func(g int64) panelResult { return []panelResult{gen0, gen1}[g] }
	mixed := panelRec{panel: panel{sql: "p"}, g0: 0, g1: 1, res: resultOf([][]types.Value{{types.Int(1)}}, 20, nil)}
	if err := mismatch(mixed, ref); err == nil || !strings.Contains(err.Error(), "rows match append generation 0 but BytesScanned (20) matches generation 1") {
		t.Errorf("snapshot mix not named: %v", err)
	}
	wrong := panelRec{panel: panel{sql: "p"}, g0: 0, g1: 1, res: resultOf([][]types.Value{{types.Int(3)}}, 20, nil)}
	if err := mismatch(wrong, ref); err == nil || !strings.Contains(err.Error(), "match no reference") {
		t.Errorf("wrong rows not reported: %v", err)
	}
}
