package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tpcds"
)

// colIDRE and canonicalPlan renumber column identities by first
// appearance, as the end-to-end benchmark does, so two bindings of the same
// statement render identically.
var colIDRE = regexp.MustCompile(`#\d+`)

func canonicalPlan(text string) string {
	ids := map[string]string{}
	return colIDRE.ReplaceAllStringFunc(text, func(id string) string {
		if c, ok := ids[id]; ok {
			return c
		}
		c := "#" + strconv.Itoa(len(ids)+1)
		ids[id] = c
		return c
	})
}

// explainBody is Explain's plan text without its "--" header lines, which
// carry timings.
func explainBody(text string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if !strings.HasPrefix(line, "-- ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestPlanGolden pins the planner's output: the EXPLAIN text (with
// estimated cardinalities) and the fusion rules fired for every TPC-DS
// proxy query, fusion on and off, must match testdata/plans.golden byte
// for byte. Planner optimizations must not change a plan. On a mismatch
// the test writes the current text to plans.golden.got in the system temp
// directory; a deliberate plan change copies it over the golden file.
func TestPlanGolden(t *testing.T) {
	st := tpcdsStore(0.1, 42)(t)
	var b strings.Builder
	for _, fusion := range []bool{false, true} {
		eng := OpenWithStore(st, Config{EnableFusion: fusion})
		for _, q := range tpcds.Queries() {
			p, err := eng.Prepare(q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			text, err := eng.Explain(q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			fmt.Fprintf(&b, "=== fusion=%v %s\nrules: %s\n%s\n", fusion, q.Name,
				strings.Join(p.RulesFired(), ", "), canonicalPlan(explainBody(text)))
		}
		eng.Close()
	}
	const path = "testdata/plans.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gotPath := filepath.Join(os.TempDir(), "plans.golden.got")
	if err := os.WriteFile(gotPath, []byte(got), 0o644); err != nil {
		t.Error(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("plans differ from %s at line %d (current text in %s):\n got: %s\nwant: %s", path, i+1, gotPath, gl[i], wl[i])
		}
	}
	t.Fatalf("plans differ from %s in length: got %d lines, want %d (current text in %s)", path, len(gl), len(wl), gotPath)
}
