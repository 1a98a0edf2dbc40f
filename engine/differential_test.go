package engine

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/testgen"
	"repro/internal/tpcds"
	"repro/internal/types"
)

// This file is the differential harness. Every execution and reuse layer
// promises to change cost, never answers, so each is checked the same way:
// a corpus runs under an oracle config and under variant configs that
// exercise the layer, and every run must return byte-identical rows in
// identical order (float bits included) with exact BytesScanned and
// RowsProcessed. Rows whose variants change plans by design (fusion,
// spooling) compare the row multiset only. Every run is also checked that a
// baseline switch (PullExec, NoSkip, NaiveMasks, ShareExec or
// ResultCacheBytes off) never engages its layer, and that a spilling
// variant stays under its limit and leaves no spill files.
//
// Each row of diffRows is one comparison over one corpus. Adding a layer
// means adding a row, a one-line Test entry (and Fuzz entry, for a testgen
// corpus) and the row's name in the CI differential matrix. Stores load
// once per process and oracles run once per (store snapshot, query, oracle
// config), so rows over one corpus share its reference runs.

// diffMode is how a row drives its variants over a query group.
type diffMode int

const (
	// modeSolo runs each query alone on each variant's engine.
	modeSolo diffMode = iota
	// modeConcurrent submits every variant's copy of the group at once,
	// staggered, each variant on its own engine.
	modeConcurrent
	// modeAppends runs each variant's pass, appends rows to the corpus
	// store, and runs the pass again against the new data.
	modeAppends
	// modeRacingAppends submits the group concurrently while a writer
	// appends; each result must match the oracle at one data version seen
	// during the wave, in rows and in every logical metric together.
	modeRacingAppends
)

// diffVariant is one configuration under test. spill runs it under the
// corpus memory limit with a private spill directory; twin marks the
// layer-off copy diffRow.twin derives.
type diffVariant struct {
	name        string
	cfg         Config
	spill, twin bool
}

// diffGroup is the unit a subtest runs: one query (solo modes) or a set
// submitted together (concurrent modes). fusion, when set, pins the fusion
// settings for the group instead of the row's.
type diffGroup struct {
	name    string
	queries []string
	fusion  []bool
}

// diffCorpus is a query corpus over one store.
type diffCorpus struct {
	// size is the number of groups the Test entry runs: groups 0..size-1.
	size  int
	group func(i int64) diffGroup
	store func(t testing.TB) *storage.Store
	// appendRows, when set, is what the append modes add to the store; such
	// a corpus's store is rebuilt per group.
	appendRows func(st *storage.Store) error
}

// diffRun is one variant run handed to per-run checks.
type diffRun struct {
	*diffEngine
	fusion   bool
	group    diffGroup
	query    string
	res, ref *Result
	tally    *diffTally
}

// diffTally sums the layer counters non-vacuity checks read, over every
// variant run of one fusion setting.
type diffTally struct {
	prefixHits, fusedPipelines, savedBatches, chunksPruned int64
	fusedClients, cacheHits, racedWaves                    int64
	spilledGroupBy, spilledSort, forcedSpills, rewrites    int64
}

func (tl *diffTally) add(r *diffRun) {
	m := r.res.Metrics
	tl.prefixHits += m.MaskPrefixHits
	tl.fusedPipelines += m.Pipeline.FusedPipelines
	tl.savedBatches += m.Pipeline.MaterializedBatchesSaved
	tl.chunksPruned += m.Skip.ChunksPruned
	if m.SharedExec.FusedPlans >= 2 {
		tl.fusedClients++
	}
	tl.cacheHits += m.ResultCache.Hits
	tl.spilledGroupBy += m.MemOperators["groupby"].SpilledBytes
	tl.spilledSort += m.MemOperators["sort"].SpilledBytes
	if r.expectSpill {
		tl.forcedSpills++
	}
}

// diffRow is one differential comparison: oracle vs. variants over a corpus.
type diffRow struct {
	name   string
	corpus *diffCorpus
	// oracle is the reference configuration; EnableFusion is overlaid per
	// fusion setting.
	oracle   Config
	variants []diffVariant
	// twin, when set, also runs every variant with the layer switched off,
	// re-validating the baseline under the same execution shape.
	twin   func(Config) Config
	fusion []bool // nil means both
	mode   diffMode
	// repeat is the number of runs of each query per variant engine and
	// pass (0 means 1; twins run once); in modeRacingAppends, the number of
	// waves.
	repeat int
	// multiset compares sorted, float-rounded rows only: the variants
	// change plans, so row order and logical metrics legitimately differ.
	multiset bool
	// fusionInvariant additionally requires the fusion-off and fusion-on
	// oracles to return the same row multiset.
	fusionInvariant bool
	// limit derives a spilling variant's memory limit from the oracle run;
	// nil means the fixed spillTestLimit.
	limit   func(ref *Result) (limit int64, expectSpill bool)
	check   func(t *testing.T, r *diffRun)
	vacuity func(t *testing.T, tl map[bool]*diffTally)
}

// ---------------------------------------------------------------------------
// Corpora.

// diffStores memoizes one store per key for the process.
var diffStores = struct {
	sync.Mutex
	m map[string]*storage.Store
}{m: map[string]*storage.Store{}}

func sharedStore(t testing.TB, key string, load func() (*storage.Store, error)) *storage.Store {
	diffStores.Lock()
	defer diffStores.Unlock()
	if st, ok := diffStores.m[key]; ok {
		return st
	}
	st, err := load()
	if err != nil {
		t.Fatal(err)
	}
	diffStores.m[key] = st
	return st
}

// diffTestStore is the shared random store of the testgen corpora.
func diffTestStore(t testing.TB) *storage.Store {
	return sharedStore(t, "testgen", func() (*storage.Store, error) { return testgen.NewStore(20260805, 700) })
}

func tpcdsStore(scale float64, seed int64) func(testing.TB) *storage.Store {
	return func(t testing.TB) *storage.Store {
		return sharedStore(t, fmt.Sprintf("tpcds-%g-%d", scale, seed), func() (*storage.Store, error) {
			return tpcds.NewLoadedStore(scale, seed)
		})
	}
}

func seedName(i int64) string { return fmt.Sprintf("seed%03d", i) }

// testgenQueries is n generated queries, one per seed.
func testgenQueries(n int) *diffCorpus {
	return &diffCorpus{size: n, store: diffTestStore, group: func(i int64) diffGroup {
		return diffGroup{name: seedName(i), queries: []string{testgen.New(i).Query()}}
	}}
}

// testgenQueriesAndShareSets is testgenQueries with each seed's five-query
// share set added to its group. Share sets are Filter/Project chains over
// one scan, the shape whose projections run over a selection vector in the
// push pipeline; the testgen queries alone never reach that branch.
func testgenQueriesAndShareSets(n int) *diffCorpus {
	return &diffCorpus{size: n, store: diffTestStore, group: func(i int64) diffGroup {
		return diffGroup{name: seedName(i), queries: append([]string{testgen.New(i).Query()}, testgen.ShareSet(i, 5)...)}
	}}
}

// testgenShareSets is n sets of five shared-execution-eligible queries.
// fresh builds a private store per set, for rows that append to it.
func testgenShareSets(n int, fresh bool) *diffCorpus {
	c := &diffCorpus{size: n, store: diffTestStore, group: func(i int64) diffGroup {
		return diffGroup{name: seedName(i), queries: testgen.ShareSet(i, 5)}
	}}
	if fresh {
		c.store = func(t testing.TB) *storage.Store {
			st, err := testgen.NewStore(20260805, 700)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		c.appendRows = func(st *storage.Store) error {
			return st.Append("fact", [][]Value{
				{Int(3), Int(7), Int(55), Float(9.25), String("alpha"), Int(2)},
				{Int(0), Int(11), Int(96), Float(123.5), String("delta"), Int(5)},
			})
		}
	}
	return c
}

// tpcdsQueries is TPC-DS proxy queries, each copies times in its group.
func tpcdsQueries(scale float64, seed int64, copies int, qs []tpcds.Query) *diffCorpus {
	return &diffCorpus{size: len(qs), store: tpcdsStore(scale, seed), group: func(i int64) diffGroup {
		g := diffGroup{name: qs[i].Name}
		for c := 0; c < copies; c++ {
			g.queries = append(g.queries, qs[i].SQL)
		}
		return g
	}}
}

func namedQueries(names ...string) []tpcds.Query {
	qs := make([]tpcds.Query, len(names))
	for i, n := range names {
		qs[i], _ = tpcds.Get(n)
	}
	return qs
}

// tpcdsByFusion is every TPC-DS proxy query once per fusion setting.
func tpcdsByFusion(scale float64, seed int64) *diffCorpus {
	qs := tpcds.Queries()
	return &diffCorpus{size: 2 * len(qs), store: tpcdsStore(scale, seed), group: func(i int64) diffGroup {
		fusion, q := i >= int64(len(qs)), qs[i%int64(len(qs))]
		return diffGroup{name: fmt.Sprintf("fusion=%v/%s", fusion, q.Name), queries: []string{q.SQL}, fusion: []bool{fusion}}
	}}
}

// clusteredQueries are queries whose predicates provably exclude whole
// partitions of the clustered store.
var clusteredQueries = []string{
	"SELECT cs_v, cs_w FROM cs WHERE cs_v >= 3000",
	"SELECT COUNT(*) AS c, SUM(cs_w) AS s FROM cs WHERE cs_v = 1500",
	"SELECT cs_v FROM cs WHERE cs_s = 's1'",
	"SELECT cs_v FROM cs WHERE cs_s IS NULL",
	"SELECT cs_v FROM cs WHERE cs_v IN (17, 2017)",
	"SELECT cs_v FROM cs WHERE cs_f < 0",
	"SELECT cs_v, cs_w FROM cs WHERE cs_v >= 3000 ORDER BY cs_w DESC LIMIT 5",
	"SELECT cs_v, ck_k FROM cs JOIN ck ON cs_v = ck_k",
}

// clusteredStore is the data-skipping non-vacuity store: per-partition
// value ranges are disjoint (cs_v), one string column is all-NULL in one
// partition, one float column carries NaN, and the dimension's keys land
// entirely inside the first partition's range so sideways join filters
// prune the rest.
func clusteredStore(t testing.TB) *storage.Store {
	return sharedStore(t, "clustered", func() (*storage.Store, error) {
		cat := catalog.New()
		cat.MustAdd(&catalog.Table{
			Name: "cs",
			Columns: []catalog.Column{
				{Name: "cs_v", Type: types.KindInt64},
				{Name: "cs_w", Type: types.KindInt64},
				{Name: "cs_f", Type: types.KindFloat64},
				{Name: "cs_s", Type: types.KindString},
				{Name: "cs_part", Type: types.KindInt64},
			},
			PartitionColumn: "cs_part",
		})
		cat.MustAdd(&catalog.Table{
			Name:    "ck",
			Columns: []catalog.Column{{Name: "ck_k", Type: types.KindInt64}, {Name: "ck_name", Type: types.KindString}},
			Keys:    [][]string{{"ck_k"}},
		})
		st := storage.NewStore(cat)
		var rows [][]types.Value
		for p := int64(0); p < 4; p++ {
			for i := int64(0); i < 50; i++ {
				v := p*1000 + i
				f := types.Float(float64(v) / 2)
				if p == 3 && i%10 == 0 {
					f = types.Float(math.NaN())
				}
				s := types.String(fmt.Sprintf("s%d", p))
				if p == 2 {
					s = types.NullOf(types.KindString)
				}
				rows = append(rows, []types.Value{types.Int(v), types.Int(i), f, s, types.Int(p)})
			}
		}
		if err := st.Load("cs", rows); err != nil {
			return nil, err
		}
		var drows [][]types.Value
		for k := int64(0); k < 50; k += 7 {
			drows = append(drows, []types.Value{types.Int(k), types.String("d")})
		}
		return st, st.Load("ck", drows)
	})
}

// randomQuery wraps a random common aggregation in one of the paper's
// reuse patterns: UNION ALL branches over one CTE (§IV.D), a self join on
// the grouping key (§IV.B), a correlated scalar subquery (§IV.A), or scalar
// aggregates over overlapping subsets (§V.B).
func randomQuery(rng *rand.Rand) string {
	tables := []struct{ from, key, measure, filter string }{
		{"store_sales", "ss_store_sk", "ss_sales_price", "ss_quantity"},
		{"store_sales", "ss_item_sk", "ss_net_profit", "ss_quantity"},
		{"catalog_sales", "cs_bill_customer_sk", "cs_list_price", "cs_quantity"},
		{"web_sales", "ws_item_sk", "ws_list_price", "ws_quantity"},
		{"store_returns", "sr_store_sk", "sr_return_amt", "sr_customer_sk"},
	}
	tb := tables[rng.Intn(len(tables))]
	fn := []string{"SUM", "AVG", "MIN", "MAX"}[rng.Intn(4)]
	lo := rng.Intn(50)
	hi := lo + 10 + rng.Intn(40)
	cte := fmt.Sprintf("SELECT %s AS k, %s(%s) AS v FROM %s WHERE %s BETWEEN %d AND %d GROUP BY %s",
		tb.key, fn, tb.measure, tb.from, tb.filter, lo, hi, tb.key)
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf(`WITH c AS (%s)
			SELECT k FROM c WHERE v > %d
			UNION ALL
			SELECT k FROM c WHERE v <= %d`, cte, 10+rng.Intn(90), 10+rng.Intn(90))
	case 1:
		return fmt.Sprintf(`WITH c AS (%s)
			SELECT a.k, a.v, b.v FROM c a, c b
			WHERE a.k = b.k AND a.v > b.v * 0.5
			ORDER BY a.k LIMIT 50`, cte)
	case 2:
		return fmt.Sprintf(`WITH c AS (%s)
			SELECT c1.k FROM c c1
			WHERE c1.v > (SELECT AVG(v) FROM c c2 WHERE c2.k = c1.k)
			ORDER BY c1.k LIMIT 50`, cte)
	default:
		lo1, lo2 := rng.Intn(40), rng.Intn(40)
		return fmt.Sprintf(`SELECT
			(SELECT COUNT(*) FROM store_sales WHERE ss_quantity > %d) AS a,
			(SELECT AVG(ss_net_profit) FROM store_sales WHERE ss_quantity > %d) AS b,
			(SELECT MAX(ss_list_price) FROM store_sales WHERE ss_quantity > %d) AS c
			FROM reason WHERE r_reason_sk = 1`, lo1, lo2, lo1)
	}
}

// randomReuseQueries is 60 randomQuery draws from the paper's ICDE
// publication week seed, over a small TPC-DS store.
func randomReuseQueries() *diffCorpus {
	rng := rand.New(rand.NewSource(20220513))
	qs := make([]string, 60)
	for i := range qs {
		qs[i] = randomQuery(rng)
	}
	return &diffCorpus{size: len(qs), store: tpcdsStore(0.03, 99), group: func(i int64) diffGroup {
		return diffGroup{name: fmt.Sprintf("query%02d", i), queries: []string{qs[i]}}
	}}
}

// ---------------------------------------------------------------------------
// Shapes, memory limits and the table.

// sharedExecWindow is the admission-window backstop of ShareExec variants.
// Batches seal on MaxFusedQueries (the group size), so the window only
// fires if scheduling delays a submission.
const sharedExecWindow = 250 * time.Millisecond

// defaultSpillTestLimit is the memory budget spilling variants of testgen
// corpora run under: low enough that aggregation and sort state spills,
// high enough that unspillable state (join builds, window buffers) fits.
// REPRO_TEST_MEMLIMIT overrides it.
const defaultSpillTestLimit = 96 << 10

func spillTestLimit(def int64) int64 {
	if s := os.Getenv("REPRO_TEST_MEMLIMIT"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// unspillablePeak sums the oracle's peak memory outside aggregation and
// sort, the state that cannot spill.
func unspillablePeak(ref *Result) int64 {
	var n int64
	for op, s := range ref.Metrics.MemOperators {
		if op != "groupby" && op != "sort" {
			n += s.PeakBytes
		}
	}
	return n
}

// floorMargin is the headroom above the unspillable floor a limited run
// needs: replay reserves in 64KB chunks, merge cursors hold a few rows.
const floorMargin = 256 << 10

// derivedSpillLimit sits a fixed margin above the query's unspillable
// floor when its peak clears the floor by enough that a limit between them
// is safe — forcing a spill — and otherwise just above its own peak.
func derivedSpillLimit(ref *Result) (int64, bool) {
	floor, peak := unspillablePeak(ref), ref.Metrics.PeakMemoryBytes
	if peak >= floor+floorMargin+(128<<10) {
		return floor + floorMargin, true
	}
	return peak + (64 << 10), false
}

var (
	serial = Config{Parallelism: 1, BatchSize: 1}

	execShapes = []diffVariant{
		{name: "p8b1024", cfg: Config{Parallelism: 8, BatchSize: 1024}},
		{name: "p3b7", cfg: Config{Parallelism: 3, BatchSize: 7}},
	}
	// maskShapes: degenerate row-at-a-time, full parallel, adversarial odd
	// shards, and parallel under a memory limit so spilled state replays.
	maskShapes = []diffVariant{
		{name: "p1b1", cfg: serial},
		execShapes[0],
		execShapes[1],
		{name: "p4b256spill", cfg: Config{Parallelism: 4, BatchSize: 256}, spill: true},
	}
	// spillShapes cover the execution matrix under a memory limit,
	// including cross-query scan sharing.
	spillShapes = func() []diffVariant {
		var vs []diffVariant
		for _, v := range append(maskShapes[:3:3], diffVariant{name: "p4b256share", cfg: Config{Parallelism: 4, BatchSize: 256, ShareScans: true}}) {
			v.cfg.ScanCacheBytes, v.spill = 1<<20, true
			vs = append(vs, v)
		}
		return vs
	}()
)

func with(vs []diffVariant, set func(*Config)) []diffVariant {
	out := make([]diffVariant, len(vs))
	for i, v := range vs {
		set(&v.cfg)
		out[i] = v
	}
	return out
}

func pull(c Config) Config   { c.PullExec = true; return c }
func noSkip(c Config) Config { c.NoSkip = true; return c }
func cold(c Config) Config   { c.ResultCacheBytes = 0; return c }
func solo(c Config) Config {
	c.ShareExec, c.AdmissionWindow, c.MaxFusedQueries = false, 0, 0
	return c
}
func shareExec(c *Config)  { c.ShareExec, c.AdmissionWindow = true, sharedExecWindow }
func shareScans(c *Config) { c.ShareScans, c.ScanCacheBytes = true, 1<<20 }
func resultCache(n int64) func(*Config) {
	return func(c *Config) { c.ResultCacheBytes = n }
}

func fatalIf(t *testing.T, cond bool, format string, args ...any) {
	t.Helper()
	if cond {
		t.Fatalf(format, args...)
	}
}

var (
	maskOracle = Config{Parallelism: 1, BatchSize: 1, NaiveMasks: true}
	pullOracle = Config{Parallelism: 1, BatchSize: 1, PullExec: true}
	skipOracle = Config{Parallelism: 1, BatchSize: 1, NoSkip: true}

	eligibleWaits = func(t *testing.T, r *diffRun) {
		fatalIf(t, r.cfg.ShareExec && r.res.Metrics.SharedExec.WindowWaits != 1,
			"%s (fusion=%v): WindowWaits = %d, want 1 (eligible shape bypassed the window?)\n%s",
			r.v.name, r.fusion, r.res.Metrics.SharedExec.WindowWaits, r.query)
	}
	fusedClients = func(n *diffTally) bool { return n.fusedClients > 0 }
	cacheHits    = func(n *diffTally) bool { return n.cacheHits > 0 }
)

// everyFusion is a non-vacuity check that ok holds for the corpus tally of
// every fusion setting; anyFusion, for at least one.
func everyFusion(what string, ok func(*diffTally) bool) func(*testing.T, map[bool]*diffTally) {
	return func(t *testing.T, tl map[bool]*diffTally) {
		for fusion, n := range tl {
			fatalIf(t, !ok(n), "fusion=%v: %s", fusion, what)
		}
	}
}

func anyFusion(what string, ok func(*diffTally) bool) func(*testing.T, map[bool]*diffTally) {
	return func(t *testing.T, tl map[bool]*diffTally) {
		for _, n := range tl {
			if ok(n) {
				return
			}
		}
		t.Fatal(what)
	}
}

// spoolable are the affected queries whose duplicated subexpressions are
// syntactically identical, so spooling materializes them; the others (q09,
// q28: a different predicate per subquery) are the case only fusion helps.
var spoolable = map[string]bool{"q01": true, "q23": true, "q30": true, "q65": true, "q88": true, "q95": true}

var diffRows = []*diffRow{
	{
		// Execution configuration is unobservable: serial row-at-a-time vs.
		// parallel vectorized (partition-wise aggregation and join build).
		name: "ParallelEquivalence", corpus: testgenQueries(140),
		oracle: serial, variants: execShapes, fusionInvariant: true,
	},
	{
		name: "VectorizedRowAtATime", corpus: tpcdsByFusion(0.05, 42),
		oracle: serial, variants: []diffVariant{{name: "p4b1024", cfg: Config{Parallelism: 4, BatchSize: 1024}}},
	},
	{
		// Scan sharing changes decode work only: a query set runs
		// concurrently twice over, sharing on and off, with a small chunk
		// cache so eviction stays in play.
		name: "SharedScans", mode: modeConcurrent, repeat: 2,
		corpus: &diffCorpus{size: 1, group: func(int64) diffGroup {
			return diffGroup{name: "set424242", queries: testgen.QuerySet(424242, 24)}
		}, store: func(t testing.TB) *storage.Store {
			return sharedStore(t, "shared-scans", func() (*storage.Store, error) { return testgen.NewStore(99173, 600) })
		}},
		oracle: serial,
		variants: with([]diffVariant{
			{name: "p4b256", cfg: Config{Parallelism: 4, BatchSize: 256}}, execShapes[1],
		}, shareScans),
		twin: func(c Config) Config { c.ShareScans = false; return c },
	},
	{
		// Mask-family kernels vs. per-expression NaiveMasks evaluation.
		name: "MaskFamily", corpus: testgenQueries(60), oracle: maskOracle, variants: maskShapes,
	},
	{
		name: "MaskFamilyTPCDS", corpus: tpcdsQueries(0.1, 42, 1, tpcds.Queries()), oracle: maskOracle, variants: maskShapes,
		limit: derivedSpillLimit,
		vacuity: func(t *testing.T, tl map[bool]*diffTally) {
			fatalIf(t, tl[true].prefixHits == 0, "no mask-family prefix hits across TPC-DS — the factored path is not engaging")
		},
	},
	{
		// Compiled push pipelines vs. the PullExec iterator baseline.
		name: "Pipeline", corpus: testgenQueriesAndShareSets(60), oracle: pullOracle, variants: maskShapes, twin: pull,
		vacuity: anyFusion("no fused pipelines across the corpus — the push path is not engaging",
			func(n *diffTally) bool { return n.fusedPipelines > 0 }),
	},
	{
		name: "PipelineTPCDS", corpus: tpcdsQueries(0.1, 42, 1, tpcds.Queries()), oracle: pullOracle, variants: maskShapes, twin: pull,
		limit: derivedSpillLimit,
		vacuity: everyFusion("no fused pipelines or no saved materializations across TPC-DS — the push path is not engaging",
			func(n *diffTally) bool { return n.fusedPipelines > 0 && n.savedBatches > 0 }),
	},
	{
		// Zone-map pruning and sideways join filters vs. NoSkip.
		name: "Skip", corpus: testgenQueries(60), oracle: skipOracle, variants: maskShapes, twin: noSkip,
	},
	{
		name: "SkipSelective",
		corpus: &diffCorpus{size: len(clusteredQueries), store: clusteredStore, group: func(i int64) diffGroup {
			return diffGroup{name: fmt.Sprintf("q%d", i), queries: []string{clusteredQueries[i]}}
		}},
		// The tiny clustered store never reaches the spill limit.
		oracle: skipOracle, variants: maskShapes[:3], twin: noSkip,
		check: func(t *testing.T, r *diffRun) {
			fatalIf(t, !r.cfg.NoSkip && (r.res.Metrics.Skip.ChunksPruned == 0 || r.res.Metrics.Skip.PrunedBytes == 0),
				"%s (fusion=%v): selective query pruned nothing (vacuous): %+v\n%s\nplan:\n%s",
				r.v.name, r.fusion, r.res.Metrics.Skip, r.query, r.res.Plan())
		},
	},
	{
		name: "SkipTPCDS", corpus: tpcdsQueries(0.1, 42, 1, tpcds.Queries()), oracle: skipOracle, variants: maskShapes, twin: noSkip,
		limit: derivedSpillLimit,
	},
	{
		// Spilling aggregation and sort state vs. the unlimited serial run.
		name: "Spill", corpus: testgenQueries(60), oracle: serial, variants: spillShapes,
		vacuity: everyFusion("no aggregation or no sort spill across the corpus; limit too high",
			func(n *diffTally) bool { return n.spilledGroupBy > 0 && n.spilledSort > 0 }),
	},
	{
		name: "SpillTPCDS", corpus: tpcdsQueries(0.1, 42, 1, tpcds.Queries()), oracle: serial, variants: spillShapes,
		limit: derivedSpillLimit,
		check: func(t *testing.T, r *diffRun) {
			fatalIf(t, r.expectSpill && r.res.Metrics.SpilledBytes == 0,
				"%s (fusion=%v): expected a spill at limit %d but none happened", r.v.name, r.fusion, r.limit)
		},
		vacuity: everyFusion("no TPC-DS query qualified for a forced spill",
			func(n *diffTally) bool { return n.forcedSpills > 0 }),
	},
	{
		// Cross-query shared execution: each set is submitted concurrently
		// to a ShareExec engine and to its solo twin.
		name: "SharedExec", mode: modeConcurrent, corpus: testgenShareSets(20, false),
		oracle: serial, variants: with(maskShapes, shareExec), twin: solo,
		check:   eligibleWaits,
		vacuity: anyFusion("no clients served from fused plans across the corpus — shared execution is not engaging", fusedClients),
	},
	{
		// Duplicate pairs are the strongest fusion case; ineligible shapes
		// bypass the window. Two copies hold unspillable state at once, so
		// the spill limit covers both.
		name: "SharedExecTPCDS", mode: modeConcurrent, corpus: tpcdsQueries(0.1, 42, 2, tpcds.Queries()),
		oracle: serial, variants: with(maskShapes, shareExec),
		limit: func(ref *Result) (int64, bool) {
			return 2*unspillablePeak(ref) + floorMargin + ref.Metrics.PeakMemoryBytes, false
		},
		vacuity: everyFusion("no TPC-DS clients served from fused plans — duplicate submissions are not fusing", fusedClients),
	},
	{
		// Shared execution while a writer appends: a member's rows and its
		// as-if-solo billing must come from the same data version.
		name: "SharedExecAppends", mode: modeRacingAppends, repeat: 2, corpus: testgenShareSets(10, true),
		oracle: serial, variants: with(execShapes, shareExec),
		check: eligibleWaits,
		vacuity: anyFusion("no client served from a fused plan built on data appended mid-wave",
			func(n *diffTally) bool { return n.fusedClients > 0 && n.racedWaves > 0 }),
	},
	{
		// Semantic result cache: cold and warm engines, each query run
		// twice, an Append between passes invalidating fact-table entries.
		name: "ResultCache", mode: modeAppends, repeat: 2, corpus: testgenShareSets(20, true),
		oracle: serial, variants: with(maskShapes, resultCache(1<<20)), twin: cold, fusion: []bool{false},
		vacuity: everyFusion("no runs served from the result cache across the corpus — the cache is not engaging", cacheHits),
	},
	{
		name: "ResultCacheTPCDS", repeat: 2, corpus: tpcdsQueries(0.1, 42, 1, tpcds.Queries()),
		oracle: serial, variants: []diffVariant{{name: "default", cfg: Config{ResultCacheBytes: 8 << 20}}},
		fusion:  []bool{false},
		vacuity: everyFusion("no TPC-DS sub-plans served from cache across the corpus", cacheHits),
	},
	{
		// Fusion and spooling change plans, so only the row multiset must
		// survive; fusion must actually rewrite most of the corpus.
		name: "RandomizedThreeWay", corpus: randomReuseQueries(), oracle: Config{}, fusion: []bool{false}, multiset: true,
		variants: []diffVariant{
			{name: "fused", cfg: Config{EnableFusion: true}},
			{name: "spooled", cfg: Config{EnableSpooling: true}},
			{name: "fused+spooled", cfg: Config{EnableFusion: true, EnableSpooling: true}},
		},
		check: func(t *testing.T, r *diffRun) {
			if r.v.name == "fused" && len(r.res.RulesFired) > 0 {
				r.tally.rewrites++
			}
		},
		vacuity: everyFusion("fusion changed fewer than 30/60 random queries; generator drifted",
			func(n *diffTally) bool { return n.rewrites >= 30 }),
	},
	{
		// The §I comparator: spooling materializes syntactically identical
		// duplicates once and reads them back per consumer.
		name: "WorkloadSpooling", corpus: tpcdsQueries(0.05, 42, 1, tpcds.AffectedQueries()),
		oracle: Config{}, fusion: []bool{false}, multiset: true,
		variants: []diffVariant{{name: "spooled", cfg: Config{EnableSpooling: true}}},
		check: func(t *testing.T, r *diffRun) {
			m := r.res.Metrics
			if !spoolable[r.group.name] {
				if m.SpoolBytesWritten != 0 {
					t.Errorf("%s's duplicates differ syntactically; spooling should not trigger:\n%s", r.group.name, r.res.Plan())
				}
				return
			}
			if m.SpoolBytesWritten == 0 || !strings.Contains(r.res.Plan(), "Spool") {
				t.Errorf("expected a spool materialization:\n%s", r.res.Plan())
			}
			if m.SpoolBytesRead < 2*m.SpoolBytesWritten {
				t.Errorf("spool must be read back per consumer: written=%d read=%d", m.SpoolBytesWritten, m.SpoolBytesRead)
			}
			if m.Storage.BytesScanned >= r.ref.Metrics.Storage.BytesScanned {
				t.Errorf("spooling should reduce base-table bytes: %d vs %d", m.Storage.BytesScanned, r.ref.Metrics.Storage.BytesScanned)
			}
		},
	},
	{
		// The paper's roadmap configuration: fusion removes what it can,
		// spooling mops up the rest.
		name: "SpoolingPlusFusion", corpus: tpcdsQueries(0.05, 42, 1, namedQueries("q65", "q23", "q95", "f01")),
		oracle: Config{}, fusion: []bool{false}, multiset: true,
		variants: []diffVariant{{name: "fused+spooled", cfg: Config{EnableFusion: true, EnableSpooling: true}}},
	},
}

// ---------------------------------------------------------------------------
// Entry points: one per row, named for the row so `-run` and `-fuzz`
// patterns select rows.

func TestDifferentialParallelEquivalence(t *testing.T) { runDiffRow(t, "ParallelEquivalence") }
func TestVectorizedRowAtATimeEquivalence(t *testing.T) { runDiffRow(t, "VectorizedRowAtATime") }
func TestDifferentialSharedScans(t *testing.T)         { runDiffRow(t, "SharedScans") }
func TestDifferentialMaskFamily(t *testing.T)          { runDiffRow(t, "MaskFamily") }
func TestDifferentialMaskFamilyTPCDS(t *testing.T)     { runDiffRow(t, "MaskFamilyTPCDS") }
func TestDifferentialPipeline(t *testing.T)            { runDiffRow(t, "Pipeline") }
func TestDifferentialPipelineTPCDS(t *testing.T)       { runDiffRow(t, "PipelineTPCDS") }
func TestDifferentialSkip(t *testing.T)                { runDiffRow(t, "Skip") }
func TestDifferentialSkipSelective(t *testing.T)       { runDiffRow(t, "SkipSelective") }
func TestDifferentialSkipTPCDS(t *testing.T)           { runDiffRow(t, "SkipTPCDS") }
func TestDifferentialSpill(t *testing.T)               { runDiffRow(t, "Spill") }
func TestDifferentialSpillTPCDS(t *testing.T)          { runDiffRow(t, "SpillTPCDS") }
func TestDifferentialSharedExec(t *testing.T)          { runDiffRow(t, "SharedExec") }
func TestDifferentialSharedExecTPCDS(t *testing.T)     { runDiffRow(t, "SharedExecTPCDS") }
func TestDifferentialSharedExecAppends(t *testing.T)   { runDiffRow(t, "SharedExecAppends") }
func TestDifferentialResultCache(t *testing.T)         { runDiffRow(t, "ResultCache") }
func TestDifferentialResultCacheTPCDS(t *testing.T)    { runDiffRow(t, "ResultCacheTPCDS") }
func TestRandomizedThreeWayEquivalence(t *testing.T)   { runDiffRow(t, "RandomizedThreeWay") }
func TestWorkloadSpoolingEquivalence(t *testing.T)     { runDiffRow(t, "WorkloadSpooling") }
func TestSpoolingPlusFusion(t *testing.T)              { runDiffRow(t, "SpoolingPlusFusion") }
func FuzzDifferentialExec(f *testing.F)                { fuzzDiffRow(f, "ParallelEquivalence") }
func FuzzDifferentialMaskFamily(f *testing.F)          { fuzzDiffRow(f, "MaskFamily") }
func FuzzDifferentialPipeline(f *testing.F)            { fuzzDiffRow(f, "Pipeline") }
func FuzzDifferentialSkip(f *testing.F)                { fuzzDiffRow(f, "Skip") }
func FuzzDifferentialSpill(f *testing.F)               { fuzzDiffRow(f, "Spill") }
func FuzzDifferentialSharedExec(f *testing.F)          { fuzzDiffRow(f, "SharedExec") }
func FuzzDifferentialResultCache(f *testing.F)         { fuzzDiffRow(f, "ResultCache") }

func diffRowNamed(tb testing.TB, name string) *diffRow {
	for _, r := range diffRows {
		if r.name == name {
			return r
		}
	}
	tb.Fatalf("no differential row %q", name)
	return nil
}

// runDiffRow runs a row over its whole corpus, one subtest per group, then
// its non-vacuity check over the corpus tallies.
func runDiffRow(t *testing.T, name string) {
	row := diffRowNamed(t, name)
	tl := map[bool]*diffTally{}
	for _, f := range row.fusionSettings(diffGroup{}) {
		tl[f] = &diffTally{}
	}
	oracles := &oracleCache{}
	if row.corpus.appendRows == nil {
		oracles = sharedOracles
	}
	for i := int64(0); i < int64(row.corpus.size); i++ {
		g := row.corpus.group(i)
		t.Run(g.name, func(t *testing.T) { row.runGroup(t, g, oracles, tl) })
	}
	if t.Failed() {
		return
	}
	for f, n := range tl {
		t.Logf("fusion=%v: %+v", f, *n)
	}
	if row.vacuity != nil {
		row.vacuity(t, tl)
	}
}

// fuzzDiffRow lets the fuzzer mutate the corpus generator seed, hunting
// for a group where a variant diverges from the oracle.
func fuzzDiffRow(f *testing.F, name string) {
	row := diffRowNamed(f, name)
	for _, seed := range []int64{0, 1, 17, 42, 20220513, -9} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		tl := map[bool]*diffTally{false: {}, true: {}}
		row.runGroup(t, row.corpus.group(seed), &oracleCache{}, tl)
	})
}

// ---------------------------------------------------------------------------
// Oracles.

type oracleKey struct {
	snap  *storage.Snapshot
	query string
	cfg   Config
}

type oracleResult struct {
	res  *Result
	rows string
}

// oracleCache maps oracleKey to *oracleResult.
type oracleCache struct{ sync.Map }

// sharedOracles serves rows over process-lifetime stores.
var sharedOracles = &oracleCache{}

// lookup returns the oracle run of query over the store's current snapshot;
// the caller must keep the store from changing while it runs.
func (c *oracleCache) lookup(st *storage.Store, query string, cfg Config) (*oracleResult, error) {
	key := oracleKey{snap: st.Snapshot(), query: query, cfg: cfg}
	if o, ok := c.Load(key); ok {
		return o.(*oracleResult), nil
	}
	res, err := OpenWithStore(st, cfg).Query(query)
	if err != nil {
		return nil, fmt.Errorf("oracle %+v failed: %w\n%s", cfg, err, query)
	}
	o := &oracleResult{res: res, rows: exactRows(res.Rows)}
	c.Store(key, o)
	return o, nil
}

func (c *oracleCache) get(t *testing.T, st *storage.Store, query string, cfg Config) *oracleResult {
	t.Helper()
	o, err := c.lookup(st, query, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkBaselines(t, "oracle", cfg, o.res)
	return o
}

// checkBaselines asserts a baseline switch never engages its layer.
func checkBaselines(t *testing.T, name string, cfg Config, res *Result) {
	t.Helper()
	m := res.Metrics
	fatalIf(t, cfg.PullExec && m.Pipeline.FusedPipelines != 0, "%s: PullExec run compiled %d fused pipelines", name, m.Pipeline.FusedPipelines)
	fatalIf(t, cfg.NoSkip && m.Skip.ChunksPruned != 0, "%s: NoSkip run pruned %d chunks", name, m.Skip.ChunksPruned)
	fatalIf(t, cfg.NaiveMasks && m.MaskPrefixHits != 0, "%s: naive run counted %d prefix hits", name, m.MaskPrefixHits)
	fatalIf(t, !cfg.ShareExec && m.SharedExec != (exec.SharedExecMetrics{}), "%s: ShareExec-off run stamped SharedExec %+v", name, m.SharedExec)
	fatalIf(t, cfg.ResultCacheBytes == 0 && m.ResultCache != (exec.ResultCacheMetrics{}), "%s: cache-off run stamped ResultCache %+v", name, m.ResultCache)
}

// ---------------------------------------------------------------------------
// Running a group.

func (row *diffRow) fusionSettings(g diffGroup) []bool {
	switch {
	case g.fusion != nil:
		return g.fusion
	case row.fusion != nil:
		return row.fusion
	}
	return []bool{false, true}
}

// expand returns v, preceded by its baseline twin when the row has one.
func (row *diffRow) expand(v diffVariant) []diffVariant {
	if row.twin == nil {
		return []diffVariant{v}
	}
	tw := v
	tw.name += "/off"
	tw.cfg = row.twin(v.cfg)
	tw.twin = true
	return []diffVariant{tw, v}
}

func (row *diffRow) runGroup(t *testing.T, g diffGroup, oracles *oracleCache, tl map[bool]*diffTally) {
	st := row.corpus.store(t)
	for _, fusion := range row.fusionSettings(g) {
		p := &diffPass{row: row, t: t, st: st, g: g, fusion: fusion, oracles: oracles, tally: tl[fusion]}
		p.oracleCfg = row.oracle
		p.oracleCfg.EnableFusion = row.oracle.EnableFusion || fusion
		switch row.mode {
		case modeSolo, modeAppends:
			for _, v := range row.variants {
				es := p.open(row.expand(v)...)
				p.solo(es)
				if row.mode == modeAppends && row.corpus.appendRows != nil {
					if err := row.corpus.appendRows(st); err != nil {
						t.Fatalf("%s: append: %v", v.name, err)
					}
					p.solo(es)
				}
			}
		case modeConcurrent:
			var es []*diffEngine
			for _, v := range row.variants {
				es = append(es, p.open(row.expand(v)...)...)
			}
			p.concurrent(es)
		case modeRacingAppends:
			for _, v := range row.variants {
				e := p.open(v)[0]
				for wave := 0; wave < max(row.repeat, 1); wave++ {
					p.racingWave(e)
				}
			}
		}
		for _, e := range p.engines {
			if e.spillDir != "" {
				ents, err := os.ReadDir(e.spillDir)
				fatalIf(t, err != nil || len(ents) != 0, "%s (fusion=%v): %d spill files leaked (%v)", e.v.name, fusion, len(ents), err)
			}
		}
	}
	if row.fusionInvariant {
		for _, q := range g.queries {
			rows := map[bool][]string{}
			for _, fusion := range []bool{false, true} {
				cfg := row.oracle
				cfg.EnableFusion = fusion
				rows[fusion] = canonicalRows(oracles.get(t, st, q, cfg).res.Rows)
			}
			fatalIf(t, !reflect.DeepEqual(rows[false], rows[true]), "fusion changed the row multiset\nbaseline: %v\nfused:    %v\n%s",
				rows[false], rows[true], q)
		}
	}
}

// diffPass runs one group under one fusion setting.
type diffPass struct {
	row       *diffRow
	t         *testing.T
	st        *storage.Store
	g         diffGroup
	fusion    bool
	oracles   *oracleCache
	oracleCfg Config
	tally     *diffTally
	engines   []*diffEngine
}

// diffEngine is one variant's engine for a pass, with its resolved config.
type diffEngine struct {
	v           diffVariant
	cfg         Config
	eng         *Engine
	spillDir    string
	limit       int64
	expectSpill bool
}

func (p *diffPass) oracle(q string) *oracleResult { return p.oracles.get(p.t, p.st, q, p.oracleCfg) }

func (p *diffPass) open(vs ...diffVariant) []*diffEngine {
	var es []*diffEngine
	for _, v := range vs {
		e := &diffEngine{v: v, cfg: v.cfg}
		e.cfg.EnableFusion = v.cfg.EnableFusion || p.fusion
		if e.cfg.ShareExec {
			e.cfg.MaxFusedQueries = len(p.g.queries)
		}
		if v.spill {
			e.limit = spillTestLimit(defaultSpillTestLimit)
			if p.row.limit != nil {
				// Derived-limit corpora repeat one query per group.
				e.limit, e.expectSpill = p.row.limit(p.oracle(p.g.queries[0]).res)
			}
			e.spillDir = p.t.TempDir()
			e.cfg.MemoryLimitBytes, e.cfg.SpillDir = e.limit, e.spillDir
		}
		e.eng = OpenWithStore(p.st, e.cfg)
		es = append(es, e)
	}
	p.engines = append(p.engines, es...)
	return es
}

// runs is how often each query runs on e per pass: repeat for variants,
// once for twins.
func (p *diffPass) runs(e *diffEngine) int {
	if e.v.twin {
		return 1
	}
	return max(p.row.repeat, 1)
}

// solo runs the group's queries one at a time on each engine.
func (p *diffPass) solo(es []*diffEngine) {
	for _, e := range es {
		for _, q := range p.g.queries {
			ref := p.oracle(q)
			for r := 0; r < p.runs(e); r++ {
				res, err := e.eng.Query(q)
				p.check(e, q, res, err, ref)
			}
		}
	}
}

// concurrent submits every engine's runs of the group at once, staggered
// so early queries are mid-flight when later ones arrive.
func (p *diffPass) concurrent(es []*diffEngine) {
	type job struct {
		e   *diffEngine
		i   int
		res *Result
		err error
	}
	var jobs []*job
	for _, e := range es {
		for r := 0; r < p.runs(e); r++ {
			for i := range p.g.queries {
				jobs = append(jobs, &job{e: e, i: i})
			}
		}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			time.Sleep(time.Duration(j.i%5) * 100 * time.Microsecond)
			j.res, j.err = j.e.eng.Query(p.g.queries[j.i])
		}(j)
	}
	wg.Wait()
	for _, j := range jobs {
		q := p.g.queries[j.i]
		p.check(j.e, q, j.res, j.err, p.oracle(q))
	}
}

// racingWave submits the group to e concurrently while a writer appends
// and records the oracle at every data version it creates, then requires
// each result to match one version's oracle in rows and logical metrics
// together.
func (p *diffPass) racingWave(e *diffEngine) {
	t, qs := p.t, p.g.queries
	versionRefs := func() ([]*oracleResult, error) {
		refs := make([]*oracleResult, len(qs))
		for i, q := range qs {
			var err error
			if refs[i], err = p.oracles.lookup(p.st, q, p.oracleCfg); err != nil {
				return nil, err
			}
		}
		return refs, nil
	}
	first, err := versionRefs()
	if err != nil {
		t.Fatal(err)
	}
	versions := [][]*oracleResult{first}
	var werr error
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		// The writer is the only mutator, so each version's oracle runs
		// against a stable store.
		defer close(done)
		for werr == nil {
			if werr = p.row.corpus.appendRows(p.st); werr != nil {
				return
			}
			var refs []*oracleResult
			refs, werr = versionRefs()
			versions = append(versions, refs)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	results, errs := submitConcurrently(e.eng, qs)
	close(stop)
	<-done
	if werr != nil {
		t.Fatal(werr)
	}
	raced := false
	for i, q := range qs {
		fatalIf(t, errs[i] != nil, "%s client %d failed: %v\n%s", e.v.name, i, errs[i], q)
		res := results[i]
		var match *oracleResult
		var rowsAt, bytesAt []int
		for vi, refs := range versions {
			ref := refs[i]
			sameRows := exactRows(res.Rows) == ref.rows
			sameBytes := res.Metrics.Storage.BytesScanned == ref.res.Metrics.Storage.BytesScanned
			if sameRows {
				rowsAt = append(rowsAt, vi)
			}
			if sameBytes {
				bytesAt = append(bytesAt, vi)
			}
			if match == nil && sameRows && sameBytes && res.Metrics.RowsProcessed == ref.res.Metrics.RowsProcessed {
				match, raced = ref, raced || vi > 0
			}
		}
		fatalIf(t, match == nil, "%s client %d matches no data version of %d: rows match versions %v, BytesScanned %d matches versions %v\n%s",
			e.v.name, i, len(versions), rowsAt, res.Metrics.Storage.BytesScanned, bytesAt, q)
		p.check(e, q, res, nil, match)
	}
	if raced {
		p.tally.racedWaves++
	}
}

// check compares one variant run against its oracle and applies the
// universal and per-row checks.
func (p *diffPass) check(e *diffEngine, q string, res *Result, err error, ref *oracleResult) {
	t := p.t
	t.Helper()
	name := fmt.Sprintf("%s (fusion=%v)", e.v.name, p.fusion)
	fatalIf(t, err != nil, "%s failed: %v\n%s", name, err, q)
	if p.row.multiset {
		got, want := canonicalRows(res.Rows), canonicalRows(ref.res.Rows)
		fatalIf(t, !reflect.DeepEqual(got, want), "%s: row multiset differs from oracle\ngot:  %v\nwant: %v\n%s\nplan:\n%s",
			name, got, want, q, res.Plan())
	} else {
		got := exactRows(res.Rows)
		fatalIf(t, got != ref.rows, "%s: rows differ from oracle\nquery:\n%s\ngot:\n%s\nwant:\n%s\nplan:\n%s",
			name, q, got, ref.rows, res.Plan())
		m, want := res.Metrics, ref.res.Metrics
		fatalIf(t, m.Storage.BytesScanned != want.Storage.BytesScanned, "%s: BytesScanned %d != %d\n%s",
			name, m.Storage.BytesScanned, want.Storage.BytesScanned, q)
		fatalIf(t, m.RowsProcessed != want.RowsProcessed, "%s: RowsProcessed %d != %d\n%s",
			name, m.RowsProcessed, want.RowsProcessed, q)
	}
	checkBaselines(t, name, e.cfg, res)
	fatalIf(t, e.v.spill && res.Metrics.PeakMemoryBytes > e.limit, "%s: peak tracked memory %d exceeds limit %d\n%s",
		name, res.Metrics.PeakMemoryBytes, e.limit, q)
	r := &diffRun{diffEngine: e, fusion: p.fusion, group: p.g, query: q, res: res, ref: ref.res, tally: p.tally}
	p.tally.add(r)
	if p.row.check != nil {
		p.row.check(t, r)
	}
}

// exactRows renders rows order-sensitively with full float precision: the
// comparisons are bit-for-bit, not equal up to rounding.
func exactRows(rows [][]Value) string {
	var b strings.Builder
	for _, r := range rows {
		for j, v := range r {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// submitConcurrently runs every query on eng from its own goroutine and
// waits for all of them.
func submitConcurrently(eng *Engine, queries []string) ([]*Result, []error) {
	results := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			results[i], errs[i] = eng.Query(q)
		}(i, q)
	}
	wg.Wait()
	return results, errs
}
