package main

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"repro/engine"
	"repro/internal/binder"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/tpcds"
	"repro/internal/types"
)

// adhocConfig is the engine configuration of both ad-hoc workloads: the
// paper's fusion rules on, everything else at its default.
var adhocConfig = engine.Config{EnableFusion: true}

// traceQueries are the queries whose planning and execution times the
// traced run reports one by one: the three where planning weighs most.
var traceQueries = []string{"q09", "q28", "q88"}

// appendRows is one small store_sales batch landing in a fresh date
// partition past the generated calendar, so every store_sales panel's value
// and scanned bytes change with each generation of appends.
func appendRows(seed int64, gen int) [][]types.Value {
	rng := rand.New(rand.NewSource(seed*7919 + int64(gen)))
	date := int64(2450815 + 1900 + gen)
	rows := make([][]types.Value, 64)
	for i := range rows {
		list := float64(1 + rng.Intn(200))
		rows[i] = []types.Value{
			types.Int(date),
			types.Int(int64(rng.Intn(1440))),
			types.Int(int64(1 + rng.Intn(50))),
			types.Int(int64(1 + rng.Intn(100))),
			types.Int(int64(1 + rng.Intn(10))),
			types.Int(int64(1 + rng.Intn(20))),
			types.Int(int64(1 + rng.Intn(5))),
			types.Int(int64(1 + rng.Intn(100))),
			types.Float(list),
			types.Float(list * 0.8),
			types.Float(list * 0.05),
			types.Float(list * 2),
			types.Float(list * 0.02),
			types.Float(list*0.8 - list*0.7),
		}
	}
	return rows
}

type adhocRef struct {
	rows  [][]types.Value
	bytes int64
}

// adhoc is one loaded ad-hoc workload: the 40-query TPC-DS proxy replayed
// as fresh SQL by one closed-loop client.
type adhoc struct {
	cfg     runConfig
	st      *storage.Store
	eng     *engine.Engine
	queries []tpcds.Query
	refs    map[string]adhocRef
	rng     *rand.Rand
	order   []int
}

func setupAdhoc(cfg runConfig) (*adhoc, float64, error) {
	type loaded struct {
		st  *storage.Store
		eng *engine.Engine
	}
	l, setupS, err := timedSetup(cfg.setupReps, func() (loaded, error) {
		st, err := tpcds.NewLoadedStore(cfg.scale, cfg.seed)
		if err != nil {
			return loaded{}, err
		}
		return loaded{st, engine.OpenWithStore(st, adhocConfig)}, nil
	}, func(l loaded) { l.eng.Close() })
	if err != nil {
		return nil, 0, err
	}
	a := &adhoc{cfg: cfg, st: l.st, eng: l.eng, queries: tpcds.Queries(),
		refs: map[string]adhocRef{}, rng: rand.New(rand.NewSource(cfg.seed))}

	// The reference is the serial engine with the same fusion setting.
	ref := engine.OpenWithStore(l.st, engine.Config{EnableFusion: adhocConfig.EnableFusion, Parallelism: 1})
	defer ref.Close()
	for _, q := range a.queries {
		res, err := ref.Query(q.SQL)
		if err != nil {
			a.eng.Close()
			return nil, 0, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		a.refs[q.Name] = adhocRef{res.Rows, res.Metrics.Storage.BytesScanned}
	}
	return a, setupS, nil
}

func (a *adhoc) close() { a.eng.Close() }

// nextIndex returns the index of the closed loop's next query: the 40
// queries in a fresh seeded order on every pass.
func (a *adhoc) nextIndex() int {
	if len(a.order) == 0 {
		a.order = a.rng.Perm(len(a.queries))
	}
	i := a.order[0]
	a.order = a.order[1:]
	return i
}

func (a *adhoc) next() tpcds.Query { return a.queries[a.nextIndex()] }

func (a *adhoc) check(q tpcds.Query, rows [][]types.Value, bytes int64) error {
	ref := a.refs[q.Name]
	if !sameRows(rows, ref.rows) {
		return fmt.Errorf("%s: rows differ from the serial reference", q.Name)
	}
	if bytes != ref.bytes {
		return fmt.Errorf("%s: BytesScanned %d, serial reference %d", q.Name, bytes, ref.bytes)
	}
	return nil
}

// phase is one measured closed-loop stretch.
type phase struct {
	lat              []float64 // per completed query, ms
	attempted, fails int64
	bytes            int64
	wall, cpu        time.Duration
	rt0, rt1         runtimeSample
	peakHeap         float64 // bytes, median heapWindow peak
	// byQuery are the ad-hoc loop's latencies (ms) per query index.
	byQuery [][]float64
	// passCPU is each complete pass's CPU ms per query.
	passCPU []float64
}

func (p *phase) completed() int64 { return p.attempted - p.fails }

// untraced runs the closed loop for the phase's duration, extending it (up
// to cfg.extend) until the p95 has minBeyond samples above it, and then to
// the end of the current pass, so every query weighs the same in the
// latency percentiles.
func (a *adhoc) untraced(dur time.Duration) (*phase, error) {
	p := &phase{byQuery: make([][]float64, len(a.queries))}
	hs := startHeapSampler(5 * time.Millisecond)
	p.rt0 = readRuntime()
	c0, t0 := cpuTime(), time.Now()
	passCPU, passDone := c0, 0
	for {
		el := time.Since(t0)
		if len(a.order) == 0 && el >= dur && (enoughFor(len(p.lat), 0.95) || el >= dur+a.cfg.extend) {
			break
		}
		qi := a.nextIndex()
		q := a.queries[qi]
		p.attempted++
		s := time.Now()
		res, err := a.eng.Query(q.SQL)
		lat := time.Since(s)
		if err != nil {
			p.fails++
		} else {
			if err := a.check(q, res.Rows, res.Metrics.Storage.BytesScanned); err != nil {
				hs.Stop()
				return nil, err
			}
			p.lat = append(p.lat, ms(lat))
			p.byQuery[qi] = append(p.byQuery[qi], ms(lat))
			p.bytes += res.Metrics.Storage.BytesScanned
			passDone++
		}
		if len(a.order) == 0 && passDone > 0 {
			cpu := cpuTime()
			p.passCPU = append(p.passCPU, ms(cpu-passCPU)/float64(passDone))
			passCPU, passDone = cpu, 0
		}
	}
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
	p.rt1 = readRuntime()
	p.peakHeap = hs.Stop()
	return p, nil
}

// appendProbe times direct engine appends of a small store_sales batch,
// after the measured loop so the queries' references stay valid, and after
// a collection so the loop's garbage does not land on it.
func (a *adhoc) appendProbe() ([]float64, error) {
	runtime.GC()
	var lat []float64
	for i := 0; i < appendBlocks*appendsPerBlock; i++ {
		if i%appendsPerBlock == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		rows := appendRows(a.cfg.seed, i)
		s := time.Now()
		if err := a.eng.Append("store_sales", rows); err != nil {
			return nil, err
		}
		lat = append(lat, ms(time.Since(s)))
	}
	return lat, nil
}

func runAdhoc(cfg runConfig) (*outcome, error) {
	a, setupS, err := setupAdhoc(cfg)
	if err != nil {
		return nil, err
	}
	defer a.close()
	a.warmUp()
	if cfg.trace {
		return a.traced()
	}
	p, err := a.untraced(cfg.dur)
	if err != nil {
		return nil, err
	}
	o := newOutcome(p.attempted, p.fails)
	o.set("setup_s", setupS)
	p.passMetrics(o)
	return o, nil
}

// The append probe times appendBlocks blocks of appendsPerBlock appends,
// spaced out so one burst of outside load cannot cover them all.
const (
	appendBlocks    = 5
	appendsPerBlock = 41
)

// warmUp runs one pass of the workload untimed, so lazy set-up and heap
// growth finish before measuring.
func (a *adhoc) warmUp() {
	for range a.queries {
		_, _ = a.eng.Query(a.next().SQL)
	}
	a.order = nil
}

// representativePass returns, per query that completed in the phase, the
// median of its latencies (ms) over the whole phase. Percentiles taken over
// these values give each query one sample, so the p95 of the 40-query mix
// is the third-slowest query's median, not a point on the edge between two
// queries' latency clouds that jumps from one cloud to the other.
func (p *phase) representativePass() []float64 {
	var rep []float64
	for _, lat := range p.byQuery {
		if len(lat) > 0 {
			rep = append(rep, median(lat))
		}
	}
	return rep
}

// passMetrics records the ad-hoc workloads' end-to-end metrics: qps and
// the latency percentiles of the representative pass (one run of each of
// the 40 queries at its median latency), the median CPU per query of
// the complete passes, and the scan and heap figures of the whole phase.
func (p *phase) passMetrics(o *outcome) {
	rep := p.representativePass()
	var sum float64
	for _, v := range rep {
		sum += v
	}
	o.set("qps", float64(len(rep))/(sum/1000))
	p50, _ := percentile(rep, 0.5)
	p95, _ := percentile(rep, 0.95)
	o.set("query_p50_ms", p50)
	o.set("query_p95_ms", p95)
	beyond := 0
	for _, v := range p.lat {
		if v > p95 {
			beyond++
		}
	}
	o.note("query latency: %d samples over %d queries; the representative pass's p95 has %d samples beyond it", len(p.lat), len(rep), beyond)
	if beyond < minBeyond {
		o.note("warning: query p95 has fewer than %d samples beyond it", minBeyond)
	}
	n := float64(max(p.completed(), 1))
	o.set("cpu_ms_per_query", median(p.passCPU))
	o.note("cpu_ms_per_query: median of %d complete passes", len(p.passCPU))
	o.set("bytes_scanned_per_query", float64(p.bytes)/n)
	o.set("peak_heap_mb", p.peakHeap/(1<<20))
}

// latencies records the p50 and p95 of the phase's query latencies.
func (p *phase) latencies(o *outcome, what string) (p50, p95 float64) {
	p50 = median(p.lat)
	p95, beyond := percentile(p.lat, 0.95)
	o.set(what+"_p50_ms", p50)
	o.set(what+"_p95_ms", p95)
	o.note("%s latency: %d samples, %d beyond p95", what, len(p.lat), beyond)
	if beyond < minBeyond {
		o.note("warning: %s p95 has fewer than %d samples beyond it", what, minBeyond)
	}
	return p50, p95
}

// throughput records the rate, CPU, scan and heap metrics of a phase
// over the whole phase.
func (p *phase) throughput(o *outcome) {
	n := float64(max(p.completed(), 1))
	o.set("qps", float64(p.completed())/p.wall.Seconds())
	o.set("cpu_ms_per_query", ms(p.cpu)/n)
	o.set("bytes_scanned_per_query", float64(p.bytes)/n)
	o.set("peak_heap_mb", p.peakHeap/(1<<20))
}

// probed is what planProbe built.
type probed struct {
	plan    logical.Operator
	outputs []*expr.Column
	fired   []string
}

// planProbe runs the engine's planning phases one call at a time, with the
// options the engine uses, and records a span for each.
func planProbe(tr *tracer, b *binder.Binder, fusion bool, text string) (*probed, error) {
	root := tr.begin("plan.probe", -1)
	defer tr.end(root)
	id := tr.begin("sql.parse", root)
	stmt, err := sql.Parse(text)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("binder.bind", root)
	bound, _, err := b.Bind(stmt)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	pr := &probed{outputs: bound.Schema()}
	id = tr.begin("optimizer.optimize", root)
	var trc *optimizer.Trace
	pr.plan, trc = optimizer.Optimize(bound, optimizer.Options{EnableFusion: fusion, MaxIterations: 10, Required: pr.outputs})
	tr.end(id)
	pr.fired = trc.Fired
	return pr, nil
}

// serviceProbe puts the ad-hoc engine behind the multi-tenant service and
// its wire front end, sends each query once from one connection, checks
// the results, and records the queue waits and the Client.Ping round trip
// (the wire alone).
func (a *adhoc) serviceProbe(o *outcome) error {
	srv := service.New(a.eng, service.Config{})
	ns := service.NewNetServer(srv)
	if err := ns.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer ns.Shutdown(context.Background())
	cl, err := service.Dial(ns.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, q := range a.queries {
		res, err := cl.Query(context.Background(), q.SQL)
		if err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
		if err := a.check(q, res.Rows, res.Metrics.BytesScanned); err != nil {
			return fmt.Errorf("over the wire: %w", err)
		}
	}
	pings, err := pingProbe(cl)
	if err != nil {
		return err
	}
	st := srv.Stats()
	var waits []float64
	for _, ws := range st.QueueWaits {
		for _, w := range ws {
			waits = append(waits, ms(w))
		}
	}
	serviceLayers(o, waits, pings, st.Rejected)
	return nil
}

// pingProbe times 201 Client.Ping round trips.
func pingProbe(cl *service.Client) ([]float64, error) {
	var pings []float64
	for i := 0; i < 201; i++ {
		s := time.Now()
		if err := cl.Ping(context.Background()); err != nil {
			return nil, err
		}
		pings = append(pings, us(time.Since(s)))
	}
	return pings, nil
}

// serviceLayers records the service's queue waits, wire round trip and
// rejections.
func serviceLayers(o *outcome, waits, pings []float64, rejected int64) {
	p50 := median(waits)
	p95, beyond := percentile(waits, 0.95)
	o.set("service.queue_wait_p50_ms", p50)
	o.set("service.queue_wait_p95_ms", p95)
	o.note("queue wait: %d samples, %d beyond p95", len(waits), beyond)
	o.set("service.ping_us", median(pings))
	o.set("service.rejected", float64(rejected))
}

// decodeProbe runs Store.ScanPartitions and Partition.DecodeColumns over
// every partition of every scan leaf of plan and returns the number of
// values decoded.
func decodeProbe(st *storage.Store, plan logical.Operator) (int64, error) {
	var scans []*logical.Scan
	logical.Walk(plan, func(op logical.Operator) bool {
		if s, ok := op.(*logical.Scan); ok {
			scans = append(scans, s)
		}
		return true
	})
	var values int64
	for _, s := range scans {
		parts, err := st.ScanPartitions(s.Table.Name, s.ColNames, nil, nil)
		if err != nil {
			return 0, err
		}
		for _, p := range parts {
			cols, err := p.DecodeColumns(s.ColNames)
			if err != nil {
				return 0, err
			}
			values += int64(len(cols) * p.NumRows)
		}
	}
	return values, nil
}

var colIDRE = regexp.MustCompile(`#\d+`)

// canonicalPlan renumbers column identities by first appearance, so two
// bindings of the same statement render identically.
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

// withOutputs adds the root projection the engine uses to restore a
// statement's exact output columns, kept below any root Sort and Limit. It
// mirrors the engine's unexported restoreOutputs, so a change there shows
// up as a plan mismatch here.
func withOutputs(plan logical.Operator, outputs []*expr.Column) logical.Operator {
	sch := plan.Schema()
	if len(sch) == len(outputs) {
		same := true
		for i := range sch {
			same = same && sch[i] == outputs[i]
		}
		if same {
			return plan
		}
	}
	switch o := plan.(type) {
	case *logical.Limit:
		return &logical.Limit{Input: withOutputs(o.Input, outputs), N: o.N}
	case *logical.Sort:
		return &logical.Sort{Input: withOutputs(o.Input, outputs), Keys: o.Keys}
	}
	proj := &logical.Project{Input: plan}
	for _, c := range outputs {
		proj.Cols = append(proj.Cols, logical.Assignment{Col: c, E: expr.Ref(c)})
	}
	return proj
}

// samePlanAsEngine checks that the traced planning phases yield the plan
// Engine.Prepare builds for text.
func samePlanAsEngine(eng *engine.Engine, b *binder.Binder, fusion bool, text string) error {
	pr, err := planProbe(newTracer(), b, fusion, text)
	if err != nil {
		return err
	}
	p, err := eng.Prepare(text)
	if err != nil {
		return err
	}
	if canonicalPlan(logical.Format(withOutputs(pr.plan, pr.outputs))) != canonicalPlan(p.Plan()) {
		return fmt.Errorf("traced planning phases built a different plan than Engine.Prepare")
	}
	return nil
}

// layerCounts accumulates the execution counters of completed queries.
type layerCounts struct {
	n                                                int64
	rows, hash, batches, prefixHits, pruned, decoded int64
	chunks, spilled, peakMem                         int64
}

// layerProbe is one statement's cost in the layers around execution,
// measured by calling each layer's public function directly.
type layerProbe struct {
	parse, bind, optimize, format time.Duration // per call
	rules                         int
	decodeValues                  int64
	decode                        time.Duration
}

// probeReps is how many times each statement is planned by the probe.
const probeReps = 5

// probeStatements checks that the traced planning phases build the plan
// the engine builds, then times parse, bind, optimize and plan rendering
// (probeReps times) and one decode of the scan leaves for each statement.
func probeStatements(eng *engine.Engine, st *storage.Store, fusion bool, texts []string) ([]layerProbe, error) {
	b := binder.New(st.Catalog())
	out := make([]layerProbe, len(texts))
	for i, text := range texts {
		if err := samePlanAsEngine(eng, b, fusion, text); err != nil {
			return nil, fmt.Errorf("%q: %w", text, err)
		}
		tr := newTracer()
		var pr *probed
		for r := 0; r < probeReps; r++ {
			var err error
			if pr, err = planProbe(tr, b, fusion, text); err != nil {
				return nil, err
			}
			prep, err := eng.Prepare(text)
			if err != nil {
				return nil, err
			}
			id := tr.begin("logical.format", -1)
			_ = prep.Plan()
			tr.end(id)
		}
		self := selfTimeByName(tr.spans)
		lp := layerProbe{
			parse:    self["sql.parse"] / probeReps,
			bind:     self["binder.bind"] / probeReps,
			optimize: self["optimizer.optimize"] / probeReps,
			format:   self["logical.format"] / probeReps,
			rules:    len(pr.fired),
		}
		s := time.Now()
		v, err := decodeProbe(st, pr.plan)
		if err != nil {
			return nil, err
		}
		lp.decode, lp.decodeValues = time.Since(s), v
		out[i] = lp
	}
	return out, nil
}

// planLayers records the planning and rendering metrics of n completed
// statements, where runs[i] of them ran statement i, and returns the
// summed times.
func planLayers(o *outcome, probes []layerProbe, runs []int64, n int64) (parse, bind, opt, format time.Duration) {
	var rules int64
	var decode time.Duration
	var values int64
	for i, pr := range probes {
		c := time.Duration(runs[i])
		parse, bind, opt, format = parse+c*pr.parse, bind+c*pr.bind, opt+c*pr.optimize, format+c*pr.format
		rules += runs[i] * int64(pr.rules)
		decode += pr.decode
		values += pr.decodeValues
	}
	nf := float64(max(n, 1))
	o.set("sql.parse_us", us(parse)/nf)
	o.set("binder.bind_us", us(bind)/nf)
	o.set("optimizer.optimize_us", us(opt)/nf)
	o.set("optimizer.rules_fired", float64(rules)/nf)
	o.set("logical.format_us", us(format)/nf)
	o.set("storage.decode_ns_per_value", float64(decode.Nanoseconds())/float64(max(values, 1)))
	return parse, bind, opt, format
}

// traced runs an untraced phase, then a traced phase of equal length that
// records a span around Engine.Prepare and Prepared.Run of every query,
// then probes the layers around execution once per statement. It reports
// the per-layer metrics and the difference between the two phases (the
// tracing overhead).
func (a *adhoc) traced() (*outcome, error) {
	half := a.cfg.dur / 2
	base, err := a.untraced(half)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	l := &layerCounts{}
	runs := make([]int64, len(a.queries))
	runBy := map[string][]float64{}
	var attempted, fails int64
	c0, t0 := cpuTime(), time.Now()
	for time.Since(t0) < half {
		qi := a.nextIndex()
		q := a.queries[qi]
		attempted++
		root := tr.begin("query", -1)
		id := tr.begin("engine.prepare", root)
		p, err := a.eng.Prepare(q.SQL)
		tr.end(id)
		var res *engine.Result
		var run time.Duration
		if err == nil {
			id = tr.begin("exec.run", root)
			res, err = p.Run()
			run = tr.end(id)
		}
		if err == nil {
			if err := a.check(q, res.Rows, res.Metrics.Storage.BytesScanned); err != nil {
				return nil, err
			}
		}
		tr.end(root)
		if err != nil {
			fails++
			continue
		}
		l.add(res.Metrics)
		runs[qi]++
		runBy[q.Name] = append(runBy[q.Name], ms(run))
	}
	wall, cpu := time.Since(t0), cpuTime()-c0
	texts := make([]string, len(a.queries))
	for i, q := range a.queries {
		texts[i] = q.SQL
	}
	probes, err := probeStatements(a.eng, a.st, adhocConfig.EnableFusion, texts)
	if err != nil {
		return nil, err
	}

	o := newOutcome(base.attempted+attempted, base.fails+fails)
	self := selfTimeByName(tr.spans)
	var total time.Duration
	for _, s := range tr.spans {
		if s.parent < 0 {
			total += s.end - s.start
		}
	}
	parse, bind, opt, format := planLayers(o, probes, runs, l.n)
	prepare, run := self["engine.prepare"], self["exec.run"]
	n := float64(max(l.n, 1))
	o.set("optimizer.optimize_share", float64(opt)/float64(total))
	o.set("exec.run_ms", ms(run)/n)
	o.set("exec.share", float64(run)/float64(total))
	for _, name := range traceQueries {
		for i, q := range a.queries {
			if q.Name == name {
				o.set("optimizer.optimize_us."+name, us(probes[i].optimize))
			}
		}
		o.set("exec.run_ms."+name, median(runBy[name]))
	}
	l.report(o)
	base.runtimeLayers(o)
	for _, name := range sharingLayers {
		o.set(name, 0)
	}
	o.note("n/a on this workload (reported as 0): %v", sharingLayers)
	if err := a.serviceProbe(o); err != nil {
		return nil, err
	}
	// Appends last: they change the data the references describe.
	ing, err := a.appendProbe()
	if err != nil {
		return nil, err
	}
	o.set("storage.append_us", median(ing)*1000)
	o.overhead(base, float64(attempted-fails), wall, cpu)
	o.topLayers(map[string]time.Duration{
		"sql.parse":          parse,
		"binder.bind":        bind,
		"optimizer.optimize": opt,
		// Prepare's work outside the three phases: plan validation and the
		// output projection.
		"engine.prepare-rest": max(prepare-parse-bind-opt, 0),
		"logical.format":      format,
		"exec":                max(run-format, 0),
		"bench.check":         self["query"],
	}, total)
	return o, nil
}

func (l *layerCounts) add(m engine.Metrics) {
	l.n++
	l.rows += m.RowsProcessed
	l.hash += m.HashRows
	l.batches += m.Pipeline.PipelineBatches
	l.prefixHits += m.MaskPrefixHits
	l.pruned += m.Skip.PrunedBytes
	l.decoded += m.Share.BytesDecoded
	l.chunks += m.Share.ChunksDecoded
	l.spilled += m.SpilledBytes
	l.peakMem = max(l.peakMem, m.PeakMemoryBytes)
}

// report records the execution and storage counters, per query.
func (l *layerCounts) report(o *outcome) {
	n := float64(max(l.n, 1))
	o.set("exec.rows_processed", float64(l.rows)/n)
	o.set("exec.hash_rows", float64(l.hash)/n)
	o.set("exec.pipeline_batches", float64(l.batches)/n)
	o.set("exec.mask_prefix_hits", float64(l.prefixHits)/n)
	o.set("exec.skip_pruned_bytes", float64(l.pruned)/n)
	o.set("memctl.peak_bytes", float64(l.peakMem))
	o.set("memctl.spilled_bytes", float64(l.spilled)/n)
	o.set("storage.bytes_decoded", float64(l.decoded)/n)
	o.set("storage.chunks_decoded", float64(l.chunks)/n)
}

// runtimeLayers records allocation and GC figures of an untraced phase.
func (p *phase) runtimeLayers(o *outcome) {
	n := float64(max(p.completed(), 1))
	o.set("runtime.allocs_per_query", float64(p.rt1.allocObjects-p.rt0.allocObjects)/n)
	o.set("runtime.alloc_bytes_per_query", float64(p.rt1.allocBytes-p.rt0.allocBytes)/n)
	if cpu := p.rt1.totalCPU - p.rt0.totalCPU; cpu > 0 {
		o.set("runtime.gc_cpu_frac", (p.rt1.gcCPU-p.rt0.gcCPU)/cpu)
	} else {
		o.set("runtime.gc_cpu_frac", 0)
	}
	o.set("runtime.num_gc", float64(p.rt1.gcCycles-p.rt0.gcCycles))
}
