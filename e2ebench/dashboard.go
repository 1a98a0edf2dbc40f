package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/engine"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/tpcds"
	"repro/internal/types"
)

// dashboardEngineConfig is the engine `athenalite serve` builds with its
// default flags. It leaves EnableFusion off.
var dashboardEngineConfig = engine.Config{
	ShareExec:        true,
	AdmissionWindow:  25 * time.Millisecond,
	ShareScans:       true,
	ResultCacheBytes: 64 << 20,
}

// dashboardServiceConfig is the service `athenalite serve` builds with its
// default flags.
var dashboardServiceConfig = service.Config{
	QueueDepth:        256,
	TenantConcurrency: 4,
	QueueTimeout:      30 * time.Second,
}

// hotPanels are refreshed by every tenant with identical text, so
// concurrent copies fuse or hit the result cache. The web_sales panel's
// cache entries survive the store_sales appends; the keyed rollup cannot
// fuse and bypasses the admission window.
var hotPanels = []string{
	"SELECT COUNT(*) AS cnt, AVG(ss_ext_discount_amt) AS disc, AVG(ss_net_profit) AS prof FROM store_sales WHERE ss_quantity BETWEEN 1 AND 20",
	"SELECT COUNT(*) AS cnt, AVG(ss_ext_discount_amt) AS disc, AVG(ss_net_profit) AS prof FROM store_sales WHERE ss_quantity BETWEEN 21 AND 40",
	"SELECT COUNT(*) AS cnt, SUM(ws_list_price) AS rev FROM web_sales WHERE ws_quantity > 50",
	"SELECT ss_store_sk, COUNT(*) AS cnt, SUM(ss_net_profit) AS prof FROM store_sales GROUP BY ss_store_sk",
}

// Parameterized panels, one of each per wave, with ranges drawn afresh from
// the tenant's seeded generator: a scalar aggregation that concurrent
// tenants' copies fuse into, and a selective row fetch.
const (
	rangePanel = "SELECT COUNT(*) AS cnt, SUM(ss_sales_price) AS rev, AVG(ss_coupon_amt) AS coupon FROM store_sales WHERE ss_list_price BETWEEN %d AND %d"
	rowsPanel  = "SELECT ss_item_sk, ss_customer_sk, ss_net_profit FROM store_sales WHERE ss_store_sk = %d AND ss_quantity BETWEEN %d AND %d"
)

// panelKinds counts the hot panels plus the two parameterized templates;
// the layer probe plans one statement of each kind.
var panelKinds = len(hotPanels) + 2

// panel is one statement of a wave and which kind it is.
type panel struct {
	kind int
	sql  string
}

// panelResult is what one panel returned. Rows are kept as a digest so a
// run's results do not inflate the heap being measured.
type panelResult struct {
	rows   int
	digest uint64
	bytes  int64
	m      *engine.Metrics // nil over the wire, which carries no layer counters
}

func resultOf(rows [][]types.Value, bytes int64, m *engine.Metrics) panelResult {
	return panelResult{rows: len(rows), digest: rowsDigest(rows), bytes: bytes, m: m}
}

// panelRec is one completed panel: its result and the range of append
// generations its snapshot may have come from.
type panelRec struct {
	panel
	g0, g1 int64
	res    panelResult
	lat    time.Duration
}

type submitFn func(ctx context.Context, tenant int, sql string) (panelResult, error)
type ingestFn func(ctx context.Context, rows [][]types.Value) error

// dashboard is the loaded dashboard workload: TPC-DS served by one
// resident service over loopback TCP to one connection per tenant.
type dashboard struct {
	cfg     runConfig
	st      *storage.Store
	eng     *engine.Engine
	srv     *service.Server
	ns      *service.NetServer
	clients []*service.Client
	writer  *service.Client

	rngs []*rand.Rand // per tenant, drawn only by that tenant's loop

	// started counts appends sent and acked appends published: a panel sent
	// after acked=a and finished before started=s saw a store holding
	// between a and s appended batches.
	started, acked atomic.Int64
}

func tenantName(t int) string { return fmt.Sprintf("tenant%02d", t) }

func setupDashboard(cfg runConfig) (*dashboard, float64, error) {
	tenants := runtime.NumCPU()
	d, setupS, err := timedSetup(cfg.setupReps, func() (*dashboard, error) {
		st, err := tpcds.NewLoadedStore(cfg.scale, cfg.seed)
		if err != nil {
			return nil, err
		}
		d := &dashboard{cfg: cfg, st: st, eng: engine.OpenWithStore(st, dashboardEngineConfig)}
		d.srv = service.New(d.eng, dashboardServiceConfig)
		d.ns = service.NewNetServer(d.srv)
		if err := d.ns.Listen("127.0.0.1:0"); err != nil {
			d.close()
			return nil, err
		}
		addr := d.ns.Addr().String()
		for t := 0; t < tenants; t++ {
			cl, err := service.Dial(addr)
			if err == nil {
				d.clients = append(d.clients, cl)
				err = cl.Hello(context.Background(), tenantName(t))
			}
			if err != nil {
				d.close()
				return nil, err
			}
		}
		if d.writer, err = service.Dial(addr); err != nil {
			d.close()
			return nil, err
		}
		return d, nil
	}, (*dashboard).close)
	if err != nil {
		return nil, 0, err
	}
	for t := range d.clients {
		d.rngs = append(d.rngs, rand.New(rand.NewSource(cfg.seed*1000+int64(t))))
	}
	return d, setupS, nil
}

func (d *dashboard) close() {
	for _, cl := range d.clients {
		cl.Close()
	}
	if d.writer != nil {
		d.writer.Close()
	}
	if d.ns != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = d.ns.Shutdown(ctx) // queued panels fail after a minute; the engine drains the rest
	}
	d.eng.Close()
}

// wave returns tenant t's next refresh: every hot panel plus a fresh draw
// of each parameterized one.
func (d *dashboard) wave(t int) []panel {
	var w []panel
	for i, sql := range hotPanels {
		w = append(w, panel{i, sql})
	}
	rng := d.rngs[t]
	lo, q := 1+rng.Intn(180), 1+rng.Intn(98)
	return append(w,
		panel{len(hotPanels), fmt.Sprintf(rangePanel, lo, lo+5+rng.Intn(20))},
		panel{len(hotPanels) + 1, fmt.Sprintf(rowsPanel, 1+rng.Intn(5), q, q+1)})
}

func (d *dashboard) overWire(ctx context.Context, t int, sql string) (panelResult, error) {
	res, err := d.clients[t].Query(ctx, sql)
	if err != nil {
		return panelResult{}, err
	}
	return resultOf(res.Rows, res.Metrics.BytesScanned, nil), nil
}

func (d *dashboard) inProcess(ctx context.Context, t int, sql string) (panelResult, error) {
	res, err := d.srv.Submit(ctx, tenantName(t), sql)
	if err != nil {
		return panelResult{}, err
	}
	return resultOf(res.Rows, res.Metrics.Storage.BytesScanned, &res.Metrics), nil
}

func (d *dashboard) ingestOverWire(ctx context.Context, rows [][]types.Value) error {
	return d.writer.Ingest(ctx, "store_sales", rows)
}

func (d *dashboard) ingestInProcess(_ context.Context, rows [][]types.Value) error {
	return d.srv.Ingest("store_sales", rows)
}

// dashPhase is one measured stretch of the dashboard load.
type dashPhase struct {
	phase
	waves  []float64 // ms
	ingest []float64 // ms
	recs   []panelRec
}

// load runs every tenant's closed loop of waves, plus the writer, for dur
// (extended up to cfg.extend until both percentiles have minBeyond samples
// above them). With tr set, each wave and panel is a span.
func (d *dashboard) load(dur time.Duration, submit submitFn, ingest ingestFn, tr *tracer) *dashPhase {
	ctx := context.Background()
	p := &dashPhase{}
	var mu sync.Mutex
	var nPanels, nWaves atomic.Int64
	hs := startHeapSampler(5 * time.Millisecond)
	p.rt0 = readRuntime()
	c0, t0 := cpuTime(), time.Now()
	done := func() bool {
		el := time.Since(t0)
		return el >= dur && ((enoughFor(int(nPanels.Load()), 0.95) && enoughFor(int(nWaves.Load()), 0.95)) || el >= dur+d.cfg.extend)
	}

	stopWriter := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		tick := time.NewTicker(d.cfg.ingestEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopWriter:
				return
			case <-tick.C:
			}
			gen := d.started.Add(1) - 1
			s := time.Now()
			err := ingest(ctx, appendRows(d.cfg.seed, int(gen)))
			lat := time.Since(s)
			mu.Lock()
			p.attempted++
			if err != nil {
				p.fails++
			} else {
				p.ingest = append(p.ingest, ms(lat))
			}
			mu.Unlock()
			if err != nil {
				// The batch was not published; stop writing so the append
				// generations stay contiguous.
				d.started.Add(-1)
				return
			}
			d.acked.Add(1)
		}
	}()

	var tenantsWG sync.WaitGroup
	for t := range d.clients {
		tenantsWG.Add(1)
		go func(t int) {
			defer tenantsWG.Done()
			for !done() {
				w := d.wave(t)
				wid := -1
				if tr != nil {
					wid = tr.begin("wave", -1)
				}
				ws := time.Now()
				var wg sync.WaitGroup
				for _, pn := range w {
					wg.Add(1)
					go func(pn panel) {
						defer wg.Done()
						pid := -1
						if tr != nil {
							pid = tr.begin("panel", wid)
						}
						g0 := d.acked.Load()
						s := time.Now()
						res, err := submit(ctx, t, pn.sql)
						lat := time.Since(s)
						g1 := d.started.Load()
						if tr != nil {
							tr.end(pid)
						}
						mu.Lock()
						defer mu.Unlock()
						p.attempted++
						if err != nil {
							p.fails++
							return
						}
						p.lat = append(p.lat, ms(lat))
						p.bytes += res.bytes
						p.recs = append(p.recs, panelRec{panel: pn, g0: g0, g1: g1, res: res, lat: lat})
					}(pn)
				}
				wg.Wait()
				if tr != nil {
					tr.end(wid)
				}
				mu.Lock()
				p.waves = append(p.waves, ms(time.Since(ws)))
				mu.Unlock()
				nWaves.Add(1)
				nPanels.Add(int64(len(w)))
			}
		}(t)
	}
	tenantsWG.Wait()
	close(stopWriter)
	writerWG.Wait()
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
	p.rt1 = readRuntime()
	p.peakHeap = hs.Stop()
	return p
}

// verify checks every panel against a serial engine over a second copy of
// the data that replays the same appends, at each append generation the
// panel may have seen, and then compares the final contents of every table.
func (d *dashboard) verify(recs []panelRec) error {
	refSt, err := tpcds.NewLoadedStore(d.cfg.scale, d.cfg.seed)
	if err != nil {
		return err
	}
	ref := engine.OpenWithStore(refSt, engine.Config{EnableFusion: dashboardEngineConfig.EnableFusion, Parallelism: 1})
	defer ref.Close()
	final := d.acked.Load()
	if s := d.started.Load(); s != final {
		return fmt.Errorf("%d appends still unacknowledged", s-final)
	}
	type key struct {
		sql string
		gen int64
	}
	need := map[int64]map[string]bool{}
	for _, r := range recs {
		for g := r.g0; g <= r.g1; g++ {
			if need[g] == nil {
				need[g] = map[string]bool{}
			}
			need[g][r.sql] = true
		}
	}
	refs := map[key]panelResult{}
	for g := int64(0); g <= final; g++ {
		for sql := range need[g] {
			res, err := ref.Query(sql)
			if err != nil {
				return fmt.Errorf("reference for panel %q: %w", sql, err)
			}
			refs[key{sql, g}] = resultOf(res.Rows, res.Metrics.Storage.BytesScanned, nil)
		}
		if g < final {
			if err := ref.Append("store_sales", appendRows(d.cfg.seed, int(g))); err != nil {
				return err
			}
		}
	}
	var first error
	bad := 0
	for _, r := range recs {
		ok := false
		for g := r.g0; g <= r.g1 && !ok; g++ {
			want := refs[key{r.sql, g}]
			ok = want.bytes == r.res.bytes && want.rows == r.res.rows && want.digest == r.res.digest
		}
		if !ok {
			bad++
			if first == nil {
				first = mismatch(r, func(g int64) panelResult { return refs[key{r.sql, g}] })
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d panels match no reference; first: %w", bad, len(recs), first)
	}

	got := engine.OpenWithStore(d.st, engine.Config{Parallelism: 1})
	defer got.Close()
	for _, table := range d.st.Catalog().Names() {
		q := "SELECT * FROM " + table
		a, err := got.Query(q)
		if err != nil {
			return fmt.Errorf("final state of %s: %w", table, err)
		}
		b, err := ref.Query(q)
		if err != nil {
			return fmt.Errorf("final state of %s in the reference: %w", table, err)
		}
		if !sameRows(a.Rows, b.Rows) || a.Metrics.Storage.BytesScanned != b.Metrics.Storage.BytesScanned {
			return fmt.Errorf("final state of %s differs from the serial reference after %d appends", table, final)
		}
	}
	return nil
}

// mismatch describes a panel that matched no reference. A panel whose rows
// match one append generation and whose BytesScanned matches another read
// one snapshot and was billed for a different one.
func mismatch(r panelRec, ref func(g int64) panelResult) error {
	for g := r.g0; g <= r.g1; g++ {
		for g2 := r.g0; g2 <= r.g1; g2++ {
			if ref(g).rows == r.res.rows && ref(g).digest == r.res.digest && ref(g2).bytes == r.res.bytes {
				return fmt.Errorf("panel %q: rows match append generation %d but BytesScanned (%d) matches generation %d",
					r.sql, g, r.res.bytes, g2)
			}
		}
	}
	var seen []string
	for g := r.g0; g <= r.g1; g++ {
		seen = append(seen, fmt.Sprintf("generation %d: %d rows, %d bytes", g, ref(g).rows, ref(g).bytes))
	}
	return fmt.Errorf("panel %q: %d rows, %d bytes match no reference (%s)",
		r.sql, r.res.rows, r.res.bytes, strings.Join(seen, "; "))
}

func runDashboard(cfg runConfig) (*outcome, error) {
	d, setupS, err := setupDashboard(cfg)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if cfg.trace {
		return d.traced()
	}
	p := d.load(cfg.dur, d.overWire, d.ingestOverWire, nil)
	o := newOutcome(p.attempted, p.fails)
	o.set("setup_s", setupS)
	p.latencies(o, "query")
	p50 := median(p.waves)
	p95, beyond := percentile(p.waves, 0.95)
	o.set("wave_p50_ms", p50)
	o.set("wave_p95_ms", p95)
	o.note("wave latency: %d samples, %d beyond p95", len(p.waves), beyond)
	o.set("ingest_p50_ms", median(p.ingest))
	o.note("ingest latency: %d samples", len(p.ingest))
	p.throughput(o)
	if len(p.ingest) == 0 {
		return o, errors.New("no append completed during the run")
	}
	return o, d.verify(p.recs)
}

// traced runs an untraced and a traced phase of equal length through
// service.Server in-process, below the wire, where each panel's full
// engine metrics are visible; the wire alone is timed by Client.Ping.
func (d *dashboard) traced() (*outcome, error) {
	half := d.cfg.dur / 2
	base := d.load(half, d.inProcess, d.ingestInProcess, nil)
	before := d.srv.Stats()
	tr := newTracer()
	p := d.load(half, d.inProcess, d.ingestInProcess, tr)
	after := d.srv.Stats()
	checkErr := d.verify(append(base.recs, p.recs...))

	var waits []float64
	var queue time.Duration
	for t, ws := range after.QueueWaits {
		for _, w := range ws[len(before.QueueWaits[t]):] {
			waits = append(waits, ms(w))
			queue += w
		}
	}
	pings, err := pingProbe(d.clients[0])
	if err != nil {
		return nil, err
	}

	texts := make([]string, panelKinds)
	for _, r := range p.recs {
		texts[r.kind] = r.sql
	}
	probes, err := probeStatements(d.eng, d.st, dashboardEngineConfig.EnableFusion, texts)
	if err != nil {
		return nil, err
	}

	o := newOutcome(base.attempted+p.attempted, base.fails+p.fails)
	l := &layerCounts{}
	runs := make([]int64, panelKinds)
	var elapsed, latSum time.Duration
	var cacheHits, cacheProbes, served, rejects, evicted int64
	var shareHits, fusedPanels, batchedSum, batchedN, windowWaits int64
	for _, r := range p.recs {
		m := r.res.m
		l.add(*m)
		runs[r.kind]++
		elapsed += m.Elapsed
		latSum += r.lat
		cacheHits += m.ResultCache.Hits
		cacheProbes += m.ResultCache.Hits + m.ResultCache.Misses
		served += m.ResultCache.ServedBytes
		rejects += m.ResultCache.AdmissionRejects
		evicted += m.ResultCache.EvictedBytes
		shareHits += m.Share.SharedHits + m.Share.CacheHits + m.Share.StreamHits
		if m.SharedExec.FusedPlans >= 2 {
			fusedPanels++
		}
		if m.SharedExec.BatchedQueries > 0 {
			batchedSum += m.SharedExec.BatchedQueries
			batchedN++
		}
		windowWaits += m.SharedExec.WindowWaits
	}
	n := float64(max(l.n, 1))
	parse, bind, opt, format := planLayers(o, probes, runs, l.n)
	o.set("optimizer.optimize_share", float64(opt)/float64(latSum))
	o.set("exec.run_ms", ms(elapsed)/n)
	o.set("exec.share", float64(elapsed)/float64(latSum))
	for _, name := range traceQueries {
		o.set("optimizer.optimize_us."+name, 0)
		o.set("exec.run_ms."+name, 0)
	}
	o.note("n/a on this workload (reported as 0): optimizer.optimize_us.{q09,q28,q88}, exec.run_ms.{q09,q28,q88}")
	l.report(o)
	o.set("storage.append_us", median(p.ingest)*1000)
	base.runtimeLayers(o)
	o.set("scanshare.hit_ratio", ratio(shareHits, shareHits+l.chunks))
	o.set("rescache.hit_ratio", ratio(cacheHits, cacheProbes))
	o.set("rescache.served_bytes", float64(served)/n)
	o.set("rescache.admission_rejects", float64(rejects)/n)
	o.set("rescache.evicted_bytes", float64(evicted)/n)
	o.set("xfuse.batched_frac", float64(fusedPanels)/n)
	o.set("xfuse.mean_batch", ratio(batchedSum, batchedN))
	o.set("xfuse.window_waits", float64(windowWaits)/n)
	serviceLayers(o, waits, pings, after.Rejected-before.Rejected)
	o.overhead(&base.phase, float64(p.completed()), p.wall, p.cpu)

	self := selfTimeByName(tr.spans)
	var waveSum time.Duration
	for _, s := range tr.spans {
		if s.name == "wave" {
			waveSum += s.end - s.start
		}
	}
	o.note("wave time outside every panel: %.1f%%", 100*float64(self["wave"])/float64(max(waveSum, 1)))
	planning := parse + bind + opt
	o.topLayers(map[string]time.Duration{
		"service.queue":         queue,
		"exec":                  elapsed,
		"sql+binder+optimizer":  planning,
		"logical.format":        format,
		"xfuse-window+dispatch": max(latSum-queue-elapsed-planning-format, 0),
	}, latSum)
	return o, checkErr
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
