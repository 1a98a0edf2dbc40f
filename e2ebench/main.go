// Command e2ebench is the engine's end-to-end benchmark. One process runs
// one workload, checks every result against a serial reference, and prints
// each metric by name with its unit; the last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	e2ebench --workload adhoc|adhoc-large|dashboard|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// tracing. With --trace 1 it runs an untraced and a traced phase of equal
// length and reports the per-layer metrics of the traced one, the tracing
// overhead, and the three layers with the largest share of time. A result
// or BytesScanned mismatch exits with status 1. README.md in this
// directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"bytes_scanned_per_query", "B"},
	{"peak_heap_mb", "MB"},
}

// dashboardEndToEnd are the end-to-end metrics only the dashboard has: a
// refresh of several panels, and appends while it serves.
var dashboardEndToEnd = []metricDef{
	{"wave_p50_ms", "ms"},
	{"wave_p95_ms", "ms"},
	{"ingest_p50_ms", "ms"},
}

// perLayer are the traced run's metrics. Counters are per completed query
// unless the name says otherwise.
var perLayer = []metricDef{
	{"sql.parse_us", "us"},
	{"binder.bind_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"optimizer.optimize_share", "frac"},
	{"optimizer.optimize_us.q09", "us"},
	{"optimizer.optimize_us.q28", "us"},
	{"optimizer.optimize_us.q88", "us"},
	{"optimizer.rules_fired", "count"},
	{"logical.format_us", "us"},
	{"exec.run_ms", "ms"},
	{"exec.run_ms.q09", "ms"},
	{"exec.run_ms.q28", "ms"},
	{"exec.run_ms.q88", "ms"},
	{"exec.share", "frac"},
	{"exec.rows_processed", "count"},
	{"exec.hash_rows", "count"},
	{"exec.pipeline_batches", "count"},
	{"exec.mask_prefix_hits", "count"},
	{"exec.skip_pruned_bytes", "B"},
	{"memctl.peak_bytes", "B"},
	{"memctl.spilled_bytes", "B"},
	{"storage.bytes_decoded", "B"},
	{"storage.chunks_decoded", "count"},
	{"storage.decode_ns_per_value", "ns"},
	{"storage.append_us", "us"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.alloc_bytes_per_query", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.num_gc", "count"},
	{"scanshare.hit_ratio", "frac"},
	{"rescache.hit_ratio", "frac"},
	{"rescache.served_bytes", "B"},
	{"rescache.admission_rejects", "count"},
	{"rescache.evicted_bytes", "B"},
	{"xfuse.batched_frac", "frac"},
	{"xfuse.mean_batch", "count"},
	{"xfuse.window_waits", "count"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p95_ms", "ms"},
	{"service.ping_us", "us"},
	{"service.rejected", "count"},
	{"trace.overhead_qps_frac", "frac"},
	{"trace.overhead_cpu_frac", "frac"},
}

// sharingLayers are the per-layer metrics of shared execution, scan
// sharing and the result cache, which the ad-hoc workloads' engine
// configuration leaves off.
var sharingLayers = []string{
	"scanshare.hit_ratio", "rescache.hit_ratio", "rescache.served_bytes",
	"rescache.admission_rejects", "rescache.evicted_bytes", "xfuse.batched_frac",
	"xfuse.mean_batch", "xfuse.window_waits",
}

// workload is one named input set and how to run it.
type workload struct {
	name  string
	scale float64
	// setupReps is how many times a run sets the workload up: about two
	// to four seconds of set-up in all, so the median is not one outlier.
	setupReps int
	run       func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{"adhoc", 0.2, 21, runAdhoc},
	{"adhoc-large", 2.0, 7, runAdhoc},
	{"dashboard", 1.0, 5, runDashboard},
}

// metricDefs are the metrics a run of w reports.
func metricDefs(w workload, trace bool) []metricDef {
	switch {
	case trace:
		return perLayer
	case w.name == "dashboard":
		return append(append([]metricDef{}, endToEnd...), dashboardEndToEnd...)
	}
	return endToEnd
}

// runConfig is one run's settings.
type runConfig struct {
	seed  int64
	dur   time.Duration
	trace bool
	scale float64
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// extend is how far past dur a run may go to put minBeyond samples
	// above its p95.
	extend time.Duration
	// ingestEvery is the dashboard writer's append interval.
	ingestEvery time.Duration
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	notes             []string
}

func newOutcome(attempted, failed int64) *outcome {
	return &outcome{attempted: attempted, failed: failed, values: map[string]float64{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// overhead records the traced phase's qps and CPU per query against the
// untraced phase's.
func (o *outcome) overhead(base *phase, tracedDone float64, tracedWall, tracedCPU time.Duration) {
	bq := float64(base.completed()) / base.wall.Seconds()
	bc := ms(base.cpu) / float64(max(base.completed(), 1))
	tq := tracedDone / tracedWall.Seconds()
	tc := ms(tracedCPU) / max(tracedDone, 1)
	o.set("trace.overhead_qps_frac", (bq-tq)/bq)
	o.set("trace.overhead_cpu_frac", (tc-bc)/bc)
	o.note("tracing overhead: qps %.2f untraced vs %.2f traced; cpu_ms_per_query %.3f untraced vs %.3f traced", bq, tq, bc, tc)
}

// topLayers notes the three layers with the largest share of total.
func (o *outcome) topLayers(times map[string]time.Duration, total time.Duration) {
	names := make([]string, 0, len(times))
	for n := range times {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if times[names[i]] != times[names[j]] {
			return times[names[i]] > times[names[j]]
		}
		return names[i] < names[j]
	})
	var parts []string
	for i, n := range names {
		if i == 3 {
			break
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%%", n, 100*float64(times[n])/float64(total)))
	}
	o.note("top layers by share of time: %s", strings.Join(parts, ", "))
}

// timedSetup runs setup reps times and returns the last result with the
// median set-up time in seconds; the earlier results are torn down.
func timedSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var cur T
	var secs []float64
	for i := 0; i < max(reps, 1); i++ {
		if i > 0 {
			teardown(cur)
		}
		// Each set-up starts from a collected heap, so one set-up's
		// garbage is not charged to the next.
		runtime.GC()
		s := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(s).Seconds())
		cur = v
	}
	return cur, median(secs), nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result selects the metrics of defs from o; the error names any that
// was not measured.
func result(o *outcome, defs []metricDef) (*jsonResult, error) {
	r := &jsonResult{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	var missing []string
	for _, d := range defs {
		if v, ok := o.values[d.name]; ok {
			r.Metrics[d.name] = jsonMetric{v, d.unit}
		} else {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		return r, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return r, nil
}

func environment(w workload, cfg runConfig) string {
	env := map[string]any{
		"workload":   w.name,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"scale":      cfg.scale,
		"seed":       cfg.seed,
		"seconds":    cfg.dur.Seconds(),
		"trace":      cfg.trace,
	}
	if w.name == "dashboard" {
		env["engine_config"] = fmt.Sprintf("%+v", dashboardEngineConfig)
		env["service_config"] = fmt.Sprintf("%+v", dashboardServiceConfig)
		env["tenants"] = runtime.NumCPU()
	} else {
		env["engine_config"] = fmt.Sprintf("%+v", adhocConfig)
	}
	b, _ := json.Marshal(env)
	return string(b)
}

// allMetrics lists every metric the command can print.
func allMetrics() []metricDef {
	return append(append(append([]metricDef{}, endToEnd...), dashboardEndToEnd...), perLayer...)
}

func main() {
	name := flag.String("workload", "adhoc", "workload: adhoc, adhoc-large, dashboard or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.Parse()

	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	for _, d := range allMetrics() {
		if !validName(d.name) {
			fmt.Fprintf(os.Stderr, "e2ebench: invalid metric name %q\n", d.name)
			os.Exit(2)
		}
	}
	ok := true
	for _, w := range chosen {
		cfg := runConfig{
			seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
			scale: w.scale, setupReps: w.setupReps, ingestEvery: 500 * time.Millisecond,
		}
		cfg.extend = 2 * cfg.dur
		if !runOne(w, cfg) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs a workload and prints its metrics; false means it failed or
// a check found a wrong result, in which case no JSON line is printed.
func runOne(w workload, cfg runConfig) bool {
	fmt.Println("env", environment(w, cfg))
	o, err := w.run(cfg)
	if o != nil {
		defs := metricDefs(w, cfg.trace)
		r, rerr := result(o, defs)
		if rerr != nil && err == nil {
			err = rerr
		}
		for _, n := range o.notes {
			fmt.Printf("%s: %s\n", w.name, n)
		}
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Printf("%s: %s = %.6g %s\n", w.name, d.name, m.Value, d.unit)
			}
		}
		fmt.Printf("%s: fail_frac = %.6g (%d of %d failed)\n", w.name,
			float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
		if err == nil {
			b, _ := json.Marshal(r)
			fmt.Println(string(b))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		return false
	}
	return true
}
