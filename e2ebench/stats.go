package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"regexp"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/types"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p95 needs at least 200 samples, so the slowest cases are measured rather
// than guessed from a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1) and the
// number of samples ranked above it. xs is not modified.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], len(s) - 1 - idx
}

// enoughFor reports whether n samples put at least minBeyond above the
// q-quantile.
func enoughFor(n int, q float64) bool {
	if n == 0 {
		return false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	return n-1-idx >= minBeyond
}

// median is the 0.5 nearest-rank percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a metric or a workload.
func validName(s string) bool { return nameRE.MatchString(s) }

// span is one timed call into a layer, relative to the tracer's origin.
// parent is the index of the enclosing span, or -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer keeps spans in memory; they are summarized when a run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now - t.spans[id].start
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap one another (pipelined
// calls), so covered time is the length of the union of their intervals,
// clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		curA, curB := time.Duration(-1), time.Duration(-1)
		for _, v := range ivs {
			if v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		out[i] = s.end - s.start - covered
	}
	return out
}

// selfTimeByName sums self time per span name.
func selfTimeByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.name] += self[i]
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// heapWindow is the span of one heap-peak window.
const heapWindow = time.Second

// heapSampler polls the runtime's in-use heap span bytes (HeapInuse) and
// keeps the peak of each heapWindow. The median window peak is steadier
// than the single highest sample, which depends on where one collection
// happened to fall.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		start := time.Now()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64()+s[1].Value.Uint64())
			if time.Since(start) >= heapWindow {
				h.peaks = append(h.peaks, float64(peak))
				start, peak = time.Now(), 0
			}
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median window peak in bytes.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}

// sameRows compares results value by value, floats by their bits, so a
// reordered float sum or a flipped -0 counts as a mismatch.
func sameRows(a, b [][]types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Kind != y.Kind || x.Null != y.Null || x.I != y.I || x.S != y.S ||
				math.Float64bits(x.F) != math.Float64bits(y.F) {
				return false
			}
		}
	}
	return true
}

// rowsDigest is a 64-bit FNV-1a hash of every value's kind, null flag,
// integer, float bits and string, with row and value boundaries marked.
func rowsDigest(rows [][]types.Value) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, row := range rows {
		word(uint64(len(row)))
		for _, v := range row {
			flags := uint64(v.Kind)
			if v.Null {
				flags |= 1 << 8
			}
			word(flags)
			word(uint64(v.I))
			word(math.Float64bits(v.F))
			word(uint64(len(v.S)))
			h.Write([]byte(v.S))
		}
	}
	return h.Sum64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
