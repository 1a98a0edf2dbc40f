// Package memctl is the engine's memory governance subsystem: a
// hierarchical budget that makes blocking operators degrade gracefully
// under memory pressure instead of growing without bound.
//
// The hierarchy has two levels. A Pool carries one engine's total budget
// (engine.Config{MemoryLimitBytes, SpillDir}); every query run opens a
// Tracker against the pool and charges its blocking operators'
// reservations there. Operators that can shed state to disk (hash
// aggregation partitions, sort run buffers) register as Spillable; when a
// reservation would push the pool over its limit, the pool picks the
// registered consumer with the most spillable bytes — across every query
// sharing the engine — and asks it to spill, repeating until the
// reservation fits or nothing spillable remains, at which point the
// reservation fails with ErrMemoryExceeded carrying the query text and its
// peak. Because the pool only ever admits reservations that fit, peak
// tracked memory never exceeds the configured limit.
//
// Lock discipline: SpillableBytes is called with the pool lock held and
// must be non-blocking (read an atomic). Spill is called without the pool
// lock and may take the consumer's own lock and perform I/O. Reserve must
// be called with no operator lock held — the pool may route the resulting
// spill to any registered consumer, including the caller's.
package memctl

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// ErrMemoryExceeded is the sentinel matched by errors.Is when a
// reservation fails after exhausting every spill option.
var ErrMemoryExceeded = errors.New("memctl: query memory limit exceeded")

// MemoryExceededError reports a failed reservation with enough context to
// act on: which query, which operator, how much it wanted, where the query
// peaked against the limit, and which operators hold the budget now.
type MemoryExceededError struct {
	Query     string
	Operator  string
	Requested int64
	Limit     int64
	Peak      int64
	// Held maps operator label to its resident bytes at failure time —
	// the budget that could not be shed.
	Held map[string]int64
	// Clients is the number of client queries served by the failing run: 1
	// for an ordinary query, > 1 when a cross-query fused plan (one shared
	// reservation scope) fails on behalf of its whole batch.
	Clients int
}

func (e *MemoryExceededError) Error() string {
	q := e.Query
	if q == "" {
		q = "<unknown query>"
	}
	if e.Clients > 1 {
		q = fmt.Sprintf("%s (shared by %d clients)", q, e.Clients)
	}
	var held string
	if len(e.Held) > 0 {
		names := make([]string, 0, len(e.Held))
		for name := range e.Held {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s=%d", name, e.Held[name]))
		}
		held = "; held: " + strings.Join(parts, " ")
	}
	return fmt.Sprintf("memctl: memory limit exceeded: operator %s requested %d bytes, limit %d, query peak %d%s; query: %s",
		e.Operator, e.Requested, e.Limit, e.Peak, held, q)
}

// Is makes errors.Is(err, ErrMemoryExceeded) true.
func (e *MemoryExceededError) Is(target error) bool { return target == ErrMemoryExceeded }

// Spillable is a consumer that can shed tracked memory to disk on demand.
type Spillable interface {
	// SpillableBytes reports how many tracked bytes a Spill call could
	// currently free. Called with the pool lock held: must be non-blocking
	// (an atomic load), and must not call back into the pool or tracker.
	SpillableBytes() int64
	// Spill sheds state to disk, releasing the freed bytes through the
	// owning tracker, and reports how much it freed. Called without the
	// pool lock; may block on the consumer's own lock and on I/O.
	Spill() (freed int64, err error)
	// Label names the consumer for attribution (e.g. "groupby").
	Label() string
}

// Pool is one engine's memory budget plus the registry of spillable
// consumers across its in-flight queries.
type Pool struct {
	limit    int64
	spillDir string

	mu         sync.Mutex
	used       int64
	spillables map[Spillable]*Tracker
	// tenants rolls up resident bytes per service-layer tenant (trackers
	// opened with NewTenantTracker); the admission layer reads it to keep
	// one tenant's concurrent queries under a per-tenant budget.
	tenants map[string]int64
	// relCh is the queue-on-exceed notification: it is closed (and
	// replaced) whenever reserved memory decreases, so a service that got
	// ErrMemoryExceeded can park the query and retry on the next release
	// instead of failing it. nil until someone waits.
	relCh chan struct{}
}

// NewPool creates a pool. limitBytes <= 0 means unlimited (reservations
// are tracked for accounting but never fail and never trigger spills).
// spillDir is where registered consumers place spill files; "" means the
// OS temp directory.
func NewPool(limitBytes int64, spillDir string) *Pool {
	if limitBytes < 0 {
		limitBytes = 0
	}
	if spillDir == "" {
		spillDir = os.TempDir()
	}
	return &Pool{
		limit: limitBytes, spillDir: spillDir,
		spillables: make(map[Spillable]*Tracker),
		tenants:    make(map[string]int64),
	}
}

// Limit returns the pool budget in bytes (0 = unlimited).
func (p *Pool) Limit() int64 { return p.limit }

// SpillDir returns the directory spill files are created in.
func (p *Pool) SpillDir() string { return p.spillDir }

// Used returns the currently reserved bytes across all trackers.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// NewTracker opens a per-query accounting scope. query is the SQL text,
// used for error attribution.
func (p *Pool) NewTracker(query string) *Tracker {
	return &Tracker{pool: p, query: query, clients: 1, ops: make(map[string]*opState)}
}

// NewTenantTracker opens a per-query accounting scope attributed to a
// service-layer tenant: the query's resident bytes additionally roll up
// into Pool.TenantUsed(tenant), which the admission layer uses to hold one
// tenant's concurrent queries under a per-tenant memory budget.
func (p *Pool) NewTenantTracker(query, tenant string) *Tracker {
	return &Tracker{pool: p, query: query, tenant: tenant, clients: 1, ops: make(map[string]*opState)}
}

// TenantUsed returns the resident bytes currently reserved by trackers
// attributed to tenant (0 for unknown tenants).
func (p *Pool) TenantUsed(tenant string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tenants[tenant]
}

// ReleaseWait returns a channel closed the next time reserved memory
// decreases (an operator Release, a spill freeing state, or a query
// closing its tracker). The queue-on-exceed pattern: grab the channel
// BEFORE running the query; on ErrMemoryExceeded, wait on it (with the
// caller's deadline) and retry — any release during the failed run has
// already closed the channel, so no wakeup is missed.
func (p *Pool) ReleaseWait() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.relCh == nil {
		p.relCh = make(chan struct{})
	}
	return p.relCh
}

// notifyReleaseLocked wakes queue-on-exceed waiters; caller holds p.mu and
// has just decreased p.used.
func (p *Pool) notifyReleaseLocked() {
	if p.relCh != nil {
		close(p.relCh)
		p.relCh = nil
	}
}

// NewSharedTracker opens the accounting scope of a cross-query fused plan
// executed once on behalf of clients concurrent queries. The fused run
// holds ONE budget — its operators reserve against the pool exactly once,
// not once per client — and a reservation failure is attributed to the
// whole batch (MemoryExceededError.Clients).
func (p *Pool) NewSharedTracker(query string, clients int) *Tracker {
	if clients < 1 {
		clients = 1
	}
	return &Tracker{pool: p, query: query, clients: clients, ops: make(map[string]*opState)}
}

// pickVictim returns the registered spillable with the most spillable
// bytes, excluding dead entries. Caller holds p.mu.
func (p *Pool) pickVictim(dead map[Spillable]bool) Spillable {
	var best Spillable
	var bestBytes int64
	for s := range p.spillables {
		if dead[s] {
			continue
		}
		if b := s.SpillableBytes(); b > bestBytes {
			best, bestBytes = s, b
		}
	}
	return best
}

// OpStats is one operator's attribution within a query.
type OpStats struct {
	// PeakBytes is the operator's peak tracked resident bytes.
	PeakBytes int64
	// SpilledBytes / SpillFiles count what the operator wrote to disk.
	SpilledBytes int64
	SpillFiles   int64
}

// Stats is a tracker snapshot, exposed on exec.Metrics.
type Stats struct {
	PeakBytes    int64
	SpilledBytes int64
	SpillFiles   int64
	Operators    map[string]OpStats
}

type opState struct {
	used, peak   int64
	spilledBytes int64
	spillFiles   int64
}

// Tracker is one query's accounting scope against a pool. A shared tracker
// (NewSharedTracker) is the same scope opened for a fused plan serving
// several clients at once.
type Tracker struct {
	pool    *Pool
	query   string
	tenant  string // "" = unattributed; set by NewTenantTracker, immutable
	clients int

	mu           sync.Mutex
	used, peak   int64
	spilledBytes int64
	spillFiles   int64
	ops          map[string]*opState
	owned        []Spillable
	closed       bool
}

// SpillDir returns the pool's spill directory.
func (t *Tracker) SpillDir() string { return t.pool.spillDir }

// Limit returns the pool budget (0 = unlimited).
func (t *Tracker) Limit() int64 { return t.pool.limit }

// Reserve charges n bytes to the operator op. If the pool would exceed its
// limit, registered spillable consumers are spilled largest-first until the
// reservation fits; if nothing spillable remains it fails with a
// *MemoryExceededError (errors.Is ErrMemoryExceeded). Must be called with
// no operator lock held.
func (t *Tracker) Reserve(op string, n int64) error {
	if n <= 0 {
		return nil
	}
	p := t.pool
	p.mu.Lock()
	if p.limit > 0 {
		var dead map[Spillable]bool
		for p.used+n > p.limit {
			victim := p.pickVictim(dead)
			if victim == nil {
				p.mu.Unlock()
				return &MemoryExceededError{
					Query: t.query, Operator: op, Requested: n,
					Limit: p.limit, Peak: t.Peak(), Held: t.heldByOp(),
					Clients: t.clients,
				}
			}
			p.mu.Unlock()
			freed, err := victim.Spill()
			if err != nil {
				return fmt.Errorf("memctl: spilling %s: %w", victim.Label(), err)
			}
			p.mu.Lock()
			if freed == 0 {
				if dead == nil {
					dead = make(map[Spillable]bool)
				}
				dead[victim] = true
			}
		}
	}
	p.used += n
	if t.tenant != "" {
		p.tenants[t.tenant] += n
	}
	p.mu.Unlock()

	t.mu.Lock()
	t.used += n
	if t.used > t.peak {
		t.peak = t.used
	}
	s := t.op(op)
	s.used += n
	if s.used > s.peak {
		s.peak = s.used
	}
	t.mu.Unlock()
	return nil
}

// Release returns n bytes reserved by op to the pool. Once the tracker is
// closed it is a no-op: Close already returned everything the tracker held,
// and a victim spilled on another query's behalf may release after that.
func (t *Tracker) Release(op string, n int64) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.used -= n
	t.op(op).used -= n
	t.mu.Unlock()
	p := t.pool
	p.mu.Lock()
	p.used -= n
	if t.tenant != "" {
		p.tenants[t.tenant] -= n
	}
	p.notifyReleaseLocked()
	p.mu.Unlock()
}

// AddSpill records bytes and files written to disk by op.
func (t *Tracker) AddSpill(op string, bytes, files int64) {
	t.mu.Lock()
	t.spilledBytes += bytes
	t.spillFiles += files
	s := t.op(op)
	s.spilledBytes += bytes
	s.spillFiles += files
	t.mu.Unlock()
}

func (t *Tracker) op(name string) *opState {
	s := t.ops[name]
	if s == nil {
		s = &opState{}
		t.ops[name] = s
	}
	return s
}

// Register adds a spillable consumer owned by this tracker to the pool's
// victim registry.
func (t *Tracker) Register(s Spillable) {
	p := t.pool
	p.mu.Lock()
	p.spillables[s] = t
	p.mu.Unlock()
	t.mu.Lock()
	t.owned = append(t.owned, s)
	t.mu.Unlock()
}

// Unregister removes a consumer from the victim registry (idempotent).
// Operators call it once their state must stay resident (e.g. when an
// aggregation starts merging for emission).
func (t *Tracker) Unregister(s Spillable) {
	p := t.pool
	p.mu.Lock()
	delete(p.spillables, s)
	p.mu.Unlock()
}

// heldByOp snapshots per-operator resident bytes for error reporting.
func (t *Tracker) heldByOp() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	held := make(map[string]int64, len(t.ops))
	for name, s := range t.ops {
		if s.used > 0 {
			held[name] = s.used
		}
	}
	return held
}

// Peak returns the query's peak tracked bytes.
func (t *Tracker) Peak() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// Stats snapshots the tracker for metrics reporting.
func (t *Tracker) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := Stats{
		PeakBytes:    t.peak,
		SpilledBytes: t.spilledBytes,
		SpillFiles:   t.spillFiles,
	}
	if len(t.ops) > 0 {
		out.Operators = make(map[string]OpStats, len(t.ops))
		names := make([]string, 0, len(t.ops))
		for name := range t.ops {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := t.ops[name]
			out.Operators[name] = OpStats{PeakBytes: s.peak, SpilledBytes: s.spilledBytes, SpillFiles: s.spillFiles}
		}
	}
	return out
}

// Close returns every outstanding reservation to the pool and drops the
// tracker's consumers from the victim registry. Idempotent.
func (t *Tracker) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	remaining := t.used
	t.used = 0
	owned := t.owned
	t.owned = nil
	t.mu.Unlock()

	p := t.pool
	p.mu.Lock()
	p.used -= remaining
	if t.tenant != "" {
		if p.tenants[t.tenant] -= remaining; p.tenants[t.tenant] <= 0 {
			delete(p.tenants, t.tenant)
		}
	}
	for _, s := range owned {
		delete(p.spillables, s)
	}
	// A closing tracker frees budget even when remaining == 0 (its future
	// reservations stop competing), so always wake queued waiters.
	p.notifyReleaseLocked()
	p.mu.Unlock()
}
