// Package artifacts is the content-addressed cross-job artifact cache:
// fault-free machine traces (logic.GoodTrace) keyed by what they were
// derived from — the design's netlist content hash and a hash of the
// expanded vector sequence — instead of by job or process identity. Two
// submissions of the same (design, vector source) pair resolve to the
// same trace, so the second one performs zero good-machine cycles
// regardless of which job, matrix cell or queue retry asked. The
// compiled program a trace is filled with is not cached here: it is the
// netlist's own (logic.CompiledFor).
//
// The store is a refcounted LRU under a byte budget. Leased entries
// (refs > 0) are never evicted — a call may be replaying the trace —
// and a trace whose projected size exceeds a quarter of the budget is
// never cached at all, so one giant campaign cannot wipe the working
// set of everything else. Fill ownership is single-writer: the first
// leaseholder to ask fills the trace to completion while concurrent
// leaseholders fall back to their own run-local traces, and only the
// completed, immutable trace is ever shared (GoodTrace is safe for
// concurrent readers once no writer remains).
package artifacts

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"repro/internal/logic"
	"repro/internal/obs"
)

// DefaultBudget bounds the process-wide store: generous next to one
// campaign's artifacts (a full 8192-cycle DSP-core trace is a few MB)
// but firm enough that a long matrix campaign recycles memory instead
// of accreting every cell's trace forever.
const DefaultBudget int64 = 256 << 20

// Prometheus families (see docs/OBSERVABILITY.md naming). Hits count
// leases that found a complete trace — the whole good machine skipped;
// misses count leases that found anything less. Bytes is the
// resident size across all stores (in practice the Default one).
var (
	ctrHits = obs.Default().CounterFamily("sbst.artifact_hits_total",
		"Artifact-cache leases that found a complete good-machine trace.").Counter()
	ctrMisses = obs.Default().CounterFamily("sbst.artifact_misses_total",
		"Artifact-cache leases that found no complete good-machine trace.").Counter()
	gaugeBytes = obs.Default().GaugeFamily("sbst.artifact_bytes",
		"Resident bytes of cached good traces.").Gauge()
)

// Key addresses an artifact entry by content: the design's netlist
// hash (designs.Design.Hash) and the vector-source hash (HashVectors
// over the expanded sequence). Everything a good trace depends on is a
// pure function of these two.
type Key struct {
	Design  string
	Vectors string
}

// HashVectors hashes an expanded vector sequence: the cycle count and
// each packed input word in order. Two VectorSeq implementations that
// expand identically (say, an LFSR spec and its pre-expanded dump)
// share artifacts by construction.
func HashVectors(n int, at func(int) uint64) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[:], at(i))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Store is a refcounted, byte-budgeted LRU of artifact entries.
type Store struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	tick    int64
	entries map[Key]*entry
}

type entry struct {
	key  Key
	refs int
	use  int64 // lru tick of the last lease

	trace    *logic.GoodTrace
	complete bool // trace recorded through its full window; immutable
	filling  bool // a leaseholder owns the (incomplete) trace

	bytes int64 // accounted share of Store.bytes
}

// NewStore returns a store with the given byte budget (<=0 selects
// DefaultBudget). Tests and benchmarks use private stores; production
// paths share Default().
func NewStore(budget int64) *Store {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Store{budget: budget, entries: make(map[Key]*entry)}
}

var defaultStore = NewStore(DefaultBudget)

// Default returns the process-wide store the engine resolves artifacts
// through unless SimOptions.Artifacts overrides it.
func Default() *Store { return defaultStore }

// Bytes returns the store's current resident size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Len returns the number of cached entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Handle is one lease on an entry. The entry cannot be evicted while
// any handle on it is unreleased.
type Handle struct {
	s *Store
	e *entry
}

// Lease pins the entry for key, creating it on first use, and records
// the hit/miss outcome: a hit means a complete trace is already
// resident, so the leaseholder skips the good machine entirely.
func (s *Store) Lease(key Key) *Handle {
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		e = &entry{key: key}
		s.entries[key] = e
	}
	e.refs++
	s.tick++
	e.use = s.tick
	hit := e.complete
	s.mu.Unlock()
	if hit {
		ctrHits.Add(1)
	} else {
		ctrMisses.Add(1)
	}
	return &Handle{s: s, e: e}
}

// Release drops the lease. Entries over budget become evictable the
// moment their last lease releases.
func (h *Handle) Release() {
	if h.e == nil {
		return
	}
	s, e := h.s, h.e
	h.e = nil
	s.mu.Lock()
	e.refs--
	if e.refs == 0 && e.trace == nil {
		// Nothing was ever produced under this key (the campaign failed
		// before its fill, or the trace was refused as oversized): drop
		// the empty entry instead of letting keys accrete. An incomplete
		// trace prefix is kept — a retry resumes its fill.
		delete(s.entries, e.key)
	}
	s.evictLocked()
	s.mu.Unlock()
}

// Trace returns the shared good trace for the entry, filling it on
// first use. If a complete trace is resident it is returned as-is (it
// is immutable; concurrent readers are safe). Otherwise the caller may
// become the single fill owner: fill runs outside the store lock on a
// full-length trace (rows of bits bits — the program's TraceBits — ×
// cycles cycles) and must record it through cycles before returning.
// Returns nil — caller proceeds with its own run-local trace — when
// another leaseholder is mid-fill, or when the projected trace would
// exceed a quarter of the byte budget (such traces are never cached).
func (h *Handle) Trace(bits, cycles int, fill func(*logic.GoodTrace)) *logic.GoodTrace {
	s, e := h.s, h.e
	s.mu.Lock()
	if e.complete {
		tr := e.trace
		s.mu.Unlock()
		return tr
	}
	projected := int64((bits+63)/64) * 8 * int64(cycles)
	if e.filling || projected > s.budget/4 {
		s.mu.Unlock()
		return nil
	}
	if e.trace == nil {
		e.trace = logic.NewGoodTrace(bits, cycles)
	}
	tr := e.trace
	e.filling = true
	s.mu.Unlock()

	done := false
	defer func() {
		s.mu.Lock()
		e.filling = false
		if done {
			e.complete = true
			s.addBytesLocked(e, tr.SizeBytes())
		}
		s.mu.Unlock()
	}()
	fill(tr)
	if tr.ValidThrough() < cycles {
		// The fill stopped short (interrupted campaign): keep the prefix
		// for a retry's fill to resume from, but don't publish it.
		return tr
	}
	done = true
	return tr
}

// addBytesLocked grows an entry's accounted size and evicts to budget.
func (s *Store) addBytesLocked(e *entry, delta int64) {
	e.bytes += delta
	s.bytes += delta
	gaugeBytes.Set(float64(s.bytes))
	s.evictLocked()
}

// evictLocked drops least-recently-leased unreferenced entries until
// the store fits its budget. Entries still leased are skipped — a
// call may hold the trace — so a burst of concurrent oversized
// campaigns can transiently exceed the budget; it drains as they
// release.
func (s *Store) evictLocked() {
	for s.bytes > s.budget {
		var victim *entry
		for _, e := range s.entries {
			if e.refs > 0 || e.filling {
				continue
			}
			if victim == nil || e.use < victim.use {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(s.entries, victim.key)
		s.bytes -= victim.bytes
		gaugeBytes.Set(float64(s.bytes))
	}
}
