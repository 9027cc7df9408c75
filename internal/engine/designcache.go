package engine

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/api"
	"repro/internal/artifacts"
	"repro/internal/designs"
	"repro/internal/obs"
)

// ctrDesignBuilds counts registry builds per design — a cache miss on
// the coordinator or a worker. Rendered as
// sbst_design_builds_total{design="..."} on /v1/metrics; a fleet where
// this grows linearly with jobs has a cache that is thrashing.
var ctrDesignBuilds = obs.Default().CounterFamily(
	"sbst.design_builds_total",
	"Design registry builds (netlist + collapsed fault list) by design ID.",
	"design")

// Cache traffic by outcome, the companion to sbst_design_builds_total:
// hits/(hits+misses) is the fleet's design-reuse rate, mirroring the
// artifact store's sbst_artifact_{hits,misses}_total.
var (
	ctrDesignCacheHit = obs.Default().CounterFamily(
		"sbst.design_cache_events_total",
		"Design cache lookups by outcome.",
		"result").Counter("hit")
	ctrDesignCacheMiss = obs.Default().CounterFamily(
		"sbst.design_cache_events_total",
		"Design cache lookups by outcome.",
		"result").Counter("miss")
)

// designCacheCap bounds the per-process built-design LRU by entry
// count; designCacheBudget bounds it by bytes (a built design owns a
// levelized netlist and its collapsed fault list — megabytes for large
// designs). Whichever bound is hit first evicts least-recently-used,
// the same policy as the artifact store, whose budget this borrows so
// the two caches exert comparable memory pressure.
const designCacheCap = 8

const designCacheBudget = artifacts.DefaultBudget

// designCache is a small LRU of built designs keyed by canonical
// design ID. It replaces the old sync.Once DSP-core singleton: the
// same build-once behavior for the common single-design fleet, without
// pinning the process to one circuit.
type designCache struct {
	mu     sync.Mutex
	cap    int
	budget int64
	bytes  int64
	ll     *list.List               // front = most recently used; values are *designEntry
	byI    map[string]*list.Element // canonical ID → element
}

type designEntry struct {
	id    string
	d     *designs.Design
	err   error
	bytes int64 // accounted share of designCache.bytes (0 until built)
	// built gates waiters: entries are published under mu before the
	// (potentially slow) registry build runs, so concurrent requests
	// for one design share a single build instead of racing.
	built chan struct{}
}

func newDesignCache(capacity int) *designCache {
	return &designCache{
		cap:    capacity,
		budget: designCacheBudget,
		ll:     list.New(),
		byI:    make(map[string]*list.Element),
	}
}

// evictLocked drops LRU entries until both the entry cap and the byte
// budget hold. Evicting only unlinks the cache reference: a design a
// running job still holds stays alive through its own pointer.
func (c *designCache) evictLocked() {
	for c.ll.Len() > c.cap || c.bytes > c.budget {
		oldest := c.ll.Back()
		if oldest == nil {
			return
		}
		c.ll.Remove(oldest)
		e := oldest.Value.(*designEntry)
		delete(c.byI, e.id)
		c.bytes -= e.bytes
	}
}

// get returns the built design for id (registry grammar; "" = the DSP
// core), building and caching it on first use. Build failures are not
// cached: an unknown ID fails Parse before touching the cache, and a
// failed build of a valid ID retries on the next request.
func (c *designCache) get(id string) (*designs.Design, error) {
	ref, err := designs.Parse(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if el, ok := c.byI[ref.ID]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*designEntry)
		c.mu.Unlock()
		ctrDesignCacheHit.Add(1)
		<-e.built
		return e.d, e.err
	}
	e := &designEntry{id: ref.ID, built: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.byI[ref.ID] = el
	c.evictLocked()
	c.mu.Unlock()
	ctrDesignCacheMiss.Add(1)

	e.d, e.err = designs.Build(ref.ID)
	ctrDesignBuilds.Counter(ref.ID).Add(1)
	if e.err == nil {
		e.bytes = e.d.SizeBytes()
		c.mu.Lock()
		// The entry may have been evicted while building; only account
		// (and re-evict to budget) if it is still cached.
		if cur, ok := c.byI[ref.ID]; ok && cur == el {
			c.bytes += e.bytes
			c.evictLocked()
		}
		c.mu.Unlock()
	}
	close(e.built)
	if e.err != nil {
		c.mu.Lock()
		// The element may already have been evicted; delete by ID only
		// if it still maps to this entry.
		if cur, ok := c.byI[ref.ID]; ok && cur == el {
			c.ll.Remove(el)
			delete(c.byI, ref.ID)
		}
		c.mu.Unlock()
	}
	return e.d, e.err
}

// sharedDesigns is the process-wide cache every executor, worker unit
// and CLI entry point resolves designs through.
var sharedDesigns = newDesignCache(designCacheCap)

// GetDesign resolves a design ID through the process-wide cache. Both
// coordinator and worker call it, so a fleet agrees on each design's
// fault indices by construction.
func GetDesign(id string) (*designs.Design, error) { return sharedDesigns.get(id) }

// validateSpecDesigns checks every design ID a spec references against
// the registry grammar at submission time (no build), wrapping
// failures in api.ErrUnknownDesign so the server answers 422
// unknown_design instead of failing the job mid-campaign.
func validateSpecDesigns(spec JobSpec) error {
	check := func(id string) error {
		if err := designs.Validate(id); err != nil {
			return fmt.Errorf("%w: %v", api.ErrUnknownDesign, err)
		}
		return nil
	}
	if err := check(spec.Design); err != nil {
		return err
	}
	if spec.Matrix != nil {
		for _, id := range spec.Matrix.Designs {
			if err := check(id); err != nil {
				return err
			}
		}
	}
	return nil
}
