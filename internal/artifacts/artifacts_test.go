package artifacts

import (
	"sync"
	"testing"

	"repro/internal/logic"
)

// tinyProgram compiles a minimal circuit for size-accounting tests.
func tinyProgram(t *testing.T) *logic.Compiled {
	t.Helper()
	b := logic.NewBuilder()
	a := b.Input("a")
	c := b.Input("b")
	b.MarkOutput(b.And(a, c), "y")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return logic.CompiledFor(n)
}

// fillZeros records the tiny circuit's fault-free run under all-zero
// inputs through cycle end.
func fillZeros(t *testing.T, tr *logic.GoodTrace, end int) {
	t.Helper()
	tr.Extend(tinyProgram(t), end, func(int) uint64 { return 0 })
}

func TestHashVectorsContentAddressed(t *testing.T) {
	at := func(v []uint64) func(int) uint64 { return func(i int) uint64 { return v[i] } }
	h1 := HashVectors(3, at([]uint64{1, 2, 3}))
	h2 := HashVectors(3, at([]uint64{1, 2, 3}))
	if h1 != h2 {
		t.Fatalf("hash unstable: %s vs %s", h1, h2)
	}
	if h := HashVectors(3, at([]uint64{1, 2, 4})); h == h1 {
		t.Fatalf("content change did not change hash (%s)", h)
	}
	if h := HashVectors(2, at([]uint64{1, 2, 3})); h == h1 {
		t.Fatalf("length change did not change hash (%s)", h)
	}
	if len(h1) != 16 {
		t.Fatalf("hash length %d, want 16", len(h1))
	}
}

// TestLeaseLifecycle walks the intended engine usage end to end: miss,
// build, fill, release, then a second lease that hits everything.
func TestLeaseLifecycle(t *testing.T) {
	s := NewStore(1 << 20)
	key := Key{Design: "d1", Vectors: "v1"}

	h := s.Lease(key)
	builds := 0
	prog := h.Program(func() *logic.Compiled { builds++; return tinyProgram(t) })
	if prog == nil || builds != 1 {
		t.Fatalf("first Program: prog=%v builds=%d", prog, builds)
	}
	fills := 0
	tr := h.Trace(4, 8, func(tr *logic.GoodTrace) {
		fills++
		fillZeros(t, tr, 8)
	})
	if tr == nil || fills != 1 {
		t.Fatalf("first Trace: tr=%v fills=%d", tr, fills)
	}
	h.Release()

	h2 := s.Lease(key)
	defer h2.Release()
	if p2 := h2.Program(func() *logic.Compiled { builds++; return nil }); p2 != prog || builds != 1 {
		t.Fatalf("second Program rebuilt (builds=%d)", builds)
	}
	if t2 := h2.Trace(4, 8, func(*logic.GoodTrace) { fills++ }); t2 != tr || fills != 1 {
		t.Fatalf("second Trace refilled (fills=%d)", fills)
	}
	if s.Bytes() <= 0 {
		t.Fatalf("store accounts no bytes after caching")
	}
}

// TestSingleFillOwner: while one leaseholder fills, a concurrent lease
// gets nil (and falls back to a run-local trace) instead of sharing a
// trace that still has a writer.
func TestSingleFillOwner(t *testing.T) {
	s := NewStore(1 << 20)
	key := Key{Design: "d", Vectors: "v"}
	h1, h2 := s.Lease(key), s.Lease(key)
	defer h1.Release()
	defer h2.Release()

	inFill := make(chan struct{})
	finish := make(chan struct{})
	var got2 *logic.GoodTrace
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		h1.Trace(4, 4, func(tr *logic.GoodTrace) {
			close(inFill)
			<-finish
			tr.EnsureCycles(4)
		})
	}()
	go func() {
		defer wg.Done()
		<-inFill
		got2 = h2.Trace(4, 4, func(*logic.GoodTrace) { t.Error("second fill owner") })
		close(finish)
	}()
	wg.Wait()
	if got2 != nil {
		t.Fatalf("concurrent lease got mid-fill trace %v", got2)
	}
}

// TestIncompleteFillNotPublished: a fill that stops short (interrupted
// campaign) keeps its prefix for resumption but is not served as
// complete to later leases.
func TestIncompleteFillNotPublished(t *testing.T) {
	s := NewStore(1 << 20)
	key := Key{Design: "d", Vectors: "v"}
	h := s.Lease(key)
	h.Trace(4, 8, func(tr *logic.GoodTrace) {}) // records nothing
	h.Release()

	h2 := s.Lease(key)
	defer h2.Release()
	resumed := false
	tr := h2.Trace(4, 8, func(tr *logic.GoodTrace) {
		resumed = true
		if tr.ValidThrough() != 0 {
			t.Fatalf("prefix lost: ValidThrough=%d", tr.ValidThrough())
		}
		fillZeros(t, tr, 8)
	})
	if !resumed || tr == nil {
		t.Fatalf("second lease did not resume the fill (resumed=%v tr=%v)", resumed, tr)
	}
}

// TestOversizedTraceNeverCached: a projected trace above budget/4 is
// refused outright so one giant campaign cannot evict everything else.
func TestOversizedTraceNeverCached(t *testing.T) {
	s := NewStore(4096) // budget/4 = 1KiB
	h := s.Lease(Key{Design: "d", Vectors: "v"})
	defer h.Release()
	// 64 nets × 2000 cycles → 16000 bytes projected ≫ 1KiB.
	if tr := h.Trace(64, 2000, func(*logic.GoodTrace) { t.Fatal("fill ran") }); tr != nil {
		t.Fatalf("oversized trace cached: %v", tr)
	}
}

// TestEvictionLRUAndRefs: over budget, the least-recently-leased
// unreferenced entry goes first; leased entries survive even when the
// store is over budget. Each trace here is ~248 bytes (30 cycles × one
// word + frontier) against a 1 KiB budget, so the fifth fill overflows.
func TestEvictionLRUAndRefs(t *testing.T) {
	s := NewStore(1024)
	const cycles = 30
	fill := func(tr *logic.GoodTrace) {
		fillZeros(t, tr, cycles)
	}
	key := func(i int) Key { return Key{Design: string(rune('a' + i)), Vectors: "v"} }

	// e0 is leased for the whole test: oldest, but pinned.
	h0 := s.Lease(key(0))
	if h0.Trace(4, cycles, fill) == nil {
		t.Fatal("fill refused — budget/4 math in the test is off")
	}
	for i := 1; i < 5; i++ {
		h := s.Lease(key(i))
		if h.Trace(4, cycles, fill) == nil {
			t.Fatalf("fill %d refused", i)
		}
		h.Release()
	}
	if _, ok := s.entries[key(0)]; !ok {
		t.Fatal("leased entry evicted despite refs > 0")
	}
	if _, ok := s.entries[key(1)]; ok {
		t.Fatal("least-recently-leased unreferenced entry survived overflow")
	}
	if _, ok := s.entries[key(4)]; !ok {
		t.Fatal("most recent entry evicted")
	}
	if s.Bytes() > s.budget {
		t.Fatalf("store over budget after eviction: %d > %d", s.Bytes(), s.budget)
	}
	h0.Release()
}

// TestHitMissCounters: the sbst_artifact_{hits,misses} counters move
// with lease outcomes.
func TestHitMissCounters(t *testing.T) {
	s := NewStore(1 << 20)
	key := Key{Design: "metrics", Vectors: "v"}
	hits0, misses0 := ctrHits.Load(), ctrMisses.Load()

	h := s.Lease(key)
	h.Trace(4, 1, func(tr *logic.GoodTrace) {
		fillZeros(t, tr, 1)
	})
	h.Release()
	s.Lease(key).Release()

	if d := ctrMisses.Load() - misses0; d < 1 {
		t.Fatalf("miss counter delta %d, want >=1", d)
	}
	if d := ctrHits.Load() - hits0; d < 1 {
		t.Fatalf("hit counter delta %d, want >=1", d)
	}
}
