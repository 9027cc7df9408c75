package logic_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/logic"
)

// randomNetlist builds a sequential netlist of about gates gates: 32
// inputs, 2–4-input gates over earlier nets, every 16th gate's output
// registered, and the last 32 nets marked as outputs.
func randomNetlist(t *testing.T, gates int, seed int64) *logic.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := logic.NewBuilder()
	nets := b.InputBus("in", 32)
	for len(nets) < gates {
		in := make([]logic.NetID, 2+rng.Intn(3))
		for k := range in {
			in[k] = nets[rng.Intn(len(nets))]
		}
		var id logic.NetID
		switch rng.Intn(4) {
		case 0:
			id = b.And(in...)
		case 1:
			id = b.Or(in...)
		case 2:
			id = b.Xor(in...)
		default:
			id = b.Nand(in...)
		}
		if len(nets)%16 == 0 {
			id = b.DFF(id, "")
		}
		nets = append(nets, id)
	}
	b.MarkOutputBus(nets[len(nets)-32:], "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// heapAfterGC returns the live heap once two collections have run.
func heapAfterGC() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestCompiledForFreedWithNetlist holds CompiledFor to the netlist's
// lifetime: compiling 100 netlists of ~4 000 gates and dropping them
// must leave the heap about where one held netlist and its program put
// it, not 100 netlists higher.
func TestCompiledForFreedWithNetlist(t *testing.T) {
	const gates, rounds = 4000, 100
	base := heapAfterGC()
	held := randomNetlist(t, gates, 0)
	logic.CompiledFor(held)
	one := heapAfterGC() - base
	if int64(one) <= 0 {
		t.Fatalf("one compiled netlist measured %d heap bytes", int64(one))
	}
	for i := 1; i <= rounds; i++ {
		logic.CompiledFor(randomNetlist(t, gates, int64(i)))
	}
	grown := int64(heapAfterGC()) - int64(base)
	runtime.KeepAlive(held)
	t.Logf("one netlist with its program: %d B; heap grown after %d dropped: %d B", one, rounds, grown)
	if limit := 4 * int64(one); grown > limit {
		t.Fatalf("heap grew %d B after %d dropped netlists, over %d B (4 × one netlist with its program)",
			grown, rounds, limit)
	}
}

// TestCompiledForConcurrentSharesOne has 8 goroutines ask for a fresh
// netlist's program at once: every one must get the same program.
func TestCompiledForConcurrentSharesOne(t *testing.T) {
	n := randomNetlist(t, 4000, 7)
	const callers = 8
	got := make([]*logic.Compiled, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = logic.CompiledFor(n)
		}()
	}
	start.Done()
	done.Wait()
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("caller %d got program %p, caller 0 got %p", i, c, got[0])
		}
		if c.Netlist() != n {
			t.Fatalf("caller %d got a program for another netlist", i)
		}
	}
	if again := logic.CompiledFor(n); again != got[0] {
		t.Fatalf("a later call got program %p, the concurrent callers %p", again, got[0])
	}
}
