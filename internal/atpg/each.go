package atpg

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/logic"
)

// Target is one PODEM run of a fault list: the fault and, for a fault
// seen once per unrolled time frame, the other frames' sites (see
// Solver.Generate).
type Target struct {
	Fault fault.Fault
	Extra []logic.NetID
}

// Each runs PODEM on n under opts for every target and hands the
// results to yield, on the caller's goroutine and in target order, as
// they become available. The searches are independent, so they run on
// min(GOMAXPROCS, len(targets)) goroutines, each with a Solver of its
// own that claims the next unclaimed target; a result is the one
// NewSolver(n, opts).Generate would return for the target alone.
//
// yield returning false stops the run. So does a panic in yield or in a
// search, which Each re-raises on the caller's goroutine. Either way no
// search is running when Each returns or re-panics.
func Each(n *logic.Netlist, opts Options, targets []Target, yield func(i int, r Result) bool) {
	type outcome struct {
		i        int
		r        Result
		panicked any
	}
	workers := min(runtime.GOMAXPROCS(0), len(targets))
	// A slot per worker, so no worker waits while the caller is in yield.
	out := make(chan outcome, workers)
	quit := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s *Solver
			for {
				select {
				case <-quit:
					return
				default:
				}
				o := outcome{i: int(next.Add(1) - 1)}
				if o.i >= len(targets) {
					return
				}
				func() {
					defer func() { o.panicked = recover() }()
					if s == nil {
						s = NewSolver(n, opts)
					}
					o.r = s.Generate(targets[o.i].Fault, targets[o.i].Extra...)
				}()
				select {
				case out <- o:
				case <-quit:
					return
				}
				if o.panicked != nil {
					return
				}
			}
		}()
	}
	defer func() {
		close(quit)
		wg.Wait()
	}()

	// Outcomes arrive in completion order; ready holds the ones that
	// came before their turn. A search's panic takes its turn too, so
	// the targets before it are yielded first, as in a serial loop.
	ready := make(map[int]outcome)
	for i := 0; i < len(targets); {
		o := <-out
		ready[o.i] = o
		for o, ok := ready[i]; ok; o, ok = ready[i] {
			delete(ready, i)
			if o.panicked != nil {
				panic(o.panicked)
			}
			if !yield(i, o.r) {
				return
			}
			i++
		}
	}
}
