package repro

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

type spanEndSink struct{ fields map[string]any }

func (s *spanEndSink) Emit(ev obs.Event) {
	if ev.Type == obs.EventSpanEnd && ev.Name == "faultsim" {
		s.fields = ev.Fields
	}
}

// TestKernelBatchCycles pins how many batch-cycles the dsp campaign
// runs: every one is a cone sweep, and sbst_kernel_cycles_total's one
// mode and the faultsim span report the same count. The count is fixed
// by retirement and by a batch's early exit once all of its lanes are
// done; it pins cost, not results.
func TestKernelBatchCycles(t *testing.T) {
	d, err := designs.Build("dsp")
	if err != nil {
		t.Fatal(err)
	}
	swept := obs.Default().CounterFamily("sbst_kernel_cycles_total", "", "mode").Counter("sweep")
	before := swept.Load()
	sink := &spanEndSink{}
	if _, err := fault.Simulate(d.Netlist, bist.PseudorandomVectors(1024, 1), fault.SimOptions{Faults: d.Faults, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	const want = 9024
	got := swept.Load() - before
	if span, _ := sink.fields["cycles_sweep"].(int64); got != want || span != want {
		t.Errorf("batch-cycles: counter moved %d, span says %v, want %d", got, sink.fields["cycles_sweep"], want)
	}
}

// TestKernelSIMDInfo: the metrics exposition says which stripe runners
// the dense path dispatches to in this process, once, on the flag the
// dispatch itself reads.
func TestKernelSIMDInfo(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("sbst_kernel_simd_info{isa=%q} 1\n", logic.SweepISA())
	if out := buf.String(); !strings.Contains(out, want) || strings.Count(out, "sbst_kernel_simd_info{") != 1 {
		t.Errorf("exposition lacks exactly one %q", want)
	}
}
