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

// TestKernelModeMix pins what the retry back-off is for: on the dsp
// campaign a dense batch's failed event retries are a few percent of its
// sweep cycles (one in nine with a fixed 8-cycle retry), and the
// sbst_kernel_cycles_total family and the faultsim span report the same
// split.
func TestKernelModeMix(t *testing.T) {
	d, err := designs.Build("dsp")
	if err != nil {
		t.Fatal(err)
	}
	fam := obs.Default().CounterFamily("sbst_kernel_cycles_total", "", "mode")
	modes := []string{"event", "sweep", "abandoned"}
	before := map[string]int64{}
	for _, m := range modes {
		before[m] = fam.Counter(m).Load()
	}
	sink := &spanEndSink{}
	if _, err := fault.Simulate(d.Netlist, bist.PseudorandomVectors(1024, 1), fault.SimOptions{Faults: d.Faults, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, m := range modes {
		got[m] = fam.Counter(m).Load() - before[m]
		if span, _ := sink.fields["cycles_"+m].(int64); span != got[m] || got[m] == 0 {
			t.Errorf("mode %s: counter moved %d, span says %v", m, got[m], sink.fields["cycles_"+m])
		}
	}
	dense := got["sweep"] + got["abandoned"]
	if frac := float64(got["abandoned"]) / float64(dense); frac >= 0.05 {
		t.Errorf("%d of %d dense batch-cycles were abandoned event passes (%.1f %%), want < 5 %%",
			got["abandoned"], dense, 100*frac)
	}
	t.Logf("event %d, sweep %d, abandoned %d", got["event"], got["sweep"], got["abandoned"])
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
