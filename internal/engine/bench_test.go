package engine

import (
	"testing"

	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/obs"
)

// benchVectors sizes the Table-1-scale pseudorandom campaign on the
// gate-level DSP core: the full collapsed fault list against 8192 LFSR
// vectors, on the default (compiled) kernel — the op bench/'s
// kernel_table1 workload times, kept here for use under go test:
//
//	go test -bench SimulateSerial -benchtime 3x ./internal/engine
const benchVectors = 8192

func benchSimulate(b *testing.B, shadowSample float64) {
	d, err := GetDesign(designs.DefaultID)
	if err != nil {
		b.Fatal(err)
	}
	core, faults := d.Core, d.Faults
	vecs := bist.PseudorandomVectors(benchVectors, 1)
	evals := obs.Default().Counter("faultsim.gate_evals")
	evals0 := evals.Load()
	b.ResetTimer()
	var cov float64
	for i := 0; i < b.N; i++ {
		res, err := Simulate(core.Netlist, vecs, SimOptions{
			SimOptions: fault.SimOptions{Faults: faults, ShadowSample: shadowSample},
		})
		if err != nil {
			b.Fatal(err)
		}
		cov = res.Coverage()
	}
	b.ReportMetric(cov*100, "coverage%")
	// Default options auto-pick the stripe width; label the result with
	// the width that actually ran (8 on the full fault list).
	b.ReportMetric(float64(fault.EffectiveLaneWords(fault.SimOptions{}, len(faults))), "lane-words")
	b.ReportMetric(float64(benchVectors)*float64(b.N)/b.Elapsed().Seconds(), "vectors/s")
	// Gate evaluations per applied vector cycle, from the obs counter
	// delta over the timed runs (compiled instructions; sweeping only each
	// batch's cone is the compiled kernel's whole point).
	b.ReportMetric(float64(evals.Load()-evals0)/(float64(benchVectors)*float64(b.N)), "gate-evals/cycle")
}

// BenchmarkSimulateSerial times the op with the default window audit
// and with the audit off; their difference is what the guard costs.
func BenchmarkSimulateSerial(b *testing.B) {
	b.Run("audit=default", func(b *testing.B) { benchSimulate(b, 0) })
	b.Run("audit=off", func(b *testing.B) { benchSimulate(b, -1) })
}

// BenchmarkMetricsOverhead measures what the metric instrumentation on
// the compiled-kernel hot path costs: the same serial workload with the
// registry armed (default) versus disarmed via obs.SetArmed, which
// turns every Counter.Add and Histogram.Observe into a load-and-skip.
// The acceptance bar is ≤ 1% wall-clock difference — the per-segment
// counter adds must stay invisible next to the per-vector simulation
// work. Compare:
//
//	go test -bench MetricsOverhead -benchtime 3x ./internal/engine
func BenchmarkMetricsOverhead(b *testing.B) {
	b.Run("armed", func(b *testing.B) {
		obs.SetArmed(true)
		benchSimulate(b, 0)
	})
	b.Run("disarmed", func(b *testing.B) {
		obs.SetArmed(false)
		defer obs.SetArmed(true)
		benchSimulate(b, 0)
	})
}
