package engine

import (
	"testing"

	"repro/internal/artifacts"
	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

// TestArtifactTraceBytesFollowRowWidth: a cold dsp × 8 192 job accounts
// its shared trace at the fill program's row width (TraceBits bits a
// cycle, about 2.1 MB), not at a bit per net (about 5.9 MB), and the
// sbst_artifact_bytes gauge reports what the store holds.
func TestArtifactTraceBytesFollowRowWidth(t *testing.T) {
	d, err := designs.Build("dsp")
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 8192
	vecs := bist.PseudorandomVectors(cycles, 1)
	store := artifacts.NewStore(0)
	if _, err := Simulate(d.Netlist, vecs, SimOptions{
		SimOptions: fault.SimOptions{Faults: d.Faults[:64]},
		Workers:    1,
		DesignHash: d.Hash,
		Artifacts:  store,
	}); err != nil {
		t.Fatal(err)
	}
	prog := logic.CompiledFor(d.Netlist)
	rowWords := (prog.TraceBits() + 63) / 64
	frontierWords := (len(d.Netlist.DFFs()) + 63) / 64
	want := int64(cycles*rowWords+frontierWords) * 8
	if got := store.Bytes() - prog.SizeBytes(); got != want {
		t.Fatalf("trace accounts %d bytes, want %d (%d cycles × %d words + frontier)", got, want, cycles, rowWords)
	}
	if netWide := int64(cycles*((prog.Netlist().NumNets()+63)/64)) * 8; want*2 > netWide {
		t.Fatalf("a %d-bit row is not under half a net-wide one (%d of %d bytes)", prog.TraceBits(), want, netWide)
	}
	gauge := obs.Default().GaugeFamily("sbst.artifact_bytes", "").Gauge()
	if got := gauge.Load(); got != float64(store.Bytes()) {
		t.Fatalf("sbst_artifact_bytes reads %v, store holds %d", got, store.Bytes())
	}
}
