package selftest

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/lfsr"
	"repro/internal/logic"
)

// SignatureOptions configure MISR response compaction.
type SignatureOptions struct {
	// Fault, when non-nil, injects one stuck-at fault into the machine,
	// producing a faulty signature.
	Fault *fault.Fault
	// misrWidth overrides, in tests, the signature register width
	// (default 16).
	misrWidth int
}

// Signature runs the vector stream on the netlist from the reset state
// and compacts the primary-output stream into a MISR signature — the
// paper's Figure-2 response analyzer. In the field, the core passes the
// self-test iff its signature equals the golden one recorded at
// characterization time.
func Signature(n *logic.Netlist, vecs fault.VectorSeq, opts SignatureOptions) (uint64, error) {
	width := opts.misrWidth
	if width == 0 {
		width = 16
	}
	m, err := lfsr.NewMISR(width)
	if err != nil {
		return 0, err
	}
	if len(n.Inputs()) > 64 {
		return 0, fmt.Errorf("selftest: Signature supports up to 64 primary inputs")
	}
	var trace fault.ObservedTrace
	if opts.Fault != nil {
		trace = fault.FaultTrace(n, vecs, *opts.Fault)
	} else {
		trace = fault.ExpectedOutputs(n, vecs)
	}
	for _, word := range trace {
		m.Absorb(word)
	}
	return m.Signature(), nil
}
