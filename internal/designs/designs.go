// Package designs is the design registry: it turns "which circuit does
// this campaign run against" from a compile-time constant into a
// runtime parameter. A design ID is a short string every process in
// the fleet resolves to the identical built netlist and collapsed
// fault list, so a coordinator and its workers agree on fault indices
// by construction:
//
//	dsp                 the paper's gate-level DSP core (the default)
//	fam/w8r4s1l1p2      a parameterized core-family member (family.go)
//	bench/c432          a bundled ISCAS-style .bench netlist
//	                    (examples/iscas, embedded in the binary)
//
// Build is deterministic and pure — no process-wide state — so callers
// layer their own caching (internal/engine keeps an LRU of built
// designs). Every Design carries a stable content hash of its netlist,
// the anchor for cross-process result caching and provenance.
package designs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/examples/iscas"
	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/logic"
)

// DefaultID names the design jobs get when their spec leaves the
// design field empty: the paper's DSP core.
const DefaultID = "dsp"

// ErrUnknown marks design IDs the registry cannot resolve. The API
// layer maps it to the unknown_design error code (HTTP 422).
var ErrUnknown = errors.New("designs: unknown design")

// Kind discriminates the registry's design sources.
type Kind int

// The design sources.
const (
	KindDSP Kind = iota
	KindFamily
	KindBench
)

// Ref is a parsed, validated design ID — cheap to obtain (no netlist
// is built), canonical in its ID string.
type Ref struct {
	ID     string
	Kind   Kind
	Family FamilyConfig // valid when Kind == KindFamily
	Bench  string       // bundled netlist name when Kind == KindBench
}

// Parse validates a design ID. The empty ID is the default design.
// Unresolvable IDs return an error wrapping ErrUnknown.
func Parse(id string) (Ref, error) {
	switch {
	case id == "" || id == DefaultID:
		return Ref{ID: DefaultID, Kind: KindDSP}, nil
	case strings.HasPrefix(id, "fam/"):
		cfg, err := ParseFamily(strings.TrimPrefix(id, "fam/"))
		if err != nil {
			return Ref{}, fmt.Errorf("%w: %q: %v", ErrUnknown, id, err)
		}
		return Ref{ID: "fam/" + cfg.Slug(), Kind: KindFamily, Family: cfg}, nil
	case strings.HasPrefix(id, "bench/"):
		name := strings.TrimPrefix(id, "bench/")
		if _, ok := iscas.Source(name); !ok {
			return Ref{}, fmt.Errorf("%w: %q (bundled: %s)", ErrUnknown, id, strings.Join(iscas.Names(), ", "))
		}
		return Ref{ID: "bench/" + name, Kind: KindBench, Bench: name}, nil
	}
	return Ref{}, fmt.Errorf("%w: %q (want dsp, fam/<params> or bench/<name>)", ErrUnknown, id)
}

// Validate is Parse for callers that only need the verdict.
func Validate(id string) error {
	_, err := Parse(id)
	return err
}

// Bundled lists the design IDs that name a fixed circuit (the DSP core
// and every embedded .bench netlist) — the /v1/meta designs document.
// Family members are omitted: they are a parameter space, not a list.
func Bundled() []string {
	out := []string{DefaultID}
	for _, n := range iscas.Names() {
		out = append(out, "bench/"+n)
	}
	return out
}

// Design is a built, simulation-ready circuit: the levelized netlist,
// its collapsed stuck-at fault list (the same extraction every
// campaign uses), and a stable content hash.
type Design struct {
	// ID is the canonical design ID (Parse's Ref.ID).
	ID string
	// Hash is the content hash of the built netlist — equal across
	// processes and builds for the same ID.
	Hash string
	// Netlist is the built circuit, fanout branches inserted for
	// pin-accurate fault sites.
	Netlist *logic.Netlist
	// Faults is the collapsed stuck-at fault list over Netlist.
	Faults []fault.Fault
	// Core is the full DSP fixture (buses, component regions) for the
	// dsp design; nil for every other design.
	Core *dspgate.Core
}

// InstructionDriven reports whether the design's primary inputs form
// the DSP instruction port — the designs that can run program and
// selftest stimulus. Everything else is driven by raw vectors only.
func (d *Design) InstructionDriven() bool { return d.Core != nil }

// SizeBytes estimates the built design's resident size — the netlist
// plus the collapsed fault list — for the engine's byte-budgeted
// design cache.
func (d *Design) SizeBytes() int64 {
	return d.Netlist.SizeBytes() + int64(len(d.Faults))*8
}

// Build resolves a design ID to a built Design. Deterministic: the
// same ID yields the same netlist, fault list and hash in every
// process.
func Build(id string) (*Design, error) {
	ref, err := Parse(id)
	if err != nil {
		return nil, err
	}
	d := &Design{ID: ref.ID}
	switch ref.Kind {
	case KindDSP:
		core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
		if err != nil {
			return nil, err
		}
		d.Core = core
		d.Netlist = core.Netlist
	case KindFamily:
		n, err := BuildFamily(ref.Family)
		if err != nil {
			return nil, err
		}
		d.Netlist = n
	case KindBench:
		src, _ := iscas.Source(ref.Bench)
		n, err := logic.ReadBench(strings.NewReader(src), logic.BuildOptions{InsertFanoutBranches: true})
		if err != nil {
			return nil, fmt.Errorf("designs: bench/%s: %w", ref.Bench, err)
		}
		d.Netlist = n
	}
	d.Faults, _ = fault.Collapse(d.Netlist, fault.AllFaults(d.Netlist))
	d.Hash = HashNetlist(d.Netlist)
	return d, nil
}

// HashNetlist computes a stable content hash of a netlist's structure:
// gate kinds and connectivity, port order, and net names (names are
// deterministic per design and feed exported formats, so they are part
// of identity). Two builds of the same design ID hash identically in
// any process.
func HashNetlist(n *logic.Netlist) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(n.NumNets()))
	for id := 0; id < n.NumNets(); id++ {
		g := n.Gate(logic.NetID(id))
		word(uint64(g.Kind))
		word(uint64(len(g.In)))
		for _, in := range g.In {
			word(uint64(in))
		}
		name := n.NameOf(logic.NetID(id))
		word(uint64(len(name)))
		h.Write([]byte(name))
	}
	ports := func(ids []logic.NetID) {
		word(uint64(len(ids)))
		for _, id := range ids {
			word(uint64(id))
		}
	}
	ports(n.Inputs())
	ports(n.Outputs())
	ports(n.DFFs())
	regions := append([]string(nil), n.Regions()...)
	sort.Strings(regions)
	for _, r := range regions {
		h.Write([]byte(r))
		ports(n.RegionNets(r))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
