package logic

import "fmt"

// Bus is an ordered group of nets representing a multi-bit signal,
// least-significant bit first (Bus[0] is bit 0).
type Bus []NetID

// Slice returns bits [lo, hi) as a new Bus.
func (bus Bus) Slice(lo, hi int) Bus { return bus[lo:hi:hi] }

// MSB returns the most-significant bit.
func (bus Bus) MSB() NetID { return bus[len(bus)-1] }

// InputBus declares width named primary inputs name[0..width-1],
// least-significant first.
func (b *Builder) InputBus(name string, width int) Bus {
	bus := make(Bus, width)
	for i := range bus {
		bus[i] = b.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return bus
}

// ConstBus returns a Bus of constant nets encoding value (two's
// complement truncated to width).
func (b *Builder) ConstBus(value uint64, width int) Bus {
	bus := make(Bus, width)
	for i := range bus {
		bus[i] = b.Const(value>>uint(i)&1 == 1)
	}
	return bus
}

// NameBus assigns names name[i] to each bit of the bus.
func (b *Builder) NameBus(bus Bus, name string) {
	for i, id := range bus {
		b.Name(id, fmt.Sprintf("%s[%d]", name, i))
	}
}

// MarkOutputBus declares each bit of bus as a primary output named
// name[i] and returns the alias nets.
func (b *Builder) MarkOutputBus(bus Bus, name string) Bus {
	out := make(Bus, len(bus))
	for i, id := range bus {
		out[i] = b.MarkOutput(id, fmt.Sprintf("%s[%d]", name, i))
	}
	return out
}

// DFFBus inserts a register of DFFs over the bus, named name[i].
func (b *Builder) DFFBus(d Bus, name string) Bus {
	q := make(Bus, len(d))
	for i, id := range d {
		q[i] = b.DFF(id, fmt.Sprintf("%s[%d]", name, i))
	}
	return q
}

// Mux2Bus selects a (sel=0) or bb (sel=1) bit-wise. Widths must match.
func (b *Builder) Mux2Bus(sel NetID, a, bb Bus) Bus {
	if len(a) != len(bb) {
		b.fail("Mux2Bus: width mismatch %d vs %d", len(a), len(bb))
		return nil
	}
	out := make(Bus, len(a))
	for i := range a {
		out[i] = b.Mux2(sel, a[i], bb[i])
	}
	return out
}

// SignExtend widens bus to width by replicating the MSB through buffers.
func (b *Builder) SignExtend(bus Bus, width int) Bus {
	if width < len(bus) {
		b.fail("SignExtend: target width %d narrower than %d", width, len(bus))
		return nil
	}
	out := make(Bus, width)
	copy(out, bus)
	for i := len(bus); i < width; i++ {
		out[i] = bus.MSB()
	}
	return out
}
