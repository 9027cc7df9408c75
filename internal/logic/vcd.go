package logic

import (
	"fmt"
	"io"
	"sort"
)

// VCDWriter streams a simulation as a Value Change Dump file viewable in
// any waveform viewer — the debugging companion every RTL flow has.
// Attach it to a CompiledSim by sampling lane 0 after each Settle.
type VCDWriter struct {
	w       io.Writer
	n       *Netlist
	watched []NetID
	codes   []string
	last    []int8 // -1 unknown, 0, 1
	time    int64
	header  bool
	err     error
}

// NewVCDWriter watches the given nets (nil = all named nets plus ports).
func NewVCDWriter(w io.Writer, n *Netlist, watch []NetID) *VCDWriter {
	if watch == nil {
		seen := map[NetID]bool{}
		add := func(id NetID) {
			if !seen[id] {
				seen[id] = true
				watch = append(watch, id)
			}
		}
		for _, id := range n.Inputs() {
			add(id)
		}
		for _, id := range n.Outputs() {
			add(id)
		}
		for id := 0; id < n.NumNets(); id++ {
			switch n.Gate(NetID(id)).Kind {
			case GateConst0, GateConst1:
				continue // constants never change; skip the noise
			}
			if n.NameOf(NetID(id)) != "" {
				add(NetID(id))
			}
		}
		sort.Slice(watch, func(i, j int) bool { return watch[i] < watch[j] })
	}
	v := &VCDWriter{w: w, n: n, watched: watch}
	v.codes = make([]string, len(watch))
	v.last = make([]int8, len(watch))
	for i := range v.last {
		v.last[i] = -1
		v.codes[i] = vcdCode(i)
	}
	return v
}

// vcdCode assigns compact printable identifier codes.
func vcdCode(i int) string {
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~"
	code := ""
	for {
		code = string(alphabet[i%len(alphabet)]) + code
		i = i/len(alphabet) - 1
		if i < 0 {
			break
		}
	}
	return code
}

// printf writes one formatted line unless an earlier write failed, and
// keeps the first error for Err.
func (v *VCDWriter) printf(format string, args ...any) {
	if v.err == nil {
		_, v.err = fmt.Fprintf(v.w, format, args...)
	}
}

func (v *VCDWriter) writeHeader() {
	v.printf("$timescale 1ns $end\n$scope module %s $end\n", "netlist")
	for i, id := range v.watched {
		name := v.n.NameOf(id)
		if name == "" {
			name = fmt.Sprintf("n%d", id)
		}
		v.printf("$var wire 1 %s %s $end\n", v.codes[i], vcdSanitize(name))
	}
	v.printf("$upscope $end\n$enddefinitions $end\n")
	v.header = true
}

func vcdSanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ' || c == '$':
			out = append(out, '_')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// Sample records lane 0 of the simulator's settled frame at one
// timestamp (call once per clock cycle, after Settle).
func (v *VCDWriter) Sample(s *CompiledSim) {
	if v.err != nil {
		return
	}
	if !v.header {
		v.writeHeader()
	}
	wroteTime := false
	for i, id := range v.watched {
		val := int8(s.Word(id) & 1)
		if val == v.last[i] {
			continue
		}
		if !wroteTime {
			v.printf("#%d\n", v.time)
			wroteTime = true
		}
		v.printf("%d%s\n", val, v.codes[i])
		v.last[i] = val
	}
	v.time += 10
}

// Err reports the first write error, if any.
func (v *VCDWriter) Err() error { return v.err }
