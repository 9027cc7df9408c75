package logic

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// bench.go reads the ISCAS-style .bench structural netlist
// format — the lingua franca of the gate-level test-generation
// literature and the import path that lets campaigns run against
// standard benchmark circuits instead of only the generated cores.
//
// The subset understood here (documented in docs/DESIGNS.md):
//
//	# comment                      (to end of line)
//	INPUT(name)                    primary input
//	OUTPUT(name)                   primary output
//	name = AND(a, b, ...)          n-ary: AND OR NAND NOR XOR XNOR
//	name = NOT(a)                  unary: NOT BUFF
//	name = DFF(d)                  D flip-flop, reset state 0
//
// Signal definitions may appear in any order (ISCAS files routinely
// reference a DFF's D input before defining it); sequential feedback is
// legal, combinational loops are an error.

// benchDef is one parsed "name = OP(args...)" line.
type benchDef struct {
	op   string
	args []string
	line int
}

// ReadBench parses a .bench netlist and builds it with the given
// options. Inputs appear in file order (fault-simulation vector bit i
// drives the i-th INPUT line); every defined signal is built, reachable
// from an output or not, so fault lists cover the whole file.
func ReadBench(r io.Reader, opts BuildOptions) (*Netlist, error) {
	inputs, outputs, defs, order, err := parseBench(r)
	if err != nil {
		return nil, err
	}
	if len(inputs) == 0 && len(order) == 0 {
		return nil, fmt.Errorf("logic: bench: empty netlist")
	}

	b := NewBuilder()
	nets := make(map[string]NetID, len(inputs)+len(order))
	outSet := make(map[string]bool, len(outputs))
	for _, o := range outputs {
		outSet[o] = true
	}
	for _, in := range inputs {
		nets[in] = b.Input(in)
	}

	// DFFs first: their Q nets exist before any reader, and a deferred
	// buffer stands in for the D input so sequential feedback (s27's
	// state loop) resolves after the combinational frame is built.
	type pendingD struct {
		ph  NetID
		arg string
		at  int
	}
	var pending []pendingD
	for _, name := range order {
		d := defs[name]
		if !strings.EqualFold(d.op, "DFF") {
			continue
		}
		if len(d.args) != 1 {
			return nil, fmt.Errorf("logic: bench line %d: DFF takes one input, got %d", d.line, len(d.args))
		}
		ph := b.DeferredBuf()
		qName := name
		if outSet[name] {
			// MarkOutput below claims the name for the alias buffer.
			qName = ""
		}
		nets[name] = b.DFF(ph, qName)
		pending = append(pending, pendingD{ph, d.args[0], d.line})
	}

	// Combinational frame: iterative DFS so a pathologically deep chain
	// in a fuzzed file cannot overflow the goroutine stack.
	for _, name := range order {
		if err := buildBenchSignal(b, name, nets, defs, outSet); err != nil {
			return nil, err
		}
	}
	for _, p := range pending {
		id, ok := nets[p.arg]
		if !ok {
			return nil, fmt.Errorf("logic: bench line %d: undefined signal %q", p.at, p.arg)
		}
		b.ResolveBuf(p.ph, id)
	}

	seenOut := make(map[string]bool, len(outputs))
	for _, o := range outputs {
		if seenOut[o] {
			return nil, fmt.Errorf("logic: bench: duplicate OUTPUT(%s)", o)
		}
		seenOut[o] = true
		id, ok := nets[o]
		if !ok {
			return nil, fmt.Errorf("logic: bench: OUTPUT(%s) has no definition", o)
		}
		// The alias buffer takes the bench name; when the source net
		// already holds it (an INPUT fed straight to an OUTPUT), fall
		// back to a suffixed port name rather than failing the build.
		name := o
		for sfx := 0; ; sfx++ {
			if _, taken := b.byName[name]; !taken {
				break
			}
			name = o + "_out"
			if sfx > 0 {
				name = fmt.Sprintf("%s_out_%d", o, sfx)
			}
		}
		b.MarkOutput(id, name)
	}

	n, err := b.Build(opts)
	if err != nil {
		return nil, fmt.Errorf("logic: bench: %w", err)
	}
	return n, nil
}

// parseBench tokenizes the file into input/output lists and signal
// definitions, preserving definition order.
func parseBench(r io.Reader) (inputs, outputs []string, defs map[string]*benchDef, order []string, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	defs = make(map[string]*benchDef)
	seenIn := make(map[string]bool)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		up := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(up, "INPUT") && !strings.Contains(line[:strings.IndexByte(line+"(", '(')], "="):
			name, perr := parseBenchDecl(line, lineNo)
			if perr != nil {
				return nil, nil, nil, nil, perr
			}
			if seenIn[name] {
				return nil, nil, nil, nil, fmt.Errorf("logic: bench line %d: duplicate INPUT(%s)", lineNo, name)
			}
			seenIn[name] = true
			inputs = append(inputs, name)
		case strings.HasPrefix(up, "OUTPUT") && !strings.Contains(line[:strings.IndexByte(line+"(", '(')], "="):
			name, perr := parseBenchDecl(line, lineNo)
			if perr != nil {
				return nil, nil, nil, nil, perr
			}
			outputs = append(outputs, name)
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, nil, nil, nil, fmt.Errorf("logic: bench line %d: expected INPUT/OUTPUT or assignment, got %q", lineNo, line)
			}
			lhs := strings.TrimSpace(line[:eq])
			if lhs == "" {
				return nil, nil, nil, nil, fmt.Errorf("logic: bench line %d: missing signal name", lineNo)
			}
			op, args, perr := parseBenchCall(strings.TrimSpace(line[eq+1:]), lineNo)
			if perr != nil {
				return nil, nil, nil, nil, perr
			}
			if _, dup := defs[lhs]; dup {
				return nil, nil, nil, nil, fmt.Errorf("logic: bench line %d: signal %q redefined", lineNo, lhs)
			}
			if seenIn[lhs] {
				return nil, nil, nil, nil, fmt.Errorf("logic: bench line %d: signal %q is both INPUT and defined", lineNo, lhs)
			}
			defs[lhs] = &benchDef{op: op, args: args, line: lineNo}
			order = append(order, lhs)
		}
	}
	if serr := sc.Err(); serr != nil {
		return nil, nil, nil, nil, fmt.Errorf("logic: bench: %w", serr)
	}
	// A definition after an INPUT of the same name is caught above; an
	// INPUT after the definition is caught here.
	for in := range seenIn {
		if _, dup := defs[in]; dup {
			return nil, nil, nil, nil, fmt.Errorf("logic: bench: signal %q is both INPUT and defined", in)
		}
	}
	return inputs, outputs, defs, order, nil
}

// parseBenchDecl extracts the name from "INPUT(name)" / "OUTPUT(name)".
func parseBenchDecl(line string, lineNo int) (string, error) {
	open := strings.IndexByte(line, '(')
	close := strings.LastIndexByte(line, ')')
	if open < 0 || close < open {
		return "", fmt.Errorf("logic: bench line %d: malformed declaration %q", lineNo, line)
	}
	name := strings.TrimSpace(line[open+1 : close])
	if name == "" || strings.ContainsAny(name, "(), \t") {
		return "", fmt.Errorf("logic: bench line %d: bad signal name %q", lineNo, name)
	}
	return name, nil
}

// parseBenchCall parses "OP(a, b, ...)".
func parseBenchCall(rhs string, lineNo int) (op string, args []string, err error) {
	open := strings.IndexByte(rhs, '(')
	close := strings.LastIndexByte(rhs, ')')
	if open <= 0 || close < open {
		return "", nil, fmt.Errorf("logic: bench line %d: malformed gate %q", lineNo, rhs)
	}
	op = strings.ToUpper(strings.TrimSpace(rhs[:open]))
	switch op {
	case "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF", "BUFF", "DFF":
	default:
		return "", nil, fmt.Errorf("logic: bench line %d: unknown gate type %q", lineNo, op)
	}
	for _, a := range strings.Split(rhs[open+1:close], ",") {
		a = strings.TrimSpace(a)
		if a == "" || strings.ContainsAny(a, "() \t") {
			return "", nil, fmt.Errorf("logic: bench line %d: bad gate input in %q", lineNo, rhs)
		}
		args = append(args, a)
	}
	if len(args) == 0 {
		return "", nil, fmt.Errorf("logic: bench line %d: gate %q has no inputs", lineNo, op)
	}
	return op, args, nil
}

// buildBenchSignal resolves one combinational definition and all of its
// not-yet-built dependencies, depth-first with an explicit stack.
func buildBenchSignal(b *Builder, root string, nets map[string]NetID, defs map[string]*benchDef, outSet map[string]bool) error {
	if _, done := nets[root]; done {
		return nil
	}
	type frame struct {
		name string
		next int
	}
	stack := []frame{{root, 0}}
	inStack := map[string]bool{root: true}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		d := defs[f.name]
		descended := false
		for f.next < len(d.args) {
			a := d.args[f.next]
			if _, ok := nets[a]; ok {
				f.next++
				continue
			}
			if _, ok := defs[a]; !ok {
				return fmt.Errorf("logic: bench line %d: undefined signal %q", d.line, a)
			}
			if inStack[a] {
				return fmt.Errorf("logic: bench line %d: combinational loop through %q", d.line, a)
			}
			stack = append(stack, frame{a, 0})
			inStack[a] = true
			descended = true
			break
		}
		if descended {
			continue
		}
		ins := make([]NetID, len(d.args))
		for i, a := range d.args {
			ins[i] = nets[a]
		}
		id, err := benchGate(b, d, ins)
		if err != nil {
			return err
		}
		if !outSet[f.name] {
			b.Name(id, f.name)
		}
		nets[f.name] = id
		delete(inStack, f.name)
		stack = stack[:len(stack)-1]
	}
	return nil
}

// benchGate instantiates one parsed gate. Single-input forms of the
// n-ary types (legal in some bench dialects) degrade to BUFF/NOT.
func benchGate(b *Builder, d *benchDef, ins []NetID) (NetID, error) {
	unary := func() (NetID, error) {
		if len(ins) != 1 {
			return InvalidNet, fmt.Errorf("logic: bench line %d: %s takes one input, got %d", d.line, d.op, len(ins))
		}
		return ins[0], nil
	}
	switch d.op {
	case "NOT":
		in, err := unary()
		if err != nil {
			return InvalidNet, err
		}
		return b.Not(in), nil
	case "BUF", "BUFF":
		in, err := unary()
		if err != nil {
			return InvalidNet, err
		}
		return b.Buf(in, ""), nil
	case "AND":
		if len(ins) == 1 {
			return b.Buf(ins[0], ""), nil
		}
		return b.And(ins...), nil
	case "OR":
		if len(ins) == 1 {
			return b.Buf(ins[0], ""), nil
		}
		return b.Or(ins...), nil
	case "NAND":
		if len(ins) == 1 {
			return b.Not(ins[0]), nil
		}
		return b.Nand(ins...), nil
	case "NOR":
		if len(ins) == 1 {
			return b.Not(ins[0]), nil
		}
		return b.Nor(ins...), nil
	case "XOR":
		if len(ins) == 1 {
			return b.Buf(ins[0], ""), nil
		}
		return b.Xor(ins...), nil
	case "XNOR":
		if len(ins) == 1 {
			return b.Not(ins[0]), nil
		}
		return b.Xnor(ins...), nil
	}
	return InvalidNet, fmt.Errorf("logic: bench line %d: unknown gate type %q", d.line, d.op)
}
