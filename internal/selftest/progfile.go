package selftest

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// ParseProgram parses a program file: optional ".once" and ".loop"
// section directives followed by one instruction per line, "//"
// comments allowed. Plain assembler with no directives is accepted and
// treated as a loop body.
func ParseProgram(src string) (*Program, error) {
	p := &Program{}
	section := &p.Loop
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch strings.ToLower(line) {
		case ".once":
			section = &p.Once
			continue
		case ".loop":
			section = &p.Loop
			continue
		}
		if strings.HasPrefix(line, ".") {
			return nil, fmt.Errorf("line %d: unknown directive %q", ln+1, line)
		}
		in, err := isa.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		if i := strings.Index(raw, "//"); i >= 0 {
			in.Comment = strings.TrimSpace(raw[i+2:])
		}
		*section = append(*section, in)
	}
	if len(p.Loop) == 0 {
		return nil, fmt.Errorf("selftest: program has no loop body")
	}
	return p, nil
}
