package selftest

import (
	_ "embed"
	"fmt"
)

// paperSource is the committed self-test program: E4's generator run at
// full scale, in the .loop form ParseProgram reads. Its header names the
// configuration; TestPaperProgramRegenerates holds it to the generator.
//
//go:embed paper.prog
var paperSource string

// PaperProgram returns the paper's self-test program, the one the
// template architecture feeds from memory. Each call parses a fresh
// copy, so a caller may edit its program without touching another's.
func PaperProgram() *Program {
	p, err := ParseProgram(paperSource)
	if err != nil {
		panic(fmt.Sprintf("selftest: committed paper.prog: %v", err))
	}
	return p
}
