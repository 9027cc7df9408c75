package logic

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func TestVCDWriter(t *testing.T) {
	b := NewBuilder()
	din := b.Input("din")
	q := b.DFF(din, "q")
	b.MarkOutput(q, "out")
	n, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	v := NewVCDWriter(&sb, n, nil)
	s := NewCompiledSim(Compile(n))
	for _, bit := range []bool{true, false, true, true} {
		s.SetInput(din, bit)
		s.Settle()
		v.Sample(s)
		s.ClockAfterSettle()
	}
	if v.Err() != nil {
		t.Fatal(v.Err())
	}
	dump := sb.String()
	for _, want := range []string{
		"$timescale", "$var wire 1", "din", "$enddefinitions", "#0", "#10",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("vcd missing %q:\n%s", want, dump)
		}
	}
	// Value changes only on transitions: din toggles 1,0,1,1 → three
	// change records for din.
	if got := strings.Count(dump, "\n1!"); got == 0 {
		t.Error("no value-change records emitted")
	}
}

func TestVCDCodes(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		c := vcdCode(i)
		if c == "" || seen[c] {
			t.Fatalf("code collision or empty at %d: %q", i, c)
		}
		seen[c] = true
	}
}

// failAt is a writer whose nth Write, counting from 1, fails; n = 0
// never fails.
type failAt struct{ n, writes int }

func (w *failAt) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == w.n {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestVCDWriterKeepsWriteErrors fails the dump's writer at each of its
// writes in turn, header and value lines included: every truncated dump
// must report the failure through Err.
func TestVCDWriterKeepsWriteErrors(t *testing.T) {
	b := NewBuilder()
	din := b.Input("din")
	q := b.DFF(din, "q")
	b.MarkOutput(q, "out")
	n, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dump := func(w io.Writer) *VCDWriter {
		v := NewVCDWriter(w, n, nil)
		s := NewCompiledSim(Compile(n))
		for _, bit := range []bool{true, false, true, true} {
			s.SetInput(din, bit)
			s.Settle()
			v.Sample(s)
			s.ClockAfterSettle()
		}
		return v
	}
	all := &failAt{}
	if err := dump(all).Err(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= all.writes; i++ {
		if dump(&failAt{n: i}).Err() == nil {
			t.Errorf("write %d of %d failed, Err is nil", i, all.writes)
		}
	}
}
