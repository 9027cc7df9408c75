package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0 = refused
	}{
		{1000, 99, 990}, // exactly ten beyond
		{999, 99, 0},    // nine beyond
		{200, 95, 190},
		{199, 95, 0},
		{40, 75, 30},
		{39, 75, 0},
		{3, 50, 2}, // the median is never refused
	} {
		got, err := percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples was not refused")
	}
}

func TestTailPicksHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{{1200, 99}, {800, 95}, {150, 90}, {60, 75}, {39, 0}} {
		p, _, ok := tail(seq(c.n))
		if ok != (c.wantP != 0) || p != c.wantP {
			t.Errorf("tail of %d samples = p%g (ok %v), want p%g", c.n, p, ok, c.wantP)
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %g", got)
	}
}
