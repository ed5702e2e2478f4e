package main

import (
	"math"
	"slices"
	"testing"
)

// draw returns the first n arrivals and ops a run with seed would
// issue in its first phase.
func draw(w spec, seed int64, n int) ([]int64, []op) {
	arr := newArrivals(w.Rate, subSeed(seed, 100+1))
	ops := newOpStream(w, seed)
	at := make([]int64, n)
	os := make([]op, n)
	for i := range at {
		at[i] = arr.next()
		os[i] = ops.next()
	}
	return at, os
}

func TestSeedFixesArrivalsAndOps(t *testing.T) {
	for _, w := range workloads {
		a1, o1 := draw(w, 7, 5000)
		a2, o2 := draw(w, 7, 5000)
		if !slices.Equal(a1, a2) || !slices.Equal(o1, o2) {
			t.Fatalf("%s: seed 7 gave two different sequences", w.Name)
		}
		a3, o3 := draw(w, 8, 5000)
		if slices.Equal(a1, a3) || slices.Equal(o1, o3) {
			t.Fatalf("%s: seeds 7 and 8 gave the same sequence", w.Name)
		}
		if !slices.IsSorted(a1) {
			t.Fatalf("%s: arrivals go backwards", w.Name)
		}
		meanGap := float64(a1[len(a1)-1]) / float64(len(a1))
		if want := 1e9 / w.Rate; math.Abs(meanGap-want) > 0.05*want {
			t.Errorf("%s: mean gap %.0f ns, want %.0f", w.Name, meanGap, want)
		}
		writes := 0
		for _, o := range o1 {
			if o.write {
				writes++
			}
			if o.key >= records || o.client >= clients {
				t.Fatalf("%s: op out of range: %+v", w.Name, o)
			}
		}
		if got := float64(writes) / float64(len(o1)); math.Abs(got-w.WriteRatio) > 0.03 {
			t.Errorf("%s: write share %.3f, want %.2f", w.Name, got, w.WriteRatio)
		}
	}
}
