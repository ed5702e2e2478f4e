package main

import (
	"fmt"
	"math"
	"time"
)

// The latency-limited capacity: the highest offered rate at which the
// write p99 stays within writeP99Limit and completions keep pace with
// arrivals (achieved within keepPace of offered, no backlog growth).
const (
	writeP99LimitUs = 50_000
	keepPace        = 0.99
	// resolution is the bracket width hi/lo-1 at which the search stops.
	resolution = 0.04
)

// Search step timing: each step settles briefly at its new rate before
// its window is measured, and drains before the next step starts.
const (
	stepSettle  = 200 * time.Millisecond
	stepMeasure = time.Second
	stepWindow  = 250 * time.Millisecond
	stepGrace   = 1500 * time.Millisecond
	satDur      = 500 * time.Millisecond
)

type step struct {
	summary
	Pass bool   `json:"pass"`
	Why  string `json:"why,omitempty"`
}

type capacityResult struct {
	MaxOps float64 `json:"max_ops_s"`
	// Hi is the lowest rate that failed (0 if none did); the result
	// resolves to Hi/MaxOps-1.
	Hi         float64 `json:"lowest_failing_ops_s"`
	Resolution float64 `json:"resolution"`
	Saturation float64 `json:"saturation_ops_s"`
	// Stopped says why the search ended early, if it did.
	Stopped string `json:"stopped,omitempty"`
	// GeneratorBehind is the lowest step rate at which the generator
	// itself fell behind (0 if it never did); the search went no higher.
	GeneratorBehind float64 `json:"generator_behind_ops_s,omitempty"`
	Steps           []step  `json:"steps"`
}

// judge applies the capacity criteria to one step.
func judge(s summary) step {
	st := step{summary: s, Pass: true}
	switch {
	case s.Attempted == 0:
		st.Pass, st.Why = false, "no arrivals"
	case float64(s.Failed) > 0.01*float64(s.Writes+int(s.Failed)):
		// Failed ops count as over any limit; past 1% they alone put
		// the p99 over it.
		st.Pass, st.Why = false, fmt.Sprintf("%d ops failed", s.Failed)
	case s.WriteP99 > writeP99LimitUs:
		st.Pass, st.Why = false, fmt.Sprintf("write p99 %.0f us over limit", s.WriteP99)
	case float64(s.DoneInWindow) < keepPace*float64(s.Attempted):
		st.Pass, st.Why = false, fmt.Sprintf("%d replies for %d arrivals", s.DoneInWindow, s.Attempted)
	case float64(s.Backlog) > (1-keepPace)*float64(s.Attempted):
		st.Pass, st.Why = false, fmt.Sprintf("backlog grew by %d", s.Backlog)
	}
	return st
}

// capacity searches for the latency-limited capacity within budget.
// fixed is the fixed-rate phase; its rate seeds the search if it
// passes. A step where the generator itself fell behind (its own pacing
// lag, which leaves out waits for a window slot, breaks the
// generator-validity limit) counts as failed and caps the search there:
// the benchmark cannot measure past what its generator can drive.
func (e *engine) capacity(budget time.Duration, fixed summary) (capacityResult, error) {
	deadline := time.Now().Add(budget)
	sat := e.summarize(e.saturate(satDur, satDur/3, stepGrace), satDur)
	res := capacityResult{Saturation: sat.Achieved}
	lo, hi := 0.0, 1.1*sat.Achieved
	if judge(fixed).Pass {
		lo = fixed.Rate
	}
	hiTested := false
	for {
		if hi/lo-1 <= resolution && hiTested {
			break
		}
		if time.Until(deadline) < stepSettle+stepMeasure {
			res.Stopped = "time budget spent"
			break
		}
		r := hi
		if hi/lo-1 > resolution {
			r = math.Sqrt(lo * hi)
			if lo == 0 {
				r = hi / 2
			}
		}
		ph, err := e.runPhase(r, stepSettle+stepMeasure, stepSettle, stepGrace)
		if err != nil {
			return res, err
		}
		st := judge(e.summarize(ph, stepWindow))
		if st.Pass && st.PaceLagP50 > st.lagLimit() {
			st.Pass, st.Why = false, fmt.Sprintf("generator fell behind (pacing lag p50 %.1f us)", st.PaceLagP50)
			if res.GeneratorBehind == 0 || r < res.GeneratorBehind {
				res.GeneratorBehind = r
			}
		}
		res.Steps = append(res.Steps, st)
		if st.Pass {
			lo = r
			if r >= hi {
				hi, hiTested = 1.2*r, false
			}
		} else {
			hi, hiTested = r, true
		}
	}
	res.MaxOps, res.Hi = lo, hi
	if lo > 0 && hiTested {
		res.Resolution = hi/lo - 1
	}
	return res, nil
}
