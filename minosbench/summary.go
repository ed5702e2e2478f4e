package main

import (
	"math"
	"slices"
	"time"
)

// summary condenses one phase. Latencies are microseconds.
//
// The latency percentiles that become metrics are windowed: the phase
// is cut into windows of equal length, the percentile is taken in each,
// and the median over the windows is reported. A stall that hits one
// window (a neighbour on the host taking the CPU, say) then moves the
// figure by one window's worth instead of setting the run's tail. The
// percentiles over the whole phase are kept alongside.
type summary struct {
	Rate      float64 `json:"offered_ops_s"`
	Attempted int64   `json:"attempted"`
	Completed int64   `json:"completed"`
	// Failed = shed (window, node, send) + error replies + abandoned +
	// reads that fail the reply check.
	Failed     int64  `json:"failed"`
	ShedWindow int64  `json:"shed_window"`
	ShedNode   int64  `json:"shed_node"`
	ShedSend   int64  `json:"shed_send"`
	Errs       int64  `json:"errs"`
	Abandoned  int64  `json:"abandoned"`
	BadReads   int64  `json:"bad_reads"`
	FirstBad   string `json:"first_bad,omitempty"`
	// Achieved is replies landing in the measured window over its
	// length; Backlog is the growth of ops in flight across it.
	Achieved     float64 `json:"achieved_ops_s"`
	DoneInWindow int64   `json:"replies_in_window"`
	Backlog      int64   `json:"backlog_growth"`

	Windows  int     `json:"windows"`
	WriteP50 float64 `json:"write_p50_us"`
	WriteP99 float64 `json:"write_p99_us"`
	ReadP50  float64 `json:"read_p50_us"`
	ReadP99  float64 `json:"read_p99_us"`

	PhaseWriteP99  float64 `json:"phase_write_p99_us"`
	PhaseWriteP999 float64 `json:"phase_write_p999_us"`
	PhaseReadP99   float64 `json:"phase_read_p99_us"`
	SvcWrP50       float64 `json:"service_write_p50_us"`
	SvcRdP50       float64 `json:"service_read_p50_us"`
	Writes         int     `json:"write_samples"`
	Reads          int     `json:"read_samples"`
	LagP50         float64 `json:"gen_lag_p50_us"`
	LagP99         float64 `json:"gen_lag_p99_us"`
	PaceLagP50     float64 `json:"gen_pace_lag_p50_us"`
	SendP50Ns      float64 `json:"client_send_p50_ns,omitempty"`
}

// summarize merges a drained phase's generator and receiver records,
// windowing the latency percentiles by win.
func (e *engine) summarize(ph *phase, win time.Duration) summary {
	s := summary{
		Rate:       ph.rate,
		Attempted:  ph.attempted,
		ShedWindow: ph.shedWindow,
		ShedSend:   ph.shedSend,
		Backlog:    ph.backlogAtEnd - ph.backlogAtMeasure,
	}
	var wr, rd []lat
	var swr, srd []int64
	for _, c := range e.conns {
		c.mu.Lock()
		st := &ph.rx[c.idx]
		wr = append(wr, st.wr...)
		rd = append(rd, st.rd...)
		swr = append(swr, st.swr...)
		srd = append(srd, st.srd...)
		s.Completed += st.completed
		s.ShedNode += st.shedNode
		s.Errs += st.errs
		s.BadReads += st.badReads
		s.DoneInWindow += st.doneInWindow
		if s.FirstBad == "" {
			s.FirstBad = st.firstBad
		}
		c.mu.Unlock()
	}
	s.Abandoned = s.Attempted - s.Completed - s.ShedWindow - s.ShedSend - s.ShedNode - s.Errs
	s.Failed = s.Attempted - s.Completed + s.BadReads
	if w := float64(ph.endNs - ph.measureNs); w > 0 {
		s.Achieved = float64(s.DoneInWindow) / (w / 1e9)
	}

	bounds := splitWindows(ph.measureNs, ph.endNs, win.Nanoseconds())
	s.Windows = len(bounds) - 1
	s.WriteP50, s.WriteP99 = windowed(wr, bounds, 0.50), windowed(wr, bounds, 0.99)
	s.ReadP50, s.ReadP99 = windowed(rd, bounds, 0.50), windowed(rd, bounds, 0.99)

	wrD, rdD := durations(wr), durations(rd)
	s.Writes, s.Reads = len(wrD), len(rdD)
	s.PhaseWriteP99, s.PhaseWriteP999 = pctUs(wrD, 0.99), pctUs(wrD, 0.999)
	s.PhaseReadP99 = pctUs(rdD, 0.99)
	s.SvcWrP50, s.SvcRdP50 = pctUs(swr, 0.50), pctUs(srd, 0.50)
	s.LagP50, s.LagP99 = pctUs(ph.lag, 0.50), pctUs(ph.lag, 0.99)
	s.PaceLagP50 = pctUs(ph.paceLag, 0.50)
	if len(ph.sendNs) > 0 {
		s.SendP50Ns = pct(ph.sendNs, 0.50)
	}
	return s
}

// failedFrac is Failed over Attempted.
func (s summary) failedFrac() float64 {
	if s.Attempted == 0 {
		return 0
	}
	return float64(s.Failed) / float64(s.Attempted)
}

// lagLimit is the generator-validity bound: the median send lag must
// stay within a tenth of the median write service time.
func (s summary) lagLimit() float64 { return s.SvcWrP50 / 10 }

func (s summary) lagValid() bool { return s.LagP50 <= s.lagLimit() }

// splitWindows returns the boundaries of the windows of width w that
// tile [from, to); a remainder shorter than half a window joins the
// last one.
func splitWindows(from, to, w int64) []int64 {
	b := []int64{from}
	for at := from + w; to-at >= w/2; at += w {
		b = append(b, at)
	}
	return append(b, to)
}

// windowed returns the median over windows of each window's
// q-quantile, in microseconds (0 when there are no samples).
func windowed(xs []lat, bounds []int64, q float64) float64 {
	per := make([][]int64, len(bounds)-1)
	for _, x := range xs {
		i, _ := slices.BinarySearch(bounds, x.at+1)
		i = min(max(i-1, 0), len(per)-1)
		per[i] = append(per[i], x.d)
	}
	var qs []float64
	for _, w := range per {
		if len(w) > 0 {
			qs = append(qs, pctUs(w, q))
		}
	}
	return median(qs)
}

func durations(xs []lat) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = x.d
	}
	return out
}

// pct returns the nearest-rank q-quantile of xs (0 when empty). xs is
// sorted in place.
func pct(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

func pctUs(xs []int64, q float64) float64 { return pct(xs, q) / 1e3 }
