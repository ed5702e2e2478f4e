// Package obs is the repo's unified observability layer: one metrics
// model (counters, gauges, fixed-bucket histograms collected into a
// stable, JSON-serializable Snapshot) and one per-transaction trace
// recorder whose span taxonomy mirrors the paper's write-transaction
// phases (Fig 2 / Fig 4).
//
// Every layer — transports, the simulation kernel, the node, the NVM
// pipeline, the offload engine and the tracer — reports itself through
// the single Source interface below, so "where did the microseconds
// go" has exactly one answer shape at every layer: a Snapshot.
//
// Design constraints, in order:
//
//  1. Hot paths pay (almost) nothing. Counters are striped atomics
//     (no locks, no false sharing under concurrent writers),
//     histograms are power-of-two fixed-bucket atomics, and the trace
//     recorder is a preallocated ring of fixed-size span records. A
//     nil *Tracer disables tracing for the cost of one pointer check.
//  2. Snapshots are stable. Collect output is sorted by instrument
//     name and duplicate names merge deterministically, so two
//     snapshots of a quiet system are byte-identical JSON — the
//     property the determinism tests pin.
//  3. No dependencies. The package imports only the standard library,
//     so every layer (including the deterministic simulation kernel)
//     can implement Source without import cycles.
package obs

import (
	"fmt"
	"sort"
)

// Source is anything that can contribute instruments to a Snapshot.
type Source interface {
	// Describe returns the source's stable dotted name prefix (for
	// example "transport" or "nvm.pipeline"). Every instrument the
	// source emits is named under this prefix, so snapshots from many
	// sources merge without collisions between layers.
	Describe() string
	// Collect appends the source's current instrument values to s.
	// Implementations must emit instruments in a deterministic order
	// and must not retain s.
	Collect(s *Snapshot)
}

// Collect gathers every non-nil source into one compacted snapshot.
// Duplicate instrument names (for example five nodes each emitting
// "node.writes") merge by summation, making this the one-call way to
// aggregate a cluster.
func Collect(sources ...Source) *Snapshot {
	s := &Snapshot{}
	for _, src := range sources {
		if src != nil {
			src.Collect(s)
		}
	}
	s.Compact()
	return s
}

// CounterPoint is one counter's value in a snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugePoint is one gauge's value in a snapshot.
type GaugePoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketPoint is one non-empty histogram bucket: Count observations
// with value <= LE (bucket upper bounds are fixed powers of two).
type BucketPoint struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramPoint is one histogram's state in a snapshot.
type HistogramPoint struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketPoint `json:"buckets,omitempty"`
}

// Mean returns the average observed value.
func (h HistogramPoint) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the q-th quantile (q in [0,1]) from the bucket
// counts, interpolating linearly inside the containing bucket between
// the canonical layout's lower and upper bounds. With the log-linear
// layout the relative error is bounded by the sub-bucket width (~12.5%
// of the value), which is what lets BENCH writers report p999/p9999
// from merged cluster snapshots instead of retaining raw samples.
func (h HistogramPoint) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for _, b := range h.Buckets {
		prev := cum
		cum += float64(b.Count)
		if cum >= rank {
			lo := float64(bucketLowerBound(b.LE))
			hi := float64(b.LE)
			frac := (rank - prev) / float64(b.Count)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
	}
	return float64(h.Buckets[len(h.Buckets)-1].LE)
}

// Snapshot is the stable, JSON-serializable tree every Source collects
// into. The zero value is ready to use. Call Compact before comparing
// or serializing a snapshot assembled from multiple sources.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// AddCounter appends one counter value.
func (s *Snapshot) AddCounter(name string, v int64) {
	s.Counters = append(s.Counters, CounterPoint{Name: name, Value: v})
}

// AddGauge appends one gauge value.
func (s *Snapshot) AddGauge(name string, v int64) {
	s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: v})
}

// AddHistogram appends one histogram state.
func (s *Snapshot) AddHistogram(h HistogramPoint) {
	s.Histograms = append(s.Histograms, h)
}

// Compact sorts every instrument class by name and merges duplicates:
// counter and gauge values sum, histograms merge count, sum, and
// buckets. After Compact the snapshot is canonical — two snapshots
// holding the same values serialize to identical bytes regardless of
// collection order.
func (s *Snapshot) Compact() {
	sort.SliceStable(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	out := s.Counters[:0]
	for _, c := range s.Counters {
		if n := len(out); n > 0 && out[n-1].Name == c.Name {
			out[n-1].Value += c.Value
		} else {
			out = append(out, c)
		}
	}
	s.Counters = out

	sort.SliceStable(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	og := s.Gauges[:0]
	for _, g := range s.Gauges {
		if n := len(og); n > 0 && og[n-1].Name == g.Name {
			og[n-1].Value += g.Value
		} else {
			og = append(og, g)
		}
	}
	s.Gauges = og

	sort.SliceStable(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	oh := s.Histograms[:0]
	for _, h := range s.Histograms {
		if n := len(oh); n > 0 && oh[n-1].Name == h.Name {
			oh[n-1] = mergeHistograms(oh[n-1], h)
		} else {
			oh = append(oh, h)
		}
	}
	s.Histograms = oh
}

// mergeHistograms folds b into a; both bucket lists are sorted by LE
// (Histogram.Collect emits them that way).
func mergeHistograms(a, b HistogramPoint) HistogramPoint {
	a.Count += b.Count
	a.Sum += b.Sum
	merged := make([]BucketPoint, 0, len(a.Buckets)+len(b.Buckets))
	i, j := 0, 0
	for i < len(a.Buckets) && j < len(b.Buckets) {
		switch {
		case a.Buckets[i].LE == b.Buckets[j].LE:
			merged = append(merged, BucketPoint{LE: a.Buckets[i].LE, Count: a.Buckets[i].Count + b.Buckets[j].Count})
			i++
			j++
		case a.Buckets[i].LE < b.Buckets[j].LE:
			merged = append(merged, a.Buckets[i])
			i++
		default:
			merged = append(merged, b.Buckets[j])
			j++
		}
	}
	merged = append(merged, a.Buckets[i:]...)
	merged = append(merged, b.Buckets[j:]...)
	a.Buckets = merged
	return a
}

// Counter returns the named counter's value, or 0 when absent.
func (s *Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// GaugeValue returns the named gauge's value, or 0 when absent.
func (s *Snapshot) GaugeValue(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram, or a zero HistogramPoint when
// absent.
func (s *Snapshot) Histogram(name string) HistogramPoint {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h
		}
	}
	return HistogramPoint{Name: name}
}

// Ratio returns counter a divided by counter b, or 0 when b is 0 — the
// snapshot analogue of derived metrics like frames-per-batch.
func (s *Snapshot) Ratio(a, b string) float64 {
	bv := s.Counter(b)
	if bv == 0 {
		return 0
	}
	return float64(s.Counter(a)) / float64(bv)
}

func (s *Snapshot) String() string {
	return fmt.Sprintf("obs.Snapshot{%d counters, %d gauges, %d histograms}",
		len(s.Counters), len(s.Gauges), len(s.Histograms))
}
