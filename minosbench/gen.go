package main

import (
	"math"

	"github.com/minos-ddp/minos/internal/workload"
)

// splitmix64 is the generator's PRNG: tiny state and reproducible from
// a seed with no global locking.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (s *splitmix64) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// subSeed derives an independent stream seed from the run seed.
func subSeed(seed int64, stream uint64) uint64 {
	s := splitmix64{state: uint64(seed) ^ stream*0xD1B54A32D192ED03}
	return s.next()
}

// arrivals is a seeded Poisson process: nanosecond offsets from the
// start of a phase with exponential gaps of mean 1/rate.
type arrivals struct {
	rng     splitmix64
	meanGap float64
	at      float64
}

func newArrivals(rate float64, seed uint64) *arrivals {
	return &arrivals{rng: splitmix64{state: seed}, meanGap: 1e9 / rate}
}

func (a *arrivals) next() int64 {
	a.at += -math.Log(1-a.rng.float64()) * a.meanGap
	return int64(a.at)
}

// op is one generated client operation.
type op struct {
	write  bool
	key    uint64
	client uint32 // logical client; picks the connection and home node
}

// opStream draws the operation sequence: kind and key from the
// workload mix, and the logical client that issues it.
type opStream struct {
	gen  *workload.Generator
	pick splitmix64
}

func newOpStream(w spec, seed int64) *opStream {
	return &opStream{
		gen:  workload.NewGenerator(w.workload(), int64(subSeed(seed, 1))),
		pick: splitmix64{state: subSeed(seed, 2)},
	}
}

func (s *opStream) next() op {
	o := s.gen.Next()
	return op{
		write:  o.Kind != workload.OpRead,
		key:    o.Key,
		client: uint32(s.pick.next() % clients),
	}
}
