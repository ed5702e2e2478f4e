// Package livebench drives the live MINOS-B runtime (internal/node, real
// goroutines over the in-process fabric) with the YCSB-style workload
// and measures client-observed latency and throughput — the counterpart
// of the paper's §IV, where MINOS-B is measured on a real 5-node
// cluster before any simulation. The emulated NVM persist delay plays
// Table II's 1295 ns/KB role.
//
// livebench is the *closed-loop* harness: N workers per node issue
// requests back-to-back, so it measures service time under a fixed
// concurrency — the right tool for microbenchmark-style comparisons
// between code paths. For offered-load throughput/latency curves (and
// any latency number quoted under overload) use internal/loadgen, the
// open-loop engine whose accounting is coordinated-omission-safe.
// Both harnesses share the same cluster bring-up (loadgen.StartCluster)
// and the same Cluster/Observe/Offload config groups.
package livebench

import (
	"fmt"
	"sync"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/stats"
	"github.com/minos-ddp/minos/internal/workload"
)

// Load groups the closed-loop knobs: how many workers hammer each node
// and for how many requests.
type Load struct {
	// WorkersPerNode is the number of concurrent client goroutines per
	// node (default 5, the paper's busy cores).
	WorkersPerNode int
	// RequestsPerNode is the closed-loop request count per node
	// (default 2000).
	RequestsPerNode int
	// Workload is the request mix (default: the paper's default with
	// 128-byte values).
	Workload workload.Config
	// PreloadRecords, when positive, pre-populates every node's store
	// with that many records before the clock starts, so read-mostly
	// mixes measure real value copies instead of not-found lookups.
	PreloadRecords int
	// Seed fixes the workload streams.
	Seed int64
}

// Config describes one closed-loop run. Cluster, Observe and Offload
// are the same groups the open-loop engine uses — one cluster
// definition, two ways to drive it.
type Config struct {
	Cluster loadgen.Cluster
	Load    Load
	Observe loadgen.Observe
	Offload loadgen.Offload
}

func (c Config) withDefaults() Config {
	if c.Load.WorkersPerNode <= 0 {
		c.Load.WorkersPerNode = 5
	}
	if c.Load.RequestsPerNode <= 0 {
		c.Load.RequestsPerNode = 2000
	}
	if c.Load.Workload.Records == 0 {
		c.Load.Workload = workload.Default()
		// Live clusters move real bytes; smaller values keep runs brisk
		// without changing protocol behavior.
		c.Load.Workload.ValueSize = 128
	}
	return c
}

// Result carries the measurements of one live run.
type Result struct {
	Model    ddp.Model
	WriteLat stats.Sampler // ns
	ReadLat  stats.Sampler // ns
	Elapsed  time.Duration
	Ops      int
	// Obs is the unified observability snapshot aggregated across the
	// cluster: every node's protocol counters and NVM pipeline plus
	// every endpoint's wire counters, merged (summed) into one tree.
	Obs *obs.Snapshot
	// Spans holds the trace spans recorded when Observe.Trace was set,
	// concatenated across nodes — the input minos-trace replays.
	Spans []obs.Span
}

// Throughput returns completed operations per wall-clock second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// WriteReport summarizes the write latencies in the repo's one
// percentile-report shape (every BENCH_*.json writer emits it).
func (r *Result) WriteReport() stats.Report { return stats.ReportFromSampler(&r.WriteLat) }

// ReadReport is WriteReport for the read latencies.
func (r *Result) ReadReport() stats.Report { return stats.ReportFromSampler(&r.ReadLat) }

func (r *Result) String() string {
	s := fmt.Sprintf("%v: wr avg %s p99 %s | rd avg %s p99 %s | %.0f op/s",
		r.Model,
		stats.Ns(r.WriteLat.Mean()), stats.Ns(r.WriteLat.Percentile(99)),
		stats.Ns(r.ReadLat.Mean()), stats.Ns(r.ReadLat.Percentile(99)),
		r.Throughput())
	if r.Obs != nil && r.Obs.Counter("transport.frames_sent") > 0 {
		s += fmt.Sprintf(" | %d frames, %.1f frames/batch, %d bcast",
			r.Obs.Counter("transport.frames_sent"),
			r.Obs.Ratio("transport.frames_sent", "transport.batches_sent"),
			r.Obs.Counter("transport.broadcasts"))
	}
	return s
}

// Run executes the configured workload on a live in-process cluster and
// returns the measurements.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	lc, err := loadgen.StartCluster(cfg.Cluster, cfg.Observe, cfg.Offload, 0)
	if err != nil {
		return nil, err
	}
	defer lc.Close()
	nodes := lc.Nodes

	res := &Result{Model: cfg.Cluster.Model}
	value := make([]byte, cfg.Load.Workload.ValueSize)
	if cfg.Load.PreloadRecords > 0 {
		// Replicas start identical: the preload writes every node's
		// local store directly, off the protocol (and off the clock).
		for _, nd := range nodes {
			nd.Store().Preload(cfg.Load.PreloadRecords, value)
		}
	}
	var mu sync.Mutex
	var firstErr error
	record := func(isWrite bool, d time.Duration) {
		mu.Lock()
		if isWrite {
			res.WriteLat.Add(float64(d.Nanoseconds()))
		} else {
			res.ReadLat.Add(float64(d.Nanoseconds()))
		}
		res.Ops++
		mu.Unlock()
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Build every worker's generator before starting the clock:
	// generator construction is O(records) (the zipfian zeta sum), and
	// charging it to the measured window skewed multi-worker runs.
	workers := cfg.Load.WorkersPerNode
	gens := make([]*workload.Generator, 0, len(nodes)*workers)
	for ni := range nodes {
		for w := 0; w < workers; w++ {
			gens = append(gens, workload.NewGenerator(cfg.Load.Workload, cfg.Load.Seed+int64(ni)*1009+int64(w)*7919))
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	for ni, nd := range nodes {
		per := cfg.Load.RequestsPerNode / workers
		for w := 0; w < workers; w++ {
			nd := nd
			count := per
			if w == workers-1 {
				count = cfg.Load.RequestsPerNode - per*(workers-1)
			}
			gen := gens[ni*workers+w]
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := nd.NewScope()
				scOpen := false
				for i := 0; i < count; i++ {
					op := gen.Next()
					opStart := time.Now()
					switch op.Kind {
					case workload.OpRead:
						if _, err := nd.Read(ddp.Key(op.Key)); err != nil {
							fail(err)
							return
						}
						record(false, time.Since(opStart))
					case workload.OpWrite, workload.OpReadModifyWrite:
						if op.Kind == workload.OpReadModifyWrite {
							if _, err := nd.Read(ddp.Key(op.Key)); err != nil {
								fail(err)
								return
							}
						}
						var err error
						if cfg.Cluster.Model == ddp.LinScope {
							err = nd.WriteScoped(ddp.Key(op.Key), value, sc)
							scOpen = true
						} else {
							err = nd.Write(ddp.Key(op.Key), value)
						}
						if err != nil {
							fail(err)
							return
						}
						record(true, time.Since(opStart))
					case workload.OpPersist:
						if cfg.Cluster.Model == ddp.LinScope && scOpen {
							if err := nd.Persist(sc); err != nil {
								fail(err)
								return
							}
							sc = nd.NewScope()
							scOpen = false
						}
					}
				}
				if cfg.Cluster.Model == ddp.LinScope && scOpen {
					if err := nd.Persist(sc); err != nil {
						fail(err)
					}
				}
			}()
		}
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	// Collect the unified snapshot once the trailing persists and acks
	// have drained, and before the deferred Close tears the cluster
	// down. Same-named instruments from different nodes merge by
	// summing in Compact — the cluster-wide totals.
	if err := lc.Quiesce(); err != nil && firstErr == nil {
		firstErr = err
	}
	res.Obs = lc.Collect()
	res.Spans = lc.Spans()
	return res, firstErr
}

// RunAllModels measures every model under the same configuration —
// the live analogue of Fig 4's model comparison.
func RunAllModels(cfg Config) ([]*Result, error) {
	out := make([]*Result, 0, len(ddp.Models))
	for _, m := range ddp.Models {
		c := cfg
		c.Cluster.Model = m
		if m == ddp.LinScope && c.Load.Workload.PersistEvery == 0 {
			wl := c.Load.Workload
			if wl.Records == 0 {
				wl = workload.Default()
				wl.ValueSize = 128
			}
			wl.PersistEvery = 8
			c.Load.Workload = wl
		}
		r, err := Run(c)
		if err != nil {
			return out, fmt.Errorf("livebench %v: %w", m, err)
		}
		out = append(out, r)
	}
	return out, nil
}
