// Command minos-benchnode measures the live node's client paths: a
// serial and a parallel write microbenchmark per DDP model, with the
// emulated NVM delay both off and at the paper's 1295 ns device write
// (Table II); serial and parallel read microbenchmarks (including the
// zero-copy ReadInto fast path and a GOMAXPROCS sweep); plus livebench
// throughput runs over the in-process fabric, including the read-mostly
// YCSB-B/C mixes. Results land under a -label key ("before" / "after")
// in a JSON file, so the same source compiled at two commits produces
// one comparable document.
//
// Usage:
//
//	minos-benchnode -label after -json BENCH_node.json
//
// Rows are keyed by fabric: "mem" is the original channel fabric
// (comparable against baseline worktrees, whose benchnode predates the
// fabric field — their rows read as mem), "ring" is the shared-memory
// SPSC datapath, which also engages the nodes' run-to-completion mode.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/livebench"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/stats"
	"github.com/minos-ddp/minos/internal/transport"
	"github.com/minos-ddp/minos/internal/workload"
)

var benchDelays = []time.Duration{0, 1295 * time.Nanosecond}

// Livebench knobs surfaced as flags. Like PreloadRecords below, the
// post-offload fields are applied reflectively so this source still
// compiles in a "before" worktree that predates them (the flags are
// then silently inert).
var (
	flagOffload bool
	flagTheta   float64
	flagChurn   int
)

func main() {
	label := flag.String("label", "after", "JSON key to store this run under (before|after)")
	jsonPath := flag.String("json", "", "merge results into this JSON file (other labels preserved)")
	liveRequests := flag.Int("live-requests", 4000, "requests per node for the livebench runs")
	flag.BoolVar(&flagOffload, "offload", false, "enable the soft-NIC offload engine (MINOS-O) in the livebench runs")
	flag.Float64Var(&flagTheta, "theta", 0, "zipfian skew for the livebench runs (0 = workload default)")
	flag.IntVar(&flagChurn, "churn", 0, "rotate the livebench hot key set every N ops (0 = stable)")
	flag.Parse()

	doc := map[string]any{}
	micro := runMicro()
	reads := runReads()
	live := runLive(*liveRequests)
	doc["microbench"] = micro
	doc["reads"] = reads
	doc["live"] = live

	if *jsonPath != "" {
		if err := mergeJSON(*jsonPath, *label, doc); err != nil {
			fmt.Fprintln(os.Stderr, "minos-benchnode:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s under %q\n", *jsonPath, *label)
	}
}

// microResult is one (fabric, model, delay, variant) measurement.
type microResult struct {
	Fabric   string  `json:"fabric,omitempty"` // "" (pre-fabric rows) == mem
	Model    string  `json:"model"`
	DelayNs  int64   `json:"delay_ns"`
	Variant  string  `json:"variant"` // serial | parallel | read-* | readinto-*
	Procs    int     `json:"procs,omitempty"`
	NsPerOp  float64 `json:"ns_per_op"`
	OpsPerS  float64 `json:"ops_per_s"`
	N        int     `json:"n"`
	AllocsOp int64   `json:"allocs_per_op"`
}

// cluster builds a 3-node in-process cluster over the given fabric and
// returns node 0 plus a teardown closing every node.
func cluster(model ddp.Model, delay time.Duration, fabric string) (*node.Node, func()) {
	eps := make([]transport.Transport, 3)
	if fabric == "ring" {
		net := transport.NewRingNetwork(3)
		for i := range eps {
			eps[i] = net.Endpoint(ddp.NodeID(i))
		}
	} else {
		net := transport.NewMemNetwork(3)
		for i := range eps {
			eps[i] = net.Endpoint(ddp.NodeID(i))
		}
	}
	nodes := make([]*node.Node, 3)
	for i := range nodes {
		nodes[i] = node.New(node.Config{Model: model, PersistDelay: delay}, eps[i])
		nodes[i].Start()
	}
	return nodes[0], func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}
}

const scopeFlushEvery = 16

func runMicro() []microResult {
	val := bytes.Repeat([]byte("v"), 128)
	var out []microResult
	for _, fabric := range []string{"mem", "ring"} {
		out = append(out, runMicroFabric(fabric, val)...)
	}
	return out
}

func runMicroFabric(fabric string, val []byte) []microResult {
	var out []microResult
	for _, model := range ddp.Models {
		for _, d := range benchDelays {
			model, d := model, d
			serial := testing.Benchmark(func(b *testing.B) {
				n, done := cluster(model, d, fabric)
				defer done()
				b.ReportAllocs()
				b.ResetTimer()
				if model == ddp.LinScope {
					sc := n.NewScope()
					inScope := 0
					for i := 0; i < b.N; i++ {
						if err := n.WriteScoped(ddp.Key(i&255), val, sc); err != nil {
							b.Fatal(err)
						}
						if inScope++; inScope == scopeFlushEvery {
							if err := n.Persist(sc); err != nil {
								b.Fatal(err)
							}
							sc = n.NewScope()
							inScope = 0
						}
					}
					b.StopTimer()
					if inScope > 0 {
						if err := n.Persist(sc); err != nil {
							b.Fatal(err)
						}
					}
					return
				}
				for i := 0; i < b.N; i++ {
					if err := n.Write(ddp.Key(i&255), val); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
			})
			out = append(out, toResult(fabric, model, d, "serial", serial))
			fmt.Printf("%-5s %-12v delay=%-8v serial   %10.0f ns/op %4d allocs/op\n",
				fabric, model, d, nsPerOp(serial), serial.AllocsPerOp())

			parallel := testing.Benchmark(func(b *testing.B) {
				n, done := cluster(model, d, fabric)
				defer done()
				var ctr atomic.Uint64
				b.SetParallelism(8)
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					if model == ddp.LinScope {
						sc := n.NewScope()
						inScope := 0
						for pb.Next() {
							i := ctr.Add(1)
							if err := n.WriteScoped(ddp.Key(i&1023), val, sc); err != nil {
								b.Fatal(err)
							}
							if inScope++; inScope == scopeFlushEvery {
								if err := n.Persist(sc); err != nil {
									b.Fatal(err)
								}
								sc = n.NewScope()
								inScope = 0
							}
						}
						if inScope > 0 {
							if err := n.Persist(sc); err != nil {
								b.Fatal(err)
							}
						}
						return
					}
					for pb.Next() {
						i := ctr.Add(1)
						if err := n.Write(ddp.Key(i&1023), val); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.StopTimer()
			})
			out = append(out, toResult(fabric, model, d, "parallel", parallel))
			fmt.Printf("%-5s %-12v delay=%-8v parallel %10.0f ns/op\n", fabric, model, d, nsPerOp(parallel))
		}
	}
	return out
}

// readIntoer is satisfied by the post-seqlock node. Reaching ReadInto
// through the assertion keeps this source compiling in a "before"
// worktree, where the rows are simply skipped.
type readIntoer interface {
	ReadInto(key ddp.Key, buf []byte) ([]byte, error)
}

// readKeys is the preloaded key-set size for the read benchmarks. 256
// distinct keys spread across every store shard while staying resident
// in cache — the "uncontended key set" of the scaling criterion.
const readKeys = 256

// readProcs is the GOMAXPROCS sweep for the parallel read rows.
var readProcs = []int{1, 2, 4, 8}

// runReads measures the read path per fabric: the copying Read, the
// zero-alloc ReadInto, and a RunParallel ReadInto sweep across
// GOMAXPROCS. Reads are model-independent (always local, §III-D), so
// one model per fabric suffices; Lin-Synch is the reference.
func runReads() []microResult {
	val := bytes.Repeat([]byte("r"), 128)
	var out []microResult
	for _, fabric := range []string{"mem", "ring"} {
		n, done := cluster(ddp.LinSynch, 0, fabric)
		for i := 0; i < readKeys; i++ {
			if err := n.Write(ddp.Key(i), val); err != nil {
				fmt.Fprintln(os.Stderr, "minos-benchnode: preload:", err)
				os.Exit(1)
			}
		}

		serial := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := n.Read(ddp.Key(i & (readKeys - 1))); err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out, toResult(fabric, ddp.LinSynch, 0, "read-serial", serial))
		fmt.Printf("%-5s %-12v read-serial       %10.1f ns/op %4d allocs/op\n",
			fabric, ddp.LinSynch, nsPerOp(serial), serial.AllocsPerOp())

		if ri, ok := any(n).(readIntoer); ok {
			into := testing.Benchmark(func(b *testing.B) {
				buf := make([]byte, 0, len(val))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v, err := ri.ReadInto(ddp.Key(i&(readKeys-1)), buf)
					if err != nil {
						b.Fatal(err)
					}
					buf = v[:0]
				}
			})
			out = append(out, toResult(fabric, ddp.LinSynch, 0, "readinto-serial", into))
			fmt.Printf("%-5s %-12v readinto-serial   %10.1f ns/op %4d allocs/op\n",
				fabric, ddp.LinSynch, nsPerOp(into), into.AllocsPerOp())

			for _, procs := range readProcs {
				procs := procs
				prev := runtime.GOMAXPROCS(procs)
				par := testing.Benchmark(func(b *testing.B) {
					var ctr atomic.Uint64
					b.ReportAllocs()
					b.RunParallel(func(pb *testing.PB) {
						base := ctr.Add(1) * 31
						buf := make([]byte, 0, len(val))
						i := uint64(0)
						for pb.Next() {
							i++
							v, err := ri.ReadInto(ddp.Key((base+i)&(readKeys-1)), buf)
							if err != nil {
								b.Fatal(err)
							}
							buf = v[:0]
						}
					})
				})
				runtime.GOMAXPROCS(prev)
				row := toResult(fabric, ddp.LinSynch, 0, "readinto-parallel", par)
				row.Procs = procs
				out = append(out, row)
				fmt.Printf("%-5s %-12v readinto-parallel procs=%d %10.1f ns/op %12.0f reads/s %4d allocs/op\n",
					fabric, ddp.LinSynch, procs, nsPerOp(par), row.OpsPerS, par.AllocsPerOp())
			}
		}
		done()
	}
	return out
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N <= 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func toResult(fabric string, model ddp.Model, d time.Duration, variant string, r testing.BenchmarkResult) microResult {
	ns := nsPerOp(r)
	ops := 0.0
	if ns > 0 {
		ops = 1e9 / ns
	}
	return microResult{
		Fabric: fabric, Model: fmt.Sprint(model), DelayNs: d.Nanoseconds(), Variant: variant,
		NsPerOp: ns, OpsPerS: ops, N: r.N, AllocsOp: r.AllocsPerOp(),
	}
}

// liveResult is one livebench throughput point.
type liveResult struct {
	Fabric         string       `json:"fabric,omitempty"` // "" (pre-fabric rows) == mem
	Model          string       `json:"model"`
	Mix            string       `json:"mix,omitempty"` // "" == 100% writes
	DelayNs        int64        `json:"delay_ns"`
	Workers        int          `json:"workers_per_node"`
	Ops            int          `json:"ops"`
	ElapsedNs      int64        `json:"elapsed_ns"`
	ThroughputOpsS float64      `json:"throughput_ops_s"`
	Write          stats.Report `json:"write"`
	Read           stats.Report `json:"read"`
}

// runLive measures Lin-Synch on the in-process fabrics: the all-write
// mix with the persist delay off and at 1295 ns (the pipelined
// durability engine's acceptance metric), then the read-mostly YCSB-B
// (95/5) and YCSB-C (100% read) mixes, where the lock-free read path
// carries the load.
func runLive(requests int) []liveResult {
	var out []liveResult
	wl := workload.Default()
	wl.WriteRatio = 1.0
	wl.ValueSize = 128
	for _, fabric := range []string{"mem", "ring"} {
		for _, workers := range []int{1, 8} {
			for _, d := range benchDelays {
				out = append(out, runLiveCell(fabric, "", wl, workers, d, requests))
			}
		}
	}
	// Read-mostly cells: both presets, write delay off (reads never
	// touch NVM), eight workers so the read path sees concurrency.
	for _, fabric := range []string{"mem", "ring"} {
		for _, preset := range []workload.Preset{workload.PresetB, workload.PresetC} {
			pwl := preset.Config()
			pwl.ValueSize = 128
			out = append(out, runLiveCell(fabric, preset.String(), pwl, 8, 0, requests))
		}
	}
	return out
}

func runLiveCell(fabric, mix string, wl workload.Config, workers int, d time.Duration, requests int) liveResult {
	if flagTheta > 0 {
		wl.ZipfTheta = flagTheta
	}
	wl.HotChurnEvery = flagChurn
	cfg := livebench.Config{
		Cluster: loadgen.Cluster{
			Nodes:        3,
			Model:        ddp.LinSynch,
			PersistDelay: d,
			Fabric:       fabric,
		},
		Load: livebench.Load{
			WorkersPerNode:  workers,
			RequestsPerNode: requests,
			Workload:        wl,
			Seed:            42,
		},
		Offload: loadgen.Offload{Enabled: flagOffload},
	}
	if mix != "" {
		// Read-mostly mixes only measure real value copies when the
		// store is preloaded.
		cfg.Load.PreloadRecords = wl.Records
	}
	res, err := livebench.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minos-benchnode: livebench:", err)
		os.Exit(1)
	}
	row := liveResult{
		Fabric: fabric, Model: fmt.Sprint(res.Model), Mix: mix, DelayNs: d.Nanoseconds(), Workers: workers,
		Ops: res.Ops, ElapsedNs: res.Elapsed.Nanoseconds(),
		ThroughputOpsS: res.Throughput(),
		Write:          res.WriteReport(),
		Read:           res.ReadReport(),
	}
	label := mix
	if label == "" {
		label = "writes"
	}
	fmt.Printf("live %-5s %-9v %-7s delay=%-8v workers=%d %9.0f op/s (wr avg %.0f ns, rd avg %.0f ns)\n",
		fabric, res.Model, label, d, workers, res.Throughput(), res.WriteLat.Mean(), res.ReadLat.Mean())
	return row
}

// mergeJSON stores doc under label in path, preserving every other
// top-level key (so "before" and "after" runs share one file).
func mergeJSON(path, label string, doc map[string]any) error {
	full := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &full); err != nil {
			return fmt.Errorf("existing %s is not valid JSON: %w", path, err)
		}
	}
	full[label] = doc
	buf, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
