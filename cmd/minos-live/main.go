// Command minos-live measures the live MINOS-B runtime (real goroutines
// and channels, emulated NVM) across all five DDP models — the
// counterpart of the paper's §IV measurements on a real cluster.
//
// Usage:
//
//	minos-live                          # all models, 5 nodes, in-process fabric
//	minos-live -fabric ring             # shared-memory rings + run-to-completion nodes
//	minos-live -tcp                     # same cluster over loopback TCP (batched wire path)
//	minos-live -tcp -json BENCH_live.json
//	minos-live -nodes 3 -requests 5000 -persist 1295ns -writes 1.0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/minos-ddp/minos/internal/livebench"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/stats"
	"github.com/minos-ddp/minos/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 5, "cluster size")
	workers := flag.Int("workers", 5, "client goroutines per node")
	requests := flag.Int("requests", 2000, "requests per node")
	writes := flag.Float64("writes", 0.5, "write ratio")
	persist := flag.Duration("persist", 1295*time.Nanosecond, "emulated NVM persist delay")
	valueSize := flag.Int("value", 128, "record value bytes")
	seed := flag.Int64("seed", 42, "workload seed")
	tcp := flag.Bool("tcp", false, "run over loopback TCP (real batched wire path) instead of the in-process fabric; alias for -fabric tcp")
	fabricFlag := flag.String("fabric", "", "cluster interconnect: mem (default), ring (shared-memory SPSC + run-to-completion), or tcp")
	dispatch := flag.Int("dispatch", 0, "key-affine dispatch workers per node (0 = node default)")
	drains := flag.Int("drains", 0, "NVM drain engines per node (0 = node default)")
	jsonPath := flag.String("json", "", "write results into this JSON file (existing 'before' and 'after.microbench' keys are preserved)")
	tracePath := flag.String("trace", "", "record per-transaction phase spans and write them to this JSON file (minos-trace's input)")
	traceSample := flag.Int("trace-sample", obs.DefaultSampleEvery, "trace one transaction in N (1 = every transaction)")
	offload := flag.Bool("offload", false, "enable the soft-NIC offload engine (MINOS-O) on every node")
	theta := flag.Float64("theta", 0, "zipfian skew (0 = workload default 0.99)")
	churn := flag.Int("churn", 0, "rotate the hot key set every N ops (0 = stable hot set)")
	flag.Parse()

	wl := workload.Default()
	wl.WriteRatio = *writes
	wl.ValueSize = *valueSize
	if *theta > 0 {
		wl.ZipfTheta = *theta
	}
	wl.HotChurnEvery = *churn

	fabric := *fabricFlag
	if fabric == "" && *tcp {
		fabric = "tcp"
	}
	fabricDesc := map[string]string{
		"": "in-process", "mem": "in-process",
		"ring": "shared-memory rings", "tcp": "loopback TCP",
	}[fabric]
	if fabricDesc == "" {
		fabricDesc = fabric
	}
	mode := "MINOS-B"
	if *offload {
		mode = "MINOS-O"
	}
	fmt.Printf("live %s: %d nodes × %d workers, %d req/node, %d%% writes, persist %v, %s\n\n",
		mode, *nodes, *workers, *requests, int(*writes*100), *persist, fabricDesc)
	results, err := livebench.RunAllModels(livebench.Config{
		Cluster: loadgen.Cluster{
			Nodes:           *nodes,
			PersistDelay:    *persist,
			DispatchWorkers: *dispatch,
			PersistDrains:   *drains,
			Fabric:          fabric,
		},
		Load: livebench.Load{
			WorkersPerNode:  *workers,
			RequestsPerNode: *requests,
			Workload:        wl,
			Seed:            *seed,
		},
		Observe: loadgen.Observe{Trace: *tracePath != "", TraceSample: *traceSample},
		Offload: loadgen.Offload{Enabled: *offload},
	})
	for _, r := range results {
		fmt.Println(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "minos-live:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, *nodes, *workers, *requests, fabric, results); err != nil {
			fmt.Fprintln(os.Stderr, "minos-live:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, results); err != nil {
			fmt.Fprintln(os.Stderr, "minos-live:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *tracePath)
	}
}

// traceRun is one model's recorded spans in the trace file minos-trace
// replays.
type traceRun struct {
	Model string     `json:"model"`
	Spans []obs.Span `json:"spans"`
}

// writeTrace dumps each model's spans as {"runs": [{model, spans}]}.
func writeTrace(path string, results []*livebench.Result) error {
	runs := make([]traceRun, 0, len(results))
	for _, r := range results {
		runs = append(runs, traceRun{Model: fmt.Sprint(r.Model), Spans: r.Spans})
	}
	buf, err := json.Marshal(map[string]any{"runs": runs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// liveResult is the JSON shape of one model's measurements.
type liveResult struct {
	Model          string       `json:"model"`
	Ops            int          `json:"ops"`
	ElapsedNs      int64        `json:"elapsed_ns"`
	ThroughputOpsS float64      `json:"throughput_ops_s"`
	Write          stats.Report `json:"write"`
	Read           stats.Report `json:"read"`
	FramesSent     int64        `json:"frames_sent"`
	BatchesSent    int64        `json:"batches_sent"`
	FramesPerBatch float64      `json:"frames_per_batch"`
	BytesSent      int64        `json:"bytes_sent"`
	Broadcasts     int64        `json:"broadcasts"`
	Encodes        int64        `json:"encodes"`
	Redials        int64        `json:"redials"`
	// Snapshot is the full unified observability tree (node, pipeline,
	// transport); the flat wire fields above are kept for historical
	// diffing against committed BENCH_live.json baselines.
	Snapshot *obs.Snapshot `json:"snapshot,omitempty"`
}

// writeJSON records the run under the "after.live" key, preserving any
// other keys an existing file carries (the committed BENCH_live.json
// keeps the pre-batching baseline under "before").
func writeJSON(path string, nodes, workers, requests int, fabric string, results []*livebench.Result) error {
	doc := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("existing %s is not valid JSON: %w", path, err)
		}
	}
	after, _ := doc["after"].(map[string]any)
	if after == nil {
		after = map[string]any{}
	}
	out := make([]liveResult, 0, len(results))
	for _, r := range results {
		out = append(out, liveResult{
			Model:          fmt.Sprint(r.Model),
			Ops:            r.Ops,
			ElapsedNs:      r.Elapsed.Nanoseconds(),
			ThroughputOpsS: r.Throughput(),
			Write:          r.WriteReport(),
			Read:           r.ReadReport(),
			FramesSent:     r.Obs.Counter("transport.frames_sent"),
			BatchesSent:    r.Obs.Counter("transport.batches_sent"),
			FramesPerBatch: r.Obs.Ratio("transport.frames_sent", "transport.batches_sent"),
			BytesSent:      r.Obs.Counter("transport.bytes_sent"),
			Broadcasts:     r.Obs.Counter("transport.broadcasts"),
			Encodes:        r.Obs.Counter("transport.encodes"),
			Redials:        r.Obs.Counter("transport.redials"),
			Snapshot:       r.Obs,
		})
	}
	after["live"] = out
	if fabric == "" {
		fabric = "mem"
	}
	after["live_config"] = map[string]any{
		"nodes": nodes, "workers_per_node": workers, "requests_per_node": requests,
		"tcp": fabric == "tcp", "fabric": fabric, "models": len(results),
	}
	doc["after"] = after
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
