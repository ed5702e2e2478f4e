// Command minos-benchoffload measures MINOS-B versus MINOS-O on the
// live runtime: the same livebench cells run twice, once on the host
// path and once with the soft-NIC offload engine enabled, across both
// in-process fabrics (channel "mem" and shared-memory "ring"), a
// uniform and a zipfian-skewed key distribution plus the hot-key-churn
// adversary, and two persistency models that exercise both follower
// persist orders on the NIC cores — Lin-Synch (persist-before-ack
// through the dFIFO) and Lin-Strict (ACK_C first, then the persist
// and its ACK_P).
//
// Results merge into one JSON file under "before" (MINOS-B) and
// "after" (MINOS-O), the repo's standard bench comparison shape:
//
//	minos-benchoffload -json BENCH_offload.json
//
// Caveat carried in the numbers: on a single-vCPU host, the NIC core
// pool time-slices with the protocol and client goroutines instead of
// running on dedicated cores, so offload gains here reflect shorter
// code paths and batching, not the parallelism a real SmartNIC adds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/livebench"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/offload"
	"github.com/minos-ddp/minos/internal/stats"
	"github.com/minos-ddp/minos/internal/workload"
)

// benchModels are the persistency models measured: one from each NIC
// persist mode (persist-before-ack, ack-then-persist).
var benchModels = []ddp.Model{ddp.LinSynch, ddp.LinStrict}

// workloadCell names one key-distribution variant of the matrix.
type workloadCell struct {
	name  string
	dist  workload.Distribution
	churn int
}

var workloadCells = []workloadCell{
	{name: "uniform", dist: workload.Uniform},
	{name: "zipf-0.99", dist: workload.Zipfian},
	{name: "zipf-churn", dist: workload.Zipfian, churn: 500},
}

// row is one measured cell.
type row struct {
	Fabric         string       `json:"fabric"`
	Model          string       `json:"model"`
	Workload       string       `json:"workload"`
	Offload        bool         `json:"offload"`
	Ops            int          `json:"ops"`
	ElapsedNs      int64        `json:"elapsed_ns"`
	ThroughputOpsS float64      `json:"throughput_ops_s"`
	Write          stats.Report `json:"write"`
	NICFrames      int64        `json:"nic_frames,omitempty"`
	HostFrames     int64        `json:"host_frames,omitempty"`
	Promotions     int64        `json:"promotions,omitempty"`
	Demotions      int64        `json:"demotions,omitempty"`
	Overflows      int64        `json:"vfifo_overflows,omitempty"`
}

func main() {
	jsonPath := flag.String("json", "", "merge results into this JSON file (B under 'before', O under 'after')")
	requests := flag.Int("requests", 3000, "requests per node per cell")
	workers := flag.Int("workers", 4, "client goroutines per node")
	nodes := flag.Int("nodes", 3, "cluster size")
	persist := flag.Duration("persist", 1295*time.Nanosecond, "emulated NVM persist delay")
	flag.Parse()

	var before, after []row
	for _, fabric := range []string{"mem", "ring"} {
		for _, wc := range workloadCells {
			for _, model := range benchModels {
				for _, off := range []bool{false, true} {
					r := runCell(fabric, wc, model, off, *nodes, *workers, *requests, *persist)
					if off {
						after = append(after, r)
					} else {
						before = append(before, r)
					}
				}
			}
		}
	}

	if *jsonPath != "" {
		cfgDoc := map[string]any{
			"nodes": *nodes, "workers_per_node": *workers,
			"requests_per_node": *requests, "persist_ns": persist.Nanoseconds(),
		}
		if err := mergeJSON(*jsonPath, "before", map[string]any{"offload": before, "config": cfgDoc}); err != nil {
			fmt.Fprintln(os.Stderr, "minos-benchoffload:", err)
			os.Exit(1)
		}
		if err := mergeJSON(*jsonPath, "after", map[string]any{"offload": after, "config": cfgDoc}); err != nil {
			fmt.Fprintln(os.Stderr, "minos-benchoffload:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (B under 'before', O under 'after')\n", *jsonPath)
	}
}

func runCell(fabric string, wc workloadCell, model ddp.Model, off bool, nodes, workers, requests int, persist time.Duration) row {
	wl := workload.Default()
	wl.WriteRatio = 0.5
	wl.ValueSize = 128
	wl.Dist = wc.dist
	wl.HotChurnEvery = wc.churn

	cfg := livebench.Config{
		Cluster: loadgen.Cluster{
			Nodes:        nodes,
			Model:        model,
			PersistDelay: persist,
			Fabric:       fabric,
		},
		Load: livebench.Load{
			WorkersPerNode:  workers,
			RequestsPerNode: requests,
			Workload:        wl,
			Seed:            42,
		},
		Offload: loadgen.Offload{Enabled: off},
	}
	if off {
		// Bench cells are short (hundreds of ms), so engage the policy
		// faster than the server defaults: 2 ms epochs and a low initial
		// threshold let the hot set promote within the measured window;
		// the feedback loop still raises the bar if the NIC saturates.
		cfg.Offload.Config = &offload.Config{
			Epoch:            2 * time.Millisecond,
			InitialThreshold: 8,
			MinThreshold:     4,
		}
	}
	res, err := livebench.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minos-benchoffload:", err)
		os.Exit(1)
	}
	r := row{
		Fabric: fabric, Model: fmt.Sprint(model), Workload: wc.name, Offload: off,
		Ops: res.Ops, ElapsedNs: res.Elapsed.Nanoseconds(),
		ThroughputOpsS: res.Throughput(),
		Write:          res.WriteReport(),
	}
	if off && res.Obs != nil {
		r.NICFrames = res.Obs.Counter("offload.frames_nic")
		r.HostFrames = res.Obs.Counter("offload.frames_host")
		r.Promotions = res.Obs.Counter("offload.promotions")
		r.Demotions = res.Obs.Counter("offload.demotions")
		r.Overflows = res.Obs.Counter("offload.vfifo_overflows")
	}
	mode := "B"
	if off {
		mode = "O"
	}
	fmt.Printf("%-5s %-10s %-10v %s %9.0f op/s (wr avg %7.0f ns, p99 %8.0f ns) nic=%d promo=%d demo=%d\n",
		fabric, wc.name, model, mode, r.ThroughputOpsS, r.Write.MeanNs, r.Write.P99Ns,
		r.NICFrames, r.Promotions, r.Demotions)
	return r
}

// mergeJSON stores doc under label in path, preserving every other
// top-level key.
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
