package loadgen

import (
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/workload"
)

// checkIdentity asserts the run's accounting identity: every offered
// arrival is classified exactly once.
func checkIdentity(t *testing.T, r *Result) {
	t.Helper()
	sum := r.Completed + r.ShedWindow + r.ShedNode + r.ShedSend + r.Errs + r.Abandoned
	if sum != r.Offered {
		t.Fatalf("accounting identity broken: offered %d != completed %d + shedWin %d + shedNode %d + shedSend %d + errs %d + abandoned %d",
			r.Offered, r.Completed, r.ShedWindow, r.ShedNode, r.ShedSend, r.Errs, r.Abandoned)
	}
	if r.Abandoned < 0 {
		t.Fatalf("negative abandoned count: %+v", r)
	}
}

func smokeConfig(fabric string, model ddp.Model) Config {
	return Config{
		Cluster: Cluster{Nodes: 3, Model: model, Fabric: fabric},
		Load: Load{
			Rate:           20000,
			Duration:       250 * time.Millisecond,
			Clients:        10000,
			Conns:          4,
			Window:         128,
			Seed:           1,
			PreloadRecords: 512,
		},
	}
}

func TestOpenLoopMemFabric(t *testing.T) {
	r, err := Run(smokeConfig("mem", ddp.LinSynch))
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, r)
	if r.Completed == 0 {
		t.Fatalf("no completions: %v", r)
	}
	if r.Errs > 0 {
		t.Fatalf("errors on a healthy cluster: %v", r)
	}
	if r.IntendedWrite.Count == 0 || r.IntendedRead.Count == 0 {
		t.Fatalf("latency histograms empty: %v", r)
	}
	if r.IntendedWrite.P99Ns <= 0 || r.IntendedRead.P50Ns <= 0 {
		t.Fatalf("degenerate quantiles: %+v %+v", r.IntendedWrite, r.IntendedRead)
	}
	// The cluster-side snapshot saw the client traffic.
	if got := r.Obs.Counter("node.client_served"); got == 0 {
		t.Fatal("node.client_served = 0")
	}
}

func TestOpenLoopRingFabric(t *testing.T) {
	r, err := Run(smokeConfig("ring", ddp.LinStrict))
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, r)
	if r.Completed == 0 || r.Errs > 0 {
		t.Fatalf("ring run: %v", r)
	}
}

func TestOpenLoopTCPFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp fabric in -short")
	}
	cfg := smokeConfig("tcp", ddp.LinSynch)
	cfg.Load.Rate = 5000
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, r)
	if r.Completed == 0 {
		t.Fatalf("tcp run completed nothing: %v", r)
	}
}

func TestOpenLoopScopedModel(t *testing.T) {
	cfg := smokeConfig("mem", ddp.LinScope)
	wl := workload.Default()
	wl.ValueSize = 128
	wl.PersistEvery = 8
	cfg.Load.Workload = wl
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, r)
	if r.Completed == 0 || r.Errs > 0 {
		t.Fatalf("scoped run: %v", r)
	}
}

// TestCoordinatedOmissionAccounting is the CO regression test. A
// cluster whose persists cost 1ms is offered far more than it can
// serve. A closed-loop harness (or an open loop that measured
// send-to-response "service time" only) reports flattering latencies
// here: each stalled client just issues fewer requests, and the
// queueing delay vanishes from the sample set. The intended-start-time
// accounting must instead charge that delay to every affected
// operation.
//
// The assertions demonstrably fail under the old closed-loop
// accounting: ServiceWrite *is* that accounting (send-to-response on
// the ops that got through, windowed exactly like a pool of closed-loop
// workers), and the test requires IntendedWrite's p99 to dwarf it. The
// sample set must not shrink either: every offered arrival is
// classified, none silently skipped.
func TestCoordinatedOmissionAccounting(t *testing.T) {
	cfg := Config{
		Cluster: Cluster{
			Nodes:        3,
			Model:        ddp.LinSynch,
			Fabric:       "mem",
			PersistDelay: time.Millisecond,
			// A deep node queue: the overload backs up as delay, not as
			// node-side sheds (shedding is exercised elsewhere; here the
			// point is that delay must not be hidden).
			ClientWindow: 1 << 16,
		},
		Load: Load{
			Arrival:        "fixed",
			Rate:           30000,
			Duration:       300 * time.Millisecond,
			Clients:        5000,
			Conns:          4,
			Window:         64,
			Seed:           7,
			PreloadRecords: 256,
			DrainGrace:     5 * time.Second,
		},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, r)
	if r.Completed == 0 {
		t.Fatalf("overloaded run completed nothing: %v", r)
	}
	// ~9000 arrivals were scheduled; all of them must have been offered
	// and classified — a shrunken sample set is the CO failure mode.
	if r.Offered < 8000 {
		t.Fatalf("offered only %d arrivals; the schedule was not honored", r.Offered)
	}
	// The CO-safe p99 must charge the queueing delay the service-time
	// view hides. 3x is far below the real gap (typically 10-100x) but
	// robust against scheduler noise.
	if r.ServiceWrite.Count == 0 || r.IntendedWrite.Count == 0 {
		t.Fatalf("write histograms empty: %v", r)
	}
	if r.IntendedWrite.P99Ns < 3*r.ServiceWrite.P99Ns {
		t.Fatalf("intended p99 %.0fns not >= 3x service p99 %.0fns — coordinated omission is back",
			r.IntendedWrite.P99Ns, r.ServiceWrite.P99Ns)
	}
	// And the mean intended latency should approach the backlog's
	// scale (it grows through the run), not the service time's.
	if r.IntendedWrite.MeanNs < 2*r.ServiceWrite.MeanNs {
		t.Fatalf("intended mean %.0fns suspiciously close to service mean %.0fns",
			r.IntendedWrite.MeanNs, r.ServiceWrite.MeanNs)
	}
}

// TestOverloadedThroughputBelowOffered: past the knee the replies trail
// the issue window, so throughput — completions over the measured span
// from the first intended send to the last reply — must fall below the
// offered rate instead of echoing it. Every arrival still completes
// within the drain grace, so completions over the configured window
// would report the full offered rate.
func TestOverloadedThroughputBelowOffered(t *testing.T) {
	cfg := Config{
		Cluster: Cluster{
			Nodes:        3,
			Model:        ddp.LinSynch,
			Fabric:       "mem",
			PersistDelay: time.Millisecond,
			ClientWindow: 1 << 16,
		},
		Load: Load{
			Arrival:        "fixed",
			Rate:           20000,
			Duration:       100 * time.Millisecond,
			Clients:        64,
			Conns:          1,
			Window:         8,
			Seed:           3,
			PreloadRecords: 64,
			DrainGrace:     10 * time.Second,
		},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, r)
	if r.Abandoned != 0 || r.Completed < r.Offered*9/10 {
		t.Fatalf("the overload should delay, not lose, operations: %v", r)
	}
	if r.Elapsed <= cfg.Load.Duration {
		t.Fatalf("measured span %v not beyond the %v issue window", r.Elapsed, cfg.Load.Duration)
	}
	if got := r.Throughput(); got >= cfg.Load.Rate/2 {
		t.Fatalf("overloaded throughput %.0f op/s, want well below the offered %.0f", got, cfg.Load.Rate)
	}
}
