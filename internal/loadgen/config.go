// Package loadgen is the open-loop, coordinated-omission-safe load
// engine for the live MINOS cluster. Where livebench's closed loop asks
// "how fast can N workers pump requests back-to-back?", loadgen asks
// the question the paper's §IV throughput/latency curves need answered:
// "at an offered arrival rate of R ops/s, what latency do clients
// *experience*?" — with lateness charged against the intended arrival
// time, never hidden by a stalled client skipping its sends.
//
// The engine multiplexes many logical clients (millions) over few
// transport connections; each connection runs a bounded in-flight
// window, and arrivals finding the window full are shed and counted,
// never silently retried. Latency histograms are obs fixed-bucket
// histograms, so million-op runs retain no per-op samples.
package loadgen

import (
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/offload"
	"github.com/minos-ddp/minos/internal/workload"
)

// Cluster groups the knobs that shape the system under test. It is
// shared verbatim with livebench: both harnesses bring up the same
// cluster, they differ only in how they drive it.
type Cluster struct {
	// Nodes is the cluster size (default 5, Table II).
	Nodes int
	// Model is the DDP model to run.
	Model ddp.Model
	// PersistDelay emulates the NVM persist latency (Table II charges
	// 1295 ns/KB).
	PersistDelay time.Duration
	// DispatchWorkers sizes each node's key-affine executor (0 = node
	// default).
	DispatchWorkers int
	// PersistDrains sizes each node's NVM drain-engine pool (0 = node
	// default).
	PersistDrains int
	// Fabric selects the interconnect: "mem" (channel-based in-process
	// fabric, the default), "ring" (shared-memory SPSC rings with
	// inline polling), or "tcp" (loopback TCP mesh).
	Fabric string
	// ClientWindow bounds each node's remote-client admission queue;
	// requests beyond it are shed with StatusShed. Zero picks the
	// loadgen default (1024) when client connections exist.
	ClientWindow int
	// ClientWorkers sizes each node's client-frontend worker pool
	// (0 = node default).
	ClientWorkers int
}

func (c Cluster) withDefaults() Cluster {
	if c.Nodes <= 0 {
		c.Nodes = 5
	}
	return c
}

// Load groups the open-loop offered-load knobs.
type Load struct {
	// Arrival selects the arrival process: "poisson" (default) or
	// "fixed" (evenly spaced).
	Arrival string
	// Rate is the aggregate offered arrival rate in ops/second across
	// the whole cluster (default 50000).
	Rate float64
	// Duration is the measured issue window (default 1s). Arrivals are
	// scheduled only inside it; the drain grace afterwards collects
	// stragglers.
	Duration time.Duration
	// Clients is the number of logical clients (default 100000). They
	// are multiplexed over Conns transport connections; a logical
	// client's identity rides the frame's client-id field.
	Clients int
	// Conns is the number of transport connections (client endpoints)
	// carrying the logical clients (default 8).
	Conns int
	// Window bounds each connection's in-flight operations. An arrival
	// that finds its connection's window full is shed (counted, not
	// retried, not blocked on — blocking would reintroduce coordinated
	// omission). Default 256.
	Window int
	// Workload is the request mix (default: the paper's default with
	// 128-byte values).
	Workload workload.Config
	// PreloadRecords pre-populates every node's store before the clock
	// starts.
	PreloadRecords int
	// Seed fixes the arrival schedules and op streams; a fixed seed
	// reproduces the exact arrival sequence.
	Seed int64
	// DrainGrace is how long after the issue window the engine waits
	// for in-flight responses before declaring them abandoned
	// (default 2s).
	DrainGrace time.Duration
}

func (l Load) withDefaults() Load {
	if l.Arrival == "" {
		l.Arrival = "poisson"
	}
	if l.Rate <= 0 {
		l.Rate = 50000
	}
	if l.Duration <= 0 {
		l.Duration = time.Second
	}
	if l.Clients <= 0 {
		l.Clients = 100000
	}
	if l.Conns <= 0 {
		l.Conns = 8
	}
	if l.Clients < l.Conns {
		l.Clients = l.Conns
	}
	if l.Window <= 0 {
		l.Window = 256
	}
	if l.Workload.Records == 0 {
		l.Workload = workload.Default()
		l.Workload.ValueSize = 128
	}
	if l.DrainGrace <= 0 {
		l.DrainGrace = 2 * time.Second
	}
	return l
}

// Observe groups the observability knobs.
type Observe struct {
	// Trace records per-transaction phase spans on every node.
	Trace bool
	// TraceCapacity sizes each node's span ring (0 = obs default).
	TraceCapacity int
	// TraceSample traces one transaction in TraceSample.
	TraceSample int
}

// Offload groups the soft-NIC offload knobs.
type Offload struct {
	// Enabled turns each node's offload engine on (MINOS-O).
	Enabled bool
	// Config tunes the engine when Enabled (nil = engine defaults).
	Config *offload.Config
}

// Config describes one open-loop run.
type Config struct {
	Cluster Cluster
	Load    Load
	Observe Observe
	Offload Offload
}

func (c Config) withDefaults() Config {
	c.Cluster = c.Cluster.withDefaults()
	c.Load = c.Load.withDefaults()
	if c.Cluster.ClientWindow <= 0 {
		c.Cluster.ClientWindow = 1024
	}
	return c
}
