package livebench

import (
	"testing"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/simcluster"
	"github.com/minos-ddp/minos/internal/transport"
	"github.com/minos-ddp/minos/internal/workload"
)

// TestRuntimesAgreeOnProtocolCounts runs the same conflict-free write
// workload on the live runtime and the simulator and checks that the
// protocol does the same amount of work in both: every write persists
// once per node under the eager models, and every follower handles
// exactly one INV per write. Divergence would mean the two
// implementations execute different protocols.
func TestRuntimesAgreeOnProtocolCounts(t *testing.T) {
	const nodes, writes = 3, 40
	for _, model := range []ddp.Model{ddp.LinSynch, ddp.LinStrict, ddp.LinREnf} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			// Live: one writer, distinct keys (no conflicts).
			net := transport.NewMemNetwork(nodes)
			live := make([]*node.Node, nodes)
			for i := range live {
				live[i] = node.New(node.Config{Model: model}, net.Endpoint(ddp.NodeID(i)))
				live[i].Start()
			}
			for i := 0; i < writes; i++ {
				if err := live[0].Write(ddp.Key(i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			// Lin-REnf answers at consistency: the last write's follower
			// persists and acknowledgments may still be in flight.
			for _, nd := range live {
				if err := nd.Quiesce(); err != nil {
					t.Fatal(err)
				}
			}
			var livePersists, liveInvs int64
			for _, nd := range live {
				livePersists += nd.Stats.Persists.Load()
				liveInvs += nd.Stats.InvsHandled.Load()
			}
			for _, nd := range live {
				nd.Close()
			}

			// Sim: same op count, conflict-free uniform keys over a huge
			// space, single worker.
			cfg := simcluster.DefaultConfig()
			cfg.Nodes = nodes
			cfg.Model = model
			c := simcluster.New(cfg, 1)
			m := c.Run(simcluster.RunOpts{
				Workload:        workload.Config{Records: 1 << 20, WriteRatio: 1.0, Dist: workload.Uniform},
				RequestsPerNode: writes,
				WorkersPerNode:  1,
				Seed:            1,
			})
			_ = m

			wantPersists := int64(writes * nodes)
			if livePersists != wantPersists {
				t.Errorf("live persists = %d, want %d", livePersists, wantPersists)
			}
			// The simulator runs `writes` per *node* (all three coordinate).
			simWantPersists := int64(writes * nodes * nodes)
			if m.PersistCount != simWantPersists {
				t.Errorf("sim persists = %d, want %d", m.PersistCount, simWantPersists)
			}
			wantInvs := int64(writes * (nodes - 1))
			if liveInvs != wantInvs {
				t.Errorf("live INVs handled = %d, want %d", liveInvs, wantInvs)
			}
			if got := int64(m.Writes()); got != int64(writes*nodes) {
				t.Errorf("sim writes = %d, want %d", got, writes*nodes)
			}
		})
	}
}
