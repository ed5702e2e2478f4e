package node

import (
	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/offload"
)

// This file splices the soft-NIC offload engine (internal/offload)
// into the live node: the routing gate on the delivery path and the
// callback the engine's core pool runs. A NIC core runs the host's
// handleMessage, so every protocol step has one implementation and
// offload only changes where it runs. The invariants the host path
// establishes survive the split unchanged (DESIGN.md D13):
//
//   - Per-record ordering: a key is owned by exactly one side at a
//     time, transfers are fenced on queue drain counts, and the NIC
//     side routes by the same ddp.Key.Hash affinity as the host
//     executor — so messages for one record are handled in transport
//     order on whichever side owns it.
//   - Persist-before-ack: a NIC core stages a follower persist through
//     the same persistThen as the host: the entry joins its key's drain
//     queue in the nvm pipeline — the dFIFO — and the drain engine
//     sends the acknowledgment only after the batch's group commit.

// offloadable reports whether m may be routed to the NIC pool: the
// key-carrying protocol messages. Scope-control messages ([ACK_P]sc,
// [VAL_P]sc: scope set, zero timestamp) stay host-side with the scope
// flush machinery, as do [PERSIST]sc and the coalesced VAL batches
// (their entries are plain VAL applies, safe on either side — see
// handleValBatch).
//
//minos:hotpath
func offloadable(m ddp.Message) bool {
	switch m.Kind {
	case ddp.KindInv, ddp.KindAck, ddp.KindAckC, ddp.KindVal, ddp.KindValC:
		return true
	case ddp.KindAckP, ddp.KindValP:
		return m.Scope == 0 || m.TS != (ddp.Timestamp{})
	}
	return false
}

// handleOffloaded runs one protocol message on a NIC core (the
// engine's Handler callback) through the same handleMessage the host
// placements use. enq is the vFIFO admission timestamp (0 unless
// tracing stamped it).
func (n *Node) handleOffloaded(m ddp.Message, enq int64) {
	if enq != 0 && n.tracer.Enabled() && n.tracer.SampleTxn(uint64(m.TS.Version)) {
		n.handleOffloadedTraced(m, enq)
		return
	}
	n.handleMessage(m)
}

// handleOffloadedTraced wraps the NIC dispatch in the two offload
// trace phases: vFIFO residency (nic_queue) and the on-core handling
// (nic_handle). Followers correlate spans by (Key, Ver), like the
// persist spans.
func (n *Node) handleOffloadedTraced(m ddp.Message, enq int64) {
	start := n.tracer.Now()
	role := obs.RoleFollower
	switch m.Kind {
	case ddp.KindAck, ddp.KindAckC, ddp.KindAckP:
		role = obs.RoleCoordinator
	}
	n.tracer.Record(obs.Span{
		Key: uint64(m.Key), Ver: int64(m.TS.Version), Node: int32(n.id),
		Role: role, Phase: obs.PhaseNICQueue,
		Start: enq, End: start,
	})
	n.handleMessage(m)
	n.tracer.Record(obs.Span{
		Key: uint64(m.Key), Ver: int64(m.TS.Version), Node: int32(n.id),
		Role: role, Phase: obs.PhaseNICHandle,
		Start: start, End: n.tracer.Now(),
	})
}

// laneMark and laneDrained expose the executor lanes' progress to the
// engine's promotion fence (parked dispatch mode only; the
// run-to-completion mode needs no fence because delivery is inline).
func (n *Node) laneMark(key ddp.Key) uint64 {
	return n.exec.laneFor(key).enq.Load()
}

func (n *Node) laneDrained(key ddp.Key, fence uint64) bool {
	return n.exec.laneFor(key).done.Load() >= fence
}

// Offload exposes the soft-NIC engine (nil when offload is disabled);
// tests and tools read its counters.
func (n *Node) Offload() *offload.Engine { return n.off }
