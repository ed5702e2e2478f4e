package node

import (
	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/offload"
)

// This file splices the soft-NIC offload engine (internal/offload)
// into the live node: the routing gate on the delivery path and the
// NIC handlers the engine's core pool runs. The invariants the host
// path establishes survive the split unchanged (DESIGN.md D13):
//
//   - Per-record ordering: a key is owned by exactly one side at a
//     time, transfers are fenced on queue drain counts, and the NIC
//     side routes by the same ddp.Key.Hash affinity as the host
//     executor — so messages for one record are handled in transport
//     order on whichever side owns it.
//   - Persist-before-ack: a NIC core stages a follower persist exactly
//     as the host does (persistThen): the entry joins its key's drain
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
// engine's Handler callback). enq is the vFIFO admission timestamp (0
// unless tracing stamped it).
func (n *Node) handleOffloaded(m ddp.Message, enq int64) {
	if enq != 0 && n.tracer.Enabled() && n.tracer.SampleTxn(uint64(m.TS.Version)) {
		n.handleOffloadedTraced(m, enq)
		return
	}
	n.dispatchOffloaded(m)
}

// dispatchOffloaded is the NIC-side message switch. INV and VAL
// handling is identical on both sides; ACK gets a NIC-specific half.
//
//minos:hotpath
func (n *Node) dispatchOffloaded(m ddp.Message) {
	switch m.Kind {
	case ddp.KindInv:
		n.handleInv(m)
	case ddp.KindAck, ddp.KindAckC, ddp.KindAckP:
		n.handleAckOffloaded(m)
	case ddp.KindVal, ddp.KindValC, ddp.KindValP:
		n.handleVal(m)
	}
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
	n.dispatchOffloaded(m)
	n.tracer.Record(obs.Span{
		Key: uint64(m.Key), Ver: int64(m.TS.Version), Node: int32(n.id),
		Role: role, Phase: obs.PhaseNICHandle,
		Start: start, End: n.tracer.Now(),
	})
}

// handleAckOffloaded is handleAck on a NIC core plus the broadcast
// FSM: when the recorded acknowledgment completes the consistency
// quorum, the NIC fans out VAL_C itself (for the models that send it
// at consistency) instead of waiting for the coordinator goroutine to
// wake — the hot key's follower read stalls release one wake-up
// earlier. The writer's own fan-out and the NIC's deduplicate through
// wt.valCSent; the durable VAL always stays with the writer, which is
// the only party that waits out local durability.
//
// Same lock order as handleAck (txnStripe.mu, then writeTxn.mu — the
// declared edge); the record lock in nicFanoutValC is taken only after
// both are released, so the NIC path adds no new lock-order edges.
//
//minos:hotpath
func (n *Node) handleAckOffloaded(m ddp.Message) {
	s := n.stripeFor(m.Key)
	s.mu.Lock()
	wt := s.pending[txnKey{m.Key, m.TS}]
	if wt == nil {
		s.mu.Unlock()
		return
	}
	wt.mu.Lock()
	_ = wt.txn.RecordAck(m.Kind, m.From)
	wt.ackCn.Store(int32(wt.txn.AckCCount()))
	wt.ackPn.Store(int32(wt.txn.AckPCount()))
	fanout := n.policy.SendsValAtConsistency() && n.consistencyAcked(wt) &&
		wt.valCSent.CompareAndSwap(false, true)
	var followers []ddp.NodeID
	if fanout {
		// Immutable liveness snapshot: safe to use after the locks drop,
		// even if the writer retires wt concurrently.
		followers = wt.followers
	}
	if n.ackWaitSatisfiable(wt) {
		wt.cond.Broadcast()
	}
	wt.mu.Unlock()
	s.mu.Unlock()
	if fanout {
		n.nicFanoutValC(m.Key, m.TS, m.Scope, followers)
	}
}

// consistencyAcked reports whether every live follower acknowledged
// the volatile update. Caller holds wt.mu.
//
//minos:hotpath
func (n *Node) consistencyAcked(wt *writeTxn) bool {
	for _, f := range wt.followers {
		if n.isAlive(f) && !wt.txn.AckedC(f) {
			return false
		}
	}
	return true
}

// nicFanoutValC publishes the consistency point locally and broadcasts
// VAL_C — the same steps the writer performs after its consistency
// wait (write.go), made idempotent by the monotonic glb advance, the
// owner-matched RDLock release, and the valCSent guard on the send.
func (n *Node) nicFanoutValC(key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID, followers []ddp.NodeID) {
	r := n.store.GetOrCreate(key)
	r.Lock()
	r.Meta.AdvanceGlbVolatile(ts)
	if n.policy.Release == ddp.ReleaseWhenConsistent {
		r.ReleaseRDLockIfOwner(ts)
	}
	r.Wake()
	r.Unlock()
	n.sendVal(ddp.KindValC, key, ts, sc, followers)
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
