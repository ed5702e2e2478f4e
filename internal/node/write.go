package node

import (
	"runtime"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/obs"
)

// Write performs a client-write: replicate value under key to every
// node per the configured DDP model (Fig 2 Coordinator). It returns once
// the model's visibility/durability conditions for a response hold. A
// write superseded by a concurrent newer write returns successfully
// after the superseding write completes (the Obsolete path).
func (n *Node) Write(key ddp.Key, value []byte) error {
	return n.writeScoped(key, value, 0)
}

// WriteScoped is Write tagging the update with scope sc (<Lin, Scope>).
func (n *Node) WriteScoped(key ddp.Key, value []byte, sc ddp.ScopeID) error {
	if !n.policy.Scoped {
		return n.Write(key, value)
	}
	return n.writeScoped(key, value, sc)
}

//minos:hotpath
func (n *Node) writeScoped(key ddp.Key, value []byte, sc ddp.ScopeID) error {
	if n.closed.Load() {
		return ErrClosed
	}
	n.Stats.Writes.Add(1)
	tc := n.startTrace(key)
	r := n.store.GetOrCreate(key)

	// The transaction-stripe mutex nests inside the record lock
	// (addPending below runs with the record held).
	//minos:lockorder kv.Record < node.txnStripe.mu
	r.Lock()
	ts := n.generateTS(r) // L4
	tc.setVer(ts.Version)
	if r.Meta.Obsolete(ts) { // L5
		n.Stats.ObsoleteWrites.Add(1)
		err := n.handleObsoleteLocked(r, ts)
		r.Unlock()
		return err
	}
	r.SnatchRDLock(ts) // L8

	for r.Meta.WRLock { // L9
		if n.closed.Load() {
			r.Unlock()
			return ErrClosed
		}
		r.Wait()
	}
	r.Meta.WRLock = true

	if r.Meta.Obsolete(ts) { // L10: final timestamp check
		r.Meta.WRLock = false // L15: release WRLock early
		r.Wake()
		n.Stats.ObsoleteWrites.Add(1)
		err := n.handleObsoleteLocked(r, ts)
		r.Unlock()
		return err
	}

	followers := n.liveFollowers()
	wt := n.getWriteTxn(key, ts, followers)
	n.addPending(key, ts, wt)
	tc.mark(obs.PhaseIssue) // timestamp issued, locks held, txn pending

	inv := ddp.Message{
		Kind: ddp.KindInv, Key: key, TS: ts, Scope: sc,
		Value: value,
		Size:  ddp.DataSize(len(value)),
	}
	if !n.syncSend {
		// The transport may retain the frame after Send returns (queued
		// in-process delivery); give it a copy it owns. Synchronous
		// encoders (TCP batcher, ring) finish with the bytes before
		// returning, so the client's buffer can be aliased directly.
		inv.Value = append([]byte(nil), value...)
	}
	// The INV fan-out runs with the record held, and every send first
	// flushes the staged VAL broadcasts; the stage mutex is a leaf (its
	// holder only encodes and broadcasts, never touching records).
	//minos:lockorder kv.Record < node.valStage.mu
	n.sendAll(followers, inv) // L11: send INVs (broadcast when all alive)
	tc.mark(obs.PhaseInvFanout)

	r.Publish(value, ts)  // L12: update local volatile state (seqlocked)
	r.Meta.WRLock = false // L13
	r.Wake()
	r.Unlock()

	// Step d (L18 / Fig 3): persist the local update. The persist-enqueue
	// span covers the local apply plus the pipeline submit; only the
	// inline model also records a coordinator group-commit span, because
	// only there does the client path block for the drain.
	switch n.policy.CoordPersist {
	case ddp.CoordPersistInline:
		tc.mark(obs.PhasePersistEnqueue)
		if !n.persist(key, ts, value, sc) {
			n.removePending(key, ts)
			return ErrClosed
		}
		tc.mark(obs.PhaseGroupCommit)
	case ddp.CoordPersistBackground:
		// The pipeline copies the value and drains in the background;
		// no goroutine per write. waitLocallyDurable picks the result
		// up later via the batch wake.
		n.persistAsync(key, ts, value, sc)
		tc.mark(obs.PhasePersistEnqueue)
	case ddp.CoordPersistOnScopeFlush:
		n.bufferScope(sc, key, ts, value)
		tc.mark(obs.PhasePersistEnqueue)
	}

	// Step e: spin for consistency acknowledgments.
	if err := n.waitAcks(wt, false); err != nil {
		n.removePending(key, ts)
		return err
	}
	tc.mark(obs.PhaseAckWait)
	r.Lock()
	r.Meta.AdvanceGlbVolatile(ts)
	r.Wake()
	if n.policy.SendsValAtConsistency() && n.policy.Release == ddp.ReleaseWhenConsistent {
		r.ReleaseRDLockIfOwner(ts)
		r.Wake()
	}
	r.Unlock()
	if n.policy.SendsValAtConsistency() {
		n.sendVal(ddp.KindValC, key, ts, sc, followers)
		tc.mark(obs.PhaseVal)
	}

	if n.policy.Return == ddp.ReturnWhenConsistent {
		if n.policy.TracksPersistency {
			// REnf: finish durability off the client's critical path.
			// The background half runs untraced (nil traceCtx): its spans
			// would overlap the next client write's, breaking the
			// non-interleaving invariant the trace format guarantees.
			n.wg.Add(1)
			//minos:allow hotpathalloc -- REnf spawns the durability half off the client's critical path; one goroutine per returned write is the model's cost
			go func() {
				defer n.wg.Done()
				n.finishDurable(r, wt, key, ts, sc, followers, nil)
			}()
		} else {
			n.removePending(key, ts)
		}
		tc.mark(obs.PhaseCompletion)
		return nil
	}

	// Synch / Strict: the response waits for durability everywhere.
	err := n.finishDurable(r, wt, key, ts, sc, followers, tc)
	tc.mark(obs.PhaseCompletion)
	return err
}

// finishDurable completes the durability half: wait for all persistency
// acknowledgments and the local persist, publish glb_durableTS, release
// the RDLock where the model demands, send the durable VAL, retire.
func (n *Node) finishDurable(r *kv.Record, wt *writeTxn, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID, followers []ddp.NodeID, tc *traceCtx) error {
	defer n.removePending(key, ts)
	if err := n.waitAcks(wt, true); err != nil {
		return err
	}
	tc.mark(obs.PhaseAckWait) // second ack wait: the persistency spin
	if err := n.waitLocallyDurable(r, key, ts); err != nil {
		return err
	}
	tc.mark(obs.PhaseGroupCommit) // local durability point
	r.Lock()
	r.Meta.AdvanceGlbDurable(ts)
	if n.policy.Release == ddp.ReleaseWhenDurable || !n.policy.SendsValAtConsistency() {
		r.ReleaseRDLockIfOwner(ts)
	}
	r.Wake()
	r.Unlock()
	if kind, ok := n.policy.DurableValKind(); ok {
		n.sendVal(kind, key, ts, sc, followers)
		tc.mark(obs.PhaseVal)
	}
	return nil
}

func (n *Node) sendVal(kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID, followers []ddp.NodeID) {
	if n.vals != nil && len(followers) == len(n.peers) {
		// Run-to-completion mode: stage the validation; the next
		// outbound message (or the flush ticker) broadcasts it, letting
		// back-to-back commits share one encode+fan-out (valbatch.go).
		n.stageVal(kind, key, ts, sc)
		return
	}
	val := ddp.Message{Kind: kind, Key: key, TS: ts, Scope: sc, Size: ddp.ControlSize()}
	n.sendAll(followers, val)
}

// Run-to-completion ack-wait tuning: a coordinator spins this many
// rounds — each one either draining inbound frames itself (PollInline)
// or yielding the processor — before falling back to the parked wait.
// Over the ring fabric at zero persist delay the whole INV→ACK round
// trip completes within a few rounds; the parked path remains the
// fallback for slow acks and for followers that die mid-write.
const (
	rtcSpinRounds = 256
	rtcPollBudget = 32
)

// waitAcks blocks until every live follower acknowledged the update's
// persistency (persist) or its consistency (!persist); the persistency
// wait is vacuous for models that do not track it. In run-to-completion
// mode it first spins on the atomic ack count, driving the transport's
// receive path inline so the acks this coordinator is waiting for are
// processed on its own goroutine. It then parks on wt.cond, which also
// understands follower death: the detector stops the wait for a
// follower the moment it declares it failed.
//
//minos:hotpath
func (n *Node) waitAcks(wt *writeTxn, persist bool) error {
	if n.inline {
		count := &wt.ackCn
		if persist {
			count = &wt.ackPn
		}
		need := int32(len(wt.followers))
		for spin := 0; spin < rtcSpinRounds; spin++ {
			if count.Load() >= need {
				return nil
			}
			// A spinning coordinator must not sit on staged VAL
			// releases: its peers' hot-key writes wait on them.
			n.flushVals()
			if n.poller.PollInline(rtcPollBudget) == 0 {
				runtime.Gosched()
			}
		}
	}
	// Parked waiters cannot piggyback flushes; drain the stage before
	// blocking so peers are not left waiting on our releases.
	n.flushVals()
	wt.mu.Lock()
	defer wt.mu.Unlock()
	for {
		if n.closed.Load() {
			return ErrClosed
		}
		if n.allAcked(wt, persist) {
			return nil
		}
		wt.cond.Wait()
	}
}

// waitLocallyDurable blocks until the local log holds ts (the local
// persist may run in the background under REnf).
func (n *Node) waitLocallyDurable(r *kv.Record, key ddp.Key, ts ddp.Timestamp) error {
	// The durability predicate reads the log shard index under the
	// record lock; shard mutexes are leaves of the write path.
	//minos:lockorder kv.Record < nvm.logShard.mu
	r.Lock()
	defer r.Unlock()
	for !n.log.LocallyDurable(key, ts) {
		if n.closed.Load() {
			return ErrClosed
		}
		r.Wait()
	}
	return nil
}

// handleObsoleteLocked is the paper's handleObsolete(): spin until the
// superseding write completes consistency-wise (and persistency-wise for
// the conservative models). The caller holds the record lock. If this
// write's snatch won the lock against an already-finished superseder,
// release it (liveness: nobody else will).
func (n *Node) handleObsoleteLocked(r *kv.Record, ts ddp.Timestamp) error {
	obs := r.Meta.VolatileTS
	for !r.Meta.ConsistencyDone(obs) {
		if n.closed.Load() {
			return ErrClosed
		}
		r.Wait()
	}
	if n.policy.PersistencySpinOnObsolete {
		for !r.Meta.PersistencyDone(obs) {
			if n.closed.Load() {
				return ErrClosed
			}
			r.Wait()
		}
	}
	if r.ReleaseRDLockIfOwner(ts) {
		r.Wake()
	}
	return nil
}

// Read performs a client-read (§III-D): always local, stalled only
// while the record's RDLock is held by an in-flight write. It returns a
// copy of the value (nil if the key has never been written).
func (n *Node) Read(key ddp.Key) ([]byte, error) {
	return n.ReadInto(key, nil)
}

// ReadInto is Read with a caller-supplied buffer: the value is copied
// into buf (reusing its capacity, growing it only when too small) and
// the filled slice returned, so a client that recycles its buffer reads
// without allocating. The steady-state path is the record's seqlock —
// no mutex, no condvar, one wait-free store lookup; the mutex+condvar
// wait remains the fallback whenever the record's RDLock is held by an
// in-flight write (the §III-D read stall) or a publication keeps
// racing the copy.
//
//minos:hotpath
func (n *Node) ReadInto(key ddp.Key, buf []byte) ([]byte, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	n.Stats.Reads.Add(1)
	r := n.store.Get(key)
	if r == nil {
		// Never written or preloaded anywhere: nothing to stall on.
		return nil, nil
	}
	if v, ok := r.ReadInto(buf); ok {
		return v, nil
	}
	return n.readSlow(r, buf)
}

// readSlow is the read fallback: take the record mutex and wait out the
// RDLock exactly as the pre-seqlock read path did.
func (n *Node) readSlow(r *kv.Record, buf []byte) ([]byte, error) {
	r.Lock()
	defer r.Unlock()
	for r.Meta.RDLocked() {
		if n.closed.Load() {
			return nil, ErrClosed
		}
		r.Wait()
	}
	if r.Value == nil {
		return nil, nil
	}
	return append(buf[:0], r.Value...), nil
}
