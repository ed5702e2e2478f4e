// Package node implements a live MINOS-B node: the leaderless DDP
// coordinator and follower algorithms of Fig 2 (with the Fig 3 per-model
// deltas) running on real goroutines over a Transport, with the failure
// detection and log-shipping recovery extensions of §III-E.
//
// This is the executable counterpart of the simulated cluster: both
// consume the protocol semantics in internal/ddp, so the model checker's
// and simulator's correctness arguments carry over.
package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/nvm"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/offload"
	"github.com/minos-ddp/minos/internal/transport"
)

// ErrClosed is returned by operations on a closed node.
var ErrClosed = errors.New("node: closed")

// Config tunes a live node.
type Config struct {
	// Model is the <consistency, persistency> model to run.
	Model ddp.Model
	// PersistDelay emulates the NVM write latency charged before a
	// persist is considered durable (the paper emulates 1295ns/KB).
	// The delay is charged once per drained group commit, not once per
	// entry — the dFIFO batching of §V-B.4. Zero persists instantly.
	PersistDelay time.Duration
	// HeartbeatEvery and FailAfter drive the failure detector: a peer
	// silent for FailAfter is declared failed and writes stop waiting
	// for it. Zero values disable detection (the pure protocol).
	HeartbeatEvery time.Duration
	FailAfter      time.Duration
	// Shards sizes the KV store's lock striping.
	Shards int
	// DispatchWorkers sizes the key-affine executor that replaces
	// goroutine-per-message dispatch. Rounded up to a power of two;
	// default 8.
	DispatchWorkers int
	// PersistDrains is the number of NVM drain engines (persist queues)
	// feeding the log. Rounded up to a power of two; default 4.
	PersistDrains int
	// Tracer, when non-nil, records per-transaction phase spans on the
	// write path (obs.Phase taxonomy). Nil disables tracing; the hot
	// path then pays a single predictable branch per phase boundary.
	Tracer *obs.Tracer
	// RTC selects the run-to-completion coordinator mode: protocol
	// messages are handled inline on the transport's polling goroutine
	// (no executor hand-off), and a coordinator blocked on
	// acknowledgments drives the receive path itself via inline polling
	// instead of parking. Requires a transport implementing
	// transport.InlinePoller; RTCAuto enables it whenever the transport
	// supports it.
	RTC RTCMode
	// ClientWindow, when positive, enables the remote-client frontend:
	// FrameClientRequest frames are admitted into a bounded queue of
	// this depth and executed by a worker pool; requests arriving with
	// the queue full are shed with an explicit StatusShed response.
	// Zero disables the frontend (client frames are answered StatusErr).
	ClientWindow int
	// ClientWorkers sizes the frontend's worker pool; default 8. Only
	// meaningful with ClientWindow > 0.
	ClientWorkers int
	// Offload, when non-nil, enables the soft-NIC offload engine
	// (MINOS-O): protocol messages for keys the adaptive policy deems
	// hot are handled on the engine's core pool instead of the host
	// dispatch path. The config's callback fields (Handler, HostFence,
	// HostDrained, Now) are owned by the node and overwritten;
	// set only the tuning knobs. &offload.Config{} selects all defaults.
	Offload *offload.Config
}

// RTCMode controls the run-to-completion dispatch mode.
type RTCMode int

const (
	// RTCAuto (the default) runs to completion when the transport
	// supports inline polling, and falls back to the executor-lane
	// dispatch otherwise.
	RTCAuto RTCMode = iota
	// RTCDisabled always uses the parked executor-lane dispatch, even
	// over transports that could poll inline.
	RTCDisabled
)

// txnKey identifies a write transaction; TS_WR is unique per record only.
type txnKey struct {
	key ddp.Key
	ts  ddp.Timestamp
}

// writeTxn is the coordinator-side state of one in-flight client-write.
// ackCn/ackPn mirror the acknowledgment counts atomically so the
// run-to-completion fast path can spin on them without taking mu; the
// authoritative per-follower state stays in txn under mu.
type writeTxn struct {
	mu        sync.Mutex
	cond      *sync.Cond
	txn       *ddp.WriteTxn
	followers []ddp.NodeID
	ackCn     atomic.Int32
	ackPn     atomic.Int32
}

// wtPool recycles writeTxn state (including the WriteTxn ack maps, via
// Reset) across writes. Safe because removePending holds the stripe
// lock, the only place concurrent handlers obtain wt references.
var wtPool = sync.Pool{New: func() any {
	wt := &writeTxn{txn: &ddp.WriteTxn{}}
	wt.cond = sync.NewCond(&wt.mu)
	return wt
}}

// getWriteTxn checks bookkeeping for one write out of the pool.
//
//minos:hotpath
func (n *Node) getWriteTxn(key ddp.Key, ts ddp.Timestamp, followers []ddp.NodeID) *writeTxn {
	wt := wtPool.Get().(*writeTxn)
	// followers comes from an immutable liveness snapshot; aliasing it
	// is safe and keeps the write fast path allocation-free.
	wt.followers = followers
	wt.txn.Reset(n.policy, n.id, key, ts, len(followers))
	wt.ackCn.Store(0)
	wt.ackPn.Store(0)
	return wt
}

// scopeEntry is a deferred persist under <Lin, Scope>.
type scopeEntry struct {
	key   ddp.Key
	ts    ddp.Timestamp
	value []byte
}

// scopePersist tracks one [PERSIST]sc at its coordinator.
type scopePersist struct {
	mu        sync.Mutex
	cond      *sync.Cond
	followers []ddp.NodeID
	got       map[ddp.NodeID]bool
}

// txnStripeCount stripes the coordinator's transaction table (pending
// writes and issued versions); power of two for mask indexing.
const txnStripeCount = 64

// txnStripe is one stripe of the coordinator's transaction table.
// (Issued-version tracking lives on kv.Record.Issued, under the record
// lock the write path already holds.)
type txnStripe struct {
	mu      sync.Mutex
	pending map[txnKey]*writeTxn
}

// liveView is an immutable snapshot of the failure detector's world.
// It is published atomically so the protocol hot paths — the isAlive
// checks inside the acknowledgment spins and the follower snapshot at
// write start — read liveness without taking any lock.
type liveView struct {
	epoch uint64
	alive map[ddp.NodeID]bool // immutable after publish
	live  []ddp.NodeID        // alive peers, ascending; immutable
}

// Node is one live MINOS-B replica.
type Node struct {
	cfg    Config
	policy ddp.Policy
	id     ddp.NodeID
	tr     transport.Transport

	// peers is the transport's sorted peer list, snapshotted once at
	// construction so the hot paths never re-derive it.
	peers   []ddp.NodeID
	peerIdx map[ddp.NodeID]int

	store *kv.Store
	log   *nvm.Log
	pipe  *nvm.Pipeline
	exec  *executor
	// off is the soft-NIC offload engine (MINOS-O); nil runs pure
	// MINOS-B, every message on the host dispatch path.
	off *offload.Engine
	// fe is the remote-client frontend (nil unless Config.ClientWindow
	// is set): bounded admission plus a worker pool over the same
	// Write/Read/Persist paths local callers use.
	fe *frontend

	// poller is non-nil when the transport supports inline polling;
	// inline is true when the node runs messages to completion on the
	// polling goroutine (no executor lanes, no recv loop). syncSend is
	// true when the transport finishes encoding before Send/Broadcast
	// return, letting the write path skip its defensive value copy.
	poller   transport.InlinePoller
	inline   bool
	syncSend bool

	// vals coalesces release-side VAL broadcasts from back-to-back
	// commits (valbatch.go); non-nil only in run-to-completion mode over
	// a synchronous encoder.
	vals *valStage

	// detecting is true when the failure detector is configured; with it
	// off, noteAlive (a clock read per inbound frame) short-circuits.
	detecting bool

	txns [txnStripeCount]*txnStripe

	scopeMu   sync.Mutex // guards scopeBuf, scopeWait
	scopeBuf  map[ddp.ScopeID][]scopeEntry
	scopeWait map[ddp.ScopeID]*scopePersist

	live     atomic.Pointer[liveView]
	liveMu   sync.Mutex // serializes liveView publication only
	lastSeen []atomic.Int64

	scopeSeq atomic.Uint64
	txnSeq   atomic.Uint64
	closed   atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup

	// obs is the node's metrics registry ("node." prefix); the NVM
	// pipeline and the tracer register into it, so one Collect walks
	// the whole node.
	obs        *obs.Registry
	tracer     *obs.Tracer
	heartbeats *obs.Counter
	laneDepth  *obs.Gauge
	valBatches *obs.Counter
	valsStaged *obs.Counter

	// Stats counts protocol events for observability and tests.
	Stats Stats
}

// Stats exposes the node's protocol counters. The fields are
// registry-backed instruments (they appear in snapshots under the
// "node." prefix); Add/Load keep the historical atomic surface.
type Stats struct {
	Writes         *obs.Counter
	Reads          *obs.Counter
	ObsoleteWrites *obs.Counter
	Persists       *obs.Counter
	InvsHandled    *obs.Counter
	PeersFailed    *obs.Counter
	Recoveries     *obs.Counter
}

// New creates a node over tr. Call Start to begin serving.
func New(cfg Config, tr transport.Transport) *Node {
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	if cfg.DispatchWorkers <= 0 {
		cfg.DispatchWorkers = 8
	}
	if cfg.PersistDrains <= 0 {
		cfg.PersistDrains = 4
	}
	n := &Node{
		cfg:       cfg,
		policy:    ddp.PolicyFor(cfg.Model),
		id:        tr.Self(),
		tr:        tr,
		peers:     tr.Peers(),
		store:     kv.NewStore(cfg.Shards),
		log:       nvm.NewLog(),
		scopeBuf:  make(map[ddp.ScopeID][]scopeEntry),
		scopeWait: make(map[ddp.ScopeID]*scopePersist),
		stop:      make(chan struct{}),
	}
	for i := range n.txns {
		n.txns[i] = &txnStripe{pending: make(map[txnKey]*writeTxn)}
	}
	if p, ok := tr.(transport.InlinePoller); ok && cfg.RTC != RTCDisabled {
		n.poller = p
		n.inline = true
	}
	_, n.syncSend = tr.(transport.SyncEncoder)
	if n.inline && n.syncSend {
		n.vals = &valStage{}
	}
	n.detecting = cfg.HeartbeatEvery > 0 && cfg.FailAfter > 0
	n.peerIdx = make(map[ddp.NodeID]int, len(n.peers))
	n.lastSeen = make([]atomic.Int64, len(n.peers))
	now := time.Now().UnixNano()
	alive := make(map[ddp.NodeID]bool, len(n.peers))
	for i, p := range n.peers {
		n.peerIdx[p] = i
		n.lastSeen[i].Store(now)
		alive[p] = true
	}
	n.live.Store(&liveView{alive: alive, live: n.peers})
	n.obs = obs.NewRegistry("node")
	n.Stats = Stats{
		Writes:         n.obs.Counter("writes"),
		Reads:          n.obs.Counter("reads"),
		ObsoleteWrites: n.obs.Counter("obsolete_writes"),
		Persists:       n.obs.Counter("persists"),
		InvsHandled:    n.obs.Counter("invs_handled"),
		PeersFailed:    n.obs.Counter("peers_failed"),
		Recoveries:     n.obs.Counter("recoveries"),
	}
	n.heartbeats = n.obs.Counter("heartbeats_sent")
	n.laneDepth = n.obs.Gauge("exec_lane_depth_max")
	n.valBatches = n.obs.Counter("val_batches")
	n.valsStaged = n.obs.Counter("vals_staged")
	n.tracer = cfg.Tracer
	n.pipe = nvm.NewPipeline(n.log, nvm.PipelineConfig{
		// PersistDelay is a flat per-device-write cost, matching the
		// pre-pipeline semantics where every persist charged the full
		// delay; group commit amortizes it across a drained batch.
		Lat:      nvm.LatencyModel{FixedNs: cfg.PersistDelay.Nanoseconds()},
		Drains:   cfg.PersistDrains,
		OnBatch:  n.onPersistBatch,
		OnInline: n.onPersistInline,
		OnAck:    n.sendDurableAck,
	})
	n.exec = newExecutor(n, cfg.DispatchWorkers)
	if cfg.ClientWindow > 0 {
		if cfg.ClientWorkers <= 0 {
			cfg.ClientWorkers = 8
			n.cfg.ClientWorkers = 8
		}
		n.fe = newFrontend(n, cfg.ClientWindow)
	}
	if cfg.Offload != nil {
		oc := *cfg.Offload
		oc.Handler = n.handleOffloaded
		oc.Now = nil
		if n.tracer.Enabled() {
			oc.Now = n.tracer.Now
		}
		if n.inline {
			// Run-to-completion delivery is inline: by the time Route
			// sees a message, its predecessor has fully completed, so
			// promotion needs no host-lane fence.
			oc.HostFence, oc.HostDrained = nil, nil
		} else {
			oc.HostFence = n.laneMark
			oc.HostDrained = n.laneDrained
		}
		n.off = offload.New(oc)
		n.obs.Register(n.off)
	}
	n.obs.Register(n.pipe)
	if n.tracer != nil {
		n.obs.Register(n.tracer)
	}
	return n
}

// ID returns this node's identity.
func (n *Node) ID() ddp.NodeID { return n.id }

// Model returns the DDP model this node runs.
func (n *Node) Model() ddp.Model { return n.cfg.Model }

// Store exposes the replica (read-only use by tests and tools).
func (n *Node) Store() *kv.Store { return n.store }

// Log exposes the persistent log.
func (n *Node) Log() *nvm.Log { return n.log }

// Pipeline exposes the durability pipeline (tests and tools).
func (n *Node) Pipeline() *nvm.Pipeline { return n.pipe }

// Tracer returns the node's trace recorder (nil when tracing is off).
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

// Describe implements obs.Source.
func (n *Node) Describe() string { return "node" }

// Collect implements obs.Source: one call walks the node's protocol
// counters, its NVM pipeline, and (when tracing) the tracer's
// accounting.
func (n *Node) Collect(s *obs.Snapshot) { n.obs.Collect(s) }

// Start begins serving protocol messages and, if configured, the
// failure detector. In run-to-completion mode the transport's polling
// goroutine delivers frames straight into the handlers; otherwise the
// recv loop feeds the key-affine executor.
func (n *Node) Start() {
	if n.inline {
		n.poller.SetHandler(n.handleFrame)
	} else {
		n.exec.start()
		n.wg.Add(1)
		go n.recvLoop()
	}
	if n.cfg.HeartbeatEvery > 0 && n.cfg.FailAfter > 0 {
		n.wg.Add(1)
		go n.heartbeatLoop()
	}
	if n.vals != nil {
		n.wg.Add(1)
		go n.valFlushLoop()
	}
	if n.fe != nil {
		n.fe.start(n.cfg.ClientWorkers)
	}
	if n.off != nil {
		n.off.Start()
	}
}

// Quiesce is the node's drain barrier: it blocks until no write
// transaction this node coordinates is pending and its durability
// pipeline has drained, every durable acknowledgment sent. Models that
// answer the client at consistency (Lin-REnf, Event) still have
// acknowledgments and persists in flight when the client returns, so
// call it after a workload and before reading counters. ErrClosed
// means the node closed first.
func (n *Node) Quiesce() error {
	for wait := time.Microsecond; n.pendingTxns() > 0; wait = min(2*wait, time.Millisecond) {
		if n.closed.Load() {
			return ErrClosed
		}
		time.Sleep(wait)
	}
	if !n.pipe.Quiesce() {
		return ErrClosed
	}
	return nil
}

// pendingTxns counts the in-flight write transactions across stripes.
func (n *Node) pendingTxns() int {
	total := 0
	for _, s := range n.txns {
		s.mu.Lock()
		total += len(s.pending)
		s.mu.Unlock()
	}
	return total
}

// Close shuts the node down, waking every blocked operation.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(n.stop)
	n.tr.Close()

	// Stop the durability pipeline first: executor workers blocked in a
	// scope flush and clients blocked in an inline persist unblock with
	// a false (not-durable) result.
	n.pipe.Close()

	// Wake blocked coordinators and readers so they observe closure.
	// Each broadcast happens under the waiter's own mutex: a waiter
	// holds it from its closed-check until Wait, so either it sees the
	// flag or the broadcast reaches its Wait — no lost wake-up window.
	pending, scopes := n.collectWaiters()
	for _, wt := range pending {
		wt.mu.Lock()
		wt.cond.Broadcast()
		wt.mu.Unlock()
	}
	for _, sp := range scopes {
		sp.mu.Lock()
		sp.cond.Broadcast()
		sp.mu.Unlock()
	}
	n.store.Range(func(r *kv.Record) bool {
		r.Lock()
		r.Wake()
		r.Unlock()
		return true
	})
	// The offload engine closes after the record wakes: a NIC core
	// blocked in a handler's record wait needs the wake (and the closed
	// flag it re-checks) to unwind before the engine's WaitGroup can
	// drain.
	if n.off != nil {
		n.off.Close()
	}
	n.wg.Wait()
	return nil
}

// collectWaiters snapshots every in-flight write transaction and scope
// flush across the stripes.
func (n *Node) collectWaiters() ([]*writeTxn, []*scopePersist) {
	var pending []*writeTxn
	for _, s := range n.txns {
		s.mu.Lock()
		for _, wt := range s.pending {
			pending = append(pending, wt)
		}
		s.mu.Unlock()
	}
	n.scopeMu.Lock()
	scopes := make([]*scopePersist, 0, len(n.scopeWait))
	for _, sp := range n.scopeWait {
		scopes = append(scopes, sp)
	}
	n.scopeMu.Unlock()
	return pending, scopes
}

// recvLoop feeds the executor-lane placement: every inbound frame
// goes through handleFrame on this one delivery goroutine.
func (n *Node) recvLoop() {
	defer n.wg.Done()
	defer n.exec.closeQueues()
	for f := range n.tr.Recv() {
		n.handleFrame(f)
	}
}

// handleFrame is the node's one frame sink. It runs on a single
// delivery goroutine: recvLoop, or in run-to-completion mode whichever
// goroutine holds the transport's poll token (the endpoint's poller or
// a coordinator polling inline during its ack wait). Protocol messages
// go to the offload engine when their key is hot, otherwise to
// handleMessage inline (run to completion, no hand-off) or to the
// key-affine executor lanes. Frame values may borrow transport storage;
// every retaining path (record apply, scope buffer, log append, NIC
// admission) copies before parking or returning, so nothing outlives
// the callback.
//
//minos:hotpath
func (n *Node) handleFrame(f transport.Frame) {
	n.noteAlive(f.From)
	switch f.Kind {
	case transport.FrameMessage:
		// Offload gate: Route runs on the single delivery goroutine,
		// which is what keeps the per-key ownership transitions
		// ordered.
		if n.off != nil && offloadable(f.Msg) && n.off.Route(f.Msg) {
			return
		}
		if n.inline {
			n.handleMessage(f.Msg)
		} else {
			n.exec.dispatch(f.Msg)
		}
	case transport.FrameHeartbeat:
		// noteAlive above is the whole job.
	case transport.FrameClientRequest:
		// NEVER execute the operation here: in run-to-completion mode
		// this goroutine holds the poll token, and a client op waiting
		// for its own acks would deadlock against it. admitClient only
		// enqueues (or sheds).
		n.admitClient(f)
	case transport.FrameRecoveryRequest:
		n.spawnRecovery(f.From, f.Since)
	case transport.FrameRecoveryEntries:
		n.applyRecovery(f.Entries)
	}
}

// admitClient routes a client request into the frontend; with no
// frontend configured the node answers StatusErr so remote clients
// fail fast instead of hanging.
func (n *Node) admitClient(f transport.Frame) {
	if n.fe == nil {
		_ = n.tr.Send(f.From, transport.Frame{
			Kind:   transport.FrameClientResponse,
			Client: f.Client,
			Resp:   transport.ClientResponse{Op: f.Req.Op, Status: transport.StatusErr},
		})
		return
	}
	n.fe.admit(f)
}

// spawnRecovery serves a log-shipping request off the delivery path;
// recovery is rare and EntriesSince is O(log tail).
func (n *Node) spawnRecovery(from ddp.NodeID, since uint64) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.serveRecovery(from, since)
	}()
}

// send transmits a protocol message; transport failures are left to the
// failure detector.
func (n *Node) send(to ddp.NodeID, m ddp.Message) {
	n.flushVals() // staged VALs precede later traffic (FIFO)
	m.From = n.id
	if err := n.tr.Send(to, transport.Frame{Kind: transport.FrameMessage, Msg: m}); err != nil {
		// The peer is unreachable; the detector (or reconnection) will
		// resolve it. Protocol correctness never depends on a
		// best-effort send succeeding.
		return
	}
}

// sendAll transmits m to every follower. When the follower set is the
// whole cluster (the common case: nothing has failed), it uses the
// transport's broadcast so the frame is encoded once and fanned out as
// shared bytes — the paper's message-broadcast optimization (§VI).
// With a reduced follower set it falls back to per-peer sends, since
// broadcasting would also wake peers the detector has declared dead.
func (n *Node) sendAll(followers []ddp.NodeID, m ddp.Message) {
	n.flushVals() // staged VALs precede later traffic (FIFO)
	if len(followers) == len(n.peers) {
		m.From = n.id
		// Best effort, like send: unreachable peers are the failure
		// detector's problem.
		_ = n.tr.Broadcast(transport.Frame{Kind: transport.FrameMessage, Msg: m})
		return
	}
	for _, f := range followers {
		n.send(f, m)
	}
}

// stripeFor returns the transaction-table stripe for key.
func (n *Node) stripeFor(key ddp.Key) *txnStripe {
	return n.txns[key.Hash()>>32&(txnStripeCount-1)]
}

// generateTS issues a unique timestamp for a write to key; the caller
// holds the record lock, which guards the record's issued-version
// high-water mark — no additional lock and no map on the path.
//
//minos:hotpath
func (n *Node) generateTS(r *kv.Record) ddp.Timestamp {
	v := r.Meta.VolatileTS.Version
	if r.Issued > v {
		v = r.Issued
	}
	v++
	r.Issued = v
	return ddp.Timestamp{Node: n.id, Version: v}
}

// liveFollowers returns the followers currently considered alive. The
// slice is an immutable snapshot shared with the liveness view; callers
// must not mutate it.
func (n *Node) liveFollowers() []ddp.NodeID {
	return n.live.Load().live
}

// isAlive is a lock-free read of the published liveness snapshot; it
// sits inside the waitAcks predicate.
func (n *Node) isAlive(id ddp.NodeID) bool {
	return n.live.Load().alive[id]
}

func (n *Node) addPending(key ddp.Key, ts ddp.Timestamp, wt *writeTxn) {
	s := n.stripeFor(key)
	s.mu.Lock()
	s.pending[txnKey{key, ts}] = wt
	s.mu.Unlock()
}

// removePending retires a write transaction and recycles its
// bookkeeping. Taking the stripe lock is the quiescence point: handlers
// only obtain wt references under it (handleAck holds it for the whole
// ack update), so once the delete commits no handler can still touch
// the recycled state. Close's broadcast may race a recycle, but a
// spurious broadcast on a reused cond is benign — waiters re-check
// their predicates.
//
//minos:hotpath
func (n *Node) removePending(key ddp.Key, ts ddp.Timestamp) {
	s := n.stripeFor(key)
	k := txnKey{key, ts}
	s.mu.Lock()
	wt := s.pending[k]
	delete(s.pending, k)
	s.mu.Unlock()
	if wt != nil {
		wtPool.Put(wt)
	}
}

// persist makes (key, ts, value) durable through the pipeline: it
// blocks until the group commit holding the entry drains (the
// durability point) and returns false if the node closed first.
func (n *Node) persist(key ddp.Key, ts ddp.Timestamp, value []byte, sc ddp.ScopeID) bool {
	return n.pipe.Persist(key, ts, value, sc)
}

// persistThen pipelines the update and sends kind to the coordinator
// once the group commit containing it has drained — the follower's
// persist-before-ack step (Fig 2 L39-40) without parking an executor
// worker or NIC core for the NVM latency. The untraced case rides the
// pipeline's ack fields (EnqueueAck → sendDurableAck), allocating
// nothing; the acknowledgment runs strictly after the log append, so
// it can never outrun durability.
//
//minos:hotpath
func (n *Node) persistThen(m ddp.Message, kind ddp.MsgKind) {
	// Followers have no coordinator transaction sequence; the sampling
	// decision hashes the issued version instead, so a sampled run pays
	// the follower-side clock reads at the same 1-in-N rate.
	if n.tracer.Enabled() && n.tracer.SampleTxn(uint64(m.TS.Version)) {
		n.pipe.Enqueue(m.Key, m.TS, m.Value, m.Scope, n.tracedAck(m, kind))
		return
	}
	n.pipe.EnqueueAck(m.Key, m.TS, m.Value, m.Scope, m.From, kind)
}

// sendDurableAck is the pipeline's OnAck hook: it ships the durable
// acknowledgment an EnqueueAck entry carries. It runs on the drain
// engine strictly after the entry's group commit, so the
// persist-before-ack order holds with no per-entry closure.
//
//minos:hotpath
func (n *Node) sendDurableAck(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID) {
	n.send(to, ddp.Message{Kind: kind, Key: key, TS: ts, Scope: sc, Size: ddp.ControlSize()})
}

// tracedAck builds persistThen's continuation for a sampled update:
// it wraps the follower's durability wait and the acknowledgment that
// follows it in two chained spans. The persist (group_commit) span
// always closes before the ack (val) span opens, which the trace
// ordering tests pin as the persist-before-ack invariant. Followers
// have no transaction id; spans correlate by (Key, Ver).
func (n *Node) tracedAck(m ddp.Message, kind ddp.MsgKind) func() {
	to, key, ts, sc := m.From, m.Key, m.TS, m.Scope
	start := n.tracer.Now()
	return func() {
		ackStart := n.tracer.Now()
		n.tracer.Record(obs.Span{
			Key: uint64(key), Ver: int64(ts.Version), Node: int32(n.id),
			Role: obs.RoleFollower, Phase: obs.PhaseGroupCommit,
			Start: start, End: ackStart,
		})
		n.send(to, ddp.Message{Kind: kind, Key: key, TS: ts, Scope: sc, Size: ddp.ControlSize()})
		n.tracer.Record(obs.Span{
			Key: uint64(key), Ver: int64(ts.Version), Node: int32(n.id),
			Role: obs.RoleFollower, Phase: obs.PhaseVal,
			Start: ackStart, End: n.tracer.Now(),
		})
	}
}

// persistAsync pipelines the update with no completion action (Event's
// lazy follower persist, REnf's background coordinator persist).
func (n *Node) persistAsync(key ddp.Key, ts ddp.Timestamp, value []byte, sc ddp.ScopeID) {
	n.pipe.Enqueue(key, ts, value, sc, nil)
}

// persistMany flushes a scope's buffered entries as one pipelined
// group, blocking until all of them are durable; false means the node
// closed first.
func (n *Node) persistMany(entries []scopeEntry, sc ddp.ScopeID) bool {
	if len(entries) == 0 {
		return true
	}
	ups := make([]nvm.Update, len(entries))
	for i, e := range entries {
		ups[i] = nvm.Update{Key: e.key, TS: e.ts, Value: e.value, Scope: sc}
	}
	return n.pipe.PersistMany(ups)
}

// onPersistBatch runs on a drain engine after each group commit: it
// counts the drained entries and wakes each touched record once per
// batch (instead of once per entry) so PersistencySpin waiters observe
// the new durable timestamps.
func (n *Node) onPersistBatch(keys []ddp.Key, entries int) {
	n.Stats.Persists.Add(int64(entries))
	for _, k := range keys {
		if r := n.store.Get(k); r != nil {
			r.Lock()
			r.Wake()
			r.Unlock()
		}
	}
}

// onPersistInline is onPersistBatch for the pipeline's synchronous
// single-entry append path: same counter, same record wake, no slice.
//
//minos:hotpath
func (n *Node) onPersistInline(key ddp.Key) {
	n.Stats.Persists.Add(1)
	if r := n.store.Get(key); r != nil {
		r.Lock()
		r.Wake()
		r.Unlock()
	}
}

func (n *Node) String() string {
	return fmt.Sprintf("node %d (%v)", n.id, n.cfg.Model)
}
