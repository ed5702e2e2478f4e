package nvm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// Pipeline is the software analogue of the paper's dFIFO drain engines
// (§V-B.4, modeled for the offloaded runtime in simcluster): updates
// headed for NVM are enqueued on per-key-shard persist queues and
// drained by one worker per queue. Each drain is a group commit — one
// LatencyModel charge covers every entry that coalesced into the batch
// while the previous batch was draining — and completes with a single
// wake for all blocked persisters.
//
// Ordering: a key always maps to the same queue, and a queue's batches
// drain strictly in FIFO order, so persists for one record reach the
// log in enqueue order (the per-record ordering Fig 2 relies on).
// Across records, batches from different queues interleave freely;
// that is exactly the out-of-order log insertion §V-B.4 permits,
// because obsolete entries are filtered when the log is applied.
//
// The queued path is allocation-free in steady state: each queue
// recycles its value buffers (a free list) and alternates between two
// generation-counted batches (cur accumulating, spare draining), and
// durable acknowledgments ride entry fields dispatched through the
// OnAck hook instead of per-entry continuation closures.
type Pipeline struct {
	log      *Log
	lat      LatencyModel
	onBatch  func(keys []ddp.Key, entries int)
	onInline func(key ddp.Key)
	onAck    func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, scope ddp.ScopeID)

	queues []*drainQueue
	mask   uint64

	// inline short-circuits the queues entirely when the latency model
	// charges nothing: the append happens synchronously in the caller,
	// so a zero-delay configuration pays no handoff cost.
	inline bool

	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
	// unsettled counts queued entries whose batch has not finished
	// draining: appended, hooks run, persisters woken. Quiesce waits
	// for it to reach zero.
	unsettled atomic.Int64

	// Instruments live in one registry under "nvm.pipeline". The spin
	// and park counters expose the drain engines' CPU model (DESIGN.md
	// D8): spin_charges batches burned on the yield-spin path,
	// spin_yields the Gosched iterations that cost, timer_parks batches
	// that slept on a runtime timer instead.
	reg          *obs.Registry
	batches      *obs.Counter
	entries      *obs.Counter
	spinCharges  *obs.Counter
	spinYields   *obs.Counter
	timerParks   *obs.Counter
	pending      *obs.Gauge
	batchEntries *obs.Histogram
	drainNs      *obs.Histogram
}

// PipelineConfig tunes a Pipeline.
type PipelineConfig struct {
	// Lat is the modeled NVM latency charged once per drained batch.
	Lat LatencyModel
	// Drains is the number of persist queues / drain workers (the dFIFO
	// count). Rounded up to a power of two; default 4.
	Drains int
	// OnBatch, when set, runs on the drain worker after a batch is
	// appended, with the batch's distinct keys and total entry count.
	// The node layer uses it to wake each record once per batch and to
	// keep its persist counters exact.
	OnBatch func(keys []ddp.Key, entries int)
	// OnInline, when set, replaces OnBatch on the zero-latency inline
	// append path: it receives the single appended key with no slice
	// wrapper, keeping the inline persist allocation-free. When unset,
	// inline appends fall back to OnBatch.
	OnInline func(key ddp.Key)
	// OnAck, when set, runs on the drain worker for every EnqueueAck
	// entry strictly after its batch is appended — the persist-before-
	// ack order — carrying the acknowledgment's addressing as plain
	// values. One hook for the pipeline replaces one closure per entry.
	OnAck func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, scope ddp.ScopeID)
}

// Update is one record update submitted to the pipeline.
type Update struct {
	Key   ddp.Key
	TS    ddp.Timestamp
	Value []byte
	Scope ddp.ScopeID
}

// batchEntry is one queued update; value is a queue-owned recycled
// buffer. An acknowledgment dispatched via the OnAck hook rides the
// ack fields; then remains for the rare traced path.
type batchEntry struct {
	key     ddp.Key
	ts      ddp.Timestamp
	value   []byte
	scope   ddp.ScopeID
	then    func()
	ackTo   ddp.NodeID
	ackKind ddp.MsgKind
	hasAck  bool
}

// drainBatch is a reusable group commit. A batch's lifetime is a
// generation: enqueue captures gen under the queue lock (the batch
// cannot drain while that lock pins it as cur), the drain bumps gen and
// broadcasts once appended, and waiters wake when the captured
// generation is over. Recycling never confuses a late waiter — gen only
// grows, so "gen moved past mine" stays true forever.
type drainBatch struct {
	entries []batchEntry
	bytes   int

	mu   sync.Mutex
	cond *sync.Cond
	gen  atomic.Uint64
}

func newDrainBatch() *drainBatch {
	b := &drainBatch{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// maxFreeBufs bounds a queue's value-buffer free list; beyond it,
// drained buffers are dropped for the GC (a burst's memory is not
// pinned forever).
const maxFreeBufs = 256

type drainQueue struct {
	mu    sync.Mutex
	cur   *drainBatch   // accumulating
	spare *drainBatch   // recycled, ready to become cur at next swap
	bufs  [][]byte      // value-buffer free list
	wake  chan struct{} // cap 1: at most one pending wake signal

	// keys is the drain worker's distinct-key scratch; only the queue's
	// single worker touches it, outside mu.
	keys []ddp.Key
}

// NewPipeline builds a pipeline draining into log and starts its
// workers. Close stops them.
func NewPipeline(log *Log, cfg PipelineConfig) *Pipeline {
	drains := cfg.Drains
	if drains <= 0 {
		drains = 4
	}
	n := 1
	for n < drains {
		n <<= 1
	}
	p := &Pipeline{
		log:      log,
		lat:      cfg.Lat,
		onBatch:  cfg.OnBatch,
		onInline: cfg.OnInline,
		onAck:    cfg.OnAck,
		mask:     uint64(n - 1),
		inline:   cfg.Lat.Zero(),
		stop:     make(chan struct{}),
	}
	p.reg = obs.NewRegistry("nvm.pipeline")
	p.batches = p.reg.Counter("batches")
	p.entries = p.reg.Counter("entries")
	p.spinCharges = p.reg.Counter("spin_charges")
	p.spinYields = p.reg.Counter("spin_yields")
	p.timerParks = p.reg.Counter("timer_parks")
	p.pending = p.reg.Gauge("pending")
	p.batchEntries = p.reg.Histogram("batch_entries")
	p.drainNs = p.reg.Histogram("drain_ns")
	p.queues = make([]*drainQueue, n)
	for i := range p.queues {
		p.queues[i] = &drainQueue{cur: newDrainBatch(), wake: make(chan struct{}, 1)}
	}
	if !p.inline {
		for _, q := range p.queues {
			p.wg.Add(1)
			go p.drainWorker(q)
		}
	}
	return p
}

// Log returns the log the pipeline drains into.
func (p *Pipeline) Log() *Log { return p.log }

// Batches returns how many group commits have drained.
func (p *Pipeline) Batches() int64 { return p.batches.Load() }

// Entries returns how many updates have drained.
func (p *Pipeline) Entries() int64 { return p.entries.Load() }

// Describe implements obs.Source.
func (p *Pipeline) Describe() string { return "nvm.pipeline" }

// Collect implements obs.Source, appending the pipeline's instruments
// (batch/entry counts, spin vs. park accounting, queue depth, batch
// size and drain latency distributions) to s.
func (p *Pipeline) Collect(s *obs.Snapshot) { p.reg.Collect(s) }

// Close stops the drain workers and wakes every blocked persister.
// Blocked Persist/PersistMany callers return false; updates still
// queued are dropped (a closing node makes no further durability
// promises).
func (p *Pipeline) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.stop)
	p.wg.Wait()
	// Wake waiters on batches that never drained. Collect outside the
	// broadcast so the queue and batch locks are never nested. Every
	// waiter either observes closed before parking or holds the batch
	// mutex from its check to its Wait — the broadcast below cannot
	// slip into that window.
	for _, q := range p.queues {
		q.mu.Lock()
		cur, spare := q.cur, q.spare
		q.mu.Unlock()
		for _, b := range []*drainBatch{cur, spare} {
			if b == nil {
				continue
			}
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		}
	}
}

func (p *Pipeline) queueFor(key ddp.Key) *drainQueue {
	return p.queues[key.Hash()>>32&p.mask]
}

// enqueue adds one update to its queue's current batch, signalling the
// drain worker. It returns the batch and the generation to wait for.
// The value lands in a recycled queue buffer — the steady-state enqueue
// allocates nothing. The generation read is stable: the batch cannot
// swap out (let alone complete) while the queue lock pins it as cur.
//
//minos:hotpath
func (p *Pipeline) enqueue(e batchEntry) (*drainBatch, uint64) {
	q := p.queueFor(e.key)
	q.mu.Lock()
	if n := len(q.bufs); n > 0 {
		buf := q.bufs[n-1]
		q.bufs = q.bufs[:n-1]
		e.value = append(buf[:0], e.value...)
	} else {
		e.value = append([]byte(nil), e.value...)
	}
	b := q.cur
	g := b.gen.Load()
	b.entries = append(b.entries, e)
	b.bytes += len(e.value)
	p.unsettled.Add(1)
	q.mu.Unlock()
	p.pending.Add(1)
	select {
	case q.wake <- struct{}{}:
	default: // a wake is already pending; the worker will see the entry
	}
	return b, g
}

// waitBatch blocks until the batch generation captured at enqueue has
// drained (true) or the pipeline closed first (false).
func (p *Pipeline) waitBatch(b *drainBatch, g uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.gen.Load() == g {
		if p.closed.Load() {
			return false
		}
		b.cond.Wait()
	}
	return true
}

// appendInline is the zero-latency fast path: a synchronous append with
// per-entry bookkeeping, no queue handoff, and no allocation when the
// OnInline hook is installed.
//
//minos:hotpath
func (p *Pipeline) appendInline(key ddp.Key, ts ddp.Timestamp, value []byte, scope ddp.ScopeID, then func()) {
	p.log.Append(key, ts, value, scope)
	p.entries.Add(1)
	p.batches.Add(1)
	p.batchEntries.Observe(1)
	if then != nil {
		then()
	}
	if p.onInline != nil {
		p.onInline(key)
	} else if p.onBatch != nil {
		p.onBatchSingle(key)
	}
}

// onBatchSingle adapts the single-key inline append to the batch hook;
// the slice literal lives here, off the annotated fast path.
func (p *Pipeline) onBatchSingle(key ddp.Key) {
	p.onBatch([]ddp.Key{key}, 1)
}

// Enqueue submits an update without waiting for durability. If then is
// non-nil it runs on the drain worker strictly after the batch holding
// the update has been appended to the log — the hook used to send
// durable acknowledgments without blocking the submitter. Returns false
// (and drops the update) if the pipeline is closed. Closure-free
// callers should prefer EnqueueAck.
func (p *Pipeline) Enqueue(key ddp.Key, ts ddp.Timestamp, value []byte, scope ddp.ScopeID, then func()) bool {
	if p.closed.Load() {
		return false
	}
	if p.inline {
		p.appendInline(key, ts, value, scope, then)
		return true
	}
	p.enqueue(batchEntry{key: key, ts: ts, value: value, scope: scope, then: then})
	return true
}

// EnqueueAck submits an update whose durable acknowledgment — kind,
// addressed to to — is dispatched through the OnAck hook strictly after
// the group commit holding the update drains. It is Enqueue's
// continuation without the closure: the addressing rides the entry as
// plain values, so the untraced follower ack path allocates nothing.
//
//minos:hotpath
func (p *Pipeline) EnqueueAck(key ddp.Key, ts ddp.Timestamp, value []byte, scope ddp.ScopeID, to ddp.NodeID, kind ddp.MsgKind) bool {
	if p.closed.Load() {
		return false
	}
	if p.inline {
		p.appendInline(key, ts, value, scope, nil)
		if p.onAck != nil {
			p.onAck(to, kind, key, ts, scope)
		}
		return true
	}
	p.enqueue(batchEntry{key: key, ts: ts, value: value, scope: scope, ackTo: to, ackKind: kind, hasAck: true})
	return true
}

// Persist submits an update and blocks until the group commit holding
// it has drained (true) or the pipeline closed first (false).
func (p *Pipeline) Persist(key ddp.Key, ts ddp.Timestamp, value []byte, scope ddp.ScopeID) bool {
	if p.closed.Load() {
		return false
	}
	if p.inline {
		p.appendInline(key, ts, value, scope, nil)
		return true
	}
	b, g := p.enqueue(batchEntry{key: key, ts: ts, value: value, scope: scope})
	return p.waitBatch(b, g)
}

// PersistMany submits a set of updates (a scope flush) and blocks until
// every batch they landed in has drained. One durability wait covers
// the whole set.
func (p *Pipeline) PersistMany(updates []Update) bool {
	if p.closed.Load() {
		return false
	}
	if p.inline {
		for _, u := range updates {
			p.appendInline(u.Key, u.TS, u.Value, u.Scope, nil)
		}
		return true
	}
	type wait struct {
		b *drainBatch
		g uint64
	}
	var waits []wait
	for _, u := range updates {
		b, g := p.enqueue(batchEntry{key: u.Key, ts: u.TS, value: u.Value, scope: u.Scope})
		dup := false
		for _, w := range waits {
			// Same batch implies same generation: the batch cannot have
			// completed (and re-accumulated) between two enqueues that
			// both found it as cur.
			if w.b == b {
				dup = true
				break
			}
		}
		if !dup {
			waits = append(waits, wait{b, g})
		}
	}
	for _, w := range waits {
		if !p.waitBatch(w.b, w.g) {
			return false
		}
	}
	return true
}

// Quiesce is the pipeline's drain barrier: it blocks until every
// update submitted before the call has drained — no queue holds an
// entry, no batch is mid-drain, and the drained batches' hooks (OnBatch,
// OnAck, continuations) have returned. False means the pipeline closed
// first. Readers of counters call it after a workload; submitters
// running concurrently can keep it waiting.
func (p *Pipeline) Quiesce() bool {
	for wait := time.Microsecond; p.unsettled.Load() != 0; wait = min(2*wait, time.Millisecond) {
		if p.closed.Load() {
			return false
		}
		time.Sleep(wait)
	}
	return true
}

// spinLatencyNs is the largest modeled device latency a drain engine
// yield-spins through instead of parking on a runtime timer. Table II's
// device writes are ~1.3 µs, but parking a goroutine on a timer costs
// tens of microseconds of wake latency on a quiet machine — which would
// charge the sleeping runtime, not the modeled device. A dedicated
// hardware drain engine is busy for exactly the device-write time; the
// yield-spin models that (and still lets other goroutines run).
const spinLatencyNs = 100_000

// timerPool recycles the park timers of the long-latency charge path so
// a sweep of 100µs+ batches costs one timer allocation total, not one
// per batch. Timers are only pooled drained (fired or stopped+drained),
// so Reset is always safe.
var timerPool sync.Pool

// chargeLatency models the device write for one batch: short latencies
// yield-spin, long ones park on a pooled stop-aware timer. Returns
// false when the pipeline stopped mid-charge.
func (p *Pipeline) chargeLatency(ns int64) bool {
	if ns <= 0 {
		return true
	}
	if ns <= spinLatencyNs {
		p.spinCharges.Add(1)
		deadline := time.Now().Add(time.Duration(ns))
		for time.Now().Before(deadline) {
			if p.closed.Load() {
				return false
			}
			p.spinYields.Add(1)
			runtime.Gosched()
		}
		return true
	}
	p.timerParks.Add(1)
	t, _ := timerPool.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(time.Duration(ns))
	} else {
		t.Reset(time.Duration(ns))
	}
	select {
	case <-p.stop:
		if !t.Stop() {
			<-t.C // drain so the pooled timer is Reset-safe
		}
		timerPool.Put(t)
		return false
	case <-t.C:
		timerPool.Put(t)
		return true
	}
}

// drainWorker is one dFIFO engine: it swaps out the queue's accumulated
// batch, charges the modeled NVM latency once for the whole batch, and
// appends it. The sleep selects on stop so a closing node never waits
// out a persist delay.
func (p *Pipeline) drainWorker(q *drainQueue) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case <-q.wake:
		}
		if !p.drain(q) {
			return
		}
	}
}

// drain processes every batch accumulated on q, returning false when
// the pipeline stopped mid-drain. Steady state alternates two batches
// per queue: while one accumulates as cur, the other drains here and is
// recycled to spare at the end.
func (p *Pipeline) drain(q *drainQueue) bool {
	for {
		q.mu.Lock()
		b := q.cur
		if len(b.entries) == 0 {
			q.mu.Unlock()
			return true
		}
		if q.spare != nil {
			q.cur, q.spare = q.spare, nil
		} else {
			q.cur = newDrainBatch()
		}
		q.mu.Unlock()

		// Group commit: one modeled device write covers the batch.
		start := time.Now()
		if !p.chargeLatency(p.lat.PersistNs(b.bytes)) {
			// Aborted mid-charge: wake the batch's persisters without
			// bumping gen so they observe closure, not durability.
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
			return false
		}
		p.log.appendBatch(b.entries)
		p.drainNs.Observe(int64(time.Since(start)))

		// Bookkeeping and the hooks run before anyone unblocks so a
		// returned Persist (or a dispatched durable ack) implies the
		// counters already include its entry.
		keys := q.keys[:0]
		for i := range b.entries {
			e := &b.entries[i]
			seen := false
			for _, k := range keys {
				if k == e.key {
					seen = true
					break
				}
			}
			if !seen {
				keys = append(keys, e.key)
			}
		}
		q.keys = keys
		p.entries.Add(int64(len(b.entries)))
		p.batches.Add(1)
		p.batchEntries.Observe(int64(len(b.entries)))
		p.pending.Add(-int64(len(b.entries)))
		if p.onBatch != nil {
			p.onBatch(keys, len(b.entries))
		}
		for i := range b.entries {
			e := &b.entries[i]
			if e.hasAck && p.onAck != nil {
				p.onAck(e.ackTo, e.ackKind, e.key, e.ts, e.scope)
			}
			if e.then != nil {
				e.then()
			}
		}

		// One wake for every persister blocked on the batch.
		b.mu.Lock()
		b.gen.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		p.unsettled.Add(-int64(len(b.entries)))

		// Recycle: value buffers back on the free list, entries cleared
		// (dropping value/closure references), batch parked as spare.
		q.mu.Lock()
		for i := range b.entries {
			e := &b.entries[i]
			if e.value != nil && len(q.bufs) < maxFreeBufs {
				q.bufs = append(q.bufs, e.value)
			}
			*e = batchEntry{}
		}
		b.entries = b.entries[:0]
		b.bytes = 0
		if q.spare == nil {
			q.spare = b
		}
		q.mu.Unlock()
	}
}
