// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel plays the role SimGrid plays in the MINOS paper: it provides
// actors (processes) that execute Go code, advance a simulated clock, and
// exchange messages through timed primitives. Exactly one process runs at
// any instant; the kernel hands control to processes in strict event-time
// order (ties broken by scheduling sequence number), so a simulation with
// a fixed seed always produces an identical timeline.
//
// Processes are ordinary goroutines that block on kernel primitives
// (Sleep, Cond.Wait, Queue.Get, ...). Blocking transfers control back to
// the kernel, which runs the next event. This lets protocol code be
// written in the same blocking style as the paper's pseudo-code
// ("spin until all ACKs are received") without busy-waiting.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"github.com/minos-ddp/minos/internal/obs"
)

// Time is a point in simulated time, in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Handy duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime = Time(1<<63 - 1)

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// event is a single entry in the kernel's pending-event heap. An event
// either resumes a process or runs a callback in kernel context.
type event struct {
	at  Time
	seq uint64 // global tie-breaker: FIFO among same-time events

	proc    *Proc  // non-nil: resume this process...
	wakeSeq uint64 // ...only if its wake sequence still matches
	fn      func() // non-nil: run this callback (must not block)
}

// before orders events by (time, sequence): the kernel's global
// execution order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

type eventHeap []*event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].before(h[j]) }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }

// Pop hands ownership of the minimum event to the kernel, which zeroes
// its proc/fn references in release() once dispatched — without that,
// recycled events would keep dead processes and closures reachable
// across long runs. The vacated slot is nilled here for the same reason.
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Stats are the kernel's execution counters, for perf-regression
// visibility (surfaced per run in simcluster.Metrics.Kernel).
type Stats struct {
	// Executed counts dispatched events (callbacks plus process resumes);
	// stale wake-ups are not dispatched and not counted.
	Executed uint64
	// StaleDropped counts stale wake-up events discarded, either when
	// popped or during lazy compaction.
	StaleDropped uint64
	// Compactions counts lazy rebuilds of the event heap that evicted
	// accumulated stale wake-ups.
	Compactions uint64
	// MaxHeapDepth is the high-water mark of the pending-event heap.
	MaxHeapDepth int
	// MaxRunQueue is the high-water mark of the same-time run queue.
	MaxRunQueue int
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now    Time
	events eventHeap
	// runq is the same-time fast path: events posted for the current
	// instant are appended here in sequence order and drained FIFO,
	// skipping the heap entirely. Invariant: every pending runq entry has
	// at == now, because the dispatch loop never advances time while the
	// run queue is non-empty (a pending runq entry is always <= any
	// later-time heap entry).
	runq     []*event
	runqHead int
	seq      uint64
	park     chan struct{} // running process parks itself here
	rng      *rand.Rand
	procs    map[*Proc]struct{}
	spawned  uint64 // processes ever spawned; orders Stop teardown
	stopping bool

	// pool recycles event structs; per-kernel, so no synchronization.
	pool []*event
	// stale counts wake-up events still pending whose process has already
	// resumed or exited; compact evicts them when they dominate the heap.
	stale int
	stats Stats
}

// NewKernel returns a kernel at time zero whose random source is seeded
// with seed. All randomness in a simulation should come from Rand so that
// runs are reproducible.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		park:  make(chan struct{}),
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Events reports how many events the kernel has executed.
func (k *Kernel) Events() uint64 { return k.stats.Executed }

// Describe implements obs.Source.
func (k *Kernel) Describe() string { return "sim.kernel" }

// Collect implements obs.Source, emitting the kernel's execution
// counters under the "sim.kernel." prefix. Plain field reads in a
// fixed order: the kernel is single-threaded and the emission must be
// deterministic (simdet relies on this file staying clock- and
// goroutine-free outside Spawn).
func (k *Kernel) Collect(s *obs.Snapshot) {
	s.AddCounter("sim.kernel.executed", int64(k.stats.Executed))
	s.AddCounter("sim.kernel.stale_dropped", int64(k.stats.StaleDropped))
	s.AddCounter("sim.kernel.compactions", int64(k.stats.Compactions))
	s.AddGauge("sim.kernel.max_heap_depth", int64(k.stats.MaxHeapDepth))
	s.AddGauge("sim.kernel.max_run_queue", int64(k.stats.MaxRunQueue))
}

// Live reports how many spawned processes have not yet finished.
func (k *Kernel) Live() int { return len(k.procs) }

// alloc takes an event from the free list, or heap-allocates one.
func (k *Kernel) alloc() *event {
	if n := len(k.pool); n > 0 {
		ev := k.pool[n-1]
		k.pool = k.pool[:n-1]
		return ev
	}
	return new(event)
}

// release zeroes ev — dropping its proc/fn references so dead processes
// and closures become collectable — and returns it to the free list.
func (k *Kernel) release(ev *event) {
	*ev = event{}
	k.pool = append(k.pool, ev)
}

func (k *Kernel) post(ev *event) {
	k.seq++
	ev.seq = k.seq
	if ev.at == k.now {
		k.runq = append(k.runq, ev)
		if d := len(k.runq) - k.runqHead; d > k.stats.MaxRunQueue {
			k.stats.MaxRunQueue = d
		}
		return
	}
	heap.Push(&k.events, ev)
	if len(k.events) > k.stats.MaxHeapDepth {
		k.stats.MaxHeapDepth = len(k.events)
	}
}

// After schedules fn to run in kernel context after delay d. fn must not
// block; it may spawn processes, wake conditions, and post further
// callbacks.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	ev := k.alloc()
	ev.at = k.now + Time(d)
	ev.fn = fn
	k.post(ev)
}

// At schedules fn to run in kernel context at absolute time t, which must
// not be in the past.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic("sim: scheduling in the past")
	}
	ev := k.alloc()
	ev.at = t
	ev.fn = fn
	k.post(ev)
}

// wake schedules process p to resume after delay d. If p is resumed by
// some other event first (or exits), this wake-up becomes stale and is
// discarded. Stale waiter entries on conditions make waking a finished
// process possible; it must be a no-op.
func (k *Kernel) wake(p *Proc, d Duration) {
	if p.done {
		return
	}
	ev := k.alloc()
	ev.at = k.now + Time(d)
	ev.proc = p
	ev.wakeSeq = p.wakeSeq
	p.liveWakes++
	k.post(ev)
}

// Run executes events until none remain or every process has finished.
// It returns the final simulated time. If processes remain blocked with
// no pending events, the simulation is deadlocked; Run returns and
// Deadlocked reports true.
func (k *Kernel) Run() Time {
	k.RunUntil(MaxTime)
	return k.now
}

// RunUntil executes events with timestamps <= limit. It returns true if
// the event queue was exhausted (or only stale events remained), false if
// it stopped because the next event lies beyond limit.
func (k *Kernel) RunUntil(limit Time) bool {
	for {
		// The next event is the (time, seq) minimum of the run-queue head
		// and the heap top. Run-queue entries are all at the current time
		// in sequence order, so only the heads need comparing.
		var ev *event
		fromRunq := false
		if k.runqHead < len(k.runq) {
			ev, fromRunq = k.runq[k.runqHead], true
			if len(k.events) > 0 && k.events[0].before(ev) {
				ev, fromRunq = k.events[0], false
			}
		} else if len(k.events) > 0 {
			ev = k.events[0]
		} else {
			return true
		}
		if ev.at > limit {
			return false
		}
		if fromRunq {
			k.runq[k.runqHead] = nil
			k.runqHead++
			if k.runqHead == len(k.runq) {
				k.runq = k.runq[:0]
				k.runqHead = 0
			}
		} else {
			heap.Pop(&k.events)
		}
		if p := ev.proc; p != nil {
			if p.done || p.wakeSeq != ev.wakeSeq {
				// Stale wake-up: the process already resumed or exited.
				k.stats.StaleDropped++
				if k.stale > 0 {
					k.stale--
				}
				k.release(ev)
				continue
			}
			p.liveWakes--
		}
		if ev.at < k.now {
			panic("sim: time went backwards")
		}
		k.now = ev.at
		k.stats.Executed++
		if fn := ev.fn; fn != nil {
			k.release(ev)
			fn()
			continue
		}
		p := ev.proc
		k.release(ev)
		k.resume(p)
		k.maybeCompact()
	}
}

// maybeCompact rebuilds the event heap without its stale wake-ups once
// they dominate it. Long spin loops (a waiter with a far-future timeout
// that a broadcast always beats) otherwise strand one dead event per
// iteration, growing the heap — and the cost of every push/pop — without
// bound. Eviction is by event content, so it cannot perturb the timeline.
func (k *Kernel) maybeCompact() {
	if k.stale < 64 || k.stale*2 < len(k.events) {
		return
	}
	live := k.events[:0]
	for _, ev := range k.events {
		if ev.proc != nil && (ev.proc.done || ev.proc.wakeSeq != ev.wakeSeq) {
			k.stats.StaleDropped++
			k.release(ev)
			continue
		}
		live = append(live, ev)
	}
	for i := len(live); i < len(k.events); i++ {
		k.events[i] = nil
	}
	k.events = live
	heap.Init(&k.events)
	// The run queue is drained at the current instant and stays tiny;
	// any stale entries there are dropped on pop within this timestep.
	k.stale = 0
	k.stats.Compactions++
}

// Deadlocked reports whether live processes remain but no events are
// pending — i.e. every remaining process is blocked forever.
func (k *Kernel) Deadlocked() bool {
	if len(k.procs) == 0 {
		return false
	}
	for _, ev := range k.events {
		if ev.fn != nil || (!ev.proc.done && ev.proc.wakeSeq == ev.wakeSeq) {
			return false
		}
	}
	for _, ev := range k.runq[k.runqHead:] {
		if ev.fn != nil || (!ev.proc.done && ev.proc.wakeSeq == ev.wakeSeq) {
			return false
		}
	}
	return true
}

// Stop force-resumes every still-blocked process with a cancellation
// panic so their goroutines exit. Call after Run/RunUntil when tearing
// down a simulation that still has blocked processes (for example, server
// loops waiting on queues).
func (k *Kernel) Stop() {
	k.stopping = true
	for len(k.procs) > 0 {
		// Tear processes down in spawn order, not map order, so that any
		// side effects of unwinding (metrics flushes, queue releases seen
		// by later-resumed processes) are identical across runs.
		live := make([]*Proc, 0, len(k.procs))
		for q := range k.procs {
			live = append(live, q)
		}
		sort.Slice(live, func(i, j int) bool { return live[i].spawnSeq < live[j].spawnSeq })
		for _, p := range live {
			if _, alive := k.procs[p]; alive && !p.done {
				k.resume(p)
			}
		}
	}
}

// resume hands control to p and waits until it blocks again or exits.
func (k *Kernel) resume(p *Proc) {
	p.wakeSeq++
	// Any wake-ups still pending for p now carry a dead wakeSeq.
	k.stale += p.liveWakes
	p.liveWakes = 0
	p.resume <- struct{}{}
	<-k.park
}

// stopToken is the panic value used by Stop to unwind process goroutines.
type stopToken struct{}

// Proc is a simulation process: a goroutine scheduled by the kernel.
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	k        *Kernel
	name     string
	resume   chan struct{}
	wakeSeq  uint64
	spawnSeq uint64 // position in spawn order, for deterministic Stop
	// liveWakes counts pending wake-up events posted with the current
	// wakeSeq; on resume or exit they all become stale at once.
	liveWakes int
	done      bool
}

// Spawn starts a new process executing fn. The process is scheduled to
// begin at the current simulated time. Spawn may be called before Run,
// from another process, or from a kernel callback.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	k.spawned++
	p := &Proc{k: k, name: name, resume: make(chan struct{}), spawnSeq: k.spawned}
	k.procs[p] = struct{}{}
	go func() {
		<-p.resume
		defer func() {
			p.done = true
			delete(k.procs, p)
			if r := recover(); r != nil {
				if _, ok := r.(stopToken); !ok {
					// Re-panicking here would crash the kernel
					// goroutine's Run with no context; decorate first.
					k.park <- struct{}{}
					panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
				}
			}
			k.park <- struct{}{}
		}()
		fn(p)
	}()
	k.wake(p, 0)
	return p
}

// SpawnAfter starts fn as a new process after delay d.
func (k *Kernel) SpawnAfter(d Duration, name string, fn func(*Proc)) {
	k.After(d, func() { k.Spawn(name, fn) })
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// yield parks the process until the kernel resumes it.
func (p *Proc) yield() {
	p.k.park <- struct{}{}
	<-p.resume
	if p.k.stopping {
		panic(stopToken{})
	}
}

// Sleep blocks the process for simulated duration d.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	p.k.wake(p, d)
	p.yield()
}

// Yield reschedules the process at the current time behind all events
// already pending at this instant.
func (p *Proc) Yield() {
	p.k.wake(p, 0)
	p.yield()
}
