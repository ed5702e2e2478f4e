package nvm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// TestGroupCommitDurability pins the two halves of the group-commit
// contract: a blocked Persist never returns before its batch has
// drained into the log, and a batch of concurrent persists pays the
// modeled latency once (not once per entry). It also checks the
// sharded log reports exactly what a per-entry reference log would.
func TestGroupCommitDurability(t *testing.T) {
	const delay = 100 * time.Millisecond
	log := NewLog()
	p := NewPipeline(log, PipelineConfig{
		Lat:    LatencyModel{FixedNs: delay.Nanoseconds()},
		Drains: 1, // one queue: every persist coalesces into one batch
	})
	defer p.Close()

	// Not durable before the drain: start a persist, then observe the
	// log while the batch is still sleeping out its device latency.
	started := make(chan struct{})
	first := make(chan bool, 1)
	go func() {
		close(started)
		first <- p.Persist(1, ts(0, 1), []byte("v1"), 0)
	}()
	<-started
	time.Sleep(delay / 10)
	if log.LocallyDurable(1, ts(0, 1)) {
		t.Fatal("entry reported durable before its batch drained")
	}

	// Pile concurrent persists onto the same queue while the first
	// batch drains; they must coalesce and complete in ~2 delays
	// (the in-flight batch plus one group commit), not 1+K delays.
	const k = 8
	var wg sync.WaitGroup
	begin := time.Now()
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !p.Persist(ddp.Key(10+i), ts(0, 1), []byte("vv"), 0) {
				t.Error("persist failed on open pipeline")
			}
		}()
	}
	wg.Wait()
	if !<-first {
		t.Fatal("first persist failed")
	}
	elapsed := time.Since(begin)
	if elapsed > time.Duration(3)*delay {
		t.Fatalf("%d concurrent persists took %v; group commit should cost ~1 batch delay, serial would be %v",
			k, elapsed, time.Duration(k)*delay)
	}

	// Every returned persist is visible as locally durable.
	if !log.LocallyDurable(1, ts(0, 1)) {
		t.Fatal("first persist returned but is not locally durable")
	}
	for i := 0; i < k; i++ {
		if !log.LocallyDurable(ddp.Key(10+i), ts(0, 1)) {
			t.Fatalf("persist %d returned but is not locally durable", i)
		}
	}
	if got := p.Entries(); got != k+1 {
		t.Fatalf("pipeline drained %d entries, want %d", got, k+1)
	}
	if b := p.Batches(); b >= k+1 {
		t.Fatalf("got %d batches for %d entries: nothing coalesced", b, k+1)
	}
}

// TestPipelineMatchesPerEntryLog drives the same update sequence
// through a pipeline and through the old-style per-entry Append and
// checks the durable views agree (LocallyDurable, DurableTS,
// Materialize).
func TestPipelineMatchesPerEntryLog(t *testing.T) {
	piped := NewLog()
	p := NewPipeline(piped, PipelineConfig{
		Lat:    LatencyModel{FixedNs: int64(time.Microsecond)},
		Drains: 4,
	})
	ref := NewLog()

	const keys, versions = 16, 8
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 1; v <= versions; v++ {
				val := []byte{byte(k), byte(v)}
				if !p.Persist(ddp.Key(k), ts(0, v), val, 0) {
					t.Errorf("persist key %d v %d failed", k, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	p.Close()
	for k := 0; k < keys; k++ {
		for v := 1; v <= versions; v++ {
			ref.Append(ddp.Key(k), ts(0, v), []byte{byte(k), byte(v)}, 0)
		}
	}

	if got, want := piped.Len(), ref.Len(); got != want {
		t.Fatalf("piped log has %d entries, reference %d", got, want)
	}
	refDB := ref.Materialize()
	for k, want := range refDB {
		gotTS, ok := piped.DurableTS(k)
		if !ok || gotTS != want.TS {
			t.Fatalf("key %d: durable TS %v (ok=%v), reference %v", k, gotTS, ok, want.TS)
		}
		if !piped.LocallyDurable(k, want.TS) {
			t.Fatalf("key %d not locally durable at %v", k, want.TS)
		}
	}
	pipedDB := piped.Materialize()
	if len(pipedDB) != len(refDB) {
		t.Fatalf("materialized %d keys, reference %d", len(pipedDB), len(refDB))
	}
	for k, want := range refDB {
		got := pipedDB[k]
		if got.TS != want.TS || string(got.Value) != string(want.Value) {
			t.Fatalf("key %d materialized (%v, %q), reference (%v, %q)",
				k, got.TS, got.Value, want.TS, want.Value)
		}
	}
}

// TestPipelinePerKeyFIFO checks that same-key persists drain in
// enqueue order: the log's entries for one key must carry ascending
// versions (the per-record ordering Fig 2 relies on; cross-key order
// is deliberately unconstrained per §V-B.4).
func TestPipelinePerKeyFIFO(t *testing.T) {
	log := NewLog()
	p := NewPipeline(log, PipelineConfig{
		Lat:    LatencyModel{FixedNs: int64(50 * time.Microsecond)},
		Drains: 2,
	})
	const versions = 200
	for v := 1; v <= versions; v++ {
		if !p.Enqueue(7, ts(0, v), []byte{byte(v)}, 0, nil) {
			t.Fatalf("enqueue v%d failed", v)
		}
	}
	// A final blocking persist flushes everything queued behind it.
	if !p.Persist(7, ts(0, versions+1), nil, 0) {
		t.Fatal("flush persist failed")
	}
	p.Close()

	entries := log.EntriesSince(0)
	if len(entries) != versions+1 {
		t.Fatalf("log has %d entries, want %d", len(entries), versions+1)
	}
	last := ddp.Version(0)
	for _, e := range entries {
		if e.TS.Version <= last {
			t.Fatalf("same-key entries out of order: version %d after %d (seq %d)",
				e.TS.Version, last, e.Seq)
		}
		last = e.TS.Version
	}
}

// TestPipelineCloseUnblocks pins the shutdown contract: a persist
// blocked in a long device sleep returns false promptly when the
// pipeline closes, instead of sleeping out the delay.
func TestPipelineCloseUnblocks(t *testing.T) {
	log := NewLog()
	p := NewPipeline(log, PipelineConfig{
		Lat:    LatencyModel{FixedNs: (10 * time.Second).Nanoseconds()},
		Drains: 1,
	})
	res := make(chan bool, 1)
	go func() {
		res <- p.Persist(1, ts(0, 1), []byte("v"), 0)
	}()
	time.Sleep(10 * time.Millisecond) // let the drain enter its sleep
	begin := time.Now()
	p.Close()
	select {
	case ok := <-res:
		if ok {
			t.Fatal("persist reported durable after close aborted the drain")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("persist still blocked after Close")
	}
	if e := time.Since(begin); e > 2*time.Second {
		t.Fatalf("close took %v; must not wait out the device delay", e)
	}
	if p.Persist(2, ts(0, 1), []byte("v"), 0) {
		t.Fatal("persist on closed pipeline reported success")
	}
	if p.Enqueue(2, ts(0, 1), []byte("v"), 0, nil) {
		t.Fatal("enqueue on closed pipeline reported success")
	}
}

// TestPipelineInlineFastPath: a zero latency model appends
// synchronously — durable immediately after Enqueue, no worker handoff.
func TestPipelineInlineFastPath(t *testing.T) {
	log := NewLog()
	p := NewPipeline(log, PipelineConfig{Drains: 4})
	defer p.Close()
	ran := false
	if !p.Enqueue(3, ts(0, 1), []byte("v"), 0, func() { ran = true }) {
		t.Fatal("enqueue failed")
	}
	if !ran {
		t.Fatal("inline continuation did not run synchronously")
	}
	if !log.LocallyDurable(3, ts(0, 1)) {
		t.Fatal("inline enqueue not immediately durable")
	}
	if !p.Persist(3, ts(0, 2), []byte("w"), 0) {
		t.Fatal("inline persist failed")
	}
	if !p.PersistMany([]Update{{Key: 4, TS: ts(0, 1)}, {Key: 5, TS: ts(0, 1)}}) {
		t.Fatal("inline PersistMany failed")
	}
	if got := p.Entries(); got != 4 {
		t.Fatalf("entries %d, want 4", got)
	}
}

// TestEnqueueAckDispatchesAfterDurable pins the closure-free ack path:
// the OnAck hook fires with the entry's addressing, strictly after the
// entry's group commit reached the log.
func TestEnqueueAckDispatchesAfterDurable(t *testing.T) {
	log := NewLog()
	type ack struct {
		to      ddp.NodeID
		kind    ddp.MsgKind
		key     ddp.Key
		ts      ddp.Timestamp
		durable bool
	}
	acks := make(chan ack, 16)
	p := NewPipeline(log, PipelineConfig{
		Lat:    LatencyModel{FixedNs: int64(time.Millisecond)},
		Drains: 1,
		OnAck: func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID) {
			acks <- ack{to, kind, key, ts, log.LocallyDurable(key, ts)}
		},
	})
	defer p.Close()
	if !p.EnqueueAck(9, ts(0, 3), []byte("payload"), 0, 4, ddp.KindAckP) {
		t.Fatal("EnqueueAck failed on an open pipeline")
	}
	select {
	case a := <-acks:
		if a.to != 4 || a.kind != ddp.KindAckP || a.key != 9 || a.ts != ts(0, 3) {
			t.Fatalf("ack carried %+v", a)
		}
		if !a.durable {
			t.Fatal("ack dispatched before the entry was durable")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnAck never fired")
	}
}

// TestEnqueueAckInline: with zero modeled latency the append and the
// ack dispatch both happen synchronously in the caller.
func TestEnqueueAckInline(t *testing.T) {
	log := NewLog()
	var got int
	p := NewPipeline(log, PipelineConfig{
		OnAck: func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID) {
			got++
			if !log.LocallyDurable(key, ts) {
				t.Error("inline ack before durability")
			}
		},
	})
	defer p.Close()
	if !p.EnqueueAck(1, ts(0, 1), []byte("v"), 0, 2, ddp.KindAck) {
		t.Fatal("inline EnqueueAck failed")
	}
	if got != 1 {
		t.Fatalf("OnAck ran %d times synchronously, want 1", got)
	}
}

// TestPipelineRecycledBuffersDoNotAlias drives many distinct values
// through one queue so its recycled value buffers and batches are
// reused many times over, then checks every logged value survived
// intact — a recycle that aliased a live log entry would corrupt them.
func TestPipelineRecycledBuffersDoNotAlias(t *testing.T) {
	log := NewLog()
	p := NewPipeline(log, PipelineConfig{
		Lat:    LatencyModel{FixedNs: int64(10 * time.Microsecond)},
		Drains: 1,
	})
	const rounds = 500
	for v := 1; v <= rounds; v++ {
		val := []byte{byte(v), byte(v >> 8), 0xEE}
		if !p.Persist(7, ts(0, v), val, 0) {
			t.Fatalf("persist v%d failed", v)
		}
	}
	p.Close()
	entries := log.EntriesSince(0)
	if len(entries) != rounds {
		t.Fatalf("log has %d entries, want %d", len(entries), rounds)
	}
	for _, e := range entries {
		v := int(e.TS.Version)
		want := []byte{byte(v), byte(v >> 8), 0xEE}
		if string(e.Value) != string(want) {
			t.Fatalf("v%d: logged value %v, want %v (recycled buffer aliased)", v, e.Value, want)
		}
	}
}

// TestPipelineTimerParkPath exercises the pooled-timer charge path
// (modeled latency above the spin threshold) across several batches:
// parks are counted, persists complete, and Close stays prompt.
func TestPipelineTimerParkPath(t *testing.T) {
	p := NewPipeline(NewLog(), PipelineConfig{
		Lat:    LatencyModel{FixedNs: int64(200 * time.Microsecond)}, // > spinLatencyNs
		Drains: 1,
	})
	for i := 0; i < 8; i++ {
		if !p.Persist(ddp.Key(i), ts(0, 1), []byte("v"), 0) {
			t.Fatal("persist failed on an open pipeline")
		}
	}
	s := obs.Collect(p)
	if got := s.Counter("nvm.pipeline.timer_parks"); got == 0 {
		t.Fatal("200 µs latency never took the timer-park path")
	}
	if got := s.Counter("nvm.pipeline.spin_charges"); got != 0 {
		t.Fatalf("spin_charges = %d above the spin threshold, want 0", got)
	}
	begin := time.Now()
	p.Close()
	if e := time.Since(begin); e > time.Second {
		t.Fatalf("close took %v with pooled timers in flight", e)
	}
}

// TestPipelineInstruments pins the registry export: drained batches
// show up as counters and distributions, the pending gauge returns to
// zero after a quiesce, and the spin-vs-park accounting matches the
// configured latency (a 1.3 µs modeled device write must spin, never
// park on a runtime timer).
func TestPipelineInstruments(t *testing.T) {
	p := NewPipeline(NewLog(), PipelineConfig{
		Lat:    LatencyModel{FixedNs: 1295}, // Table II device write: spin path
		Drains: 2,
	})
	defer p.Close()

	for i := 0; i < 32; i++ {
		if !p.Persist(ddp.Key(i), ts(0, 1), []byte("v"), 0) {
			t.Fatal("persist failed on an open pipeline")
		}
	}

	s := obs.Collect(p)
	if got := s.Counter("nvm.pipeline.entries"); got != 32 {
		t.Fatalf("entries = %d, want 32", got)
	}
	if got := s.Counter("nvm.pipeline.batches"); got != p.Batches() {
		t.Fatalf("batches counter %d disagrees with Batches() %d", got, p.Batches())
	}
	if s.Counter("nvm.pipeline.spin_charges") == 0 {
		t.Fatal("1.3 µs latency never took the spin path")
	}
	if got := s.Counter("nvm.pipeline.timer_parks"); got != 0 {
		t.Fatalf("timer_parks = %d, want 0 below the spin threshold", got)
	}
	if got := s.GaugeValue("nvm.pipeline.pending"); got != 0 {
		t.Fatalf("pending gauge = %d after quiesce, want 0", got)
	}
	h := s.Histogram("nvm.pipeline.batch_entries")
	if h.Count != s.Counter("nvm.pipeline.batches") || h.Sum != 32 {
		t.Fatalf("batch_entries histogram = %+v", h)
	}
	if s.Histogram("nvm.pipeline.drain_ns").Count == 0 {
		t.Fatal("no drain latency observations recorded")
	}
}

// TestPipelineInlineInstruments: the zero-latency fast path must keep
// the same counters exact without any drain workers.
func TestPipelineInlineInstruments(t *testing.T) {
	p := NewPipeline(NewLog(), PipelineConfig{})
	defer p.Close()
	for i := 0; i < 5; i++ {
		p.Persist(ddp.Key(i), ts(0, 1), []byte("v"), 0)
	}
	s := obs.Collect(p)
	if s.Counter("nvm.pipeline.entries") != 5 || s.Counter("nvm.pipeline.batches") != 5 {
		t.Fatalf("inline path counters wrong: %s", s)
	}
	if s.Counter("nvm.pipeline.spin_charges")+s.Counter("nvm.pipeline.timer_parks") != 0 {
		t.Fatal("inline path charged modeled latency")
	}
}

// TestQuiesceWaitsForAcks: Quiesce returns only after every queued
// entry drained and its OnAck hook returned, and reports a pipeline
// that closed with entries still queued.
func TestQuiesceWaitsForAcks(t *testing.T) {
	const n = 40
	var acked atomic.Int64
	p := NewPipeline(NewLog(), PipelineConfig{
		Lat:    LatencyModel{FixedNs: int64(20 * time.Millisecond)},
		Drains: 2,
		OnAck: func(ddp.NodeID, ddp.MsgKind, ddp.Key, ddp.Timestamp, ddp.ScopeID) {
			time.Sleep(100 * time.Microsecond) // a slow hook is still part of the drain
			acked.Add(1)
		},
	})
	for i := 0; i < n; i++ {
		p.EnqueueAck(ddp.Key(i), ts(0, 1), []byte("v"), 0, 1, ddp.KindAckP)
	}
	if !p.Quiesce() {
		t.Fatal("Quiesce on an open pipeline reported closure")
	}
	if got := acked.Load(); got != n {
		t.Fatalf("Quiesce returned with %d/%d acks dispatched", got, n)
	}
	if got := p.Entries(); got != n {
		t.Fatalf("Quiesce returned with %d/%d entries drained", got, n)
	}

	p.EnqueueAck(1, ts(0, 2), []byte("v"), 0, 1, ddp.KindAckP)
	p.Close()
	if p.Quiesce() {
		t.Fatal("Quiesce reported a drain the closed pipeline never finished")
	}
}
