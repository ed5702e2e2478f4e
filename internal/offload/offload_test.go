package offload

import (
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

func msg(key ddp.Key, v ddp.Version) ddp.Message {
	return ddp.Message{
		Kind:  ddp.KindInv,
		Key:   key,
		TS:    ddp.Timestamp{Node: 1, Version: v},
		Value: []byte("v"),
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// recorder is a Handler that appends handled versions under a lock.
type recorder struct {
	mu   sync.Mutex
	vers []ddp.Version
}

func (r *recorder) handle(m ddp.Message, _ int64) {
	r.mu.Lock()
	r.vers = append(r.vers, m.TS.Version)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.vers)
}

func (r *recorder) snapshot() []ddp.Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ddp.Version(nil), r.vers...)
}

// TestRoutePromotesHotKey: with inline host dispatch (no fence
// callbacks) a key crossing the threshold flips to the NIC path
// immediately and its messages run on a core, in order.
func TestRoutePromotesHotKey(t *testing.T) {
	rec := &recorder{}
	e := New(Config{
		Cores: 1, InitialThreshold: 3, MinThreshold: 1, Epoch: -1,
		Handler: rec.handle,
	})
	e.Start()
	defer e.Close()

	key := ddp.Key(7)
	// Heat 1 and 2 are below the threshold of 3: host path.
	for v := ddp.Version(1); v <= 2; v++ {
		if e.Route(msg(key, v)) {
			t.Fatalf("version %d routed NIC below threshold", v)
		}
	}
	// Heat 3 crosses: promoted, this and later messages ride the NIC.
	for v := ddp.Version(3); v <= 5; v++ {
		if !e.Route(msg(key, v)) {
			t.Fatalf("version %d routed host after promotion", v)
		}
	}
	if e.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", e.Promotions())
	}
	if e.NICFrames() != 3 || e.HostFrames() != 2 {
		t.Fatalf("frames split nic=%d host=%d, want 3/2", e.NICFrames(), e.HostFrames())
	}
	waitFor(t, "NIC handler to drain", func() bool { return rec.len() == 3 })
	got := rec.snapshot()
	for i, want := range []ddp.Version{3, 4, 5} {
		if got[i] != want {
			t.Fatalf("NIC handled order %v, want [3 4 5]", got)
		}
	}
}

// TestVFIFOOverflowDemotesWithoutReorder drives a one-deep vFIFO into
// overflow with the core wedged, and checks the documented demotion
// contract: the overflowing message is not dropped, every message for
// the key is handled exactly once in admission order, the key drains
// back to the host path, and the cooldown bars immediate re-promotion
// until epochs advance.
func TestVFIFOOverflowDemotesWithoutReorder(t *testing.T) {
	gate := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	rec := &recorder{}
	handler := func(m ddp.Message, enq int64) {
		once.Do(func() {
			close(first)
			<-gate
		})
		rec.handle(m, enq)
	}
	e := New(Config{
		Cores: 1, VFIFODepth: 1, Slots: 16,
		InitialThreshold: 1, MinThreshold: 1, Epoch: -1,
		Handler: handler,
	})
	e.Start()
	defer e.Close()

	key := ddp.Key(42)
	// Heat 1 meets the threshold of 1: immediate promotion.
	if !e.Route(msg(key, 1)) {
		t.Fatal("version 1 should promote and route NIC")
	}
	<-first // the core holds version 1; the vFIFO is empty
	if !e.Route(msg(key, 2)) {
		t.Fatal("version 2 should route NIC")
	}
	// The vFIFO (depth 1) is now full; version 3 overflows. Route blocks
	// it into the same queue — behind its predecessors — so it must run
	// on a goroutine until the core is released.
	res := make(chan bool)
	go func() { res <- e.Route(msg(key, 3)) }()
	waitFor(t, "overflow to be recorded", func() bool { return e.overflows.Load() == 1 })
	close(gate)
	if !<-res {
		t.Fatal("overflowing message must still be admitted, not dropped")
	}
	if e.Demotions() != 1 {
		t.Fatalf("demotions = %d, want 1", e.Demotions())
	}
	waitFor(t, "all three versions handled", func() bool { return rec.len() == 3 })
	got := rec.snapshot()
	for i, want := range []ddp.Version{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("handled order %v, want [1 2 3]", got)
		}
	}

	// The vFIFO has drained past the demotion fence: the key is
	// host-owned again.
	if e.Route(msg(key, 4)) {
		t.Fatal("version 4 should route host after the drain completes")
	}
	// Cooldown: the key is still hot (heat >= threshold) but may not
	// re-promote until CooldownEpochs pass.
	if e.Route(msg(key, 5)) {
		t.Fatal("version 5 should stay host during cooldown")
	}
	if e.Promotions() != 1 {
		t.Fatalf("promotions during cooldown = %d, want 1", e.Promotions())
	}
	e.Tick() // epoch 1; the overflow epoch doubles the threshold to 2
	if e.Threshold() != 2 {
		t.Fatalf("post-overflow threshold = %d, want 2", e.Threshold())
	}
	// Populate epoch 1 with host-only traffic (heat resets per epoch,
	// and the cooldown bars promotion regardless) so the next tick sees
	// a cold NIC and decays the threshold.
	if e.Route(msg(key, 6)) {
		t.Fatal("version 6 should stay host during cooldown")
	}
	e.Tick() // epoch 2; the all-host epoch decays the threshold to 1
	if e.Threshold() != 1 {
		t.Fatalf("post-decay threshold = %d, want 1", e.Threshold())
	}
	// Cooldown expired (cool == epoch): the key re-promotes.
	if !e.Route(msg(key, 7)) {
		t.Fatal("version 7 should re-promote after the cooldown")
	}
	if e.Promotions() != 2 {
		t.Fatalf("promotions = %d, want 2", e.Promotions())
	}
	waitFor(t, "version 7 handled", func() bool { return rec.len() == 4 })
}

// TestPromotionFencesOnHostLane: with host-lane fence callbacks (queued
// dispatch mode), a promoted key keeps routing host until the lane
// drains past the fence — queued host messages cannot be overtaken.
func TestPromotionFencesOnHostLane(t *testing.T) {
	var laneEnq, laneDone uint64
	var mu sync.Mutex
	rec := &recorder{}
	e := New(Config{
		Cores: 1, InitialThreshold: 1, MinThreshold: 1, Epoch: -1,
		Handler: rec.handle,
		HostFence: func(ddp.Key) uint64 {
			mu.Lock()
			defer mu.Unlock()
			return laneEnq
		},
		HostDrained: func(_ ddp.Key, fence uint64) bool {
			mu.Lock()
			defer mu.Unlock()
			return laneDone >= fence
		},
	})
	e.Start()
	defer e.Close()

	dispatchHost := func() {
		mu.Lock()
		laneEnq++
		mu.Unlock()
	}
	drainHost := func() {
		mu.Lock()
		laneDone = laneEnq
		mu.Unlock()
	}

	key := ddp.Key(9)
	// Version 1 qualifies, but the fence (lane admissions + this
	// message) holds it on the host path.
	if e.Route(msg(key, 1)) {
		t.Fatal("version 1 must run host: the promotion is fenced")
	}
	dispatchHost()
	if e.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1 (granted, fenced)", e.Promotions())
	}
	// The lane has not drained: version 2 also routes host, pushing the
	// fence over itself.
	if e.Route(msg(key, 2)) {
		t.Fatal("version 2 must run host: the lane still holds version 1")
	}
	dispatchHost()
	// Lane drains; ownership transfers on the next arrival.
	drainHost()
	if !e.Route(msg(key, 3)) {
		t.Fatal("version 3 should ride the NIC: the lane drained past the fence")
	}
	waitFor(t, "version 3 on the NIC core", func() bool { return rec.len() == 1 })
	if got := rec.snapshot(); got[0] != 3 {
		t.Fatalf("NIC handled version %d, want 3", got[0])
	}
}

// TestClosedEngineRoutesHost: after Close, Route refuses — everything
// falls back to the host path.
func TestClosedEngineRoutesHost(t *testing.T) {
	e := New(Config{
		Handler:          func(ddp.Message, int64) {},
		InitialThreshold: 1, MinThreshold: 1, Epoch: -1,
	})
	e.Start()
	e.Close()
	e.Close() // idempotent
	if e.Route(msg(1, 1)) {
		t.Fatal("closed engine must route host")
	}
}

// TestCollectExportsCounters: the engine is an obs.Source exporting the
// offload.* family.
func TestCollectExportsCounters(t *testing.T) {
	rec := &recorder{}
	e := New(Config{
		Cores: 1, InitialThreshold: 1, MinThreshold: 1, Epoch: -1,
		Handler: rec.handle,
	})
	e.Start()
	defer e.Close()
	if !e.Route(msg(3, 1)) {
		t.Fatal("expected promotion at threshold 1")
	}
	e.Tick()
	var s obs.Snapshot
	e.Collect(&s)
	if s.Counter("offload.frames_nic") != 1 {
		t.Fatalf("offload.frames_nic = %d, want 1", s.Counter("offload.frames_nic"))
	}
	if s.Counter("offload.promotions") != 1 {
		t.Fatalf("offload.promotions = %d, want 1", s.Counter("offload.promotions"))
	}
	if s.Counter("offload.epochs") != 1 {
		t.Fatalf("offload.epochs = %d, want 1", s.Counter("offload.epochs"))
	}
	if s.GaugeValue("offload.threshold") != 1 {
		t.Fatalf("offload.threshold gauge = %d, want 1", s.GaugeValue("offload.threshold"))
	}
	if e.Describe() != "offload" {
		t.Fatalf("Describe() = %q", e.Describe())
	}
}
