package node

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/offload"
	"github.com/minos-ddp/minos/internal/transport"
)

// offloadTestConfig is an aggressive engine tuning for tests: every key
// qualifies on first touch, and manual epochs (no ticker) keep the
// threshold trajectory deterministic.
func offloadTestConfig() *offload.Config {
	return &offload.Config{
		InitialThreshold:      1,
		MinThreshold:          1,
		MaxPromotionsPerEpoch: 1 << 20,
		Epoch:                 -1,
	}
}

// TestOffloadableGate pins which messages may cross to the NIC pool:
// key-carrying protocol messages yes; scope-control broadcasts, scope
// flush requests, and coalesced VAL batches no.
func TestOffloadableGate(t *testing.T) {
	ts := ddp.Timestamp{Node: 1, Version: 3}
	cases := []struct {
		m    ddp.Message
		want bool
	}{
		{ddp.Message{Kind: ddp.KindInv, TS: ts}, true},
		{ddp.Message{Kind: ddp.KindAck, TS: ts}, true},
		{ddp.Message{Kind: ddp.KindAckC, TS: ts}, true},
		{ddp.Message{Kind: ddp.KindVal, TS: ts}, true},
		{ddp.Message{Kind: ddp.KindValC, TS: ts}, true},
		{ddp.Message{Kind: ddp.KindAckP, TS: ts, Scope: 5}, true},
		{ddp.Message{Kind: ddp.KindValP, TS: ts, Scope: 5}, true},
		{ddp.Message{Kind: ddp.KindAckP, Scope: 5}, false}, // [ACK_P]sc scope control
		{ddp.Message{Kind: ddp.KindValP, Scope: 5}, false}, // [VAL_P]sc scope control
		{ddp.Message{Kind: ddp.KindPersist, Scope: 5}, false},
		{ddp.Message{Kind: ddp.KindValBatch}, false},
	}
	for i, c := range cases {
		if got := offloadable(c.m); got != c.want {
			t.Errorf("case %d: offloadable(%v scope=%d ts=%v) = %v, want %v",
				i, c.m.Kind, c.m.Scope, c.m.TS, got, c.want)
		}
	}
}

// TestOffloadClusterReplicates smoke-tests every model with the engine
// enabled: a hot key's writes converge on all nodes, and the NIC pool
// actually carried protocol traffic for it.
func TestOffloadClusterReplicates(t *testing.T) {
	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			nodes, _ := newCluster(t, 3, model, func(cfg *Config) {
				cfg.Offload = offloadTestConfig()
			})
			var want []byte
			for i := 0; i < 20; i++ {
				want = []byte(fmt.Sprintf("off-%d", i))
				if err := nodes[0].Write(5, want); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			waitConverged(t, nodes, 5, want)
			var nic int64
			for _, nd := range nodes {
				if nd.Offload() == nil {
					t.Fatal("offload engine missing")
				}
				nic += nd.Offload().NICFrames()
			}
			if nic == 0 {
				t.Fatal("no protocol message rode the NIC pool")
			}
		})
	}
}

// TestOffloadClusterLinearizable is TestLiveClusterIsLinearizable with
// the soft-NIC engine splicing the delivery path: same concurrent
// unique-valued writes and reads on one (hot, hence offloaded) key,
// same requirement that a legal linearization exists — MINOS-O must be
// observationally equivalent to MINOS-B.
func TestOffloadClusterLinearizable(t *testing.T) {
	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for round := 0; round < 3; round++ {
				nodes, _ := newCluster(t, 3, model, func(cfg *Config) {
					cfg.Offload = offloadTestConfig()
				})
				var mu sync.Mutex
				var hist []histOp
				record := func(op histOp) {
					mu.Lock()
					hist = append(hist, op)
					mu.Unlock()
				}
				var wg sync.WaitGroup
				for _, nd := range nodes {
					nd := nd
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 2; i++ {
							v := fmt.Sprintf("o%d-%d-%d", nd.ID(), round, i)
							start := time.Now()
							if err := nd.Write(1, []byte(v)); err != nil {
								t.Errorf("write: %v", err)
								return
							}
							record(histOp{isWrite: true, value: v, start: start, end: time.Now()})
						}
					}()
				}
				for _, nd := range nodes {
					nd := nd
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 3; i++ {
							start := time.Now()
							v, err := nd.Read(1)
							if err != nil {
								t.Errorf("read: %v", err)
								return
							}
							record(histOp{isWrite: false, value: string(v), start: start, end: time.Now()})
							time.Sleep(time.Duration(i) * 200 * time.Microsecond)
						}
					}()
				}
				wg.Wait()
				if !linearizable(hist) {
					t.Fatalf("round %d: no legal linearization of %d ops with offload on",
						round, len(hist))
				}
			}
		})
	}
}

// TestOffloadRTCLinearizable runs the offloaded cluster over the ring
// fabric in run-to-completion mode (inline delivery, no host-lane
// fence): linearizability must survive the borrowed-frame admission
// path too.
func TestOffloadRTCLinearizable(t *testing.T) {
	for _, model := range []ddp.Model{ddp.LinSynch, ddp.LinStrict} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			net := transport.NewRingNetwork(3)
			nodes := make([]*Node, 3)
			for i := range nodes {
				nodes[i] = NewWithOptions(net.Endpoint(ddp.NodeID(i)),
					WithModel(model), WithRTC(RTCAuto),
					WithOffload(offloadTestConfig()))
				nodes[i].Start()
			}
			t.Cleanup(func() {
				for _, nd := range nodes {
					nd.Close()
				}
			})
			var mu sync.Mutex
			var hist []histOp
			record := func(op histOp) {
				mu.Lock()
				hist = append(hist, op)
				mu.Unlock()
			}
			var wg sync.WaitGroup
			for _, nd := range nodes {
				nd := nd
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						v := fmt.Sprintf("rtc%d-%d", nd.ID(), i)
						start := time.Now()
						if err := nd.Write(2, []byte(v)); err != nil {
							t.Errorf("write: %v", err)
							return
						}
						record(histOp{isWrite: true, value: v, start: start, end: time.Now()})
						vr, err := nd.Read(2)
						if err != nil {
							t.Errorf("read: %v", err)
							return
						}
						record(histOp{isWrite: false, value: string(vr), start: start, end: time.Now()})
					}
				}()
			}
			wg.Wait()
			if !linearizable(hist) {
				t.Fatalf("no legal linearization of %d ops with offload + RTC", len(hist))
			}
		})
	}
}

// TestOffloadTracePhases: with tracing on, NIC-handled messages record
// the nic_queue and nic_handle phases, and every matched pair abuts
// (the queue span ends where the handling span starts) — the Fig 2
// B-vs-O breakdown minos-trace renders.
func TestOffloadTracePhases(t *testing.T) {
	net := transport.NewMemNetwork(3)
	nodes := make([]*Node, 3)
	tracers := make([]*obs.Tracer, 3)
	for i := range nodes {
		tracers[i] = obs.NewTracer(1 << 16)
		tracers[i].SetSampleEvery(1)
		nodes[i] = NewWithOptions(net.Endpoint(ddp.NodeID(i)),
			WithModel(ddp.LinSynch), WithTracer(tracers[i]),
			WithOffload(offloadTestConfig()))
		nodes[i].Start()
	}
	for i := 0; i < 30; i++ {
		if err := nodes[0].Write(1, []byte(fmt.Sprintf("tr-%d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for _, nd := range nodes {
		nd.Close()
	}
	type pkey struct {
		node int
		key  uint64
		ver  int64
	}
	queues := map[pkey]obs.Span{}
	handles := map[pkey]obs.Span{}
	for i, tr := range tracers {
		for _, s := range tr.Spans() {
			k := pkey{i, s.Key, s.Ver}
			switch s.Phase {
			case obs.PhaseNICQueue:
				queues[k] = s
			case obs.PhaseNICHandle:
				handles[k] = s
			}
		}
	}
	if len(handles) == 0 {
		t.Fatal("no nic_handle span recorded: the NIC pool never handled a traced message")
	}
	matched := 0
	for k, h := range handles {
		q, ok := queues[k]
		if !ok {
			t.Fatalf("nic_handle for %+v has no nic_queue span", k)
		}
		if q.End > h.Start {
			t.Fatalf("%+v: nic_queue ends at %d after nic_handle starts at %d", k, q.End, h.Start)
		}
		if q.Start > q.End {
			t.Fatalf("%+v: nic_queue span runs backwards (%d > %d)", k, q.Start, q.End)
		}
		matched++
	}
	t.Logf("matched %d nic_queue/nic_handle pairs", matched)
}

// TestOffloadOverflowDemotesEndToEnd drives a follower with a one-deep
// vFIFO through the full promote → overflow → demote → host cycle over
// a raw endpoint, with strictly ascending same-key INVs. The
// acknowledgments must come back in timestamp order across every
// ownership transfer — no INV dropped, none reordered, none spuriously
// obsolete — which is the per-record-FIFO half of the D13 equivalence
// argument exercised end to end.
func TestOffloadOverflowDemotesEndToEnd(t *testing.T) {
	net := transport.NewMemNetwork(2)
	client := net.Endpoint(0) // raw: we play the coordinator by hand
	oc := &offload.Config{
		Cores: 1, VFIFODepth: 1, Slots: 16,
		InitialThreshold: 1, MinThreshold: 1,
		MaxPromotionsPerEpoch: 1 << 20,
		Epoch:                 -1,
	}
	n := NewWithOptions(net.Endpoint(1), WithModel(ddp.LinSynch), WithOffload(oc))
	n.Start()
	defer n.Close()

	const key = ddp.Key(7)
	const perRound = 300
	total := 0
	deadline := time.After(30 * time.Second)
	// The depth-1 vFIFO overflows as soon as delivery outpaces the
	// single NIC core; a handful of rounds is far more than enough.
	for round := 0; round < 5; round++ {
		for i := 1; i <= perRound; i++ {
			v := total + i
			m := ddp.Message{
				Kind: ddp.KindInv, Key: key,
				TS:    ddp.Timestamp{Node: 0, Version: ddp.Version(v)},
				Value: []byte{byte(v)},
				Size:  ddp.DataSize(1),
			}
			if err := client.Send(1, transport.Frame{Kind: transport.FrameMessage, Msg: m}); err != nil {
				t.Fatalf("send INV v%d: %v", v, err)
			}
		}
		got := 0
		for got < perRound {
			select {
			case f, ok := <-client.Recv():
				if !ok {
					t.Fatal("client endpoint closed early")
				}
				if f.Kind != transport.FrameMessage || f.Msg.Kind != ddp.KindAck {
					continue
				}
				got++
				if want := ddp.Version(total + got); f.Msg.TS.Version != want {
					t.Fatalf("ack %d carries version %d, want %d: the offload boundary reordered INVs",
						total+got, f.Msg.TS.Version, want)
				}
			case <-deadline:
				t.Fatalf("timed out with %d/%d acks in round %d", got, perRound, round)
			}
		}
		total += perRound
		if n.Offload().Demotions() > 0 {
			break
		}
	}
	if n.Offload().Demotions() == 0 {
		t.Fatalf("no vFIFO-overflow demotion in %d same-key INVs through a depth-1 vFIFO", total)
	}
	if n.Offload().Promotions() == 0 {
		t.Fatal("key never promoted")
	}

	// In-order application means no INV went obsolete: every write
	// persisted exactly once and the record sits at the final version.
	if l := n.Log().Len(); l != total {
		t.Fatalf("log has %d entries, want %d", l, total)
	}
	r := n.Store().Get(key)
	if r == nil {
		t.Fatal("record missing")
	}
	r.Lock()
	ts := r.Meta.VolatileTS
	r.Unlock()
	if int(ts.Version) != total {
		t.Fatalf("volatile TS version %d, want %d", ts.Version, total)
	}
	if invs := n.Stats.InvsHandled.Load(); int(invs) != total {
		t.Fatalf("handled %d INVs, want %d", invs, total)
	}
}

// TestOffloadedPersistBeforeAck plays the coordinator by hand against a
// Lin-Strict follower whose offload engine takes the key on first
// touch and whose group commit costs 5 ms. Every ACK_P must find its
// entry already in the follower's log — whichever side handled the INV
// — and same-key ACK_Ps must arrive in version order through a full
// promote → overflow demote → re-promote cycle, because host and NIC
// cores stage into the same per-key drain queue.
func TestOffloadedPersistBeforeAck(t *testing.T) {
	net := transport.NewMemNetwork(2)
	client := net.Endpoint(0)
	oc := &offload.Config{
		Cores: 1, VFIFODepth: 1, Slots: 16,
		InitialThreshold: 1, MinThreshold: 1, MaxThreshold: 1,
		MaxPromotionsPerEpoch: 1 << 20,
		CooldownEpochs:        2,
		Epoch:                 -1,
	}
	n := NewWithOptions(net.Endpoint(1), WithModel(ddp.LinStrict),
		WithPersistDelay(5*time.Millisecond), WithOffload(oc))
	n.Start()
	defer n.Close()

	const key = ddp.Key(11)
	const perRound = 200
	sent, acked := 0, 0
	deadline := time.After(30 * time.Second)
	round := func() {
		for i := 1; i <= perRound; i++ {
			v := ddp.Version(sent + i)
			m := ddp.Message{
				Kind: ddp.KindInv, Key: key,
				TS:    ddp.Timestamp{Node: 0, Version: v},
				Value: []byte{byte(v)},
				Size:  ddp.DataSize(1),
			}
			if err := client.Send(1, transport.Frame{Kind: transport.FrameMessage, Msg: m}); err != nil {
				t.Fatalf("send INV v%d: %v", v, err)
			}
		}
		sent += perRound
		for acked < sent {
			select {
			case f, ok := <-client.Recv():
				if !ok {
					t.Fatal("client endpoint closed early")
				}
				if f.Kind != transport.FrameMessage || f.Msg.Kind != ddp.KindAckP {
					continue
				}
				if !n.Log().LocallyDurable(key, f.Msg.TS) {
					t.Fatalf("ACK_P v%d reached the coordinator before the follower's log held it",
						f.Msg.TS.Version)
				}
				acked++
				if want := ddp.Version(acked); f.Msg.TS.Version != want {
					t.Fatalf("ACK_P %d carries version %d, want %d: same-key persists reordered",
						acked, f.Msg.TS.Version, want)
				}
			case <-deadline:
				t.Fatalf("timed out with %d/%d ACK_Ps", acked, sent)
			}
		}
	}

	// Rounds until the key overflowed its depth-1 vFIFO and a later
	// round rode the NIC cores again. A round starts with the vFIFO
	// drained, so NIC frames in a round that began after a demotion
	// mean the key was promoted again. The demotion cooldown passes
	// with manual epochs.
	cycled := false
	for r := 0; r < 20 && !cycled; r++ {
		demoted := n.Offload().Demotions() > 0
		nic := n.Offload().NICFrames()
		round()
		cycled = demoted && n.Offload().NICFrames() > nic
		for i := uint32(0); i <= oc.CooldownEpochs; i++ {
			n.Offload().Tick()
		}
	}
	if !cycled {
		t.Fatalf("no demote/re-promote cycle in %d INVs: %d promotions, %d demotions",
			sent, n.Offload().Promotions(), n.Offload().Demotions())
	}
}

// kindCounter is a Transport wrapper that tallies outbound protocol
// frames by message kind; a Broadcast counts once per peer it reaches.
type kindCounter struct {
	transport.Transport
	mu    sync.Mutex
	kinds map[ddp.MsgKind]int
}

func (c *kindCounter) note(f transport.Frame, copies int) {
	if f.Kind != transport.FrameMessage {
		return
	}
	c.mu.Lock()
	c.kinds[f.Msg.Kind] += copies
	c.mu.Unlock()
}

func (c *kindCounter) Send(to ddp.NodeID, f transport.Frame) error {
	c.note(f, 1)
	return c.Transport.Send(to, f)
}

func (c *kindCounter) Broadcast(f transport.Frame) error {
	c.note(f, len(c.Peers()))
	return c.Transport.Broadcast(f)
}

func (c *kindCounter) tally() map[ddp.MsgKind]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.kinds)
}

// TestPlacementsAgreeOnMessageCounts pins that offload changes only
// where a protocol step runs, not what it sends: serial writes from
// one coordinator put exactly the same messages on the wire whether
// every message runs on the host or the NIC cores carry every key.
// Per write and follower that is one INV, one VAL_C when the model
// validates at consistency, and one durable VAL when it has one.
func TestPlacementsAgreeOnMessageCounts(t *testing.T) {
	const nodes, writes = 3, 40
	run := func(t *testing.T, model ddp.Model, offloaded bool) (map[ddp.MsgKind]int, int64) {
		t.Helper()
		net := transport.NewMemNetwork(nodes)
		counter := &kindCounter{Transport: net.Endpoint(0), kinds: make(map[ddp.MsgKind]int)}
		cluster := make([]*Node, nodes)
		for i := range cluster {
			var tr transport.Transport = net.Endpoint(ddp.NodeID(i))
			if i == 0 {
				tr = counter
			}
			opts := []Option{WithModel(model)}
			if offloaded {
				opts = append(opts, WithOffload(offloadTestConfig()))
			}
			cluster[i] = NewWithOptions(tr, opts...)
			cluster[i].Start()
		}
		defer func() {
			for _, nd := range cluster {
				nd.Close()
			}
		}()
		for i := 0; i < writes; i++ {
			if err := cluster[0].Write(ddp.Key(i%4), []byte{byte(i)}); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		for _, nd := range cluster {
			if err := nd.Quiesce(); err != nil {
				t.Fatalf("quiesce: %v", err)
			}
		}
		var nic int64
		if off := cluster[0].Offload(); off != nil {
			nic = off.NICFrames()
		}
		return counter.tally(), nic
	}

	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			policy := ddp.PolicyFor(model)
			perKind := writes * (nodes - 1)
			want := map[ddp.MsgKind]int{ddp.KindInv: perKind}
			if policy.SendsValAtConsistency() {
				want[ddp.KindValC] += perKind
			}
			if kind, ok := policy.DurableValKind(); ok {
				want[kind] += perKind
			}

			host, _ := run(t, model, false)
			nic, nicFrames := run(t, model, true)
			if nicFrames == 0 {
				t.Fatal("offload run handled no frames on the coordinator's NIC cores")
			}
			if !maps.Equal(host, want) {
				t.Errorf("host placement sent %v, want %v", host, want)
			}
			if !maps.Equal(nic, host) {
				t.Errorf("NIC placement sent %v, host placement %v", nic, host)
			}
		})
	}
}
