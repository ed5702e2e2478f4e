package transport

import (
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// tcpPair builds two wired TCP transports (0 and 1) and cleans them up.
func tcpPair(t *testing.T) (*TCPTransport, *TCPTransport) {
	t.Helper()
	t0, err := NewTCPTransport(0, map[ddp.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTCPTransport(1, map[ddp.NodeID]string{0: t0.Addr(), 1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t0.SetPeerAddr(1, t1.Addr())
	t.Cleanup(func() {
		t0.Close()
		t1.Close()
	})
	return t0, t1
}

// TestTCPPerPeerFIFO: the DDP protocol (and the persistorder analyzer's
// premise) depend on per-peer FIFO delivery. With batching, every
// sender's own frames must still arrive in its send order: each sender
// tags frames with its ID (Key) and a strictly increasing sequence
// (Version); the receiver requires every per-sender subsequence to be
// increasing, across thousands of coalesced frames.
func TestTCPPerPeerFIFO(t *testing.T) {
	t0, t1 := tcpPair(t)

	const senders, per = 16, 300
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f := Frame{Kind: FrameMessage, Msg: ddp.Message{
					Kind: ddp.KindInv,
					Key:  ddp.Key(s),
					TS:   ddp.Timestamp{Node: 1, Version: ddp.Version(i)},
				}}
				// Retry on backpressure: the test saturates the queue on
				// purpose; a retried frame must still slot in order
				// because each sender retries before sending its next.
				for {
					err := t1.Send(0, f)
					if err == nil {
						break
					}
					if err != ErrBackpressure {
						t.Errorf("send: %v", err)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
	}

	last := make(map[ddp.Key]ddp.Version)
	got := 0
	deadline := time.After(30 * time.Second)
	for got < senders*per {
		select {
		case f, ok := <-t0.Recv():
			if !ok {
				t.Fatal("transport closed early")
			}
			key, v := f.Msg.Key, f.Msg.TS.Version
			if prev, seen := last[key]; seen && v <= prev {
				t.Fatalf("sender %d: version %d arrived after %d (FIFO violated)", key, v, prev)
			}
			last[key] = v
			got++
		case <-deadline:
			t.Fatalf("received %d of %d frames", got, senders*per)
		}
	}
	wg.Wait()

	// The writer counts a batch after its socket Write returns, which can
	// be after the receiver has already read it: wait for the count.
	sent := func() int64 { return obs.Collect(t1).Counter("transport.frames_sent") }
	for deadline := time.Now().Add(5 * time.Second); sent() < senders*per && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	// Batching must actually have coalesced under this load — otherwise
	// the benchmark claims are vacuous. (16 senders × 300 frames through
	// one link virtually always batch; if this ever flakes on some
	// exotic scheduler, it signals real coalescing loss worth seeing.)
	st := obs.Collect(t1)
	batches, frames := st.Counter("transport.batches_sent"), st.Counter("transport.frames_sent")
	if batches >= frames {
		t.Errorf("no coalescing: %d batches for %d frames", batches, frames)
	}
	if frames != senders*per {
		t.Errorf("frames_sent = %d, want %d", frames, senders*per)
	}
}

// TestBroadcastEncodesOnce: Broadcast must encode the frame exactly one
// time regardless of fan-out, and deliver it to every peer.
func TestBroadcastEncodesOnce(t *testing.T) {
	const n = 4
	trs := make([]*TCPTransport, n)
	addrs := map[ddp.NodeID]string{}
	for i := range trs {
		addrs[ddp.NodeID(i)] = "127.0.0.1:0"
	}
	for i := range trs {
		tr, err := NewTCPTransport(ddp.NodeID(i), map[ddp.NodeID]string{ddp.NodeID(i): "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		defer tr.Close()
	}
	for i := range trs {
		for j := range trs {
			if i != j {
				trs[i].SetPeerAddr(ddp.NodeID(j), trs[j].Addr())
			}
		}
		// Register the peer addresses the constructor didn't know.
		trs[i].mu.Lock()
		for j := range trs {
			if i != j {
				if _, ok := trs[i].addrs[ddp.NodeID(j)]; !ok {
					t.Fatalf("SetPeerAddr did not register peer %d", j)
				}
			}
		}
		trs[i].mu.Unlock()
	}

	before := obs.Collect(trs[0])
	want := Frame{Kind: FrameMessage, Msg: ddp.Message{
		Kind: ddp.KindInv, Key: 99, TS: ddp.Timestamp{Node: 0, Version: 1},
		Value: []byte("broadcast-once"),
	}}
	if err := trs[0].Broadcast(want); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		select {
		case f := <-trs[i].Recv():
			if f.From != 0 || f.Msg.Key != 99 || string(f.Msg.Value) != "broadcast-once" {
				t.Fatalf("peer %d got %+v", i, f)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("peer %d never received the broadcast", i)
		}
	}
	// The writer counts a batch after its socket Write returns, which can
	// be after the peer has already read it: wait for the count.
	sent := func() int64 {
		return obs.Collect(trs[0]).Counter("transport.frames_sent") - before.Counter("transport.frames_sent")
	}
	for deadline := time.Now().Add(5 * time.Second); sent() < n-1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	after := obs.Collect(trs[0])
	if got := after.Counter("transport.encodes") - before.Counter("transport.encodes"); got != 1 {
		t.Errorf("broadcast performed %d encodes, want exactly 1", got)
	}
	if got := after.Counter("transport.broadcasts") - before.Counter("transport.broadcasts"); got != 1 {
		t.Errorf("broadcasts counter moved by %d, want 1", got)
	}
	if got := after.Counter("transport.frames_sent") - before.Counter("transport.frames_sent"); got != n-1 {
		t.Errorf("broadcast delivered %d frames, want %d", got, n-1)
	}
}

// TestPeersSortedDeterministic: Peers() must not leak map-range order.
func TestPeersSortedDeterministic(t *testing.T) {
	addrs := map[ddp.NodeID]string{2: "127.0.0.1:0"}
	for _, id := range []ddp.NodeID{9, 0, 7, 1, 5, 3} {
		addrs[id] = "127.0.0.1:1"
	}
	tr, err := NewTCPTransport(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	want := []ddp.NodeID{0, 1, 3, 5, 7, 9}
	for round := 0; round < 10; round++ {
		got := tr.Peers()
		if len(got) != len(want) {
			t.Fatalf("Peers() = %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: Peers() = %v, want %v", round, got, want)
			}
		}
	}
}

// TestTCPDeadPeerSendsErrorOut: frames queued for a dead peer must turn
// into prompt Send errors with a bounded queue, not accumulate while a
// redial loop hammers the dead address.
func TestTCPDeadPeerSendsErrorOut(t *testing.T) {
	t0, t1 := tcpPair(t)
	if err := t1.Send(0, Frame{Kind: FrameHeartbeat}); err != nil {
		t.Fatal(err)
	}
	<-t0.Recv()
	t0.Close() // kill the peer

	payload := make([]byte, 1024)
	sawError := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		err := t1.Send(0, Frame{Kind: FrameMessage, Msg: ddp.Message{
			Kind: ddp.KindInv, Key: 1, TS: ddp.Timestamp{Node: 1, Version: 1}, Value: payload,
		}})
		if err != nil {
			sawError = true
			break
		}
	}
	if !sawError {
		t.Fatal("sends to a dead peer never errored")
	}

	// Keep sending for a while: the queue must stay bounded and errors
	// must keep coming (backoff gates admission; nothing piles up).
	p, err := t1.peer(0)
	if err != nil {
		t.Fatal(err)
	}
	errs, total := 0, 0
	until := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(until) {
		if err := t1.Send(0, Frame{Kind: FrameHeartbeat}); err != nil {
			errs++
		}
		total++
		p.mu.Lock()
		pending := p.pending
		p.mu.Unlock()
		if pending > maxPendingBytes+maxFrameSize {
			t.Fatalf("pending bytes %d exceed the bound", pending)
		}
	}
	if errs == 0 {
		t.Errorf("none of %d sends errored while the peer stayed dead", total)
	}
	// The writer must not be hot-dialing: redials are backoff-gated.
	// (The exact errored fraction is timing-dependent — each redial probe
	// window admits a burst before the dial fails — so it is not
	// asserted; boundedness and gating are the contract.)
	if redials := obs.Collect(t1).Counter("transport.redials"); redials > 256 {
		t.Errorf("%d redials in ~½s: backoff is not gating the dial loop", redials)
	}
}

// TestChaosOverTCP: the chaos wrapper composes over the batched TCP
// transport with per-frame (not per-batch) drop and delay decisions.
func TestChaosOverTCP(t *testing.T) {
	t0, t1 := tcpPair(t)
	const dropP = 0.4
	ch := NewChaos(t1, 500*time.Microsecond, dropP, 42)
	// ch now owns t1's lifetime; Close is idempotent so the pair cleanup
	// closing t1 again is fine.
	defer ch.Close()

	const total = 400
	for i := 0; i < total; i++ {
		if err := ch.Send(0, Frame{Kind: FrameMessage, Msg: ddp.Message{
			Kind: ddp.KindInv, Key: 7, TS: ddp.Timestamp{Node: 1, Version: ddp.Version(i)},
		}}); err != nil {
			t.Fatal(err)
		}
	}

	got := 0
	var lastV ddp.Version = -1
	timeout := time.After(10 * time.Second)
loop:
	for {
		select {
		case f := <-t0.Recv():
			if f.Msg.Key != 7 {
				t.Fatalf("corrupt frame: %+v", f)
			}
			if f.Msg.TS.Version <= lastV {
				t.Fatalf("FIFO violated under chaos: %d after %d", f.Msg.TS.Version, lastV)
			}
			lastV = f.Msg.TS.Version
			got++
		case <-time.After(700 * time.Millisecond):
			break loop // drained: chaos pumps idle this long means done
		case <-timeout:
			break loop
		}
	}
	if got == 0 {
		t.Fatal("chaos dropped everything")
	}
	if got == total {
		t.Fatalf("chaos dropped nothing out of %d frames (dropP=%v): drops are not per-frame", total, dropP)
	}
}
