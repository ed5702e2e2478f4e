package node

import (
	"bytes"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/transport"
)

// newClientCluster builds an n-node cluster with the client frontend
// enabled plus one client endpoint wired to every node.
func newClientCluster(t *testing.T, n int, model ddp.Model, mutate func(*Config)) ([]*Node, *transport.MemTransport) {
	t.Helper()
	net := transport.NewMemNetworkClients(n, 1)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Config{Model: model, ClientWindow: 256, ClientWorkers: 4}
		if mutate != nil {
			mutate(&cfg)
		}
		nodes[i] = New(cfg, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes, net.Endpoint(ddp.NodeID(n))
}

// call issues one client op and waits for its response.
func call(t *testing.T, ep *transport.MemTransport, to ddp.NodeID, client uint64, req transport.ClientRequest) transport.ClientResponse {
	t.Helper()
	if err := ep.Send(to, transport.Frame{Kind: transport.FrameClientRequest, Client: client, Req: req}); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-ep.Recv():
		if f.Kind != transport.FrameClientResponse || f.Client != client {
			t.Fatalf("unexpected frame %+v", f)
		}
		return f.Resp
	case <-time.After(5 * time.Second):
		t.Fatalf("no response for client %d", client)
		return transport.ClientResponse{}
	}
}

func TestClientFrontendWriteReadPersist(t *testing.T) {
	for _, model := range []ddp.Model{ddp.LinSynch, ddp.LinScope} {
		t.Run(model.String(), func(t *testing.T) {
			nodes, client := newClientCluster(t, 3, model, nil)

			w := call(t, client, 0, 7, transport.ClientRequest{
				Op: transport.OpClientWrite, Key: 42, Value: []byte("hello"),
			})
			if w.Status != transport.StatusOK {
				t.Fatalf("write status = %v", w.Status)
			}
			p := call(t, client, 0, 7, transport.ClientRequest{Op: transport.OpClientPersist})
			if p.Status != transport.StatusOK {
				t.Fatalf("persist status = %v", p.Status)
			}
			r := call(t, client, 0, 7, transport.ClientRequest{Op: transport.OpClientRead, Key: 42})
			if r.Status != transport.StatusOK || !bytes.Equal(r.Value, []byte("hello")) {
				t.Fatalf("read = %+v", r)
			}
			// The write replicated: a different node serves it too.
			waitConverged(t, nodes, 42, []byte("hello"))
			r2 := call(t, client, 1, 8, transport.ClientRequest{Op: transport.OpClientRead, Key: 42})
			if r2.Status != transport.StatusOK || !bytes.Equal(r2.Value, []byte("hello")) {
				t.Fatalf("read from node 1 = %+v", r2)
			}
		})
	}
}

// TestClientFrontendSheds pins the admission contract: a full window
// answers StatusShed immediately instead of queueing unboundedly, and
// every admitted request is still answered — offered equals responses.
func TestClientFrontendSheds(t *testing.T) {
	_, client := newClientCluster(t, 3, ddp.LinSynch, func(c *Config) {
		c.ClientWindow = 2
		c.ClientWorkers = 1
		c.PersistDelay = 2 * time.Millisecond
	})

	const offered = 64
	for i := 0; i < offered; i++ {
		if err := client.Send(0, transport.Frame{
			Kind:   transport.FrameClientRequest,
			Client: uint64(i),
			Req:    transport.ClientRequest{Op: transport.OpClientWrite, Key: ddp.Key(i), Value: []byte("v")},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var ok, shed int
	for got := 0; got < offered; got++ {
		select {
		case f := <-client.Recv():
			switch f.Resp.Status {
			case transport.StatusOK:
				ok++
			case transport.StatusShed:
				shed++
			default:
				t.Fatalf("unexpected status in %+v", f)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("responses stalled at %d/%d (ok=%d shed=%d)", got, offered, ok, shed)
		}
	}
	if shed == 0 {
		t.Fatal("window 2 with 64 burst writes shed nothing")
	}
	if ok+shed != offered {
		t.Fatalf("ok=%d shed=%d, want sum %d", ok, shed, offered)
	}
}

// TestClientFrontendOverRingRTC drives client ops through the
// run-to-completion ring path — the configuration where executing a
// client op inline (instead of enqueueing) would deadlock on the poll
// token. Fifty round trips complete or the test times out.
func TestClientFrontendOverRingRTC(t *testing.T) {
	const nodes = 3
	net := transport.NewRingNetworkClients(nodes, 1, 256<<10, 0)
	cluster := make([]*Node, nodes)
	for i := 0; i < nodes; i++ {
		cluster[i] = New(Config{
			Model: ddp.LinSynch, RTC: RTCAuto, ClientWindow: 64, ClientWorkers: 2,
		}, net.Endpoint(ddp.NodeID(i)))
		cluster[i].Start()
	}
	defer func() {
		for _, nd := range cluster {
			nd.Close()
		}
	}()
	client := net.Endpoint(ddp.NodeID(nodes))
	defer client.Close()

	for i := 0; i < 50; i++ {
		to := ddp.NodeID(i % nodes)
		w := callRing(t, client, to, uint64(i), transport.ClientRequest{
			Op: transport.OpClientWrite, Key: ddp.Key(i % 5), Value: []byte("rv"),
		})
		if w.Status != transport.StatusOK {
			t.Fatalf("write %d status = %v", i, w.Status)
		}
	}
	r := callRing(t, client, 1, 99, transport.ClientRequest{Op: transport.OpClientRead, Key: 3})
	if r.Status != transport.StatusOK || !bytes.Equal(r.Value, []byte("rv")) {
		t.Fatalf("read = %+v", r)
	}
}

func callRing(t *testing.T, ep *transport.RingTransport, to ddp.NodeID, client uint64, req transport.ClientRequest) transport.ClientResponse {
	t.Helper()
	if err := ep.Send(to, transport.Frame{Kind: transport.FrameClientRequest, Client: client, Req: req}); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-ep.Recv():
		if f.Kind != transport.FrameClientResponse || f.Client != client {
			t.Fatalf("unexpected frame %+v", f)
		}
		return f.Resp
	case <-time.After(10 * time.Second):
		t.Fatalf("no response for client %d", client)
		return transport.ClientResponse{}
	}
}

// TestClientFrontendDisabledErrs: a node without a frontend answers
// StatusErr so remote clients fail fast rather than hang.
func TestClientFrontendDisabledErrs(t *testing.T) {
	_, client := newClientCluster(t, 2, ddp.LinSynch, func(c *Config) {
		c.ClientWindow = 0
	})
	resp := call(t, client, 0, 1, transport.ClientRequest{Op: transport.OpClientRead, Key: 1})
	if resp.Status != transport.StatusErr {
		t.Fatalf("status = %v, want StatusErr", resp.Status)
	}
}
