package main

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

func testNode(t *testing.T) (*node.Node, obs.Source) {
	t.Helper()
	net := transport.NewMemNetwork(2)
	nodes := make([]*node.Node, 2)
	for i := range nodes {
		nodes[i] = node.New(node.Config{Model: ddp.LinScope}, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes[0], net.Endpoint(0)
}

func TestHandleCommandRoundTrip(t *testing.T) {
	n, ts := testNode(t)
	if got := handleCommand(n, ts, "SET 42 68656c6c6f"); got != "OK" {
		t.Fatalf("SET: %q", got)
	}
	if got := handleCommand(n, ts, "GET 42"); got != "OK 68656c6c6f" {
		t.Fatalf("GET: %q", got)
	}
	if got := handleCommand(n, ts, "GET 43"); got != "NIL" {
		t.Fatalf("GET missing: %q", got)
	}
}

func TestHandleCommandScopeFlow(t *testing.T) {
	n, ts := testNode(t)
	reply := handleCommand(n, ts, "SCOPE")
	if !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("SCOPE: %q", reply)
	}
	sc := strings.TrimPrefix(reply, "OK ")
	if got := handleCommand(n, ts, "SETS 7 61 "+sc); got != "OK" {
		t.Fatalf("SETS: %q", got)
	}
	if got := handleCommand(n, ts, "PERSIST "+sc); got != "OK" {
		t.Fatalf("PERSIST: %q", got)
	}
}

func TestHandleCommandErrors(t *testing.T) {
	n, ts := testNode(t)
	cases := []string{
		"",
		"BOGUS",
		"GET",
		"GET notanumber",
		"SET 1",
		"SET 1 nothex!",
		"PERSIST xyz",
	}
	for _, c := range cases {
		if got := handleCommand(n, ts, c); !strings.HasPrefix(got, "ERR") {
			t.Errorf("command %q: got %q, want ERR...", c, got)
		}
	}
}

func TestHandleCommandStats(t *testing.T) {
	n, ts := testNode(t)
	handleCommand(n, ts, "SET 1 00")
	got := handleCommand(n, ts, "STATS")
	if !strings.HasPrefix(got, "OK {") {
		t.Fatalf("STATS is not a JSON snapshot: %q", got)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(strings.TrimPrefix(got, "OK ")), &snap); err != nil {
		t.Fatalf("STATS payload does not parse: %v\n%q", err, got)
	}
	if snap.Counter("node.writes") != 1 {
		t.Fatalf("node.writes = %d, want 1\n%s", snap.Counter("node.writes"), &snap)
	}
	// The wire instruments must be present when a stats source is wired.
	if snap.Counter("transport.frames_sent") == 0 {
		t.Fatalf("STATS lacks transport instruments: %q", got)
	}
	// And omitted cleanly when none is.
	bare := handleCommand(n, nil, "STATS")
	var bareSnap obs.Snapshot
	if err := json.Unmarshal([]byte(strings.TrimPrefix(bare, "OK ")), &bareSnap); err != nil {
		t.Fatalf("STATS without source does not parse: %v", err)
	}
	for _, c := range bareSnap.Counters {
		if strings.HasPrefix(c.Name, "transport.") {
			t.Fatalf("STATS with nil source leaked wire counters: %q", bare)
		}
	}
	// Two idle collects must serialize byte-identically (the snapshot
	// determinism contract minos-live and CI diffing rely on).
	if again := handleCommand(n, ts, "STATS"); again != got {
		t.Fatalf("idle STATS not deterministic:\n%q\n%q", got, again)
	}
}

func TestParseCluster(t *testing.T) {
	addrs, err := parseCluster("0=host0:7100, 1=host1:7101,2=host2:7102")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 || addrs[1] != "host1:7101" {
		t.Fatalf("parsed %v", addrs)
	}
	for _, bad := range []string{"", "x", "a=b=c=d", "q=host:1"} {
		if _, err := parseCluster(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
