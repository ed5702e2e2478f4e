// Command minos-server runs one live MINOS-B node over TCP and exposes
// a line-based client API (GET/SET/SCOPE/PERSIST/STATS) on a separate
// port — a deployable replica of the paper's distributed machine.
//
// Usage (3-node cluster on one machine):
//
//	minos-server -id 0 -cluster 0=:7100,1=:7101,2=:7102 -client :8100 &
//	minos-server -id 1 -cluster 0=:7100,1=:7101,2=:7102 -client :8101 &
//	minos-server -id 2 -cluster 0=:7100,1=:7101,2=:7102 -client :8102 &
//	minos-client -addr :8100 set 42 hello
//	minos-client -addr :8101 get 42
package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/offload"
	"github.com/minos-ddp/minos/internal/transport"
)

func main() {
	id := flag.Int("id", 0, "this node's ID")
	cluster := flag.String("cluster", "", "comma-separated id=host:port for every node")
	clientAddr := flag.String("client", ":8100", "client API listen address")
	modelName := flag.String("model", "Lin-Synch", "DDP model")
	persistDelay := flag.Duration("persist-delay", 1295*time.Nanosecond, "emulated NVM latency per persist")
	heartbeat := flag.Duration("heartbeat", 200*time.Millisecond, "failure-detector heartbeat interval")
	failAfter := flag.Duration("fail-after", time.Second, "silence before a peer is declared failed")
	recoverFrom := flag.Int("recover-from", -1, "on startup, pull the log tail from this node (-1 = none)")
	dispatch := flag.Int("dispatch", 0, "key-affine dispatch workers (0 = default)")
	drains := flag.Int("drains", 0, "NVM drain engines (0 = default)")
	offloadOn := flag.Bool("offload", false, "enable the soft-NIC offload engine (MINOS-O)")
	flag.Parse()

	model, err := ddp.ParseModel(*modelName)
	if err != nil {
		log.Fatalf("minos-server: %v", err)
	}
	addrs, err := parseCluster(*cluster)
	if err != nil {
		log.Fatalf("minos-server: %v", err)
	}
	self := ddp.NodeID(*id)
	if _, ok := addrs[self]; !ok {
		log.Fatalf("minos-server: cluster spec lacks node %d", *id)
	}

	tr, err := transport.NewTCPTransport(self, addrs)
	if err != nil {
		log.Fatalf("minos-server: %v", err)
	}
	cfg := node.Config{
		Model:           model,
		PersistDelay:    *persistDelay,
		HeartbeatEvery:  *heartbeat,
		FailAfter:       *failAfter,
		DispatchWorkers: *dispatch,
		PersistDrains:   *drains,
	}
	if *offloadOn {
		cfg.Offload = &offload.Config{}
	}
	n := node.New(cfg, tr)
	n.Start()
	log.Printf("node %d up: model=%v protocol=%s client=%s", self, model, tr.Addr(), *clientAddr)

	if *recoverFrom >= 0 {
		if err := n.Recover(ddp.NodeID(*recoverFrom)); err != nil {
			log.Printf("recovery request failed: %v", err)
		} else {
			log.Printf("recovery requested from node %d", *recoverFrom)
		}
	}

	ln, err := net.Listen("tcp", *clientAddr)
	if err != nil {
		log.Fatalf("minos-server: client listener: %v", err)
	}
	cs := &clientServer{conns: map[net.Conn]struct{}{}}
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		cs.serve(ln, n, tr)
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("node %d shutting down", self)
	ln.Close()
	cs.shutdown()
	n.Close()
}

// parseCluster parses "0=host:port,1=host:port,...".
func parseCluster(spec string) (map[ddp.NodeID]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("missing -cluster")
	}
	out := map[ddp.NodeID]string{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad cluster entry %q", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad node id %q", kv[0])
		}
		out[ddp.NodeID(id)] = kv[1]
	}
	return out, nil
}

// clientServer tracks every accepted connection so shutdown can close
// them and wait for their goroutines instead of abandoning them to
// process exit.
type clientServer struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{} // nil once shutdown has begun
	wg    sync.WaitGroup
}

// serve accepts client connections and answers the line protocol:
//
//	GET <key>                 -> OK <hex> | NIL | ERR <msg>
//	SET <key> <hex>           -> OK | ERR <msg>
//	SETS <key> <hex> <scope>  -> OK | ERR <msg>    (scoped write)
//	SCOPE                     -> OK <scope-id>
//	PERSIST <scope-id>        -> OK | ERR <msg>
//	STATS                     -> OK <json snapshot> (one obs.Snapshot: node, pipeline, wire)
func (cs *clientServer) serve(ln net.Listener, n *node.Node, ts obs.Source) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !cs.track(conn) {
			conn.Close()
			return
		}
		// The accept loop's own wg slot is held by the caller, so this
		// Add never races a Wait whose counter could be zero.
		cs.wg.Add(1)
		go func() {
			defer cs.wg.Done()
			defer cs.untrack(conn)
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 64<<10), 16<<20)
			for sc.Scan() {
				reply := handleCommand(n, ts, sc.Text())
				fmt.Fprintln(conn, reply)
			}
		}()
	}
}

func (cs *clientServer) track(conn net.Conn) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.conns == nil {
		return false
	}
	cs.conns[conn] = struct{}{}
	return true
}

func (cs *clientServer) untrack(conn net.Conn) {
	conn.Close()
	cs.mu.Lock()
	delete(cs.conns, conn)
	cs.mu.Unlock()
}

// shutdown closes every live connection and waits for the accept loop
// and all per-connection goroutines to drain. The listener must already
// be closed so no new connections arrive.
func (cs *clientServer) shutdown() {
	cs.mu.Lock()
	conns := cs.conns
	cs.conns = nil
	cs.mu.Unlock()
	for conn := range conns {
		conn.Close()
	}
	cs.wg.Wait()
}

// handleCommand answers one protocol line. ts supplies the transport's
// wire instruments for STATS; nil is allowed (the snapshot then holds
// only the node's own layers).
func handleCommand(n *node.Node, ts obs.Source, line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "ERR empty command"
	}
	switch strings.ToUpper(fields[0]) {
	case "GET":
		if len(fields) != 2 {
			return "ERR usage: GET <key>"
		}
		key, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return "ERR bad key"
		}
		v, err := n.Read(ddp.Key(key))
		if err != nil {
			return "ERR " + err.Error()
		}
		if v == nil {
			return "NIL"
		}
		return "OK " + hex.EncodeToString(v)
	case "SET", "SETS":
		if len(fields) < 3 {
			return "ERR usage: SET <key> <hex> [scope]"
		}
		key, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return "ERR bad key"
		}
		val, err := hex.DecodeString(fields[2])
		if err != nil {
			return "ERR bad hex value"
		}
		if strings.ToUpper(fields[0]) == "SETS" && len(fields) == 4 {
			scope, err := strconv.ParseUint(fields[3], 10, 64)
			if err != nil {
				return "ERR bad scope"
			}
			if err := n.WriteScoped(ddp.Key(key), val, ddp.ScopeID(scope)); err != nil {
				return "ERR " + err.Error()
			}
			return "OK"
		}
		if err := n.Write(ddp.Key(key), val); err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	case "SCOPE":
		return fmt.Sprintf("OK %d", n.NewScope())
	case "PERSIST":
		if len(fields) != 2 {
			return "ERR usage: PERSIST <scope-id>"
		}
		scope, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return "ERR bad scope"
		}
		if err := n.Persist(ddp.ScopeID(scope)); err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	case "STATS":
		// One unified snapshot: the node's registry (protocol counters,
		// NVM pipeline, tracer accounting) merged with the transport's
		// wire instruments, serialized as a single stable JSON document.
		snap := obs.Collect(n, ts)
		data, err := json.Marshal(snap)
		if err != nil {
			return "ERR " + err.Error()
		}
		return "OK " + string(data)
	default:
		return "ERR unknown command " + fields[0]
	}
}
