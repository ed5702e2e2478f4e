package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

const (
	// maxBatchBytes caps one coalesced batch: a writer never issues a
	// single Write larger than this, bounding both syscall latency and
	// how long a pooled batch buffer can grow.
	maxBatchBytes = 256 << 10
	// maxPendingBytes bounds a peer's whole send queue. Beyond it Send
	// fails with ErrBackpressure instead of buffering unboundedly — a
	// peer that cannot drain is a peer the failure detector should see.
	maxPendingBytes = 8 << 20
	dialTimeout     = 2 * time.Second
	// Redial backoff after a send/dial failure, doubled per consecutive
	// failure with jitter so a dead peer cannot induce a hot dial loop.
	minRedialBackoff = 5 * time.Millisecond
	maxRedialBackoff = 500 * time.Millisecond
	keepAlivePeriod  = 30 * time.Second
)

// TCPTransport connects a node to its peers over TCP with
// length-prefixed binary frames. Each node listens on its own address
// and dials every peer lazily; connections are re-dialed (with jittered
// backoff) on failure, so a restarted peer is reachable again without
// operator action.
//
// Sends are asynchronous: Send encodes the frame straight into the
// peer's queue and returns; a per-peer writer goroutine drains whatever
// has accumulated into one buffer and issues a single Write per batch.
// Under load frames coalesce naturally (the paper's message-batching
// optimization, §VI); when idle the writer wakes per frame, adding no
// latency. Per-peer FIFO order is exactly preserved: one queue, one
// writer, one connection.
type TCPTransport struct {
	self ddp.NodeID

	ln   net.Listener
	rx   chan Frame
	done chan struct{}

	mu    sync.Mutex
	addrs map[ddp.NodeID]string // peer ID -> host:port, including self
	// extAddrs holds return addresses learned from FrameHello — client
	// endpoints that dialed in and announced themselves. Kept separate
	// from addrs so Peers() (and therefore Broadcast's protocol fan-out)
	// never includes clients; only directed Sends consult it.
	extAddrs map[ddp.NodeID]string
	peers    map[ddp.NodeID]*tcpPeer
	inbound  map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	stats counters
}

var _ Transport = (*TCPTransport)(nil)
var _ obs.Source = (*TCPTransport)(nil)

// sendBatch is one coalesced run of encoded frames awaiting one Write.
type sendBatch struct {
	buf    []byte
	frames int
}

// tcpPeer is the send side of one peer link: a FIFO of coalescing
// batches drained by a dedicated writer goroutine that owns the
// connection (dialing, writing, redial backoff).
type tcpPeer struct {
	id ddp.NodeID
	t  *TCPTransport

	mu      sync.Mutex
	cond    *sync.Cond
	q       []sendBatch // FIFO; the last entry accepts appends while small
	spare   []sendBatch // recycled q backing array (steady state: no allocs)
	pending int         // bytes queued across q
	lastErr error       // sticky send failure; cleared by a successful flush
	retryAt time.Time   // sends fail fast until this deadline after a failure
	backoff time.Duration
	rng     *rand.Rand // writer-goroutine-only (backoff jitter)
	closed  bool
	conn    net.Conn // field guarded by mu; I/O happens on a local copy
	hadConn bool     // writer-only: a connection was established before
}

// NewTCPTransport starts listening on addrs[self] and returns the
// transport. addrs maps every cluster node (including self) to its
// listen address.
func NewTCPTransport(self ddp.NodeID, addrs map[ddp.NodeID]string) (*TCPTransport, error) {
	addr, ok := addrs[self]
	if !ok {
		return nil, fmt.Errorf("transport: no address for self (node %d)", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCPTransport{
		self:     self,
		addrs:    addrs,
		extAddrs: make(map[ddp.NodeID]string),
		ln:       ln,
		rx:       make(chan Frame, 4096),
		done:     make(chan struct{}),
		peers:    make(map[ddp.NodeID]*tcpPeer),
		inbound:  make(map[net.Conn]struct{}),
		stats:    newCounters(),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's bound listen address (useful when the
// configured address used port 0).
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// SetPeerAddr updates a peer's dial address and resets its redial
// backoff so the new address is tried immediately. Use it to wire up
// clusters whose members listen on ephemeral ports: start every
// listener first, then exchange the real addresses before any protocol
// traffic.
func (t *TCPTransport) SetPeerAddr(id ddp.NodeID, addr string) {
	t.mu.Lock()
	t.addrs[id] = addr
	p := t.peers[id]
	t.mu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	conn := p.conn
	p.conn = nil
	p.lastErr = nil
	p.backoff = 0
	p.retryAt = time.Time{}
	p.mu.Unlock()
	if conn != nil {
		conn.Close() // close outside the lock: Close can block on TCP teardown
	}
}

// Announce sends a FrameHello carrying this endpoint's bound listen
// address to peer `to`. A client endpoint (known to the nodes only by
// ID, not by static address) announces itself on each node connection
// before its first request; per-link FIFO guarantees the node learns
// the return address before it needs to respond.
func (t *TCPTransport) Announce(to ddp.NodeID) error {
	return t.Send(to, Frame{Kind: FrameHello, Addr: t.Addr()})
}

// learnPeer records a hello-announced return address. It deliberately
// writes extAddrs (not addrs) so the protocol peer set is unchanged; if
// a link to that ID already exists with a different address, its
// connection and backoff are reset the same way SetPeerAddr does.
func (t *TCPTransport) learnPeer(id ddp.NodeID, addr string) {
	if addr == "" || id == t.self {
		return
	}
	t.mu.Lock()
	prev, had := t.extAddrs[id]
	t.extAddrs[id] = addr
	p := t.peers[id]
	t.mu.Unlock()
	if p == nil || (had && prev == addr) {
		return
	}
	p.mu.Lock()
	conn := p.conn
	p.conn = nil
	p.lastErr = nil
	p.backoff = 0
	p.retryAt = time.Time{}
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// dialAddr resolves the dial address for id: static cluster addresses
// first, then hello-learned client addresses.
func (t *TCPTransport) dialAddr(id ddp.NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a, ok := t.addrs[id]; ok {
		return a, true
	}
	a, ok := t.extAddrs[id]
	return a, ok
}

// Self returns this endpoint's node ID.
func (t *TCPTransport) Self() ddp.NodeID { return t.self }

// SyncEncode marks that Send/Broadcast serialize the frame (value
// included) into the peer's batch buffer before returning, so callers
// may reuse the value's backing array immediately (SyncEncoder).
func (t *TCPTransport) SyncEncode() {}

// Peers returns the other cluster members in ascending NodeID order.
// The sort makes iteration order deterministic for every caller that
// fans out over the cluster (the map's range order is not).
func (t *TCPTransport) Peers() []ddp.NodeID {
	t.mu.Lock()
	out := make([]ddp.NodeID, 0, len(t.addrs)-1)
	for id := range t.addrs {
		if id != t.self {
			out = append(out, id)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Recv returns the inbound frame channel.
func (t *TCPTransport) Recv() <-chan Frame { return t.rx }

// Describe implements obs.Source.
func (t *TCPTransport) Describe() string { return "transport" }

// Collect implements obs.Source, appending the transport's instruments
// to s.
func (t *TCPTransport) Collect(s *obs.Snapshot) { t.stats.collect(s) }

// peer returns (lazily creating) the send queue for id.
func (t *TCPTransport) peer(id ddp.NodeID) (*tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if p := t.peers[id]; p != nil {
		return p, nil
	}
	if _, ok := t.addrs[id]; !ok {
		if _, ok := t.extAddrs[id]; !ok {
			return nil, fmt.Errorf("transport: unknown peer %d", id)
		}
	}
	p := &tcpPeer{
		id:  id,
		t:   t,
		rng: rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(id)<<32)),
	}
	p.cond = sync.NewCond(&p.mu)
	t.peers[id] = p
	t.wg.Add(1)
	go p.writeLoop()
	return p, nil
}

// Send enqueues f for the peer and returns. The frame is encoded once,
// directly into the peer's batch buffer; the peer's writer goroutine
// delivers it, coalesced with whatever else has accumulated. Send fails
// fast when the peer link is in redial backoff or its queue is full —
// queued frames for a dead peer error out rather than pile up.
func (t *TCPTransport) Send(to ddp.NodeID, f Frame) error {
	f.From = t.self
	p, err := t.peer(to)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if err := p.admitLocked(); err != nil {
		p.mu.Unlock()
		t.stats.sendErrors.Add(1)
		return err
	}
	b := p.openBatchLocked()
	before := len(b.buf)
	b.buf = AppendFrame(b.buf, f)
	b.frames++
	p.pending += len(b.buf) - before
	p.cond.Signal()
	p.mu.Unlock()
	t.stats.encodes.Add(1)
	return nil
}

// Broadcast encodes f exactly once and fans the same bytes to every
// peer queue — the paper's message-broadcast optimization (§VI): the
// encode cost is paid once per frame, not once per destination.
func (t *TCPTransport) Broadcast(f Frame) error {
	f.From = t.self
	t.stats.broadcasts.Add(1)
	t.stats.encodes.Add(1)
	buf := AppendFrame(getEncBuf(), f)
	var firstErr error
	for _, id := range t.Peers() {
		p, err := t.peer(id)
		if err == nil {
			err = p.enqueueBytes(buf)
		} else {
			t.stats.sendErrors.Add(1)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("transport: broadcast to node %d: %w", id, err)
		}
	}
	putEncBuf(buf)
	return firstErr
}

// admitLocked decides whether a new frame may enter the queue.
func (p *tcpPeer) admitLocked() error {
	if p.closed {
		return ErrClosed
	}
	if p.lastErr != nil && time.Now().Before(p.retryAt) {
		return p.lastErr
	}
	if p.pending >= maxPendingBytes {
		return ErrBackpressure
	}
	return nil
}

// openBatchLocked returns the batch new frames append to, starting a
// fresh one when the current batch reached the per-Write cap.
func (p *tcpPeer) openBatchLocked() *sendBatch {
	if n := len(p.q); n > 0 && len(p.q[n-1].buf) < maxBatchBytes {
		return &p.q[n-1]
	}
	p.q = append(p.q, sendBatch{buf: getEncBuf()})
	return &p.q[len(p.q)-1]
}

// enqueueBytes appends one pre-encoded frame (Broadcast's shared bytes)
// to the queue.
func (p *tcpPeer) enqueueBytes(frame []byte) error {
	p.mu.Lock()
	if err := p.admitLocked(); err != nil {
		p.mu.Unlock()
		p.t.stats.sendErrors.Add(1)
		return err
	}
	b := p.openBatchLocked()
	b.buf = append(b.buf, frame...)
	b.frames++
	p.pending += len(frame)
	p.cond.Signal()
	p.mu.Unlock()
	return nil
}

// writeLoop is the peer's dedicated writer: it swaps out everything
// queued and flushes it batch by batch, one Write each. Waking per
// accumulated run (not per frame) is where coalescing comes from; the
// queue being drained is the flush trigger, so an idle link sends each
// frame immediately.
func (p *tcpPeer) writeLoop() {
	defer p.t.wg.Done()
	for {
		p.mu.Lock()
		for len(p.q) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.dropQueueLocked()
			conn := p.conn
			p.conn = nil
			p.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return
		}
		batches := p.q
		p.q = p.spare[:0]
		p.spare = nil
		p.pending = 0
		p.mu.Unlock()

		err := p.flush(batches)
		for i := range batches {
			if batches[i].buf != nil {
				putEncBuf(batches[i].buf)
			}
			batches[i] = sendBatch{}
		}
		p.mu.Lock()
		if p.spare == nil {
			p.spare = batches[:0]
		}
		p.mu.Unlock()
		if err != nil {
			p.fail(err)
		}
	}
}

// flush writes each batch with a single Write, dialing first if needed.
// On success the peer's failure state is cleared.
func (p *tcpPeer) flush(batches []sendBatch) error {
	for i := range batches {
		b := &batches[i]
		conn, err := p.ensureConn()
		if err != nil {
			p.countDrops(batches[i:])
			return err
		}
		if _, err := conn.Write(b.buf); err != nil {
			p.countDrops(batches[i:])
			return err
		}
		p.t.stats.noteBatch(b.frames, len(b.buf))
		putEncBuf(b.buf)
		b.buf = nil
	}
	p.mu.Lock()
	p.lastErr = nil
	p.backoff = 0
	p.mu.Unlock()
	return nil
}

// ensureConn returns the live connection, dialing (outside all locks,
// with the address read under a single t.mu acquisition) when there is
// none.
func (p *tcpPeer) ensureConn() (net.Conn, error) {
	p.mu.Lock()
	conn := p.conn
	redial := p.hadConn || p.lastErr != nil
	p.mu.Unlock()
	if conn != nil {
		return conn, nil
	}
	t := p.t
	addr, ok := t.dialAddr(p.id)
	if !ok {
		return nil, fmt.Errorf("transport: unknown peer %d", p.id)
	}
	if redial {
		t.stats.redials.Add(1)
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial node %d: %w", p.id, err)
	}
	tuneConn(c)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	p.conn = c
	p.hadConn = true
	p.mu.Unlock()
	return c, nil
}

// fail records a flush failure: drop the broken connection and whatever
// queued behind it, and arm the jittered redial backoff so sends error
// out fast (and no hot dial loop spins) until the deadline passes.
func (p *tcpPeer) fail(err error) {
	// Jitter in [backoff/2, backoff] so restarted peers are not hit by
	// synchronized redials from the whole cluster.
	p.mu.Lock()
	conn := p.conn
	p.conn = nil
	p.lastErr = err
	if p.backoff == 0 {
		p.backoff = minRedialBackoff
	} else if p.backoff < maxRedialBackoff {
		p.backoff *= 2
		if p.backoff > maxRedialBackoff {
			p.backoff = maxRedialBackoff
		}
	}
	d := p.backoff/2 + time.Duration(p.rng.Int63n(int64(p.backoff/2)+1))
	p.retryAt = time.Now().Add(d)
	p.dropQueueLocked()
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// countDrops accounts frames lost by a failed flush.
func (p *tcpPeer) countDrops(batches []sendBatch) {
	n := 0
	for i := range batches {
		n += batches[i].frames
	}
	p.t.stats.sendErrors.Add(int64(n))
}

// dropQueueLocked discards everything queued (caller holds p.mu).
func (p *tcpPeer) dropQueueLocked() {
	for i := range p.q {
		p.t.stats.sendErrors.Add(int64(p.q[i].frames))
		putEncBuf(p.q[i].buf)
		p.q[i] = sendBatch{}
	}
	p.q = p.q[:0]
	p.pending = 0
}

// shutdown stops the peer's writer and closes its connection.
func (p *tcpPeer) shutdown() {
	p.mu.Lock()
	p.closed = true
	conn := p.conn
	p.conn = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// tuneConn applies the protocol link's socket options. TCP_NODELAY is
// explicit now that coalescing happens in the transport itself: Nagle's
// algorithm would stack its own delayed batching on top of (and fight
// with) the per-peer writer, which already aggregates frames into
// maximal runs — so every batched Write should hit the wire
// immediately. Keep-alive covers silent peer death on otherwise idle
// links between protocol heartbeats.
func tuneConn(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(keepAlivePeriod)
	}
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		tuneConn(conn)
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off one connection into rx. Frame bodies come
// from size-classed pools and recycle as soon as DecodeFrame has copied
// the values out, so steady-state receive does not allocate per frame
// beyond the decoded values themselves.
func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.inbound[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrameSize {
			return // corrupt stream
		}
		body := getReadBuf(int(n))
		if _, err := io.ReadFull(conn, body); err != nil {
			putReadBuf(body)
			return
		}
		f, err := DecodeFrame(body)
		putReadBuf(body)
		if err != nil {
			return
		}
		t.stats.framesRecv.Add(1)
		t.stats.bytesRecv.Add(int64(n) + 4)
		if f.Kind == FrameHello {
			// Transport-level control frame: record the announced return
			// address and do not deliver it to the node.
			t.learnPeer(f.From, f.Addr)
			continue
		}
		select {
		case t.rx <- f:
		case <-t.done:
			return
		}
	}
}

// Close stops the listener, the per-peer writers, all connections and
// the receive channel.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers { // teardown: order irrelevant
		peers = append(peers, p)
	}
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound { // teardown: order irrelevant
		inbound = append(inbound, c)
	}
	t.mu.Unlock()

	close(t.done)
	t.ln.Close()
	for _, p := range peers {
		p.shutdown()
	}
	for _, c := range inbound {
		c.Close()
	}
	t.wg.Wait()
	close(t.rx)
	return nil
}
