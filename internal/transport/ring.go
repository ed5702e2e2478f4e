package transport

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// Ring transport: a shared-memory fabric for in-process peers, the
// software analogue of the one-sided, polling-based datapaths MINOS's
// SmartNIC offload (and Velos's shared-memory rings) rely on. Every
// directed pair of endpoints shares one SPSC byte ring carrying the
// exact wire frames the TCP codec produces:
//
//	u32 payload length | u8 kind | i32 from | payload
//
// Senders serialize on a short per-ring producer mutex (the critical
// section is one bounded memcpy), the receiver polls all of its inbound
// rings from a single consumer at a time, and frames are decoded
// zero-copy out of the ring storage. Delivery is either the Transport
// Recv channel (frames copied out, values owned) or — when a handler is
// installed via SetHandler — an inline callback on the polling
// goroutine with the frame's value bytes borrowed from the ring until
// the callback returns. The inline mode is what the node layer's
// run-to-completion coordinator builds on: a client blocked on
// acknowledgments can drive the receive path itself through PollInline
// instead of parking until a scheduler hop delivers the ack.

const (
	// defaultRingBytes sizes each directed ring. Protocol frames are
	// ~50-200 bytes, so the default holds >1000 in-flight frames per
	// direction before backpressure.
	defaultRingBytes = 256 << 10

	// sendSpinRounds bounds how long a producer yields waiting for ring
	// space before giving up with ErrBackpressure. Blocking forever
	// could deadlock two endpoints that are both stuck producing.
	sendSpinRounds = 512

	// pollerSpinRounds is the receive-side spin-then-park budget: after
	// this many empty polls the poller parks on its wake channel and
	// producers pay one channel poke to revive it.
	pollerSpinRounds = 64

	// pollBurst bounds the frames one poll pass drains before
	// re-checking for shutdown, keeping Close latency bounded.
	pollBurst = 64
)

// InlinePoller is implemented by transports whose receive path can be
// driven from an arbitrary goroutine. SetHandler switches delivery from
// the Recv channel to a synchronous callback; PollInline lets a caller
// that is waiting for a specific inbound frame (a coordinator blocked
// on acknowledgments) process the receive path itself instead of
// parking until the transport's own poller is scheduled.
type InlinePoller interface {
	// SetHandler installs h as the frame sink. It must be installed
	// before protocol traffic flows; frames arriving earlier go to the
	// Recv channel. The handler runs on whichever goroutine holds the
	// poll token, and Frame.Msg.Value is only valid until h returns
	// (borrowed from ring storage) — handlers must copy what they keep.
	SetHandler(h func(Frame))
	// PollInline drains up to budget inbound frames through the
	// handler, returning how many were processed. It returns 0 without
	// blocking when another goroutine holds the poll token.
	PollInline(budget int) int
}

// SyncEncoder marks transports whose Send and Broadcast complete the
// wire encoding of the frame (including Msg.Value) before returning, so
// the caller may reuse or mutate the value's backing array immediately.
// The node layer skips its defensive value copy over such transports.
type SyncEncoder interface{ SyncEncode() }

// spscRing is one single-producer/single-consumer byte ring. Producer
// concurrency is serialized by pmu (many protocol goroutines send);
// consumer exclusivity is the owning endpoint's poll token. head and
// tail are monotonically increasing byte cursors; masked for indexing.
type spscRing struct {
	buf  []byte
	mask uint64
	pmu  sync.Mutex
	head atomic.Uint64 // producer cursor: bytes written
	tail atomic.Uint64 // consumer cursor: bytes consumed
}

func newSPSCRing(size int) *spscRing {
	n := 64
	for n < size {
		n <<= 1
	}
	return &spscRing{buf: make([]byte, n), mask: uint64(n - 1)}
}

// push copies one encoded frame into the ring, yielding up to spin
// times for space. The atomic head store publishes the bytes to the
// consumer (release ordering per the Go memory model).
//
//minos:hotpath
func (r *spscRing) push(b []byte, spin int) bool {
	need := uint64(len(b))
	if need > uint64(len(r.buf)) {
		return false // frame larger than the ring can never fit
	}
	r.pmu.Lock()
	head := r.head.Load()
	for uint64(len(r.buf))-(head-r.tail.Load()) < need {
		if spin <= 0 {
			r.pmu.Unlock()
			return false
		}
		spin--
		runtime.Gosched()
	}
	off := head & r.mask
	n := copy(r.buf[off:], b)
	if n < len(b) {
		copy(r.buf, b[n:])
	}
	r.head.Store(head + need)
	r.pmu.Unlock()
	return true
}

// empty reports whether the ring has no unconsumed bytes.
func (r *spscRing) empty() bool { return r.head.Load() == r.tail.Load() }

// peek returns the payload bytes of the next frame (after the length
// prefix) and the total encoded size to consume. The payload borrows
// ring storage when contiguous and *scratch otherwise; either way it is
// valid only until advance. Caller holds the poll token.
//
//minos:hotpath
func (r *spscRing) peek(scratch *[]byte) ([]byte, uint64, bool) {
	tail := r.tail.Load()
	if r.head.Load() == tail {
		return nil, 0, false
	}
	var lenb [4]byte
	off := tail & r.mask
	if off+4 <= uint64(len(r.buf)) {
		copy(lenb[:], r.buf[off:off+4])
	} else {
		for i := uint64(0); i < 4; i++ {
			lenb[i] = r.buf[(tail+i)&r.mask]
		}
	}
	n := uint64(binary.LittleEndian.Uint32(lenb[:]))
	total := 4 + n
	poff := (tail + 4) & r.mask
	if poff+n <= uint64(len(r.buf)) {
		return r.buf[poff : poff+n : poff+n], total, true
	}
	// The payload wraps: assemble it in the consumer's scratch buffer.
	// Wraps happen once per ring circumnavigation, so the scratch growth
	// amortizes to nothing.
	s := (*scratch)[:0]
	first := uint64(len(r.buf)) - poff
	s = append(s, r.buf[poff:]...)
	s = append(s, r.buf[:n-first]...)
	*scratch = s
	return s, total, true
}

// advance consumes the frame returned by peek, releasing its ring
// storage to the producer.
func (r *spscRing) advance(total uint64) { r.tail.Store(r.tail.Load() + total) }

// RingNetwork is an in-process cluster fabric of shared-memory rings:
// one SPSC ring per directed pair of endpoints.
type RingNetwork struct {
	eps []*RingTransport
}

// NewRingNetwork builds a fully connected ring fabric of n nodes with
// the default ring size and starts each endpoint's poller.
func NewRingNetwork(n int) *RingNetwork { return NewRingNetworkSize(n, defaultRingBytes) }

// NewRingNetworkSize is NewRingNetwork with an explicit per-ring byte
// capacity (rounded up to a power of two; small rings are how the
// backpressure tests force ErrBackpressure).
func NewRingNetworkSize(n, ringBytes int) *RingNetwork {
	return NewRingNetworkClients(n, 0, ringBytes, ringBytes)
}

// defaultClientRingBytes sizes each client<->node ring. Client requests
// are small and the admission window bounds in-flight depth, so client
// rings are kept smaller than the node mesh rings: with dozens of
// client endpoints against a 5-node cluster, ring memory is
// 2*clients*nodes*size and the smaller default keeps that modest.
const defaultClientRingBytes = 64 << 10

// NewRingNetworkWithClients is NewRingNetworkClients with the default
// ring sizes (mesh rings for the nodes, smaller client rings).
func NewRingNetworkWithClients(nodes, clients int) *RingNetwork {
	return NewRingNetworkClients(nodes, clients, defaultRingBytes, 0)
}

// NewRingNetworkClients builds a ring fabric of nodes 0..nodes-1 (full
// mesh, ringBytes per directed ring) plus clients client endpoints with
// IDs nodes..nodes+clients-1, each wired to every node (and only to
// nodes) over clientRingBytes rings. clientRingBytes <= 0 selects the
// default. Client endpoints are ordinary RingTransports — same codec,
// same poller, same backpressure — whose peer set is the node list, so
// a node's Broadcast never lands in a client ring.
func NewRingNetworkClients(nodes, clients, ringBytes, clientRingBytes int) *RingNetwork {
	if clientRingBytes <= 0 {
		clientRingBytes = defaultClientRingBytes
	}
	total := nodes + clients
	net := &RingNetwork{eps: make([]*RingTransport, total)}
	for i := 0; i < total; i++ {
		t := &RingTransport{
			self:  ddp.NodeID(i),
			ins:   make([]*spscRing, 0, total-1),
			inIdx: make([]ddp.NodeID, 0, total-1),
			outs:  make([]*spscRing, total),
			wake:  make(chan struct{}, 1),
			rx:    make(chan Frame, 4096),
			stopc: make(chan struct{}),
			stats: newCounters(),
		}
		t.encBuf = make([]byte, 0, 4096)
		t.scratch = make([]byte, 0, 4096)
		if i < nodes {
			for p := 0; p < nodes; p++ {
				if ddp.NodeID(p) != t.self {
					t.peers = append(t.peers, ddp.NodeID(p))
				}
			}
		} else {
			for p := 0; p < nodes; p++ {
				t.peers = append(t.peers, ddp.NodeID(p))
			}
		}
		net.eps[i] = t
	}
	// Wire the directed rings: eps[src].outs[dst] and eps[dst].ins share
	// the same ring. Node pairs mesh at ringBytes; each client pairs
	// with every node (both directions) at clientRingBytes.
	wire := func(src, dst, size int) {
		r := newSPSCRing(size)
		net.eps[src].outs[dst] = r
		net.eps[dst].ins = append(net.eps[dst].ins, r)
		net.eps[dst].inIdx = append(net.eps[dst].inIdx, ddp.NodeID(src))
	}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src != dst {
				wire(src, dst, ringBytes)
			}
		}
	}
	for c := nodes; c < total; c++ {
		for nd := 0; nd < nodes; nd++ {
			wire(c, nd, clientRingBytes)
			wire(nd, c, clientRingBytes)
		}
	}
	for _, t := range net.eps {
		t.peerEndpoints = make([]*RingTransport, total)
		for dst := 0; dst < total; dst++ {
			if t.outs[dst] != nil {
				t.peerEndpoints[dst] = net.eps[dst]
			}
		}
		t.wg.Add(1)
		go t.pollLoop()
	}
	return net
}

// Endpoint returns node id's transport.
func (n *RingNetwork) Endpoint(id ddp.NodeID) *RingTransport { return n.eps[int(id)] }

// Size returns the cluster size.
func (n *RingNetwork) Size() int { return len(n.eps) }

// RingTransport is one node's endpoint on a RingNetwork.
type RingTransport struct {
	self  ddp.NodeID
	peers []ddp.NodeID

	ins   []*spscRing  // inbound rings, ascending peer order
	inIdx []ddp.NodeID // source of each inbound ring (diagnostics)
	outs  []*spscRing  // outbound rings indexed by destination NodeID

	// peerEndpoints lets a producer poke the destination's parked
	// poller; indexed by destination NodeID, nil at self.
	peerEndpoints []*RingTransport

	// encMu guards encBuf, the endpoint's reusable encode scratch; the
	// frame is encoded once under it and memcpy'd into the target rings.
	encMu  sync.Mutex
	encBuf []byte

	// pollMu is the poll token: whoever holds it is the rings' single
	// consumer. The endpoint's poller goroutine and PollInline callers
	// contend with TryLock, never blocking each other.
	pollMu  sync.Mutex
	scratch []byte // wrapped-frame reassembly buffer; guarded by pollMu

	handler atomic.Pointer[func(Frame)]

	parked atomic.Bool
	wake   chan struct{}
	rx     chan Frame

	closed atomic.Bool
	stopc  chan struct{}
	wg     sync.WaitGroup

	stats counters
}

var (
	_ Transport    = (*RingTransport)(nil)
	_ obs.Source   = (*RingTransport)(nil)
	_ InlinePoller = (*RingTransport)(nil)
	_ SyncEncoder  = (*RingTransport)(nil)
)

// Self returns this endpoint's node ID.
func (t *RingTransport) Self() ddp.NodeID { return t.self }

// Peers returns the other node IDs, ascending. The slice is immutable.
func (t *RingTransport) Peers() []ddp.NodeID { return t.peers }

// Recv returns the inbound frame channel (used when no handler is
// installed). It closes when the transport closes.
func (t *RingTransport) Recv() <-chan Frame { return t.rx }

// SyncEncode marks that Send/Broadcast serialize the frame before
// returning (SyncEncoder).
func (t *RingTransport) SyncEncode() {}

// SetHandler implements InlinePoller: subsequent frames are delivered
// synchronously to h on the polling goroutine, values borrowed from
// ring storage.
func (t *RingTransport) SetHandler(h func(Frame)) { t.handler.Store(&h) }

// Send encodes f once and copies it into the ring to peer. A full ring
// after the bounded producer spin returns ErrBackpressure. The
// endpoint's encode mutex wraps the ring's producer mutex (here and in
// Broadcast) — the only nesting of the two.
//
//minos:lockorder transport.RingTransport.encMu < transport.spscRing.pmu
//minos:hotpath
func (t *RingTransport) Send(to ddp.NodeID, f Frame) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if int(to) < 0 || int(to) >= len(t.outs) || to == t.self || t.outs[int(to)] == nil {
		return errBadDestination
	}
	f.From = t.self
	t.encMu.Lock()
	t.encBuf = AppendFrame(t.encBuf[:0], f)
	ok := t.outs[int(to)].push(t.encBuf, sendSpinRounds)
	size := len(t.encBuf)
	t.encMu.Unlock()
	t.stats.encodes.Add(1)
	if !ok {
		t.stats.sendErrors.Add(1)
		return ErrBackpressure
	}
	t.stats.noteBatch(1, size)
	t.wakePeer(to)
	return nil
}

// Broadcast encodes f exactly once and copies the same bytes into every
// peer's ring — the paper's message-broadcast optimization (§VI) in its
// most literal form: one encode, N memcpys.
//
//minos:hotpath
func (t *RingTransport) Broadcast(f Frame) error {
	if t.closed.Load() {
		return ErrClosed
	}
	f.From = t.self
	t.stats.broadcasts.Add(1)
	var firstErr error
	t.encMu.Lock()
	t.encBuf = AppendFrame(t.encBuf[:0], f)
	size := len(t.encBuf)
	t.stats.encodes.Add(1)
	for _, to := range t.peers {
		if t.outs[int(to)].push(t.encBuf, sendSpinRounds) {
			t.stats.noteBatch(1, size)
		} else {
			t.stats.sendErrors.Add(1)
			if firstErr == nil {
				firstErr = ErrBackpressure
			}
		}
	}
	t.encMu.Unlock()
	for _, to := range t.peers {
		t.wakePeer(to)
	}
	return firstErr
}

// wakePeer pokes the destination endpoint's poller if it is parked. The
// flag read is one atomic load; the poke is a non-blocking send on a
// cap-1 channel.
//
//minos:hotpath
func (t *RingTransport) wakePeer(to ddp.NodeID) {
	// The peer endpoint is reachable through the shared ring's consumer
	// side only via the network; cache the endpoint pointer instead.
	dst := t.peerEndpoints[int(to)]
	if dst != nil && dst.parked.Load() {
		select {
		case dst.wake <- struct{}{}:
		default:
		}
	}
}

// errBadDestination mirrors the other transports' bad-destination error.
var errBadDestination = errors.New("transport: bad destination")

// hasInbound reports whether any inbound ring holds frames.
func (t *RingTransport) hasInbound() bool {
	for _, r := range t.ins {
		if !r.empty() {
			return true
		}
	}
	return false
}

// PollInline implements InlinePoller: drain up to budget frames through
// the handler on the caller's goroutine. Returns 0 immediately when the
// poll token is held elsewhere — the holder is making the same
// progress the caller wants.
//
//minos:hotpath
func (t *RingTransport) PollInline(budget int) int {
	if t.handler.Load() == nil {
		return 0
	}
	if !t.pollMu.TryLock() {
		return 0
	}
	n := t.pollLocked(budget)
	t.pollMu.Unlock()
	// If frames remain (the budget ran out) make sure the endpoint's
	// own poller picks them up even if it parked while the token was
	// held here.
	if t.parked.Load() && t.hasInbound() {
		select {
		case t.wake <- struct{}{}:
		default:
		}
	}
	return n
}

// pollLocked drains up to budget frames across the inbound rings in
// round-robin order. Caller holds pollMu. Per-ring FIFO is preserved by
// consuming each ring in order; the consumer advances a ring's tail
// only after the frame is fully delivered, so borrowed payloads stay
// stable during handler callbacks.
//
//minos:hotpath
func (t *RingTransport) pollLocked(budget int) int {
	done := 0
	for done < budget {
		progressed := false
		for _, r := range t.ins {
			if done >= budget {
				break
			}
			payload, total, ok := r.peek(&t.scratch)
			if !ok {
				continue
			}
			if !t.deliver(payload) {
				r.advance(total)
				return done
			}
			r.advance(total)
			progressed = true
			done++
		}
		if !progressed {
			break
		}
	}
	return done
}

// deliver decodes and sinks one frame; false aborts the poll (transport
// stopping while blocked on the rx channel).
func (t *RingTransport) deliver(payload []byte) bool {
	t.stats.framesRecv.Add(1)
	t.stats.bytesRecv.Add(int64(len(payload)) + 4)
	if h := t.handler.Load(); h != nil {
		f, err := DecodeFrameBorrowed(payload)
		if err != nil {
			return true // corrupt frame: drop, keep polling
		}
		(*h)(f)
		return true
	}
	f, err := DecodeFrame(payload) // owning decode: values copied out
	if err != nil {
		return true
	}
	select {
	case t.rx <- f:
		return true
	case <-t.stopc:
		return false
	}
}

// pollLoop is the endpoint's receive engine: poll the inbound rings,
// yield-spin through short idle gaps, park on the wake channel through
// long ones. The stop channel bounds its lifetime.
func (t *RingTransport) pollLoop() {
	defer t.wg.Done()
	defer close(t.rx)
	idle := 0
	for {
		select {
		case <-t.stopc:
			return
		default:
		}
		n := 0
		if t.pollMu.TryLock() {
			n = t.pollLocked(pollBurst)
			t.pollMu.Unlock()
		}
		if n > 0 {
			idle = 0
			continue
		}
		if idle++; idle < pollerSpinRounds {
			runtime.Gosched()
			continue
		}
		// Park. Setting parked before the final emptiness re-check
		// closes the missed-wake window: a producer that pushed after
		// the re-check sees parked==true and pokes.
		t.parked.Store(true)
		if t.hasInbound() {
			t.parked.Store(false)
			idle = 0
			continue
		}
		select {
		case <-t.wake:
		case <-t.stopc:
			t.parked.Store(false)
			return
		}
		t.parked.Store(false)
		idle = 0
	}
}

// Describe implements obs.Source.
func (t *RingTransport) Describe() string { return "transport" }

// Collect implements obs.Source.
func (t *RingTransport) Collect(s *obs.Snapshot) { t.stats.collect(s) }

// Close shuts the endpoint down: the poller exits and the Recv channel
// closes. In-flight frames in the rings are dropped.
func (t *RingTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.stopc)
	t.wg.Wait()
	return nil
}
