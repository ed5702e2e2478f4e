package transport

import (
	"math/rand"
	"sync"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// Chaos wraps any Transport and injects random per-frame delivery
// delays and probabilistic drops while preserving per-destination FIFO
// order — the ordering real TCP connections provide. It shakes out
// protocol races that instant delivery never exercises: VALs arriving
// mid-persist, acknowledgments racing obsolete writes, interleavings
// between channels drifting arbitrarily far apart.
//
// Chaos composes over any inner transport, including the batched TCP
// transport: frames are delayed and dropped individually before they
// reach the inner send path, so chaos applies per frame, never per
// coalesced batch.
type Chaos struct {
	inner    Transport
	maxDelay time.Duration
	dropP    float64

	mu    sync.Mutex
	rng   *rand.Rand
	pumps map[ddp.NodeID]chan Frame
	wg    sync.WaitGroup
	stop  chan struct{}
	once  sync.Once
}

var _ Transport = (*Chaos)(nil)

// NewChaos wraps inner with per-frame chaos: each frame to one
// destination is delayed uniformly in [0, maxDelay] (FIFO per
// destination) and dropped outright with probability dropP. seed makes
// the injected randomness reproducible.
func NewChaos(inner Transport, maxDelay time.Duration, dropP float64, seed int64) *Chaos {
	return &Chaos{
		inner:    inner,
		maxDelay: maxDelay,
		dropP:    dropP,
		rng:      rand.New(rand.NewSource(seed)),
		pumps:    make(map[ddp.NodeID]chan Frame),
		stop:     make(chan struct{}),
	}
}

func (c *Chaos) Self() ddp.NodeID    { return c.inner.Self() }
func (c *Chaos) Peers() []ddp.NodeID { return c.inner.Peers() }
func (c *Chaos) Recv() <-chan Frame  { return c.inner.Recv() }

// Describe implements obs.Source.
func (c *Chaos) Describe() string {
	if s, ok := c.inner.(obs.Source); ok {
		return s.Describe()
	}
	return "transport"
}

// Collect delegates to the inner transport's instruments when it has
// any; chaos itself adds nothing.
func (c *Chaos) Collect(s *obs.Snapshot) {
	if src, ok := c.inner.(obs.Source); ok {
		src.Collect(s)
	}
}

// Close stops the delay pumps, then closes the inner transport.
func (c *Chaos) Close() error {
	c.once.Do(func() { close(c.stop) })
	c.wg.Wait()
	return c.inner.Close()
}

// Send queues f for delayed (or dropped) delivery to one peer.
func (c *Chaos) Send(to ddp.NodeID, f Frame) error {
	f.From = c.inner.Self()
	c.mu.Lock()
	drop := c.dropP > 0 && c.rng.Float64() < c.dropP
	c.mu.Unlock()
	if drop {
		return nil // lost on the wire; the protocol must absorb it
	}
	select {
	case c.pump(to) <- f:
		return nil
	default:
		return ErrDisconnected // pump overwhelmed; treat as loss
	}
}

// Broadcast fans out via Send so that delay and drop decisions stay
// independent per destination and per frame, even when the inner
// transport would coalesce a broadcast into shared batches.
func (c *Chaos) Broadcast(f Frame) error {
	var firstErr error
	for _, id := range c.inner.Peers() {
		if err := c.Send(id, f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// pump returns (lazily starting) the FIFO delay pump for destination to.
func (c *Chaos) pump(to ddp.NodeID) chan Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.pumps[to]
	if !ok {
		ch = make(chan Frame, 4096)
		c.pumps[to] = ch
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for {
				select {
				case <-c.stop:
					return
				case f := <-ch:
					c.mu.Lock()
					d := time.Duration(0)
					if c.maxDelay > 0 {
						d = time.Duration(c.rng.Int63n(int64(c.maxDelay) + 1))
					}
					c.mu.Unlock()
					timer := time.NewTimer(d)
					select {
					case <-c.stop:
						timer.Stop()
						return
					case <-timer.C:
					}
					_ = c.inner.Send(to, f) // best effort, like the wire
				}
			}
		}()
	}
	return ch
}

// ChaosNetwork is an in-process cluster fabric with chaos on every
// endpoint: a MemNetwork whose endpoints are wrapped in Chaos. It keeps
// the historical constructor shape used by the protocol chaos tests.
type ChaosNetwork struct {
	inner *MemNetwork
	eps   []*Chaos
}

// NewChaosNetwork builds an n-node fabric whose deliveries are delayed
// uniformly in [0, maxDelay], per (sender, destination) channel, in FIFO
// order. seed makes the delays reproducible.
func NewChaosNetwork(n int, maxDelay time.Duration, seed int64) *ChaosNetwork {
	net := NewMemNetwork(n)
	cn := &ChaosNetwork{inner: net}
	for i := 0; i < n; i++ {
		cn.eps = append(cn.eps, NewChaos(net.Endpoint(ddp.NodeID(i)), maxDelay, 0, seed+int64(i)*1000003))
	}
	return cn
}

// Endpoint returns node id's transport, with chaos on its sends.
func (c *ChaosNetwork) Endpoint(id ddp.NodeID) Transport { return c.eps[int(id)] }

// Close stops every endpoint's delay pumps (and the endpoints
// themselves; closing twice is safe).
func (c *ChaosNetwork) Close() {
	for _, e := range c.eps {
		_ = e.Close()
	}
}
