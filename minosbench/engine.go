package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/transport"
)

// engine drives one live cluster open-loop. A single generator
// goroutine (the caller of runPhase) walks a seeded Poisson schedule,
// sleeping to each arrival's intended instant, and sends client-request
// frames over the cluster's client endpoints; one receiver per endpoint
// matches replies to their in-flight slot, checks read values, and
// charges each op's latency from its intended time.
type engine struct {
	w     spec
	seed  int64
	lc    *loadgen.LiveCluster
	ck    *checker
	ops   *opStream
	conns []*conn
	start time.Time // origin of every ns timestamp below
	spans *spanLog  // non-nil on the traced cluster
	pace  *pacer
	// phases counts phases run, to seed each one's arrivals; opSeq
	// numbers ops across phases.
	phases, opSeq uint64
	all           []*phase
	// waitEnd is when the generator last stopped waiting for a window
	// slot.
	waitEnd int64
	rxWg    sync.WaitGroup
}

// conn is one client connection: its endpoint and bounded in-flight
// window.
type conn struct {
	idx      int
	ep       transport.Transport
	free     chan int32 // free slot indices; capacity is the window
	slots    []slot
	syncSend bool
	buf      []byte // value buffer, reused when the endpoint encodes in Send
	// mu guards the rx stats of every phase this connection's receiver
	// records into.
	mu sync.Mutex
}

// slot is one in-flight op. The generator fills it before Send; the
// receiver reads it after the reply, which the transport orders after
// the send.
type slot struct {
	intended, sent int64
	key            uint64
	seq            uint64
	write          bool
	measured       bool
	traced         bool
	ph             *phase
}

// phase is one stretch of load at one offered rate. Arrivals fall in
// [startNs, endNs); ops due at or after measureNs are measured.
type phase struct {
	rate                      float64
	startNs, measureNs, endNs int64

	// Generator-owned until the phase is drained; counts cover the
	// measured ops only.
	attempted, shedWindow, shedSend int64
	lag                             []int64 // actual minus intended send
	// paceLag is the part of lag the generator itself adds: from the
	// intended send to the moment it is ready to send, before any wait
	// for a window slot.
	paceLag                        []int64
	sendNs                         []int64 // traced cluster: Transport.Send duration
	backlogAtMeasure, backlogAtEnd int64

	inflight atomic.Int64
	rx       [conns]rxStats
}

// rxStats is one receiver's share of a phase, guarded by its conn's mu.
type rxStats struct {
	wr, rd                    []lat   // measured ops: reply minus intended send
	swr, srd                  []int64 // measured ops: reply minus actual send
	completed, shedNode, errs int64
	// doneInWindow counts replies (any op) landing in the measured
	// window: the achieved-throughput clock.
	doneInWindow int64
	badReads     int64
	firstBad     string
}

// lat is one op's latency and its intended send time.
type lat struct{ at, d int64 }

func newEngine(w spec, seed int64, lc *loadgen.LiveCluster, ck *checker, spans *spanLog, origin time.Time) (*engine, error) {
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	e := &engine{w: w, seed: seed, lc: lc, ck: ck, ops: newOpStream(w, seed), spans: spans, start: origin, pace: pace}
	for i, ep := range lc.ClientEps {
		c := &conn{idx: i, ep: ep, free: make(chan int32, window), slots: make([]slot, window)}
		_, c.syncSend = ep.(transport.SyncEncoder)
		for s := int32(0); s < window; s++ {
			c.free <- s
		}
		e.conns = append(e.conns, c)
		e.rxWg.Add(1)
		go e.receive(c)
	}
	return e, nil
}

func (e *engine) now() int64 { return time.Since(e.start).Nanoseconds() }

// close tears the cluster down and waits for the receivers.
func (e *engine) close() {
	e.lc.Close()
	e.rxWg.Wait()
	e.pace.close()
}

// runPhase offers rate op/s for dur, measuring ops due after settle,
// then waits up to grace for the phase's replies.
func (e *engine) runPhase(rate float64, dur, settle, grace time.Duration) (*phase, error) {
	ph := e.newPhase(rate, dur, settle)
	arr := newArrivals(rate, subSeed(e.seed, 100+e.phases))
	measuring := false
	for {
		at := ph.startNs + arr.next()
		if at >= ph.endNs {
			break
		}
		if err := e.pace.sleepUntil(e.start, at); err != nil {
			return nil, err
		}
		if !measuring && at >= ph.measureNs {
			measuring = true
			ph.backlogAtMeasure = ph.inflight.Load()
		}
		e.issue(ph, at, e.ops.next())
	}
	if err := e.pace.sleepUntil(e.start, ph.endNs); err != nil {
		return nil, err
	}
	ph.backlogAtEnd = ph.inflight.Load()
	e.drain(ph, grace)
	return ph, nil
}

// saturate keeps every window full for dur: each op is sent as soon as
// a slot frees. Its achieved rate seeds the capacity search.
func (e *engine) saturate(dur, settle, grace time.Duration) *phase {
	ph := e.newPhase(0, dur, settle)
	for {
		now := e.now()
		if now >= ph.endNs {
			break
		}
		e.issue(ph, now, e.ops.next())
	}
	ph.backlogAtEnd = ph.inflight.Load()
	e.drain(ph, grace)
	return ph
}

func (e *engine) newPhase(rate float64, dur, settle time.Duration) *phase {
	e.phases++
	start := e.now() + int64(time.Millisecond)
	ph := &phase{
		rate:      rate,
		startNs:   start,
		measureNs: start + settle.Nanoseconds(),
		endNs:     start + dur.Nanoseconds(),
	}
	// Size the sample buffers for the phase up front: growing a slice
	// of a few hundred thousand samples mid-phase copies megabytes on
	// the receiver, and every reply queued behind the copy would be
	// charged the stall.
	ops := int(rate*(dur-settle).Seconds()*1.2) + 1024
	ph.lag = make([]int64, 0, ops)
	ph.paceLag = make([]int64, 0, ops)
	if e.spans != nil {
		ph.sendNs = make([]int64, 0, ops)
	}
	perConn := ops/len(e.conns) + 1024
	for i := range ph.rx {
		w := int(float64(perConn)*e.w.WriteRatio) + 1024
		r := perConn - w + 2048
		ph.rx[i] = rxStats{
			wr: make([]lat, 0, w), swr: make([]int64, 0, w),
			rd: make([]lat, 0, r), srd: make([]int64, 0, r),
		}
	}
	e.all = append(e.all, ph)
	return ph
}

// drain waits until none of ph's ops is in flight or grace expires;
// whatever is still out afterwards counts as abandoned.
func (e *engine) drain(ph *phase, grace time.Duration) {
	deadline := time.Now().Add(grace)
	for ph.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// issue sends one op due at intended. An op that finds its window full
// waits for a slot, up to drainGrace, and is shed after that: the wait
// delays every later arrival too, and since latency runs from the
// intended send time, the stall is charged to each op it delayed
// instead of being hidden by a shorter sample.
func (e *engine) issue(ph *phase, intended int64, o op) {
	measured := intended >= ph.measureNs
	if measured {
		ph.attempted++
		ph.paceLag = append(ph.paceLag, e.now()-max(intended, e.waitEnd))
	}
	c := e.conns[int(o.client)%len(e.conns)]
	var s int32
	select {
	case s = <-c.free:
	default:
		ok := e.waitSlot(c, &s)
		e.waitEnd = e.now()
		if !ok {
			if measured {
				ph.shedWindow++
			}
			return
		}
	}
	e.opSeq++
	seq := e.opSeq
	sl := &c.slots[s]
	traced := e.spans != nil && e.spans.sample(seq)
	*sl = slot{intended: intended, key: o.key, seq: seq, write: o.write, ph: ph,
		measured: measured, traced: traced}
	req := transport.ClientRequest{Op: transport.OpClientRead, Key: ddp.Key(o.key)}
	if o.write {
		req.Op = transport.OpClientWrite
		var v []byte
		if c.syncSend {
			v, _ = e.ck.issueWrite(c.buf, o.key)
			c.buf = v
		} else {
			v, _ = e.ck.issueWrite(nil, o.key)
		}
		req.Value = v
	}
	ph.inflight.Add(1)
	sent := e.now()
	sl.sent = sent
	if measured {
		ph.lag = append(ph.lag, sent-intended)
	}
	err := c.ep.Send(ddp.NodeID(int(o.client)%nodes), transport.Frame{
		Kind:   transport.FrameClientRequest,
		Client: uint64(s)<<32 | uint64(o.client),
		Req:    req,
	})
	if e.spans != nil {
		done := e.now()
		ph.sendNs = append(ph.sendNs, done-sent)
		if traced {
			e.spans.add(benchSpan{Op: seq, Name: "transport.send", Start: sent, End: done})
		}
	}
	if err != nil {
		if measured {
			ph.shedSend++
		}
		ph.inflight.Add(-1)
		c.free <- s
	}
}

func (e *engine) waitSlot(c *conn, s *int32) bool {
	t := time.NewTimer(drainGrace)
	defer t.Stop()
	select {
	case *s = <-c.free:
		return true
	case <-t.C:
		return false
	}
}

// receive matches one connection's replies to their slots until the
// endpoint closes.
func (e *engine) receive(c *conn) {
	defer e.rxWg.Done()
	for f := range c.ep.Recv() {
		if f.Kind != transport.FrameClientResponse {
			continue
		}
		s := int32(f.Client >> 32)
		if s < 0 || int(s) >= len(c.slots) {
			continue
		}
		now := e.now()
		sl := &c.slots[s]
		ph := sl.ph
		c.mu.Lock()
		st := &ph.rx[c.idx]
		if now >= ph.measureNs && now <= ph.endNs {
			st.doneInWindow++
		}
		switch f.Resp.Status {
		case transport.StatusOK:
			if !sl.write {
				if err := e.ck.checkValue(sl.key, f.Resp.Value); err != nil {
					st.badReads++
					if st.firstBad == "" {
						st.firstBad = err.Error()
					}
				}
			}
			if sl.measured {
				st.completed++
				l := lat{at: sl.intended, d: now - sl.intended}
				if sl.write {
					st.wr = append(st.wr, l)
					st.swr = append(st.swr, now-sl.sent)
				} else {
					st.rd = append(st.rd, l)
					st.srd = append(st.srd, now-sl.sent)
				}
			}
		case transport.StatusShed:
			if sl.measured {
				st.shedNode++
			}
		default:
			if sl.measured {
				st.errs++
			}
		}
		c.mu.Unlock()
		if sl.traced {
			name := "client.read"
			if sl.write {
				name = "client.write"
			}
			e.spans.add(benchSpan{Op: sl.seq, Name: name, Start: sl.sent, End: now})
		}
		ph.inflight.Add(-1)
		c.free <- s
	}
}
