package node

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

// This file pins the run-to-completion coordinator mode against the
// parked baseline over the shared-memory ring fabric: same
// linearizability verdicts, same trace-span structure. The ring fabric
// is the only one exposing transport.InlinePoller, so it is where the
// two dispatch modes genuinely diverge (RTCDisabled falls back to the
// channel recvLoop even over rings).

// newRingCluster builds an n-node cluster over shared-memory rings with
// the given run-to-completion mode. Closing the nodes closes their ring
// endpoints.
func newRingCluster(t *testing.T, n int, model ddp.Model, rtc RTCMode, tracers []*obs.Tracer) []*Node {
	t.Helper()
	net := transport.NewRingNetwork(n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		opts := []Option{WithModel(model), WithRTC(rtc)}
		if tracers != nil {
			opts = append(opts, WithTracer(tracers[i]))
		}
		nodes[i] = NewWithOptions(net.Endpoint(ddp.NodeID(i)), opts...)
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

// TestRingClusterReplicates smoke-tests every model over the ring
// fabric in both dispatch modes: a write from one node converges
// everywhere.
func TestRingClusterReplicates(t *testing.T) {
	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for _, rtc := range []RTCMode{RTCAuto, RTCDisabled} {
				nodes := newRingCluster(t, 3, model, rtc, nil)
				wantInline := rtc != RTCDisabled
				for _, nd := range nodes {
					if nd.inline != wantInline {
						t.Fatalf("rtc=%v: node %d inline=%v, want %v",
							rtc, nd.ID(), nd.inline, wantInline)
					}
				}
				if err := nodes[1].Write(9, []byte("ring-v")); err != nil {
					t.Fatal(err)
				}
				waitConverged(t, nodes, 9, []byte("ring-v"))
			}
		})
	}
}

// TestRTCLinearizableEquivalence runs the same concurrent read/write
// shape as TestLiveClusterIsLinearizable over the ring fabric, once per
// dispatch mode, and requires a legal linearization from both. The
// run-to-completion fast path must not reorder the protocol's visible
// history.
func TestRTCLinearizableEquivalence(t *testing.T) {
	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for _, rtc := range []RTCMode{RTCAuto, RTCDisabled} {
				rtcName := "rtc"
				if rtc == RTCDisabled {
					rtcName = "parked"
				}
				for round := 0; round < 3; round++ {
					nodes := newRingCluster(t, 3, model, rtc, nil)
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
								v := fmt.Sprintf("%s-n%d-%d-%d", rtcName, nd.ID(), round, i)
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
							// Alternate the copying Read and the zero-alloc
							// ReadInto (with a recycled buffer) so both read
							// entry points feed the linearizability check.
							buf := make([]byte, 0, 64)
							for i := 0; i < 3; i++ {
								start := time.Now()
								var v []byte
								var err error
								if i%2 == 0 {
									v, err = nd.Read(1)
								} else {
									v, err = nd.ReadInto(1, buf[:0])
								}
								if err != nil {
									t.Errorf("read: %v", err)
									return
								}
								record(histOp{isWrite: false, value: string(v), start: start, end: time.Now()})
								if i%2 != 0 && v != nil {
									buf = v
								}
								time.Sleep(time.Duration(i) * 200 * time.Microsecond)
							}
						}()
					}
					wg.Wait()
					if !linearizable(hist) {
						for _, op := range hist {
							kind := "R"
							if op.isWrite {
								kind = "W"
							}
							t.Logf("%s(%q) [%d, %d]ns", kind, op.value,
								op.start.UnixNano(), op.end.UnixNano())
						}
						t.Fatalf("%s round %d: no legal linearization of %d ops",
							rtcName, round, len(hist))
					}
				}
			}
		})
	}
}

// ringTraceRun drives a fixed serial write sequence from node 0 over a
// fully-traced ring cluster and returns per-node spans after Close has
// flushed the pipelines.
func ringTraceRun(t *testing.T, model ddp.Model, rtc RTCMode) [][]obs.Span {
	t.Helper()
	net := transport.NewRingNetwork(3)
	tracers := make([]*obs.Tracer, 3)
	nodes := make([]*Node, 3)
	for i := range nodes {
		tracers[i] = obs.NewTracer(0)
		nodes[i] = NewWithOptions(net.Endpoint(ddp.NodeID(i)),
			WithModel(model), WithRTC(rtc), WithTracer(tracers[i]))
		nodes[i].Start()
	}
	for i := 0; i < 12; i++ {
		if err := nodes[0].Write(ddp.Key(i%3), []byte(fmt.Sprintf("rt-%d", i))); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for _, nd := range nodes {
		nd.Close()
	}
	out := make([][]obs.Span, len(tracers))
	for i, tr := range tracers {
		out[i] = tr.Spans()
		if tr.Dropped() != 0 {
			t.Fatalf("node %d dropped %d spans", i, tr.Dropped())
		}
	}
	return out
}

// coordPhaseSeqs extracts each coordinator transaction's phase sequence
// (ordered by span start) and asserts the spans chain without
// interleaving; follower persist spans must close before the paired ack
// span opens — the traced image of persist-before-ack.
func coordPhaseSeqs(t *testing.T, perNode [][]obs.Span) []string {
	t.Helper()
	var seqs []string
	for ni, spans := range perNode {
		byTxn := map[uint64][]obs.Span{}
		type fkey struct {
			key uint64
			ver int64
		}
		followers := map[fkey][]obs.Span{}
		for _, s := range spans {
			if s.Role == obs.RoleCoordinator {
				byTxn[s.Txn] = append(byTxn[s.Txn], s)
			} else {
				followers[fkey{s.Key, s.Ver}] = append(followers[fkey{s.Key, s.Ver}], s)
			}
		}
		for txn, ss := range byTxn {
			sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
			seq := ""
			for i, s := range ss {
				if i > 0 && s.Start < ss[i-1].End {
					t.Fatalf("node %d txn %d: %v interleaves with %v",
						ni, txn, s.Phase, ss[i-1].Phase)
				}
				seq += s.Phase.String() + ">"
			}
			seqs = append(seqs, seq)
		}
		for fk, ss := range followers {
			var persist, ack *obs.Span
			for i := range ss {
				switch ss[i].Phase {
				case obs.PhaseGroupCommit:
					persist = &ss[i]
				case obs.PhaseVal:
					ack = &ss[i]
				}
			}
			if persist != nil && ack != nil && ack.Start < persist.End {
				t.Fatalf("node %d follower (key %d, ver %d): ack at %d outran persist ending %d",
					ni, fk.key, fk.ver, ack.Start, persist.End)
			}
		}
	}
	sort.Strings(seqs)
	return seqs
}

// TestRTCTraceEquivalence: the run-to-completion and parked paths must
// record the same coordinator phase structure for the same serial write
// sequence — identical multisets of per-transaction phase sequences —
// and both must satisfy the persist-before-ack span ordering. Fast
// dispatch may change timings, never the protocol's traced shape.
func TestRTCTraceEquivalence(t *testing.T) {
	for _, model := range []ddp.Model{ddp.LinSynch, ddp.LinStrict, ddp.LinEvent} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			fast := coordPhaseSeqs(t, ringTraceRun(t, model, RTCAuto))
			parked := coordPhaseSeqs(t, ringTraceRun(t, model, RTCDisabled))
			if len(fast) == 0 {
				t.Fatal("no coordinator transactions traced")
			}
			if len(fast) != len(parked) {
				t.Fatalf("traced %d txns under rtc, %d parked", len(fast), len(parked))
			}
			for i := range fast {
				if fast[i] != parked[i] {
					t.Fatalf("phase sequence diverges:\n  rtc:    %s\n  parked: %s",
						fast[i], parked[i])
				}
			}
		})
	}
}
