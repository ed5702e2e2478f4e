package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// runTraced measures the per-layer metrics. It runs the fixed-rate
// phase twice, on an untraced cluster and then on a traced one, so the
// tracing overhead is the difference between the two; the traced
// cluster's counters, spans and idle probes give the layer figures.
func runTraced(w spec, o options) (*report, error) {
	r := newReport(perLayer)
	origin := time.Now()
	fixedDur := time.Duration(float64(o.seconds) * fixedShare * float64(time.Second))

	freeMemory()
	ck := newChecker(w.ValueSize)
	lc, _, _, err := startCluster(w, ck, false, nil, origin)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(w, o.seed, lc, ck, nil, origin)
	if err != nil {
		lc.Close()
		return nil, err
	}
	plain, err := e.fixedRate(fixedDur)
	if err != nil {
		e.close()
		return nil, err
	}
	r.Phases["fixed_untraced"] = plain
	r.checkPhase("fixed_untraced", plain)
	r.checkCluster(e)
	e.close()

	freeMemory()
	spans := &spanLog{}
	heap0 := heapBytes()
	ck = newChecker(w.ValueSize)
	lc, _, preloadS, err := startCluster(w, ck, true, spans, origin)
	if err != nil {
		return nil, err
	}
	heap1 := heapBytes()
	e, err = newEngine(w, o.seed, lc, ck, spans, origin)
	if err != nil {
		lc.Close()
		return nil, err
	}
	tr, err := e.traced(fixedDur)
	if err == nil {
		r.checkCluster(e)
	}
	// The node tracers may be read only once the cluster has stopped.
	e.close()
	if err != nil {
		return nil, err
	}
	fx, before, after, pr := tr.fx, tr.before, tr.after, tr.probes
	r.Phases["fixed_traced"] = fx
	r.checkPhase("fixed_traced", fx)
	if pr.bad != nil {
		r.problem("idle probes: %v", pr.bad)
	}
	nodeSpans := lc.Spans()
	r.TraceFile = traceFile(o, w)
	if err := writeSpans(r.TraceFile, spans.spans, nodeSpans); err != nil {
		return nil, err
	}

	secs := float64(after.at.Sub(before.at)) / 1e9
	d := func(name string) float64 { return float64(after.snap.Counter(name) - before.snap.Counter(name)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	r.set("gen.lag_p50_us", fx.LagP50)
	r.set("gen.lag_p99_us", fx.LagP99)
	r.set("client.service_write_p50_us", fx.SvcWrP50)
	r.set("client.service_read_p50_us", fx.SvcRdP50)
	r.set("client.write_p99_us", fx.WriteP99)
	r.set("client.read_p99_us", fx.ReadP99)
	r.set("client.write_p999_us", fx.PhaseWriteP999)
	r.set("client.write_samples", float64(fx.Writes))
	r.set("client.read_samples", float64(fx.Reads))
	r.set("client.failed_frac", fx.failedFrac())

	ops := float64(fx.Completed)
	r.set("transport.client_send_p50_ns", fx.SendP50Ns)
	r.set("transport.frames_per_batch", ratio(d("transport.frames_sent"), d("transport.batches_sent")))
	r.set("transport.frames_per_op", ratio(d("transport.frames_sent"), ops))
	r.set("transport.bytes_per_op", ratio(d("transport.bytes_sent"), ops))
	r.set("transport.send_errors", d("transport.send_errors"))
	r.set("transport.redials", d("transport.redials"))

	writes := d("node.writes")
	persists := d("node.persists")
	r.set("node.client_shed", d("node.client_shed"))
	r.set("node.client_errs", d("node.client_errs"))
	r.set("node.write_serial_p50_us", pr.writeSerialUs)
	r.set("node.read_into_p50_ns", pr.nodeReadNs)
	r.set("node.client_queue_depth_max", float64(after.maxGauge["node.client_queue_depth_max"]))
	r.set("node.exec_lane_depth_max", float64(after.maxGauge["node.exec_lane_depth_max"]))
	r.set("node.persists_per_write", ratio(persists, writes))
	r.set("node.invs_per_write", ratio(d("node.invs_handled"), writes))
	r.set("node.obsolete_write_frac", ratio(d("node.obsolete_writes"), writes))

	drain := histDelta(after.snap.Histogram("nvm.pipeline.drain_ns"), before.snap.Histogram("nvm.pipeline.drain_ns"))
	r.set("nvm.entries_per_batch", ratio(d("nvm.pipeline.entries"), d("nvm.pipeline.batches")))
	r.set("nvm.drain_p50_us", drain.Quantile(0.50)/1e3)
	r.set("nvm.drain_p99_us", drain.Quantile(0.99)/1e3)
	r.set("nvm.timer_parks_per_persist", ratio(d("nvm.pipeline.timer_parks"), persists))
	r.set("nvm.spin_charges_per_persist", ratio(d("nvm.pipeline.spin_charges"), persists))

	r.set("kv.read_into_p50_ns", pr.kvReadNs)
	r.set("kv.heap_bytes_per_value_byte", float64(int64(heap1)-int64(heap0))/float64(nodes*records*w.ValueSize))
	r.set("kv.preload_s", preloadS)

	nic := d("offload.frames_nic")
	r.set("offload.nic_frame_frac", ratio(nic, nic+d("offload.frames_host")))
	r.set("offload.promotions_per_s", d("offload.promotions")/secs)
	r.set("offload.demotions_per_s", d("offload.demotions")/secs)
	r.set("offload.vfifo_overflows", d("offload.vfifo_overflows"))
	r.set("offload.dfifo_entries_per_batch", ratio(d("offload.dfifo_entries"), d("offload.dfifo_batches")))

	byPhase := make(map[obs.Phase][]int64)
	for _, s := range nodeSpans {
		byPhase[s.Phase] = append(byPhase[s.Phase], s.Dur())
	}
	for _, p := range obs.Phases() {
		r.set(fmt.Sprintf("trace.%s_p50_us", p), pctUs(byPhase[p], 0.50))
	}
	r.set("trace.overhead_frac", ratio(fx.WriteP50, plain.WriteP50)-1)

	r.set("go.sched_latency_p99_us", after.sched.minus(before.sched).quantile(0.99)*1e6)
	r.set("go.gc_pause_p99_us", after.gcPause.minus(before.gcPause).quantile(0.99)*1e6)
	r.set("go.gc_cycles", float64(after.gcCycles-before.gcCycles))

	r.Result.Attempted, r.Result.Failed = fx.Attempted, fx.Failed
	return r, nil
}

// tracedRun is what the traced cluster measured.
type tracedRun struct {
	fx            summary
	before, after layerSnap
	probes        probes
}

// traced warms the traced cluster up, runs the fixed-rate phase between
// two layer snapshots, then probes the idle cluster.
func (e *engine) traced(dur time.Duration) (tracedRun, error) {
	var tr tracedRun
	if _, err := e.runPhase(e.w.Rate, warmDur, 0, drainGrace); err != nil {
		return tr, err
	}
	tr.before = e.collect()
	ph, err := e.runPhase(e.w.Rate, dur, 0, drainGrace)
	if err != nil {
		return tr, err
	}
	tr.after = e.collect()
	tr.fx = e.summarize(ph, fixedWindow)
	tr.probes = e.probe()
	return tr, nil
}

// layerSnap is the cluster's exported state at one instant: every
// node's and endpoint's counters summed, each node gauge's maximum
// over the nodes, and the Go runtime's scheduler and GC figures.
type layerSnap struct {
	at       time.Time
	snap     *obs.Snapshot
	maxGauge map[string]int64
	sched    rtHist
	gcPause  rtHist
	gcCycles uint64
}

func (e *engine) collect() layerSnap {
	ls := layerSnap{at: time.Now(), snap: &obs.Snapshot{}, maxGauge: map[string]int64{}}
	for _, nd := range e.lc.Nodes {
		one := &obs.Snapshot{}
		nd.Collect(one)
		for _, g := range one.Gauges {
			ls.maxGauge[g.Name] = max(ls.maxGauge[g.Name], g.Value)
		}
		nd.Collect(ls.snap)
	}
	for _, ep := range append(e.lc.Eps, e.lc.ClientEps...) {
		if src, ok := ep.(obs.Source); ok {
			src.Collect(ls.snap)
		}
	}
	ls.snap.Compact()
	s := []metrics.Sample{
		{Name: "/sched/latencies:seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	ls.sched = newRtHist(s[0].Value)
	ls.gcPause = newRtHist(s[1].Value)
	if s[2].Value.Kind() == metrics.KindUint64 {
		ls.gcCycles = s[2].Value.Uint64()
	}
	return ls
}

// histDelta is the observations a cumulative obs histogram gained
// between two snapshots.
func histDelta(after, before obs.HistogramPoint) obs.HistogramPoint {
	prev := make(map[int64]int64, len(before.Buckets))
	for _, b := range before.Buckets {
		prev[b.LE] = b.Count
	}
	out := obs.HistogramPoint{Name: after.Name, Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for _, b := range after.Buckets {
		if c := b.Count - prev[b.LE]; c > 0 {
			out.Buckets = append(out.Buckets, obs.BucketPoint{LE: b.LE, Count: c})
		}
	}
	return out
}

// rtHist is a copy of a runtime/metrics histogram.
type rtHist struct {
	counts  []uint64
	buckets []float64
}

func newRtHist(v metrics.Value) rtHist {
	if v.Kind() != metrics.KindFloat64Histogram {
		return rtHist{}
	}
	h := v.Float64Histogram()
	return rtHist{counts: append([]uint64(nil), h.Counts...), buckets: h.Buckets}
}

func (h rtHist) minus(o rtHist) rtHist {
	out := rtHist{counts: append([]uint64(nil), h.counts...), buckets: h.buckets}
	for i := range out.counts {
		if i < len(o.counts) {
			out.counts[i] -= o.counts[i]
		}
	}
	return out
}

// quantile returns the upper bound of the bucket holding the q-th
// quantile (its lower bound for the open top bucket), 0 when empty.
func (h rtHist) quantile(q float64) float64 {
	var total uint64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if hi := h.buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.buckets[i]
		}
	}
	return 0
}

// probes holds the idle-cluster timings of single calls into the node
// and kv layers.
type probes struct {
	writeSerialUs float64
	nodeReadNs    float64
	kvReadNs      float64
	// bad is the first probe call that failed or returned a value
	// the reply check rejects.
	bad error
}

const (
	probeWrites    = 400
	probeReads     = 1 << 14
	probeReadBatch = 32
)

// probe times Node.Write one call at a time, and Node.ReadInto and
// kv Store.Get+Record.ReadInto in batches, on node 0 of the idle
// cluster, over keys drawn from the workload's distribution.
func (e *engine) probe() probes {
	nd := e.lc.Nodes[0]
	st := nd.Store()
	keys := newOpStream(e.w, int64(subSeed(e.seed, 3)))
	var p probes

	var ws []int64
	for i := 0; i < probeWrites; i++ {
		k := keys.next().key
		v, _ := e.ck.issueWrite(nil, k)
		t0 := e.now()
		err := nd.Write(ddp.Key(k), v)
		t1 := e.now()
		if err != nil {
			p.fail(fmt.Errorf("node write: %w", err))
			continue
		}
		ws = append(ws, t1-t0)
		e.spans.add(benchSpan{Name: "probe.node_write", Start: t0, End: t1})
	}
	p.writeSerialUs = pctUs(ws, 0.50)

	batch := make([]uint64, probeReadBatch)
	var buf []byte
	var nodeNs, kvNs []int64
	for i := 0; i < probeReads/probeReadBatch; i++ {
		for j := range batch {
			batch[j] = keys.next().key
		}
		t0 := e.now()
		for _, k := range batch {
			buf, _ = nd.ReadInto(ddp.Key(k), buf)
		}
		t1 := e.now()
		for _, k := range batch {
			if r := st.Get(ddp.Key(k)); r != nil {
				buf, _ = r.ReadInto(buf)
			}
		}
		t2 := e.now()
		p.fail(e.ck.checkValue(batch[len(batch)-1], buf))
		nodeNs = append(nodeNs, (t1-t0)/probeReadBatch)
		kvNs = append(kvNs, (t2-t1)/probeReadBatch)
		e.spans.add(benchSpan{Name: "probe.node_read_into", Start: t0, End: t1})
		e.spans.add(benchSpan{Name: "probe.kv_read_into", Start: t1, End: t2})
	}
	p.nodeReadNs = pct(nodeNs, 0.50)
	p.kvReadNs = pct(kvNs, 0.50)
	return p
}

func (p *probes) fail(err error) {
	if p.bad == nil {
		p.bad = err
	}
}
