// Command minosbench is the repository's benchmark: it brings up a
// 5-node live MINOS cluster in process, drives it open-loop from its
// own seeded generator, checks every reply and the replicas, and
// prints every metric by name and unit. See README.md for the
// workloads and the metric definitions.
//
//	minosbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is the result object; the line
// before it is the full report with the environment stamp.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/nvm"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
	source   string
	outdir   string
}

// Phase lengths. The warm-up runs at the workload's fixed rate before
// anything is measured; the measured time (--seconds) is split between
// the fixed-rate latency phase and the capacity search.
const (
	warmDur      = time.Second
	drainGrace   = 2 * time.Second
	setupRepeats = 3
	fixedShare   = 0.5
	// fixedWindow is the window the fixed-rate percentiles are taken
	// over before the median across windows (see summary).
	fixedWindow = 500 * time.Millisecond
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see README.md)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the arrival schedule and op stream")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit, for the environment stamp")
	flag.StringVar(&o.source, "source", "unknown", "source tree digest, for the environment stamp")
	flag.StringVar(&o.outdir, "outdir", ".bench_build", "directory for trace files")
	flag.Parse()
	o.trace = trace == 1
	if (trace != 0 && trace != 1) || o.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "minosbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	w, err := lookup(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minosbench:", err)
		os.Exit(2)
	}
	var r *report
	if o.trace {
		r, err = runTraced(w, o)
	} else {
		r, err = runUntraced(w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "minosbench:", err)
		os.Exit(1)
	}
	r.Env = stamp(w, o)
	if err := r.print(); err != nil {
		fmt.Fprintln(os.Stderr, "minosbench:", err)
		os.Exit(1)
	}
}

// metric is one named value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run measured, printed on the line before the
// result.
type report struct {
	Env       env             `json:"env"`
	Setup     []float64       `json:"setup_s,omitempty"`
	Phases    map[string]any  `json:"phases"`
	Capacity  *capacityResult `json:"capacity,omitempty"`
	Problems  []string        `json:"problems,omitempty"`
	TraceFile string          `json:"trace_file,omitempty"`
	Result    result          `json:"-"`
	metrics   *metricSet
}

func newReport(defs []metricDef) *report {
	return &report{Phases: map[string]any{}, metrics: newMetricSet(defs)}
}

func (r *report) set(name string, v float64) { r.metrics.set(name, v) }

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) print() error {
	if err := r.metrics.complete(); err != nil {
		return err
	}
	r.Result.Metrics = r.metrics.values
	r.Result.Correct = len(r.Problems) == 0
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "minosbench: FAILED CHECK:", p)
	}
	full, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	last, err := json.Marshal(r.Result)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Printf("%s\n%s\n", full, last)
	return nil
}

// runUntraced measures the end-to-end metrics. Each of its set-ups
// brings up a fresh cluster that then serves one segment of the
// fixed-rate phase, so a run measures several cluster instances and
// reports the median over them; the last cluster also serves the
// capacity search.
func runUntraced(w spec, o options) (*report, error) {
	r := newReport(endToEnd)
	origin := time.Now()
	fixedDur := time.Duration(float64(o.seconds) * fixedShare * float64(time.Second))
	var segs []summary
	var e *engine
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			r.checkCluster(e)
			e.close()
		}
		freeMemory()
		ck := newChecker(w.ValueSize)
		lc, setupS, _, err := startCluster(w, ck, false, nil, origin)
		if err != nil {
			return nil, err
		}
		r.Setup = append(r.Setup, setupS)
		if e, err = newEngine(w, int64(subSeed(o.seed, uint64(10+i))), lc, ck, nil, origin); err != nil {
			lc.Close()
			return nil, err
		}
		seg, err := e.fixedRate(fixedDur / setupRepeats)
		if err != nil {
			e.close()
			return nil, err
		}
		name := fmt.Sprintf("fixed_%d", i)
		r.Phases[name] = seg
		r.checkPhase(name, seg)
		segs = append(segs, seg)
	}
	defer e.close()
	heap := heapBytes()

	fx := segs[len(segs)-1]
	cr, err := e.capacity(time.Duration(o.seconds)*time.Second-fixedDur, fx)
	if err != nil {
		return nil, err
	}
	r.Capacity = &cr
	r.checkCluster(e)
	if cr.MaxOps <= 0 {
		r.problem("capacity search found no passing rate")
	}

	for _, s := range segs {
		r.Result.Attempted += s.Attempted
		r.Result.Failed += s.Failed
	}
	med := func(f func(summary) float64) float64 {
		var xs []float64
		for _, s := range segs {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	r.set("write_p50_us", med(func(s summary) float64 { return s.WriteP50 }))
	r.set("read_p50_us", med(func(s summary) float64 { return s.ReadP50 }))
	r.set("max_ops_s", cr.MaxOps)
	r.set("ok_frac", 1-float64(r.Result.Failed)/float64(r.Result.Attempted))
	r.set("setup_s", median(r.Setup))
	r.set("heap_mb", float64(heap)/(1<<20))
	return r, nil
}

// fixedRate warms the cluster up at the workload's rate, then measures
// dur at that rate.
func (e *engine) fixedRate(dur time.Duration) (summary, error) {
	if _, err := e.runPhase(e.w.Rate, warmDur, 0, drainGrace); err != nil {
		return summary{}, err
	}
	ph, err := e.runPhase(e.w.Rate, dur, 0, drainGrace)
	if err != nil {
		return summary{}, err
	}
	return e.summarize(ph, fixedWindow), nil
}

// checkPhase applies the generator-validity rule to a measured phase.
func (r *report) checkPhase(name string, s summary) {
	if !s.lagValid() {
		r.problem("%s: generator lag p50 %.1f us exceeds a tenth of write service p50 %.1f us",
			name, s.LagP50, s.SvcWrP50)
	}
}

// checkCluster records the failed read checks of every phase the
// cluster served and verifies its replicas.
func (r *report) checkCluster(e *engine) {
	if n, first := e.badReads(); n > 0 {
		r.problem("%d reads over the run failed the check, first: %s", n, first)
	}
	if err := e.verify(); err != nil {
		r.problem("replicas: %v", err)
	}
}

// startCluster brings a cluster up and preloads every node, returning
// the set-up time (start plus preload, up to the first arrival) and the
// preload time alone.
func startCluster(w spec, ck *checker, traced bool, spans *spanLog, origin time.Time) (*loadgen.LiveCluster, float64, float64, error) {
	t0 := time.Now()
	lc, err := loadgen.StartCluster(
		loadgen.Cluster{Nodes: nodes, Model: w.Model, PersistDelay: persistDelay, Fabric: w.Fabric, ClientWindow: nodeWindow},
		loadgen.Observe{Trace: traced, TraceCapacity: 1 << 14, TraceSample: spanSampleEvery},
		loadgen.Offload{Enabled: w.Offload}, conns)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("start cluster: %w", err)
	}
	t1 := time.Now()
	value := ck.codec.preload()
	for _, nd := range lc.Nodes {
		nd.Store().Preload(records, value)
	}
	t2 := time.Now()
	// Collect once after the preload so the next GC goal sits at twice
	// the preloaded heap; otherwise the cycle that the preload's growth
	// has already scheduled lands inside the measured phases.
	runtime.GC()
	if spans != nil {
		at := func(t time.Time) int64 { return t.Sub(origin).Nanoseconds() }
		spans.add(benchSpan{Name: "setup.start_cluster", Start: at(t0), End: at(t1)})
		spans.add(benchSpan{Name: "setup.preload", Start: at(t1), End: at(t2)})
	}
	return lc, t2.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), nil
}

// verify waits for the replicas to settle after the drain, then checks
// them; on Lin-Synch and Lin-Strict each node's NVM log must match its
// store as well.
func (e *engine) verify() error {
	var stores []*kv.Store
	var logs []*nvm.Log
	for _, nd := range e.lc.Nodes {
		stores = append(stores, nd.Store())
		if e.w.Model == ddp.LinSynch || e.w.Model == ddp.LinStrict {
			logs = append(logs, nd.Log())
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		err := e.ck.checkReplicas(stores, logs)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// badReads totals the failed read checks of every phase.
func (e *engine) badReads() (int64, string) {
	var n int64
	var first string
	for _, ph := range e.all {
		for _, c := range e.conns {
			c.mu.Lock()
			st := ph.rx[c.idx]
			c.mu.Unlock()
			n += st.badReads
			if first == "" {
				first = st.firstBad
			}
		}
	}
	return n, first
}

func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// heapBytes is the live Go heap after a collection.
func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// env is the environment stamp every report carries.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Model      string `json:"model"`
	Fabric     string `json:"fabric"`
	Offload    bool   `json:"offload"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Source     string `json:"source_digest"`
}

func stamp(w spec, o options) env {
	return env{
		Workload: w.Name, Seed: o.seed, Model: w.Model.String(), Fabric: w.Fabric,
		Offload: w.Offload, Seconds: o.seconds, Trace: o.trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: o.commit, Source: o.source,
	}
}

func traceFile(o options, w spec) string {
	return filepath.Join(o.outdir, "trace", w.Name+".jsonl")
}
