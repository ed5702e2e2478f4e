package main

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/minos-ddp/minos/internal/obs"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// command must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command prints %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
}

func TestEveryTracePhaseDeclared(t *testing.T) {
	m := newMetricSet(perLayer)
	for _, p := range obs.Phases() {
		m.set("trace."+p.String()+"_p50_us", 0) // panics if undeclared
	}
}

func TestMetricSetComplete(t *testing.T) {
	m := newMetricSet(endToEnd)
	for _, d := range endToEnd[1:] {
		m.set(d.Name, 1)
	}
	if m.complete() == nil {
		t.Fatal("missing metric not reported")
	}
	m.set(endToEnd[0].Name, 1)
	if err := m.complete(); err != nil {
		t.Fatal(err)
	}
}
