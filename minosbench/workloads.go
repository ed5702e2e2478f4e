package main

import (
	"fmt"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/workload"
)

// spec is one benchmark workload: the cluster it runs on and the
// open-loop traffic it offers. README.md records why each exists and
// which layers it bypasses.
type spec struct {
	Name       string
	Model      ddp.Model
	Fabric     string
	Offload    bool
	WriteRatio float64
	Dist       workload.Distribution
	ValueSize  int
	// Rate is the fixed offered rate (op/s) of the warm-up and the
	// latency phase.
	Rate float64
}

// The set-up every workload shares (stated once, see README.md).
const (
	nodes        = 5
	records      = 100_000
	clients      = 10_000
	conns        = 2
	window       = 256  // in-flight ops per client connection
	nodeWindow   = 1024 // node admission queue
	persistDelay = 1295 // ns per persist, Table II
	zipfTheta    = 0.99
)

var workloads = []spec{
	{Name: "tcp-synch-ycsba", Model: ddp.LinSynch, Fabric: "tcp",
		WriteRatio: 0.5, Dist: workload.Zipfian, ValueSize: 1024, Rate: 8000},
	{Name: "ring-strict-offload-w90", Model: ddp.LinStrict, Fabric: "ring", Offload: true,
		WriteRatio: 0.9, Dist: workload.Zipfian, ValueSize: 128, Rate: 10000},
	{Name: "ring-synch-readmostly", Model: ddp.LinSynch, Fabric: "ring",
		WriteRatio: 0.05, Dist: workload.Uniform, ValueSize: 1024, Rate: 30000},
}

func lookup(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (w spec) workload() workload.Config {
	return workload.Config{
		Records:    records,
		WriteRatio: w.WriteRatio,
		Dist:       w.Dist,
		ZipfTheta:  zipfTheta,
		ValueSize:  w.ValueSize,
	}
}
