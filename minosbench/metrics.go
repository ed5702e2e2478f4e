package main

import "fmt"

// metricDef declares one metric the command prints. BENCHMARK.json at
// the repository root lists the same names, units and directions; a
// test keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is printed by every untraced run.
var endToEnd = []metricDef{
	{"write_p50_us", "us", "lower"},
	{"read_p50_us", "us", "lower"},
	{"max_ops_s", "op/s", "higher"},
	{"ok_frac", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// perLayer is printed by every traced run.
var perLayer = []metricDef{
	{"gen.lag_p50_us", "us", "lower"},
	{"gen.lag_p99_us", "us", "lower"},
	{"client.service_write_p50_us", "us", "lower"},
	{"client.service_read_p50_us", "us", "lower"},
	{"client.write_p99_us", "us", "lower"},
	{"client.read_p99_us", "us", "lower"},
	{"client.write_p999_us", "us", "lower"},
	{"client.write_samples", "count", "higher"},
	{"client.read_samples", "count", "higher"},
	{"client.failed_frac", "ratio", "lower"},
	{"transport.client_send_p50_ns", "ns", "lower"},
	{"transport.frames_per_batch", "frames/batch", "higher"},
	{"transport.frames_per_op", "frames/op", "lower"},
	{"transport.bytes_per_op", "B/op", "lower"},
	{"transport.send_errors", "count", "lower"},
	{"transport.redials", "count", "lower"},
	{"node.client_shed", "count", "lower"},
	{"node.client_errs", "count", "lower"},
	{"node.write_serial_p50_us", "us", "lower"},
	{"node.read_into_p50_ns", "ns", "lower"},
	{"node.client_queue_depth_max", "count", "lower"},
	{"node.exec_lane_depth_max", "count", "lower"},
	{"node.persists_per_write", "persists/write", "lower"},
	{"node.invs_per_write", "invs/write", "lower"},
	{"node.obsolete_write_frac", "ratio", "lower"},
	{"nvm.entries_per_batch", "entries/batch", "higher"},
	{"nvm.drain_p50_us", "us", "lower"},
	{"nvm.drain_p99_us", "us", "lower"},
	{"nvm.timer_parks_per_persist", "parks/persist", "lower"},
	{"nvm.spin_charges_per_persist", "charges/persist", "lower"},
	{"kv.read_into_p50_ns", "ns", "lower"},
	{"kv.heap_bytes_per_value_byte", "B/B", "lower"},
	{"kv.preload_s", "s", "lower"},
	{"offload.nic_frame_frac", "ratio", "higher"},
	{"offload.promotions_per_s", "1/s", "lower"},
	{"offload.demotions_per_s", "1/s", "lower"},
	{"offload.vfifo_overflows", "count", "lower"},
	{"offload.dfifo_entries_per_batch", "entries/batch", "higher"},
	{"trace.issue_p50_us", "us", "lower"},
	{"trace.inv_fanout_p50_us", "us", "lower"},
	{"trace.ack_wait_p50_us", "us", "lower"},
	{"trace.persist_enqueue_p50_us", "us", "lower"},
	{"trace.group_commit_p50_us", "us", "lower"},
	{"trace.val_p50_us", "us", "lower"},
	{"trace.completion_p50_us", "us", "lower"},
	{"trace.nic_queue_p50_us", "us", "lower"},
	{"trace.nic_handle_p50_us", "us", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"go.sched_latency_p99_us", "us", "lower"},
	{"go.gc_pause_p99_us", "us", "lower"},
	{"go.gc_cycles", "count", "lower"},
}

// metricSet checks the metrics a run sets against one declared list.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]metric{}}
}

// set records a declared metric; an undeclared name is a bug.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic(fmt.Sprintf("metric %q is not declared", name))
}

// complete reports the first declared metric the run did not set.
func (m *metricSet) complete() error {
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			return fmt.Errorf("metric %q was not measured", d.Name)
		}
	}
	return nil
}
