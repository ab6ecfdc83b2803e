package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one catalogue entry. BENCHMARK.json lists the same
// names, units and directions; TestCatalogueMatchesBenchmarkJSON keeps
// the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is every metric a --trace 0 run prints. Each workload
// reports every name; what "an operation" is differs per workload (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"success_frac", "ratio", "higher"},
	{"throughput_per_s", "1/s", "higher"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p99_us", "us", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer is every metric a --trace 1 run prints. A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"legacy.ingress_ns", "ns", "lower"},
	{"legacy.egress_ns", "ns", "lower"},
	{"harmless.s4_ns", "ns", "lower"},
	{"fabric.host_tx_ns", "ns", "lower"},
	{"fabric.host_rx_ns", "ns", "lower"},
	{"alloc.objects_per_frame", "count", "lower"},
	{"alloc.bytes_per_frame", "B", "lower"},
	{"gc.cycles_per_mframe", "count", "lower"},
	{"softswitch.ss1_hit_ratio", "ratio", "higher"},
	{"softswitch.ss2_hit_ratio", "ratio", "higher"},
	{"softswitch.ss2_invalidations_per_setup", "count", "lower"},
	{"softswitch.drops", "count", "lower"},
	{"softswitch.flowmod_apply_us", "us", "lower"},
	{"flowsetup.sync_us", "us", "lower"},
	{"controlplane.rtt_us", "us", "lower"},
	{"softswitch.ss2_packet_ins_per_setup", "count", "lower"},
	{"netem.trunk_frames_per_frame", "count", "lower"},
	{"flowsetup.gen_late_us", "us", "lower"},
	{"flowsetup.p50_us", "us", "lower"},
	{"flowsetup.p99_us", "us", "lower"},
	{"flowsetup.churn_pps", "1/s", "higher"},
	{"softswitch.bare_ns", "ns", "lower"},
	{"softswitch.chain_over_bare", "ratio", "lower"},
	{"fabric.workload_next_ns", "ns", "lower"},
	{"fabric.route_ns", "ns", "lower"},
	{"sim.engine_ns", "ns", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.reconcile_err", "ratio", "lower"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}

// checkMetricSet verifies that a result carries exactly the catalogue
// for its mode, every value finite.
func checkMetricSet(m map[string]metric, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(m) != len(want) {
		var got []string
		for n := range m {
			got = append(got, n)
		}
		sort.Strings(got)
		return fmt.Errorf("result has %d metrics %v, catalogue has %d", len(m), got, len(want))
	}
	for _, d := range want {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("result lacks metric %s", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v.Value)
		}
	}
	return nil
}

// zeroLayers sets every per-layer metric not yet set to 0: the layers
// this workload does not exercise.
func (r *result) zeroLayers() {
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.name]; !ok {
			r.set(d.name, 0)
		}
	}
}
