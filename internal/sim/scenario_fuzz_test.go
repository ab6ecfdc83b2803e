package sim

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzParseScenario feeds the scenario loader arbitrary documents. It
// must never panic; an accepted scenario re-marshals and re-parses to
// an equal value; and a small accepted scenario runs in flow mode with
// its books balanced.
func FuzzParseScenario(f *testing.F) {
	for _, path := range []string{
		"../../examples/fleetsim/ci-smoke.json",
		"../../examples/fleetsim/packet-failover.json",
	} {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, sc := range []Scenario{midScenario(1), smallScenario("flow")} {
		sc.Workload.Flows = 500
		doc, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{"seed": 4, "topology": {"kind": "fattree", "k": 4},
		"workload": {"kind": "incast", "bursts": 50, "fanIn": 6, "period": "1ms", "burstSpread": 0},
		"faults": [{"at": "2ms", "kind": "switchDown", "node": "agg-0-0"},
			{"at": 2000000, "kind": "linkDown", "node": "edge-0-0", "peer": "agg-0-1"}],
		"horizon": "30ms"}`))
	f.Add([]byte(`{"topology": {"kind": "leafspine", "spines": 2, "leaves": 2, "hostsPerLeaf": 1},
		"workload": {"kind": "diurnal", "flows": 300, "ratePerSec": 5000, "amplitude": 0.5, "period": "20ms"},
		"faults": []}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		doc, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		again, err := ParseScenario(doc)
		if err != nil {
			t.Fatalf("re-marshalled scenario rejected: %v\n%s", err, doc)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("round trip changed the scenario:\n  %+v\n  %+v", sc, again)
		}
		if !cheapToRun(sc) {
			return
		}
		fs, err := NewFleetSim(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not build: %v", err)
		}
		res, err := fs.Run(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass {
			t.Fatalf("small scenario failed its checks: %v\n%s", res.Failures, doc)
		}
	})
}

// cheapToRun reports whether sc has at most 64 switches and 1000
// arrivals, cheap enough to run for every fuzz input.
func cheapToRun(sc Scenario) bool {
	w, topo := sc.Workload, sc.Topology
	arrivals := w.Flows
	if w.Kind == "incast" {
		if w.Bursts > 1000 || w.FanIn > 1000 {
			return false
		}
		arrivals = w.Bursts * w.FanIn
	}
	switches := topo.Spines + topo.Leaves
	if topo.Kind == "fattree" {
		switches = 5 * min(topo.K, 64) * min(topo.K, 64) / 4
	} else if topo.Spines > 64 || topo.Leaves > 64 {
		return false
	}
	return arrivals <= 1000 && switches <= 64
}

// The loader refuses documents whose generator state alone would be
// too large, before building any of it, and reads an empty fault list
// as none.
func TestScenarioLoaderLimits(t *testing.T) {
	for _, doc := range []string{
		`{"topology": {"kind": "leafspine", "spines": 40, "leaves": 87000, "hostsPerLeaf": 2},
			"workload": {"kind": "poisson", "flows": 10, "ratePerSec": 100}}`,
		`{"topology": {"kind": "fattree", "k": 9223372036854775806},
			"workload": {"kind": "poisson", "flows": 10, "ratePerSec": 100}}`,
		`{"topology": {"kind": "leafspine", "spines": 2, "leaves": 2, "hostsPerLeaf": 2},
			"workload": {"kind": "heavyhitter", "flows": 10, "ratePerSec": 100, "mice": 1000000000}}`,
	} {
		if _, err := ParseScenario([]byte(doc)); err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Fatalf("oversized scenario accepted (err=%v):\n%s", err, doc)
		}
	}
	sc, err := ParseScenario([]byte(`{"topology": {"kind": "leafspine", "spines": 2, "leaves": 2, "hostsPerLeaf": 2},
		"workload": {"kind": "poisson", "flows": 10, "ratePerSec": 100}, "faults": []}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Faults != nil {
		t.Fatalf("empty fault list parsed as %#v, want nil", sc.Faults)
	}
}
