package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/fabric"
)

// runHeapReference drives s through the timer heap, the way flow mode
// ran before Run became a merge: every fault is registered on an
// Engine first, then one arrival at a time, each registering its
// successor from its own callback. The heap's (deadline, registration)
// order is the specification Run's merge must reproduce. After every
// fault it also recounts each node's down links from scratch, the
// state firstBlock trusts to skip the port-map probe.
func runHeapReference(t *testing.T, s *FleetSim, wallBudget time.Duration) (Result, error) {
	wallStart := time.Now()
	eng := NewEngine(s.sc.Seed)
	for i, f := range s.sc.Faults {
		eng.At(f.At.Duration, func() {
			s.applyFault(eng.Elapsed(), i)
			checkDownLinks(t, s, i)
		})
	}
	var scheduleNext func()
	scheduleNext = func() {
		a, ok := s.wl.Next()
		if !ok {
			return
		}
		eng.At(a.At, func() {
			s.arrive(eng.Elapsed(), a)
			scheduleNext()
		})
	}
	scheduleNext()
	st, err := eng.Run(RunOpts{Until: s.sc.Horizon.Duration, WallBudget: wallBudget})
	if err != nil {
		return Result{}, err
	}
	s.finish(st.Events, st.VirtualEnd, wallStart)
	return s.res, nil
}

// checkDownLinks compares the per-node down-link counts with a naive
// recount over every link.
func checkDownLinks(t *testing.T, s *FleetSim, fault int) {
	t.Helper()
	want := make([]int32, len(s.topo.Nodes))
	for l, down := range s.linkDown {
		if down {
			want[s.topo.Links[l].A]++
			want[s.topo.Links[l].B]++
		}
	}
	if !reflect.DeepEqual(s.downLinks, want) {
		t.Fatalf("after fault %d (%+v): down-link counts %v, recount %v", fault, s.sc.Faults[fault], s.downLinks, want)
	}
}

var workloadKinds = []string{"poisson", "diurnal", "heavyhitter", "incast"}

// genScenario builds the i-th differential scenario. Topology and
// workload kind cycle with i so every pairing appears; the fault
// schedule is drawn against the workload's own arrival instants, so
// faults tie with arrivals, duplicate each other, sit next to down
// links, land at 0 and past the horizon.
func genScenario(i int, rng *rand.Rand) Scenario {
	sc := Scenario{Name: fmt.Sprintf("merge-%d", i), Seed: rng.Int63n(1 << 20)}
	if i%2 == 0 {
		sc.Topology = TopologySpec{Kind: "leafspine",
			Spines: 1 + rng.Intn(4), Leaves: 2 + rng.Intn(6), HostsPerLeaf: 1 + rng.Intn(3)}
	} else {
		sc.Topology = TopologySpec{Kind: "fattree", K: 2 + 2*rng.Intn(3)}
	}
	topo, err := sc.Topology.Build()
	if err != nil {
		panic(err)
	}
	nHosts := len(topo.HostIDs)
	flows := 200 + rng.Intn(1500)
	rate := float64(20000 + rng.Intn(80000))
	switch kind := workloadKinds[(i/2)%len(workloadKinds)]; kind {
	case "poisson":
		sc.Workload = WorkloadSpec{Kind: kind, Flows: flows, RatePerSec: rate, MeanPackets: 1 + rng.Intn(6)}
	case "diurnal":
		sc.Workload = WorkloadSpec{Kind: kind, Flows: flows, RatePerSec: rate,
			Amplitude: 0.9 * rng.Float64(), Period: Duration{time.Duration(1+rng.Intn(20)) * time.Millisecond},
			MeanPackets: 1 + rng.Intn(6)}
	case "heavyhitter":
		sc.Workload = WorkloadSpec{Kind: kind, Flows: flows, RatePerSec: rate,
			Elephants: 1 + rng.Intn(4), Mice: 4 + rng.Intn(28), PacketShare: 0.5 + 0.4*rng.Float64(),
			ElephantPackets: 8 + rng.Intn(56), MousePackets: 1 + rng.Intn(4), MouseLife: 1 + rng.Intn(16)}
	case "incast":
		period := time.Duration(100+rng.Intn(900)) * time.Microsecond
		var spread time.Duration // 0: a burst's arrivals share one instant
		if rng.Intn(3) == 0 {
			spread = time.Duration(rng.Int63n(int64(period)))
		}
		sc.Workload = WorkloadSpec{Kind: kind, Bursts: 20 + rng.Intn(180), FanIn: 1 + rng.Intn(min(8, nHosts-1)),
			Period: Duration{period}, BurstSpread: Duration{spread}, Packets: 1 + rng.Intn(4)}
	}

	wl, err := sc.Workload.Build(nHosts, sc.Seed)
	if err != nil {
		panic(err)
	}
	var instants []time.Duration
	for a, ok := wl.Next(); ok; a, ok = wl.Next() {
		instants = append(instants, a.At)
	}
	span := instants[len(instants)-1]
	at := func() time.Duration {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return span + time.Duration(1+rng.Int63n(int64(span)+1))
		case 2:
			return time.Duration(rng.Int63n(int64(span) + 1))
		}
		return instants[rng.Intn(len(instants))] // a tie with an arrival
	}
	add := func(t time.Duration, kind, node, peer string) {
		sc.Faults = append(sc.Faults, FaultSpec{At: Duration{t}, Kind: kind, Node: node, Peer: peer})
	}
	for g := rng.Intn(5); g > 0; g-- {
		l := topo.Links[rng.Intn(len(topo.Links))]
		a, b := topo.Nodes[l.A], topo.Nodes[l.B]
		switch rng.Intn(4) {
		case 0, 1:
			if rng.Intn(3) == 0 { // an up that may find the link already up
				add(at(), FaultLinkUp, b.Name, a.Name)
			}
			down := at()
			add(down, FaultLinkDown, a.Name, b.Name)
			if rng.Intn(2) == 0 { // duplicate down, named from the other end
				add(max(down, at()), FaultLinkDown, b.Name, a.Name)
			}
			if rng.Intn(2) == 0 && b.Role != fabric.RoleHost { // a switch next to the down link
				add(at(), FaultSwitchDown, b.Name, "")
				add(at(), FaultSwitchUp, b.Name, "")
			}
			up := at()
			add(up, FaultLinkUp, a.Name, b.Name)
			if rng.Intn(2) == 0 { // duplicate up
				add(up, FaultLinkUp, a.Name, b.Name)
			}
		case 2:
			sw := topo.Nodes[topo.SwitchIDs[rng.Intn(len(topo.SwitchIDs))]]
			add(at(), FaultSwitchDown, sw.Name, "")
			if rng.Intn(2) == 0 {
				add(at(), FaultSwitchUp, sw.Name, "")
			}
		case 3:
			add(at(), FaultCtrlFailover, "", "")
		}
	}
	switch rng.Intn(3) {
	case 0: // Horizon 0: drain
	case 1: // cut mid-stream, sometimes exactly on an arrival
		sc.Horizon = Duration{instants[rng.Intn(len(instants))] + time.Duration(rng.Intn(2))}
	case 2:
		sc.Horizon = Duration{span + time.Duration(rng.Int63n(int64(span)+1))}
	}
	if rng.Intn(2) == 0 {
		sc.Reconvergence = Duration{time.Duration(1 + rng.Int63n(int64(span)/2+1))}
	}
	return sc.withDefaults()
}

// The merge loop in Run fires faults and arrivals in exactly the order
// the timer heap did: on generated scenarios across both topologies and
// all four workloads, Run and the heap-driven reference produce equal
// verdicts, wall time aside.
func TestFleetSimMatchesHeapReference(t *testing.T) {
	n := 128
	if testing.Short() {
		n = 32
	}
	rng := rand.New(rand.NewSource(1))
	var cut, lost, drained int
	for i := 0; i < n; i++ {
		sc := genScenario(i, rng)
		if err := sc.Validate(); err != nil {
			t.Fatalf("scenario %d invalid: %v", i, err)
		}
		merged := runFleet(t, sc)
		ref, err := NewFleetSim(sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runHeapReference(t, ref, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		merged.WallMS, want.WallMS = 0, 0
		if !reflect.DeepEqual(merged, want) {
			doc, _ := json.Marshal(sc)
			got, _ := json.MarshalIndent(merged, "", " ")
			exp, _ := json.MarshalIndent(want, "", " ")
			t.Fatalf("scenario %d diverges from the heap reference\nscenario: %s\nmerge: %s\nheap: %s", i, doc, got, exp)
		}
		if !merged.Pass {
			t.Fatalf("scenario %d verdict failed: %v", i, merged.Failures)
		}
		switch {
		case sc.Horizon.Duration > 0 && merged.VirtualEnd == sc.Horizon:
			cut++
		case sc.Horizon.Duration == 0:
			drained++
		}
		if merged.LostFlows > 0 {
			lost++
		}
	}
	if cut == 0 || drained == 0 || lost == 0 {
		t.Fatalf("generator lost coverage: %d horizon cuts, %d drained runs, %d lossy runs of %d", cut, drained, lost, n)
	}
}

// The example CI scenario reproduces the digest the repository records
// next to it — the same value the Makefile, CI and perfbench check.
func TestCISmokeDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-arrival run")
	}
	want, err := os.ReadFile("../../examples/fleetsim/ci-smoke.digest")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenario("../../examples/fleetsim/ci-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	res := runFleet(t, sc)
	if !res.Pass {
		t.Fatalf("verdict failed: %v", res.Failures)
	}
	if got := strings.TrimSpace(string(want)); res.Digest != got {
		t.Fatalf("ci-smoke digest %s, recorded %s", res.Digest, got)
	}
}

// Flow mode allocates nothing per arrival: Run's malloc count does not
// grow with the arrival count, faults and reroutes included.
func TestFleetSimRunAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	mallocs := func(flows int) uint64 {
		sc := Scenario{
			Name:     "allocs",
			Seed:     3,
			Topology: TopologySpec{Kind: "leafspine", Spines: 4, Leaves: 16, HostsPerLeaf: 4},
			Workload: WorkloadSpec{Kind: "poisson", Flows: flows, RatePerSec: 1e6, MeanPackets: 4},
			Faults: []FaultSpec{
				{At: Duration{time.Millisecond}, Kind: FaultLinkDown, Node: "leaf-0", Peer: "spine-0"},
				{At: Duration{2 * time.Millisecond}, Kind: FaultSwitchDown, Node: "spine-1"},
				{At: Duration{3 * time.Millisecond}, Kind: FaultCtrlFailover},
				{At: Duration{5 * time.Millisecond}, Kind: FaultLinkUp, Node: "leaf-0", Peer: "spine-0"},
			},
			Reconvergence: Duration{time.Millisecond},
		}.withDefaults()
		s, err := NewFleetSim(sc)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Run(time.Minute)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass || res.LostFlows == 0 || res.ReroutedFlows == 0 {
			t.Fatalf("%d flows: pass %v, lost %d, rerouted %d: the faults did not bite",
				flows, res.Pass, res.LostFlows, res.ReroutedFlows)
		}
		return after.Mallocs - before.Mallocs
	}
	small, large := mallocs(10_000), mallocs(100_000)
	if large > small+8 {
		t.Fatalf("Run made %d mallocs at 10k flows and %d at 100k: arrivals allocate", small, large)
	}
}
