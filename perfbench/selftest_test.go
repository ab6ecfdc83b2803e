package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/netem"
)

// The self-test proves that the benchmark's correctness gates hold on
// the default deployment and trip when the program under test is
// broken on purpose. Run it from this directory with go test ./...

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1) // as the benchmark runs
	os.Exit(m.Run())
}

func short(d time.Duration) runConfig { return runConfig{seed: 7, duration: d} }

func TestDefaultChainPassesGates(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rc := short(400 * time.Millisecond)
		rc.trace, rc.traceDir = traced, t.TempDir()
		r, err := runFastpath(rc, defaultChain())
		if err != nil {
			t.Fatalf("trace=%v: %v", traced, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d, want a clean pass", traced, r.Correct, r.Attempted, r.Failed)
		}
		if err := checkMetricSet(r.Metrics, traced); err != nil {
			t.Errorf("trace=%v: %v", traced, err)
		}
	}
}

func TestLossyChainIsRejected(t *testing.T) {
	cc := chainConfig{link: netem.LinkConfig{LossProb: 0.01, Seed: 1}}
	r, err := runFastpath(short(200*time.Millisecond), cc)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up accounts for at most one failure; the rest must be
	// frames the delivery gate found missing.
	if r.Correct || r.Failed < 2 {
		t.Errorf("lossy chain: correct=%v failed=%d of %d, want lost frames counted", r.Correct, r.Failed, r.Attempted)
	}
}

func TestChainWithoutLearningAppFailsEverySetup(t *testing.T) {
	cc := chainConfig{controller: func() *controller.Controller { return controller.New(nil) }}
	c, _, warmErr, err := setupChain(cc, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c.dep.Close()
	if warmErr == nil {
		t.Error("warm-up succeeded without a learning app")
	}
	tap := &probeTap{}
	tap.install(c)
	st := c.flowsetupPass(300*time.Millisecond, 7, tap)
	if st.setups == 0 || st.failed != st.setups {
		t.Errorf("%d of %d setups failed, want all", st.failed, st.setups)
	}
	var r result
	c.gateSetups(&r, &st, c.rxAll())
	if r.Failed < st.setups {
		t.Errorf("gate counted %d failures for %d failed setups", r.Failed, st.setups)
	}
}

func TestFleetDigestGate(t *testing.T) {
	good, err := runFleet(runConfig{seed: 3, duration: time.Nanosecond}, defaultFleet())
	if err != nil {
		t.Fatal(err)
	}
	if !good.Correct || good.Attempted != 2 {
		t.Errorf("recorded digest: correct=%v attempted=%d failed=%d, want a clean pass of 2 Runs", good.Correct, good.Attempted, good.Failed)
	}
	bad := defaultFleet()
	bad.digest = "0000000000000000000000000000000000000000000000000000000000000000"
	r, err := runFleet(runConfig{seed: 3, duration: time.Nanosecond}, bad)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed != 1 {
		t.Errorf("wrong digest: correct=%v failed=%d, want exactly the digest check failed", r.Correct, r.Failed)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		if !slices.Contains(names, n) {
			t.Errorf("workload %s missing from BENCHMARK.json", n)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %d workloads", names, len(workloads))
	}
	if !slices.Equal(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %v\nprogram        %v", doc.EndToEnd, endToEnd)
	}
	if !slices.Equal(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %v\nprogram        %v", doc.PerLayer, perLayer)
	}
}

func (d *metricDef) UnmarshalJSON(b []byte) error {
	var v struct{ Name, Unit, Better string }
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*d = metricDef{v.Name, v.Unit, v.Better}
	return nil
}

func TestAnalyzeSelfTimes(t *testing.T) {
	// Frame 1: send [0,100) > legacy.ingress [10,90) > s4 [20,60);
	// frame 2 interleaves in time on another goroutine.
	spans := []span{
		{frame: 1, start: 20, end: 60, name: spanS4},
		{frame: 2, start: 15, end: 40, name: spanLegacyOut},
		{frame: 1, start: 10, end: 90, name: spanLegacyIn},
		{frame: 1, start: 0, end: 100, name: spanSend},
		{frame: 2, start: 20, end: 30, name: spanHostRx},
	}
	for i := range spans {
		spans[i].parent = -1
	}
	self := analyze(spans)
	want := map[spanName]int64{spanSend: 20, spanLegacyIn: 40, spanS4: 40, spanLegacyOut: 15, spanHostRx: 10}
	for i, s := range spans {
		if self[i] != want[s.name] {
			t.Errorf("%s self = %d, want %d", spanNames[s.name], self[i], want[s.name])
		}
		root := s.name == spanSend || s.name == spanLegacyOut
		if root != (s.parent < 0) {
			t.Errorf("%s parent = %d", spanNames[s.name], s.parent)
		}
	}
	b := chainBudget(spans, self)
	if b.frames != 1 || b.total() != 100 {
		t.Errorf("budget frames=%d total=%v, want 1 frame of 100 ns", b.frames, b.total())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram()
	for v := int64(1); v <= 1_000_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got, want := h.quantile(q), q*1e6
		if math.Abs(got-want)/want > 2.0/1024 {
			t.Errorf("q%.2f = %v, want %v within 1/512", q, got, want)
		}
	}
}
