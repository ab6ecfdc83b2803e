package main

import (
	_ "embed"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/sim"
)

// fleetScenario is examples/fleetsim/ci-smoke.json, frozen here so the
// benchmark's input cannot drift with the example: a 1040-switch
// leaf-spine, 1M heavy-hitter arrivals, link-down and controller
// failover faults, flow mode.
//
//go:embed ci-smoke.json
var fleetScenario []byte

const (
	// fleetFileSeed is the scenario file's own seed, and fleetFileDigest
	// the verdict digest the repository records for it.
	fleetFileSeed   = 20170822
	fleetFileDigest = "7484706118725855839fce0d70922cf2d9fde4a03fae433387d2b3afc58fbbb0"
	fleetWallBudget = time.Minute
	// routeChunk is how many arrivals the traced run generates before
	// timing their routes.
	routeChunk = 1 << 16
)

// fleetConfig is the scenario under test and the digest its file seed
// must reproduce; the self-test swaps in a wrong digest.
type fleetConfig struct {
	scenario []byte
	digest   string
}

func defaultFleet() fleetConfig { return fleetConfig{scenario: fleetScenario, digest: fleetFileDigest} }

// fleetRun is one timed NewFleetSim + Run.
type fleetRun struct {
	res            sim.Result
	setupS, wallUs float64
	heapMB         float64 // live heap at the end of the Run
}

// runScenario loads the scenario with the given seed, builds the
// simulator (set-up) and runs it, starting from a collected heap so
// every Run sees the same memory state. After the Run it collects
// again while the simulator is still reachable: what stays live is
// the state the Run built up from its input.
func runScenario(doc []byte, seed int64) (fleetRun, error) {
	runtime.GC()
	t0 := time.Now()
	sc, err := sim.ParseScenario(doc)
	if err != nil {
		return fleetRun{}, err
	}
	sc.Seed = seed
	fs, err := sim.NewFleetSim(sc)
	if err != nil {
		return fleetRun{}, err
	}
	t1 := time.Now()
	res, err := fs.Run(fleetWallBudget)
	if err != nil {
		return fleetRun{}, err
	}
	t2 := time.Now()
	heapMB := liveHeapMB()
	runtime.KeepAlive(fs)
	return fleetRun{res: res, setupS: t1.Sub(t0).Seconds(), wallUs: float64(t2.Sub(t1).Microseconds()), heapMB: heapMB}, nil
}

// verdictOK reports whether a Run's conservation checks passed.
func verdictOK(fr fleetRun) bool {
	if !fr.res.Pass {
		fmt.Fprintf(os.Stderr, "perfbench: fleet-sim seed %d verdict failed: %v\n", fr.res.Seed, fr.res.Failures)
	}
	return fr.res.Pass
}

func runFleet(rc runConfig, fc fleetConfig) (result, error) {
	var r result
	// Gate: the file's own seed reproduces the recorded digest.
	fileRun, err := runScenario(fc.scenario, fleetFileSeed)
	if err != nil {
		return result{}, err
	}
	r.Attempted++
	if !verdictOK(fileRun) || fileRun.res.Digest != fc.digest {
		fmt.Fprintf(os.Stderr, "perfbench: fleet-sim seed %d digest %s, want %s\n", fleetFileSeed, fileRun.res.Digest, fc.digest)
		r.Failed++
	}
	if rc.trace {
		return traceFleet(rc, fc, r)
	}

	// Timed Runs on the benchmark's seed. Every Run must pass its
	// checks and reproduce the first Run's digest bitwise.
	var runs []fleetRun
	end := time.Now().Add(rc.duration)
	for len(runs) == 0 || time.Now().Before(end) {
		fr, err := runScenario(fc.scenario, rc.seed)
		if err != nil {
			return result{}, err
		}
		r.Attempted++
		want := fr.res.Digest
		if len(runs) > 0 {
			want = runs[0].res.Digest
		}
		if !verdictOK(fr) || fr.res.Digest != want {
			if fr.res.Pass {
				fmt.Fprintf(os.Stderr, "perfbench: fleet-sim seed %d digest %s differs from the first Run's\n", rc.seed, fr.res.Digest)
			}
			r.Failed++
		}
		runs = append(runs, fr)
	}
	// A Run is fleet-sim's window, holding one operation: the Run's
	// wall time is that window's 50th and 99th percentile alike.
	// Figures are the slow-window values of passStats.
	var setups, walls, rates []float64
	var peak float64
	for _, fr := range runs {
		peak = max(peak, fr.heapMB)
		setups = append(setups, fr.setupS)
		walls = append(walls, fr.wallUs)
		rates = append(rates, float64(fr.res.OfferedFlows)/(fr.wallUs/1e6))
	}
	r.set("setup_s", median(setups))
	r.set("throughput_per_s", slowRate(rates))
	r.set("lat_p50_us", slowTime(walls))
	r.set("lat_p99_us", slowTime(walls))
	r.set("peak_heap_mb", peak)
	r.set("success_frac", 1-ratio(float64(r.Failed), float64(r.Attempted)))
	r.finish()
	return r, nil
}

// traceFleet splits a Run's time per arrival into the fabric workload
// generator, fabric routing and the remainder, the sim engine. The
// generator and the routes are timed in isolation on the same
// scenario and seed, in chunks so the clock is read twice per chunk,
// not per call. Rounds repeat for the run's time and each figure is
// the median over rounds; allocation figures come from the first
// Run.
func traceFleet(rc runConfig, fc fleetConfig, r result) (result, error) {
	tr := newTracer(1 << 14)
	var nexts, routes, engines []float64
	end := time.Now().Add(rc.duration)
	for round := uint64(0); round == 0 || time.Now().Before(end); round++ {
		var alloc *allocDelta
		if round == 0 {
			alloc = startAllocDelta()
		}
		t0 := nanotime()
		fr, err := runScenario(fc.scenario, rc.seed)
		if err != nil {
			return result{}, err
		}
		tr.record(spanRun, round<<32, t0, nanotime())
		arrivals := float64(fr.res.OfferedFlows)
		if alloc != nil {
			objects, bytes, gcs := alloc.perUnit(arrivals)
			r.set("alloc.objects_per_frame", objects)
			r.set("alloc.bytes_per_frame", bytes)
			r.set("gc.cycles_per_mframe", gcs)
		}
		r.Attempted++
		if !verdictOK(fr) {
			r.Failed++
		}
		nextNs, routeNs, n, err := isolatedRoutes(fc.scenario, rc.seed, tr, round<<32)
		if err != nil {
			return result{}, err
		}
		// The isolated stream must be the one the Run consumed.
		r.Attempted++
		if n != int64(fr.res.OfferedFlows) {
			fmt.Fprintf(os.Stderr, "perfbench: fleet-sim workload yielded %d arrivals, the Run offered %d\n", n, fr.res.OfferedFlows)
			r.Failed++
		}
		next, route := ratio(float64(nextNs), arrivals), ratio(float64(routeNs), arrivals)
		nexts = append(nexts, next)
		routes = append(routes, route)
		engines = append(engines, fr.wallUs*1e3/arrivals-next-route)
	}
	r.set("fabric.workload_next_ns", median(nexts))
	r.set("fabric.route_ns", median(routes))
	r.set("sim.engine_ns", median(engines))

	spans := tr.recorded()
	self := analyze(spans)
	path, err := writeSpans(rc.traceDir, "fleet-sim", rc.seed, spans, self)
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	r.zeroLayers()
	r.finish()
	return r, nil
}

// isolatedRoutes generates the scenario's arrival stream and routes
// every arrival, timing the two apart chunk by chunk. It returns the
// nanoseconds spent in Next and in RouteInto and the arrival count.
func isolatedRoutes(doc []byte, seed int64, tr *tracer, id uint64) (nextNs, routeNs, n int64, err error) {
	sc, err := sim.ParseScenario(doc)
	if err != nil {
		return 0, 0, 0, err
	}
	sc.Seed = seed
	topo, err := sc.Topology.Build()
	if err != nil {
		return 0, 0, 0, err
	}
	wl, err := sc.Workload.Build(len(topo.HostIDs), sc.Seed)
	if err != nil {
		return 0, 0, 0, err
	}
	chunk := make([]fabric.FlowArrival, 0, routeChunk)
	path := make([]int, 0, 8)
	for done := false; !done; {
		id++
		chunk = chunk[:0]
		s := nanotime()
		for len(chunk) < routeChunk {
			a, ok := wl.Next()
			if !ok {
				done = true
				break
			}
			chunk = append(chunk, a)
		}
		m := nanotime()
		for _, a := range chunk {
			path, _ = topo.RouteInto(path[:0], topo.HostIDs[a.Src], topo.HostIDs[a.Dst], a.FlowID*0x9e3779b97f4a7c15)
		}
		e := nanotime()
		tr.record(spanNext, id, s, m)
		tr.record(spanRoute, id, m, e)
		nextNs += m - s
		routeNs += e - m
		n += int64(len(chunk))
	}
	return nextNs, routeNs, n, nil
}
