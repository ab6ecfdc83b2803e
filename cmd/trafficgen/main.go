// Command trafficgen runs the E2 throughput sweep without the Go
// bench harness: it pushes frames of each RFC 2544 size through (a)
// a bare software switch and (b) the full HARMLESS chain, and prints
// packets/s, Gbit/s and the relative penalty — the table behind the
// paper's "no major performance penalty" claim.
//
// -batch N drives the switch through the batched dataplane API
// (ReceiveBatch with N-frame vectors, ring egress backend on the bare
// path) instead of frame-by-frame netem injection; -workers N runs the
// poll-mode worker runtime — N producers feeding N RSS-sharded workers
// on the bare path, and the pool interposed on SS_1's trunk ingress in
// the chain; -cpuprofile writes a pprof profile of the measurement
// loops.
//
// -flows N switches to the telemetry exercise mode instead of the E2
// sweep: a heavy-hitter + mouse-churn flow mix (N concurrently active
// short-lived flows over a few elephants) runs for -duration with the
// flow-telemetry plane attached, so aggregation, the active/idle
// export timers and the 1-in-N sampler face realistic flow dynamics.
// It prints live telemetry state each second, the top talkers at the
// end, and verifies exported totals against the datapath counters;
// -telemetry-export additionally ships the IPFIX records to a real
// collector (see cmd/flowtop).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/harmless"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	ssruntime "github.com/harmless-sdn/harmless/internal/softswitch/runtime"
)

func main() {
	duration := flag.Duration("duration", 500*time.Millisecond, "measurement time per cell (or total time in -flows mode)")
	specialize := flag.Bool("specialize", true, "enable the ESwitch-style fast path")
	batch := flag.Int("batch", 1, "frames per ReceiveBatch vector (1 = per-frame Receive)")
	workers := flag.Int("workers", 0, "poll-mode workers (and producers) driving the datapath (0 = single caller thread)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	flows := flag.Int("flows", 0, "telemetry mix mode: N active short-lived flows churning over heavy hitters (0 = run the E2 sweep)")
	elephants := flag.Int("elephants", 4, "long-lived heavy-hitter flows in the -flows mix")
	mouseLife := flag.Int("mouse-life", 32, "packets each short-lived flow emits before being replaced")
	sampleRate := flag.Int("sample-rate", 64, "sFlow-style 1-in-N packet sampling in the -flows mix (0 = off)")
	export := flag.String("telemetry-export", "", "also ship IPFIX records to this UDP collector address in -flows mode")
	flag.Parse()

	if *batch < 1 {
		fatal("-batch must be >= 1")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	if *flows > 0 {
		runMix(mixConfig{
			flows: *flows, elephants: *elephants, mouseLife: *mouseLife,
			duration: *duration, workers: *workers, batch: *batch,
			sampleRate: *sampleRate, specialize: *specialize, export: *export,
		})
		return
	}

	fmt.Printf("batch=%d workers=%d\n", *batch, *workers)
	fmt.Printf("%-8s %-22s %-22s %-10s\n", "frame", "bare softswitch", "HARMLESS chain", "penalty")
	for _, size := range fabric.FrameSizes {
		var barePPS float64
		if *workers > 0 {
			barePPS = measureBareWorkers(size, *duration, *specialize, *workers)
		} else {
			barePPS = measureBare(size, *duration, *specialize, *batch)
		}
		harmPPS := measureHARMLESS(size, *duration, *specialize, *batch, *workers)
		penalty := 1 - harmPPS/barePPS
		fmt.Printf("%-8d %10.0f pps %5.2f Gb/s %10.0f pps %5.2f Gb/s %8.1f%%\n",
			size,
			barePPS, gbps(barePPS, size),
			harmPPS, gbps(harmPPS, size),
			penalty*100)
	}
}

func gbps(pps float64, size int) float64 { return pps * float64(size) * 8 / 1e9 }

// measureBare drives a two-port switch with the ring egress backend:
// nothing but the datapath in the measured loop.
func measureBare(size int, d time.Duration, specialize bool, batch int) float64 {
	sw := softswitch.New("bare", 1, softswitch.WithSpecialization(specialize))
	in := netem.NewLink(netem.LinkConfig{})
	defer in.Close()
	sw.AttachNetPort(1, "in", in.A())
	ring := softswitch.NewRingBackend(4096)
	sw.AttachPort(2, "out", ring)
	m := openflow.Match{}
	m.WithInPort(1)
	if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 10,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
		}},
	}); err != nil {
		fatal("flow: %v", err)
	}
	// At least one distinct flow (and buffer) per batch slot: frames of
	// one vector must not alias, since each frame's ownership transfers
	// to the switch.
	nFlows := 64
	if batch > nFlows {
		nFlows = batch
	}
	gen := fabric.NewUDPGenerator(size, nFlows, 42)
	var vec, sink [][]byte
	return measure(d, batch, func() {
		if batch == 1 {
			sw.Receive(1, gen.Next())
		} else {
			vec = gen.NextBatch(vec, batch)
			sw.ReceiveBatch(1, vec)
		}
		sink = ring.Ring().Drain(sink[:0], 0)
	})
}

// discardBackend swallows egress frames, counting them: the bare
// worker measurement wants nothing but datapath and pool in the
// measured loop (no egress ring to drain from outside).
type discardBackend struct {
	frames atomic.Uint64
}

func (db *discardBackend) Transmit([]byte) { db.frames.Add(1) }
func (db *discardBackend) TransmitBatch(fs [][]byte) {
	db.frames.Add(uint64(len(fs)))
}

// measureBareWorkers drives the bare switch through the poll-mode
// worker pool: `workers` producer goroutines dispatch flows into the
// RSS-sharded rings, `workers` run-to-completion workers drain them.
// Reported pps is aggregate frames processed over wall time.
func measureBareWorkers(size int, d time.Duration, specialize bool, workers int) float64 {
	sw := softswitch.New("bare", 1, softswitch.WithSpecialization(specialize))
	sink := &discardBackend{}
	sw.AttachPort(2, "out", sink)
	m := openflow.Match{}
	m.WithInPort(1)
	if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 10,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
		}},
	}); err != nil {
		fatal("flow: %v", err)
	}
	pool := ssruntime.New(sw, ssruntime.Config{Workers: workers})
	pool.Start()
	defer pool.Stop()

	// Warm the cache with every flow before the clock starts; the
	// warm-up frames are excluded from the reported rate via base.
	warmGen := fabric.NewUDPGenerator(size, 256, 42)
	for i := 0; i < warmGen.Len(); i++ {
		for !pool.Dispatch(1, warmGen.Next()) {
		}
	}
	pool.Drain()
	base := pool.Stats().Frames

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen := fabric.NewUDPGenerator(size, 256, 42)
			for time.Now().Before(deadline) {
				for i := 0; i < 256; i++ {
					for !pool.Dispatch(1, gen.Next()) {
						// ring full: workers are the bottleneck, retry
					}
				}
			}
		}(p)
	}
	wg.Wait()
	pool.Drain()
	elapsed := time.Since(start)
	return float64(pool.Stats().Frames-base) / elapsed.Seconds()
}

func measureHARMLESS(size int, d time.Duration, specialize bool, batch, workers int) float64 {
	dep, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts:   4,
		Apps:       []controller.App{&apps.Learning{Table: 0}},
		Specialize: specialize,
	})
	if err != nil {
		fatal("deploy: %v", err)
	}
	defer dep.Close()
	if err := dep.WaitConnected(5 * time.Second); err != nil {
		fatal("controller: %v", err)
	}
	// With workers, trunk rx into SS_1 goes through the RSS-sharded
	// pool instead of running inline on the injecting goroutine — the
	// same interposition harmlessd -workers performs.
	var pool *ssruntime.Pool
	if workers > 0 {
		pool = ssruntime.New(dep.S4.SS1, ssruntime.Config{Workers: workers})
		pool.Start()
		defer pool.Stop()
		trunk := dep.TrunkLink.B()
		trunk.SetReceiver(func(frame []byte) { pool.Dispatch(harmless.SS1TrunkPort, frame) })
		trunk.SetBatchReceiver(func(frames [][]byte) { pool.DispatchBatch(harmless.SS1TrunkPort, frames) })
	}
	// Warm flows in both directions.
	for i := 0; i < 2; i++ {
		if err := dep.Hosts[1].Ping(dep.Hosts[2].IP, 2*time.Second); err != nil {
			fatal("warmup: %v", err)
		}
	}
	payloadLen := size - pkt.EthernetHeaderLen - pkt.IPv4MinHeaderLen - pkt.UDPHeaderLen
	if payloadLen < 0 {
		payloadLen = 0
	}
	payload := make(pkt.Payload, payloadLen)
	frame, err := pkt.Serialize(
		&pkt.Ethernet{Src: fabric.HostMAC(1), Dst: fabric.HostMAC(2), EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: fabric.HostIP(1), Dst: fabric.HostIP(2)},
		&pkt.UDP{SrcPort: 7, DstPort: 8},
		&payload,
	)
	if err != nil {
		fatal("frame: %v", err)
	}
	h1 := dep.Hosts[1]
	// Distinct send buffers per batch slot: frames of one vector must
	// not alias. Each send hands its buffers over to the chain, which
	// may rewrite them in place, so every send refills them from the
	// template frame first.
	vec := make([][]byte, batch)
	for i := range vec {
		vec[i] = make([]byte, len(frame))
	}
	send := func() {
		for _, f := range vec {
			copy(f, frame)
		}
		if batch == 1 {
			h1.SendRaw(vec[0])
			return
		}
		h1.SendRawBatch(vec)
	}
	if pool == nil {
		return measure(d, batch, send)
	}
	// Worker mode: the send loop only queues into the RSS rings, so
	// count what the workers actually PROCESSED, not what was sent
	// (ring tail drops under overload must not inflate the result).
	pool.Drain()
	base := pool.Stats().Frames
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 64; i++ {
			send()
		}
	}
	pool.Drain()
	elapsed := time.Since(start)
	return float64(pool.Stats().Frames-base) / elapsed.Seconds()
}

// measure runs fn (which moves `batch` frames) in a tight loop for
// duration d and returns frames/s.
func measure(d time.Duration, batch int, fn func()) float64 {
	// Warm up.
	for i := 0; i < 1000/batch+1; i++ {
		fn()
	}
	start := time.Now()
	n := 0
	inner := 256 / batch
	if inner < 1 {
		inner = 1
	}
	for time.Since(start) < d {
		for i := 0; i < inner; i++ {
			fn()
		}
		n += inner * batch
	}
	return float64(n) / time.Since(start).Seconds()
}

func fatal(format string, args ...any) {
	// os.Exit skips the deferred StopCPUProfile; flush the profile so
	// a failing run still leaves a readable one. No-op when profiling
	// never started.
	pprof.StopCPUProfile()
	fmt.Fprintf(os.Stderr, "trafficgen: "+format+"\n", args...)
	os.Exit(1)
}
