package main

import (
	"encoding/binary"

	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// The chain: a 9-port legacy switch with hosts on ports 1..8 in four
// pairs (1,2) (3,4) (5,6) (7,8) and its trunk on port 9 towards the
// S4 node. All links are synchronous in-memory netem links, so one
// Host.SendRaw call carries its frame the whole way:
// host -> legacy -> trunk -> SS_1 -> patch -> SS_2 -> back -> host.
const (
	chainPorts   = 9
	chainHosts   = chainPorts - 1
	frameSize    = 64
	flowsPerPair = 64
	// idOffset is where the benchmark writes each frame's id: the first
	// payload byte of an untagged IPv4/UDP frame (14 + 20 + 8).
	idOffset = pkt.EthernetHeaderLen + pkt.IPv4MinHeaderLen + pkt.UDPHeaderLen
	// setupRepeats is how many times set-up runs per benchmark run;
	// setup_s is their median.
	setupRepeats = 5
	// warmStepTimeout bounds each warm-up delivery; warm-up stops at the
	// first step that misses it.
	warmStepTimeout = 500 * time.Millisecond
)

var epoch = time.Now()

// nanotime reads the monotonic clock, in ns since start.
func nanotime() int64 { return int64(time.Since(epoch)) }

func pairOf(port int) int { return (port - 1) / 2 }

// chainConfig is the deployment under test. The zero value is the
// default deployment harmlessd runs: synchronous lossless links, the
// in-process learning controller, no specialization, default cache.
// The self-test breaks it on purpose through these fields.
type chainConfig struct {
	link netem.LinkConfig
	// controller, when set, replaces the learning controller.
	controller func() *controller.Controller
}

func defaultChain() chainConfig { return chainConfig{} }

// flow is one seeded 5-tuple between two hosts of a pair.
type flow struct {
	src, dst int
	frame    []byte // template, never sent
	buf      []byte // send buffer, refilled from frame before each send
}

type chain struct {
	dep        *fabric.Deployment
	hosts      [chainPorts]*fabric.Host // by legacy access port
	hostSide   [chainPorts]*netem.Port  // host end of each host link
	legacySide [chainPorts]*netem.Port  // legacy end of each host link
	flows      []flow
	nextID     uint64
}

// buildChain assembles and warms one deployment. The returned warm-up
// error is not fatal: a chain that failed to warm is still measured,
// and its gates count what goes wrong.
func buildChain(cc chainConfig, seed int64) (c *chain, warmErr, err error) {
	dc := fabric.DeployConfig{NumPorts: chainPorts, LinkConfig: cc.link}
	if cc.controller != nil {
		dc.Controller = cc.controller()
	} else {
		dc.Apps = []controller.App{&apps.Learning{Table: 0}}
	}
	dep, err := fabric.BuildDeployment(dc)
	if err != nil {
		return nil, nil, fmt.Errorf("build deployment: %w", err)
	}
	if err := dep.WaitConnected(5 * time.Second); err != nil {
		dep.Close()
		return nil, nil, err
	}
	c = &chain{dep: dep, flows: seededFlows(seed), nextID: 1}
	for p := 1; p <= chainHosts; p++ {
		c.hosts[p] = dep.Hosts[p]
	}
	for _, l := range dep.Links {
		var p int
		if _, err := fmt.Sscanf(l.B().Name(), "host%d/B", &p); err != nil || p < 1 || p > chainHosts {
			dep.Close()
			return nil, nil, fmt.Errorf("unexpected host link %s", l.B().Name())
		}
		c.hostSide[p], c.legacySide[p] = l.B(), l.A()
	}
	return c, c.warm(), nil
}

// setupChain builds the deployment setupRepeats times, timing each
// build + controller connect + warm-up, and keeps the last one.
func setupChain(cc chainConfig, seed int64) (c *chain, setupS float64, warmErr, err error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.dep.Close()
		}
		t0 := time.Now()
		c, warmErr, err = buildChain(cc, seed)
		if err != nil {
			return nil, 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return c, median(times), warmErr, nil
}

// seededFlows draws flowsPerPair distinct UDP 5-tuples per host pair,
// half in each direction, shuffled so consecutive frames visit
// different pairs. Frames come from the fabric generator.
func seededFlows(seed int64) []flow {
	rng := rand.New(rand.NewSource(seed))
	type key struct {
		src    int
		sp, dp uint16
	}
	seen := make(map[key]bool)
	var specs []fabric.FlowSpec
	var ends [][2]int
	for a := 1; a <= chainHosts; a += 2 {
		for i := 0; i < flowsPerPair; i++ {
			src, dst := a, a+1
			if i%2 == 1 {
				src, dst = dst, src
			}
			k := key{src, uint16(1024 + rng.Intn(64511)), uint16(1024 + rng.Intn(64511))}
			if seen[k] {
				i--
				continue
			}
			seen[k] = true
			specs = append(specs, fabric.FlowSpec{
				SrcMAC: fabric.HostMAC(src), DstMAC: fabric.HostMAC(dst),
				SrcIP: fabric.HostIP(src), DstIP: fabric.HostIP(dst),
				Sport: k.sp, Dport: k.dp,
			})
			ends = append(ends, [2]int{src, dst})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) {
		specs[i], specs[j] = specs[j], specs[i]
		ends[i], ends[j] = ends[j], ends[i]
	})
	gen := fabric.NewFlowGenerator(frameSize, specs)
	if gen.Len() != len(specs) {
		panic("perfbench: flow generator dropped a flow")
	}
	flows := make([]flow, len(specs))
	for i := range flows {
		f := append([]byte(nil), gen.Next()...)
		// The benchmark rewrites the payload with a frame id, so it
		// sends without a UDP checksum (0 = none, RFC 768).
		binary.BigEndian.PutUint16(f[pkt.EthernetHeaderLen+pkt.IPv4MinHeaderLen+6:], 0)
		flows[i] = flow{src: ends[i][0], dst: ends[i][1], frame: f, buf: make([]byte, len(f))}
	}
	return flows
}

// frameID reads the id the benchmark wrote into a frame, skipping one
// VLAN tag if present (frames on the trunk are tagged); 0 if the
// frame carries none.
func frameID(f []byte) uint64 {
	off := idOffset
	if len(f) >= 14 && binary.BigEndian.Uint16(f[12:14]) == pkt.EtherTypeDot1Q {
		off += pkt.Dot1QHeaderLen
	}
	if len(f) < off+8 {
		return 0
	}
	return binary.LittleEndian.Uint64(f[off:])
}

// stamp refills a flow's send buffer and writes a fresh id into it.
func (c *chain) stamp(f *flow) uint64 {
	copy(f.buf, f.frame)
	id := c.nextID
	c.nextID++
	binary.LittleEndian.PutUint64(f.buf[idOffset:], id)
	return id
}

// fresh returns a private copy of a flow's frame with a fresh id, for
// frames that may be held after SendRaw returns (packet-in path).
func (c *chain) fresh(f *flow) ([]byte, uint64) {
	id := c.stamp(f)
	return append([]byte(nil), f.buf...), id
}

func (c *chain) rx(port int) int64 {
	rx, _ := c.hosts[port].Stats()
	return int64(rx)
}

// rxAll returns every host's received-frame count.
func (c *chain) rxAll() (out [chainPorts]int64) {
	for p := 1; p <= chainHosts; p++ {
		out[p] = c.rx(p)
	}
	return out
}

// waitFor spins (yielding to the control-plane goroutines) until cond
// holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// warm teaches the legacy switch and the learning app every host: per
// pair a->b (flooded, learns a), b->a (learns b, installs the flow to
// a), a->b (installs the flow to b). It then sends every flow once and
// requires delivery without a packet-in.
func (c *chain) warm() error {
	first := make(map[[2]int]*flow)
	for i := range c.flows {
		f := &c.flows[i]
		if first[[2]int{f.src, f.dst}] == nil {
			first[[2]int{f.src, f.dst}] = f
		}
	}
	for a := 1; a <= chainHosts; a += 2 {
		b := a + 1
		for _, step := range [][2]int{{a, b}, {b, a}, {a, b}} {
			f := first[step]
			before := c.rx(f.dst)
			frame, _ := c.fresh(f)
			c.hosts[f.src].SendRaw(frame)
			if !waitFor(warmStepTimeout, func() bool { return c.rx(f.dst) > before }) {
				return fmt.Errorf("warm-up: host %d -> %d not delivered", f.src, f.dst)
			}
		}
	}
	ss2 := c.dep.S4.SS2
	pi0 := ss2.PacketIns()
	before := c.rxAll()
	var want [chainPorts]int64
	for i := range c.flows {
		f := &c.flows[i]
		frame, _ := c.fresh(f)
		c.hosts[f.src].SendRaw(frame)
		want[f.dst]++
	}
	after := c.rxAll()
	for p := 1; p <= chainHosts; p++ {
		if after[p]-before[p] != want[p] {
			return fmt.Errorf("warm-up: host %d received %d of %d frames", p, after[p]-before[p], want[p])
		}
	}
	if n := ss2.PacketIns() - pi0; n != 0 {
		return fmt.Errorf("warm-up: %d packet-ins after all flows were learned", n)
	}
	return nil
}

// settleRx waits until the hosts' rx counters stop moving (frames
// still on the control path after a gate already failed) and returns
// the final counts.
func (c *chain) settleRx(want [chainPorts]int64, base [chainPorts]int64) [chainPorts]int64 {
	got := c.rxAll()
	complete := func(g [chainPorts]int64) bool {
		for p := 1; p <= chainHosts; p++ {
			if g[p]-base[p] < want[p] {
				return false
			}
		}
		return true
	}
	for i := 0; i < 20 && !complete(got); i++ {
		time.Sleep(10 * time.Millisecond)
		got = c.rxAll()
	}
	return got
}

// undelivered counts frames offered to each host and not received.
func undelivered(want, base, got [chainPorts]int64) int64 {
	var n int64
	for p := 1; p <= chainHosts; p++ {
		if d := want[p] - (got[p] - base[p]); d > 0 {
			n += d
		}
	}
	return n
}

// counters is a snapshot of the chain's datapath counters.
type counters struct {
	ss1Hits, ss1Lookups, ss2Hits, ss2Lookups uint64
	ss2Invalidations, ss2PacketIns, drops    uint64
	trunkTx                                  uint64
}

func (c *chain) counters() counters {
	s4 := c.dep.S4
	var k counters
	if cs := s4.SS1.CacheStats(); cs != nil {
		k.ss1Hits = cs.Hits.Load()
		k.ss1Lookups = cs.Hits.Load() + cs.Misses.Load() + cs.Bypassed.Load()
	}
	if cs := s4.SS2.CacheStats(); cs != nil {
		k.ss2Hits = cs.Hits.Load()
		k.ss2Lookups = cs.Hits.Load() + cs.Misses.Load() + cs.Bypassed.Load()
		k.ss2Invalidations = cs.Invalidations.Load()
	}
	k.ss2PacketIns = s4.SS2.PacketIns()
	k.drops = s4.SS1.Drops() + s4.SS2.Drops()
	k.trunkTx = c.dep.TrunkLink.A().Counters().TxPackets.Load() + c.dep.TrunkLink.B().Counters().TxPackets.Load()
	return k
}

// setDatapathCounters reports the counter-derived per-layer metrics
// of a pass that moved frames frames.
func setDatapathCounters(r *result, before, after counters, frames float64) {
	r.set("softswitch.ss1_hit_ratio", ratio(float64(after.ss1Hits-before.ss1Hits), float64(after.ss1Lookups-before.ss1Lookups)))
	r.set("softswitch.ss2_hit_ratio", ratio(float64(after.ss2Hits-before.ss2Hits), float64(after.ss2Lookups-before.ss2Lookups)))
	r.set("softswitch.drops", float64(after.drops-before.drops))
	r.set("netem.trunk_frames_per_frame", ratio(float64(after.trunkTx-before.trunkTx), frames))
}
