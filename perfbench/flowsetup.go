package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
)

const (
	// setupPeriod is the open-loop schedule: one flow setup falls due
	// every period, whatever the previous one did.
	setupPeriod = time.Millisecond
	// setupTimeout fails a setup whose probe has not reached its
	// destination this long after it was sent. It runs from the send,
	// not from the due instant, so a host stall that makes a backlog of
	// setups late shows in their latency without failing them.
	setupTimeout = 100 * time.Millisecond
)

// probeTap notes when the armed probe frame reaches a host.
type probeTap struct {
	id atomic.Uint64
	at atomic.Int64
}

func (t *probeTap) install(c *chain) {
	for p := 1; p <= chainHosts; p++ {
		c.hostSide[p].WrapReceiver(func(next netem.Receiver) netem.Receiver {
			return func(f []byte) {
				if want := t.id.Load(); want != 0 && frameID(f) == want {
					t.at.CompareAndSwap(0, nanotime())
				}
				next(f)
			}
		})
	}
}

func (t *probeTap) arm(id uint64) {
	t.at.Store(0)
	t.id.Store(id)
}

// setupStats describes one flow-setup pass.
type setupStats struct {
	setups, failed int64
	extraPacketIns int64 // packet-ins no probe caused
	bgFrames       int64
	wallNs         int64
	bgSentTo       [chainPorts]int64
	probesTo       [chainPorts]int64 // delivered probes per host
	// per setup, us: due -> delivery, due -> start, the delete call,
	// the probe's SendRaw, and SendRaw return -> delivery
	latUs, lateUs, flowmodUs, syncUs, rttUs []float64
}

// flowsetupPass runs background traffic on the pairs not under setup
// and, on an open-loop schedule, one flow setup at a time: delete
// SS_2's learned flow to a destination with ApplyFlowMod, send one
// probe to it, and time the probe's packet-in -> learning app ->
// flow-mod + packet-out -> delivery round trip from the instant the
// setup fell due.
func (c *chain) flowsetupPass(dur time.Duration, seed int64, tap *probeTap) setupStats {
	ss2 := c.dep.S4.SS2
	var dsts []int
	for _, i := range rand.New(rand.NewSource(seed)).Perm(chainHosts) {
		dsts = append(dsts, i+1)
	}
	probeFlow := make(map[int]*flow) // by destination
	for i := range c.flows {
		if f := &c.flows[i]; probeFlow[f.dst] == nil {
			probeFlow[f.dst] = f
		}
	}

	var st setupStats
	pi0 := ss2.PacketIns()
	var probePacketIns int64
	start := nanotime()
	end := start + int64(dur)
	nextDue := start + int64(setupPeriod)
	next := 0 // index into dsts of the next setup
	var cur struct {
		active      bool
		dst         int
		due, sentAt int64
		packetIns   int64
	}
	k := 0
	for {
		now := nanotime()
		if !cur.active && now >= nextDue && now < end {
			dst := dsts[next%len(dsts)]
			next++
			st.setups++
			st.lateUs = append(st.lateUs, float64(now-nextDue)/1e3)
			f := probeFlow[dst]
			frame, id := c.fresh(f)
			m := openflow.Match{}
			m.WithEthDst(fabric.HostMAC(dst))
			t0 := nanotime()
			_, err := ss2.ApplyFlowMod(&openflow.FlowMod{
				TableID: 0, Command: openflow.FlowDeleteStrict, Priority: 10,
				BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
				Match: m,
			})
			t1 := nanotime()
			tap.arm(id)
			before := ss2.PacketIns()
			t2 := nanotime()
			c.hosts[f.src].SendRaw(frame)
			t3 := nanotime()
			n := int64(ss2.PacketIns() - before)
			probePacketIns += n
			st.flowmodUs = append(st.flowmodUs, float64(t1-t0)/1e3)
			st.syncUs = append(st.syncUs, float64(t3-t2)/1e3)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: flow delete: %v\n", err)
				n = -1 // fails the setup
			}
			cur.active, cur.dst, cur.due, cur.sentAt, cur.packetIns = true, dst, nextDue, t3, n
			nextDue += int64(setupPeriod)
		}
		if cur.active {
			if at := tap.at.Load(); at != 0 {
				st.latUs = append(st.latUs, float64(at-cur.due)/1e3)
				st.rttUs = append(st.rttUs, float64(at-cur.sentAt)/1e3)
				st.probesTo[cur.dst]++
				if cur.packetIns != 1 {
					st.failed++
				}
				cur.active = false
				tap.arm(0)
			} else if now-cur.sentAt > int64(setupTimeout) {
				st.failed++
				cur.active = false
				tap.arm(0)
			}
		}
		if now >= end && !cur.active {
			break
		}
		if cur.active {
			// Yield between frames while a setup is in flight, so the
			// control-plane goroutines the probe woke run without
			// waiting for this goroutine's preemption.
			runtime.Gosched()
		}
		// One background frame, skipping the pair of the setup in
		// progress or next due.
		excluded := pairOf(dsts[next%len(dsts)])
		if cur.active {
			excluded = pairOf(cur.dst)
		}
		for pairOf(c.flows[k].src) == excluded {
			if k++; k == len(c.flows) {
				k = 0
			}
		}
		f := &c.flows[k]
		if k++; k == len(c.flows) {
			k = 0
		}
		c.stamp(f)
		c.hosts[f.src].SendRaw(f.buf)
		st.bgSentTo[f.dst]++
		st.bgFrames++
	}
	st.wallNs = nanotime() - start
	// Packet-ins the probes did not cause came from background frames,
	// whose flows were all learned: each one is a failure.
	st.extraPacketIns = int64(ss2.PacketIns()-pi0) - probePacketIns
	if st.extraPacketIns < 0 {
		st.extraPacketIns = -st.extraPacketIns
	}
	return st
}

// gateSetups counts the pass's failures into r: failed setups,
// packet-ins from background frames, and frames not delivered.
func (c *chain) gateSetups(r *result, st *setupStats, base [chainPorts]int64) {
	want := st.bgSentTo
	for p := range want {
		want[p] += st.probesTo[p]
	}
	lost := undelivered(want, base, c.settleRx(want, base))
	if st.failed > 0 || st.extraPacketIns > 0 || lost > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: flow setup: %d of %d setups failed, %d stray packet-ins, %d of %d frames undelivered\n",
			st.failed, st.setups, st.extraPacketIns, lost, st.bgFrames)
	}
	r.Attempted += st.setups + st.bgFrames
	r.Failed += st.failed + st.extraPacketIns + lost
}

// setupPhase runs a traced run's flow-setup pass and reports the
// control path's per-layer metrics.
func (c *chain) setupPhase(r *result, dur time.Duration, seed int64) {
	tap := &probeTap{}
	tap.install(c)
	base, before := c.rxAll(), c.counters()
	st := c.flowsetupPass(dur, seed, tap)
	after := c.counters()
	c.gateSetups(r, &st, base)
	setups := float64(st.setups)
	r.set("softswitch.ss2_invalidations_per_setup", ratio(float64(after.ss2Invalidations-before.ss2Invalidations), setups))
	r.set("softswitch.ss2_packet_ins_per_setup", ratio(float64(after.ss2PacketIns-before.ss2PacketIns), setups))
	r.set("softswitch.flowmod_apply_us", median(st.flowmodUs))
	r.set("flowsetup.sync_us", median(st.syncUs))
	r.set("controlplane.rtt_us", median(st.rttUs))
	r.set("flowsetup.gen_late_us", mean(st.lateUs))
	r.set("flowsetup.p50_us", quantile(st.latUs, 0.5))
	r.set("flowsetup.p99_us", quantile(st.latUs, 0.99))
	r.set("flowsetup.churn_pps", ratio(float64(st.bgFrames)*1e9, float64(st.wallNs)))
}
