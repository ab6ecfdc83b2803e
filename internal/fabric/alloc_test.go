package fabric

import (
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// chainHitAllocBudget is what one learned host-to-host frame may
// allocate across the whole HARMLESS chain when the receiving host's
// socket queue has room: the legacy switch's tag push on a host frame
// without spare capacity, and the receiving host's copy of the payload
// into the queue. The host decodes into a pooled Packet; the bridge
// hops, SS_1 and SS_2 add nothing.
const chainHitAllocBudget = 2

// chainHitAllocBudgetQueueFull is the same frame's budget when the
// receiving socket queue is full: the host drops the datagram before
// copying it, so only the tag push is left.
const chainHitAllocBudgetQueueFull = 1

// TestChainHitPathAllocBudget sends learned frames host -> legacy ->
// trunk -> SS_1 -> SS_2 -> SS_1 -> legacy -> host over the default
// deployment's synchronous links and holds the per-frame allocations
// to the budget, with room in h2's socket queue and with it full.
func TestChainHitPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	d, err := BuildDeployment(DeployConfig{
		NumPorts: 4,
		Apps:     []controller.App{&apps.Learning{Table: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WaitConnected(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	h1, h2 := d.Hosts[1], d.Hosts[2]
	// Warm the pair: ARP and the learned flows in both directions.
	for i := 0; i < 2; i++ {
		if err := h1.Ping(h2.IP, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	payload := pkt.Payload(make([]byte, 22))
	template, err := pkt.Serialize(
		&pkt.Ethernet{Src: h1.MAC, Dst: h2.MAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: h1.IP, Dst: h2.IP},
		&pkt.UDP{SrcPort: 7777, DstPort: 8888},
		&payload,
	)
	if err != nil {
		t.Fatal(err)
	}
	// SendRaw hands the buffer over and the chain may rewrite it in
	// place, so every send refills it from the template.
	buf := make([]byte, len(template))
	send := func() {
		copy(buf, template)
		h1.SendRaw(buf)
	}
	send() // the first UDP frame settles the caches

	const runs = 1000
	measure := func(t *testing.T, budget int) {
		t.Helper()
		rx0, _ := h2.Stats()
		pktIns := d.S4.SS2.PacketIns()
		allocs := testing.AllocsPerRun(runs, send)
		if rx, _ := h2.Stats(); rx-rx0 != runs+1 { // AllocsPerRun warms up with one extra call
			t.Fatalf("h2 received %d of %d frames", rx-rx0, runs+1)
		}
		if got := d.S4.SS2.PacketIns(); got != pktIns {
			t.Fatalf("%d packet-ins during the run: not the hit path", got-pktIns)
		}
		t.Logf("%.0f allocations per frame, budget %d", allocs, budget)
		if allocs > float64(budget) {
			t.Errorf("one learned host-to-host frame allocates %.0f objects, budget %d", allocs, budget)
		}
	}
	t.Run("queue-room", func(t *testing.T) {
		for len(h2.udpQueue) > 0 {
			<-h2.udpQueue
		}
		measure(t, chainHitAllocBudget)
		if n := len(h2.udpQueue); n != runs+1 {
			t.Fatalf("h2 queued %d of %d datagrams", n, runs+1)
		}
	})
	t.Run("queue-full", func(t *testing.T) {
		for len(h2.udpQueue) < cap(h2.udpQueue) {
			send()
		}
		measure(t, chainHitAllocBudgetQueueFull)
		if n := len(h2.udpQueue); n != cap(h2.udpQueue) {
			t.Fatalf("h2's queue holds %d, want it full at %d", n, cap(h2.udpQueue))
		}
	})
}
