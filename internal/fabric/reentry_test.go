package fabric

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// TestHostReentrantReceive drives exchanges in which a host's receive
// is re-entered before it returns. On a synchronous link every send
// delivers on the sender's stack, so h2's answer to a request comes
// back as h1's reply inside h2's own receive: the ACK of a TCP
// response, and the echo reply of a ping h2's handler sends before it
// answers. The outer call still reads its decoded frame after the
// nested one returns (the reply address and ports), so a decode
// buffer shared by the two calls would send the answer astray.
func TestHostReentrantReceive(t *testing.T) {
	h1, h2 := twoHosts(t)
	pingPeer := func() error { return h2.Ping(h1.IP, time.Second) }

	h2.ServeTCP(80, func(req []byte) []byte {
		if err := pingPeer(); err != nil {
			return []byte("ping failed: " + err.Error())
		}
		return append([]byte("resp:"), req...)
	})
	h2.HandleUDP(7, func(m UDPMessage) []byte {
		if err := pingPeer(); err != nil {
			return []byte("ping failed: " + err.Error())
		}
		return append([]byte("echo:"), m.Payload...)
	})

	for i := 0; i < 3; i++ {
		if err := h1.Ping(h2.IP, time.Second); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		req := fmt.Sprintf("GET /%d", i)
		resp, err := h1.GetTCP(h2.IP, 80, []byte(req), time.Second)
		if err != nil {
			t.Fatalf("TCP exchange %d: %v", i, err)
		}
		if string(resp) != "resp:"+req {
			t.Fatalf("TCP exchange %d answered %q", i, resp)
		}
		if err := h1.SendUDP(h2.IP, 5000, 7, []byte(req)); err != nil {
			t.Fatal(err)
		}
		msg, err := h1.RecvUDP(time.Second)
		if err != nil {
			t.Fatalf("UDP exchange %d: %v", i, err)
		}
		if string(msg.Payload) != "echo:"+req || msg.SrcIP != h2.IP || msg.SrcPort != 7 || msg.DstPort != 5000 {
			t.Fatalf("UDP exchange %d answered %+v", i, msg)
		}
	}
}

// TestHostConcurrentReceive has several goroutines send into one host
// at once, over the far end of its synchronous link, so the host
// decodes frames on all of them together. Every datagram carries its
// sender in both its header (source port) and its payload, next to
// its sequence number; the host's answers (UDP port 7) and its queue
// (UDP port 9) must keep the two in agreement.
func TestHostConcurrentReceive(t *testing.T) {
	l := netem.NewLink(netem.LinkConfig{})
	t.Cleanup(l.Close)
	h := NewHost("h", HostMAC(2), HostIP(2), l.B())
	far := l.A()
	h.HandleUDP(7, func(m UDPMessage) []byte { return m.Payload })

	const senders, perSender = 4, 100 // 400 queued datagrams fit the 1024-deep queue
	var answered, bad atomic.Int64
	far.SetReceiver(func(frame []byte) {
		p := pkt.DecodeEthernet(frame)
		udp := p.UDP()
		if udp == nil {
			return
		}
		answered.Add(1)
		pl := p.ApplicationPayload()
		if len(pl) != 4 || udp.SrcPort != 7 || udp.DstPort != 1000+binary.BigEndian.Uint16(pl) {
			bad.Add(1)
		}
	})
	frame := func(sender, seq, dport int) []byte {
		pl := pkt.Payload(binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(nil, uint16(sender)), uint16(seq)))
		f, err := pkt.Serialize(
			&pkt.Ethernet{Src: HostMAC(1), Dst: h.MAC, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: HostIP(1), Dst: h.IP},
			&pkt.UDP{SrcPort: uint16(1000 + sender), DstPort: uint16(dport)},
			&pl,
		)
		if err != nil {
			panic(err)
		}
		return f
	}

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				_ = far.Send(frame(s, i, 7))
				_ = far.Send(frame(s, i, 9))
			}
		}(s)
	}
	wg.Wait()

	if got := answered.Load(); got != senders*perSender {
		t.Errorf("host answered %d of %d datagrams", got, senders*perSender)
	}
	if n := bad.Load(); n > 0 {
		t.Errorf("%d answers went to a port other than their sender's", n)
	}
	seen := make(map[[2]uint16]bool)
	for i := 0; i < senders*perSender; i++ {
		m, err := h.RecvUDP(time.Second)
		if err != nil {
			t.Fatalf("queued datagram %d: %v", i, err)
		}
		if len(m.Payload) != 4 || m.DstPort != 9 || m.SrcIP != HostIP(1) {
			t.Fatalf("queued datagram %+v", m)
		}
		sender, seq := binary.BigEndian.Uint16(m.Payload), binary.BigEndian.Uint16(m.Payload[2:])
		if m.SrcPort != 1000+sender {
			t.Fatalf("datagram of sender %d arrived from port %d", sender, m.SrcPort)
		}
		k := [2]uint16{sender, seq}
		if seen[k] {
			t.Fatalf("datagram %v queued twice", k)
		}
		seen[k] = true
	}
	if rx, _ := h.Stats(); rx != 2*senders*perSender {
		t.Errorf("host counted %d received frames, want %d", rx, 2*senders*perSender)
	}
}
