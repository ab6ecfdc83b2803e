// Package fabric emulates the end systems and physical topology of the
// demo: hosts with a small network stack (ARP, ICMPv4 echo, UDP, a
// minimal TCP for request/response exchanges, and a DNS client), frame
// taps for path verification, and traffic generators for the
// performance experiments (traffic.go: fixed-size and IMIX frame
// pools, uniform, Zipf-skewed, and adversarial cache-thrash flow
// mixes).
//
// Hosts are deliberately simple — they generate exactly the frames the
// demo's physical hosts would, which is all the HARMLESS claims need.
package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// ErrTimeout is returned by blocking host operations.
var ErrTimeout = errors.New("fabric: timed out")

// UDPMessage is one received UDP datagram.
type UDPMessage struct {
	SrcIP   pkt.IPv4
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

// Host is an emulated end system attached to one netem port.
type Host struct {
	Name string
	MAC  pkt.MAC
	IP   pkt.IPv4

	port  *netem.Port
	clock netem.Clock

	mu          sync.Mutex
	arpTable    map[pkt.IPv4]pkt.MAC
	arpWait     map[pkt.IPv4][]chan pkt.MAC
	udpQueue    chan UDPMessage
	udpHandlers map[uint16]func(UDPMessage) []byte // port -> responder
	pingWait    map[uint16]chan struct{}           // echo id -> reply signal
	pingSeq     uint16
	tcp         *tcpLite

	rxFrames, txFrames int
}

// NewHost creates a host and binds it to the port.
func NewHost(name string, mac pkt.MAC, ip pkt.IPv4, port *netem.Port) *Host {
	h := &Host{
		Name: name, MAC: mac, IP: ip, port: port,
		clock:       netem.RealClock{},
		arpTable:    make(map[pkt.IPv4]pkt.MAC),
		arpWait:     make(map[pkt.IPv4][]chan pkt.MAC),
		udpQueue:    make(chan UDPMessage, 1024),
		udpHandlers: make(map[uint16]func(UDPMessage) []byte),
		pingWait:    make(map[uint16]chan struct{}),
	}
	h.tcp = newTCPLite(h)
	port.SetReceiver(h.receive)
	port.SetBatchReceiver(h.receiveBatch)
	return h
}

// SetClock runs the host's timeouts (ARP, ping, UDP, TCP, DNS waits)
// on c — virtual time when c is a netem.Scheduler. nil is ignored;
// the default is the wall clock. Call before issuing blocking
// operations.
func (h *Host) SetClock(c netem.Clock) *Host {
	if c != nil {
		h.clock = c
	}
	return h
}

// after returns a one-shot timer for d on the host's clock. Callers
// must Stop it.
func (h *Host) after(d time.Duration) *netem.Timer {
	return netem.NewTimer(h.clock, d)
}

// Stats returns (received, transmitted) frame counts.
func (h *Host) Stats() (rx, tx int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rxFrames, h.txFrames
}

// send transmits a frame.
func (h *Host) send(frame []byte) {
	h.mu.Lock()
	h.txFrames++
	h.mu.Unlock()
	_ = h.port.Send(frame)
}

// receiveBatch is the host's vectored frame input: the stack itself is
// per-frame, so a batch is simply unrolled here — what batching buys
// the host is one port wakeup per vector, not a vectored stack.
func (h *Host) receiveBatch(frames [][]byte) {
	for _, f := range frames {
		h.receive(f)
	}
}

// packetPool recycles the Packets hosts decode received frames into.
// A pool rather than one Packet per host: on synchronous links a reply
// sent from inside receive (a SYN-ACK's ACK, a ping's echo reply) can
// come straight back into the same host's receive while the outer call
// still uses its Packet, and several goroutines may send into one host
// at once.
var packetPool = sync.Pool{New: func() any { return new(pkt.Packet) }}

// receive is the host's frame input. It decodes into a pooled Packet,
// which nothing the stack keeps may point into once it returns: the
// handlers copy what they keep.
//
//harmless:hotpath
func (h *Host) receive(frame []byte) {
	h.mu.Lock()
	h.rxFrames++
	h.mu.Unlock()
	p := packetPool.Get().(*pkt.Packet)
	defer packetPool.Put(p)
	pkt.DecodeInto(p, frame, pkt.LayerTypeEthernet)
	eth := p.Ethernet()
	if eth == nil {
		return
	}
	// Accept frames for us, broadcast, or multicast.
	if eth.Dst != h.MAC && !eth.Dst.IsMulticast() {
		return
	}
	if arp := p.ARP(); arp != nil {
		h.handleARP(arp)
		return
	}
	ip := p.IPv4()
	if ip == nil || ip.Dst != h.IP {
		return
	}
	switch {
	case p.ICMPv4() != nil:
		h.handleICMP(p, ip)
	case p.UDP() != nil:
		h.handleUDP(p, ip)
	case p.TCP() != nil:
		h.tcp.handle(p, ip, eth)
	}
}

// --- ARP --------------------------------------------------------------

func (h *Host) handleARP(arp *pkt.ARP) {
	// Learn the sender either way.
	h.learnARP(arp.SenderIP, arp.SenderHW)
	if arp.Op == pkt.ARPRequest && arp.TargetIP == h.IP {
		reply, err := pkt.Serialize(
			&pkt.Ethernet{Src: h.MAC, Dst: arp.SenderHW, EtherType: pkt.EtherTypeARP},
			&pkt.ARP{Op: pkt.ARPReply, SenderHW: h.MAC, SenderIP: h.IP,
				TargetHW: arp.SenderHW, TargetIP: arp.SenderIP},
		)
		if err == nil {
			h.send(reply)
		}
	}
}

func (h *Host) learnARP(ip pkt.IPv4, mac pkt.MAC) {
	if ip.IsZero() || !mac.IsUnicast() {
		return
	}
	h.mu.Lock()
	h.arpTable[ip] = mac
	waiters := h.arpWait[ip]
	delete(h.arpWait, ip)
	h.mu.Unlock()
	for _, w := range waiters {
		w <- mac
	}
}

// AddStaticARP seeds the ARP table (e.g. for a virtual service IP).
func (h *Host) AddStaticARP(ip pkt.IPv4, mac pkt.MAC) {
	h.mu.Lock()
	h.arpTable[ip] = mac
	h.mu.Unlock()
}

// Resolve returns the MAC for ip, ARPing if needed.
func (h *Host) Resolve(ip pkt.IPv4, timeout time.Duration) (pkt.MAC, error) {
	h.mu.Lock()
	if mac, ok := h.arpTable[ip]; ok {
		h.mu.Unlock()
		return mac, nil
	}
	ch := make(chan pkt.MAC, 1)
	h.arpWait[ip] = append(h.arpWait[ip], ch)
	h.mu.Unlock()

	req, err := pkt.Serialize(
		&pkt.Ethernet{Src: h.MAC, Dst: pkt.BroadcastMAC, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderHW: h.MAC, SenderIP: h.IP, TargetIP: ip},
	)
	if err != nil {
		return pkt.MAC{}, err
	}
	h.send(req)
	t := h.after(timeout)
	defer t.Stop()
	select {
	case mac := <-ch:
		return mac, nil
	case <-t.C:
		return pkt.MAC{}, fmt.Errorf("fabric: ARP for %s: %w", ip, ErrTimeout)
	}
}

// --- ICMP -------------------------------------------------------------

func (h *Host) handleICMP(p *pkt.Packet, ip *pkt.IPv4Header) {
	icmp := p.ICMPv4()
	switch icmp.Type {
	case pkt.ICMPv4EchoRequest:
		reply := &pkt.ICMPv4{Type: pkt.ICMPv4EchoReply, Rest: icmp.Rest}
		payload := pkt.Payload(icmp.LayerPayload())
		frame, err := pkt.Serialize(
			&pkt.Ethernet{Src: h.MAC, Dst: p.Ethernet().Src, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoICMP, Src: h.IP, Dst: ip.Src},
			reply, &payload,
		)
		if err == nil {
			h.send(frame)
		}
	case pkt.ICMPv4EchoReply:
		h.mu.Lock()
		ch := h.pingWait[icmp.ID()]
		h.mu.Unlock()
		if ch != nil {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	}
}

// Ping sends one echo request and waits for the reply.
func (h *Host) Ping(dst pkt.IPv4, timeout time.Duration) error {
	mac, err := h.Resolve(dst, timeout)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.pingSeq++
	id := h.pingSeq
	ch := make(chan struct{}, 1)
	h.pingWait[id] = ch
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.pingWait, id)
		h.mu.Unlock()
	}()

	icmp := &pkt.ICMPv4{Type: pkt.ICMPv4EchoRequest}
	icmp.SetEcho(id, 1)
	payload := pkt.Payload("harmless-ping")
	frame, err := pkt.Serialize(
		&pkt.Ethernet{Src: h.MAC, Dst: mac, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoICMP, Src: h.IP, Dst: dst},
		icmp, &payload,
	)
	if err != nil {
		return err
	}
	h.send(frame)
	t := h.after(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-t.C:
		return fmt.Errorf("fabric: ping %s: %w", dst, ErrTimeout)
	}
}

// --- UDP --------------------------------------------------------------

func (h *Host) handleUDP(p *pkt.Packet, ip *pkt.IPv4Header) {
	udp := p.UDP()
	h.mu.Lock()
	handler := h.udpHandlers[udp.DstPort]
	h.mu.Unlock()
	if handler == nil && len(h.udpQueue) == cap(h.udpQueue) {
		return // queue full: drop, like a real socket buffer, before copying
	}
	msg := UDPMessage{
		SrcIP: ip.Src, SrcPort: udp.SrcPort, DstPort: udp.DstPort,
		Payload: append([]byte{}, udp.LayerPayload()...),
	}
	if handler != nil {
		if resp := handler(msg); resp != nil {
			_ = h.sendUDPTo(p.Ethernet().Src, ip.Src, udp.DstPort, udp.SrcPort, resp)
		}
		return
	}
	select {
	case h.udpQueue <- msg:
	default: // filled up since the check: drop all the same
	}
}

// HandleUDP registers a responder for a UDP port; returning non-nil
// sends the reply back to the source.
func (h *Host) HandleUDP(port uint16, fn func(UDPMessage) []byte) {
	h.mu.Lock()
	h.udpHandlers[port] = fn
	h.mu.Unlock()
}

// SendUDP resolves the destination and transmits one datagram.
func (h *Host) SendUDP(dst pkt.IPv4, sport, dport uint16, payload []byte) error {
	mac, err := h.Resolve(dst, time.Second)
	if err != nil {
		return err
	}
	return h.sendUDPTo(mac, dst, sport, dport, payload)
}

func (h *Host) sendUDPTo(dstMAC pkt.MAC, dst pkt.IPv4, sport, dport uint16, payload []byte) error {
	pl := pkt.Payload(payload)
	frame, err := pkt.Serialize(
		&pkt.Ethernet{Src: h.MAC, Dst: dstMAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: h.IP, Dst: dst},
		&pkt.UDP{SrcPort: sport, DstPort: dport},
		&pl,
	)
	if err != nil {
		return err
	}
	h.send(frame)
	return nil
}

// RecvUDP waits for the next queued datagram (for ports without a
// registered handler).
func (h *Host) RecvUDP(timeout time.Duration) (UDPMessage, error) {
	t := h.after(timeout)
	defer t.Stop()
	select {
	case m := <-h.udpQueue:
		return m, nil
	case <-t.C:
		return UDPMessage{}, fmt.Errorf("fabric: recv udp: %w", ErrTimeout)
	}
}

// --- DNS --------------------------------------------------------------

// QueryDNS sends an A query to server and waits for the response.
func (h *Host) QueryDNS(server pkt.IPv4, name string, timeout time.Duration) (*pkt.DNS, error) {
	mac, err := h.Resolve(server, timeout)
	if err != nil {
		return nil, err
	}
	sport := uint16(20000 + rand.Intn(20000))
	id := uint16(rand.Intn(65536))
	q := &pkt.DNS{ID: id, RD: true,
		Questions: []pkt.DNSQuestion{{Name: name, Type: pkt.DNSTypeA, Class: pkt.DNSClassIN}}}
	frame, err := pkt.Serialize(
		&pkt.Ethernet{Src: h.MAC, Dst: mac, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: h.IP, Dst: server},
		&pkt.UDP{SrcPort: sport, DstPort: 53},
		q,
	)
	if err != nil {
		return nil, err
	}
	h.send(frame)
	deadline := h.clock.Now().Add(timeout)
	for {
		remain := deadline.Sub(h.clock.Now())
		if remain <= 0 {
			return nil, fmt.Errorf("fabric: DNS query %q: %w", name, ErrTimeout)
		}
		msg, err := h.RecvUDP(remain)
		if err != nil {
			return nil, fmt.Errorf("fabric: DNS query %q: %w", name, ErrTimeout)
		}
		if msg.SrcPort != 53 || msg.DstPort != sport {
			continue
		}
		var resp pkt.DNS
		if err := resp.DecodeFromBytes(msg.Payload); err != nil {
			continue
		}
		if resp.ID != id || !resp.QR {
			continue
		}
		return &resp, nil
	}
}

// ServeDNS makes the host answer A queries from the given records
// (name -> address); unknown names get NXDOMAIN.
func (h *Host) ServeDNS(records map[string]pkt.IPv4) {
	h.HandleUDP(53, func(m UDPMessage) []byte {
		var q pkt.DNS
		if err := q.DecodeFromBytes(m.Payload); err != nil || q.QR || len(q.Questions) == 0 {
			return nil
		}
		resp := &pkt.DNS{ID: q.ID, QR: true, AA: true, RA: true, RD: q.RD, Questions: q.Questions}
		if addr, ok := records[q.Questions[0].Name]; ok {
			resp.Answers = []pkt.DNSAnswer{{
				Name: q.Questions[0].Name, Type: pkt.DNSTypeA, Class: pkt.DNSClassIN,
				TTL: 60, A: addr,
			}}
		} else {
			resp.Rcode = pkt.DNSRcodeNXDomain
		}
		out, err := pkt.Serialize(resp)
		if err != nil {
			return nil
		}
		return out
	})
}

// SendRaw transmits a pre-built frame from the host's NIC, bypassing
// the stack — used by experiment harnesses to emulate many clients
// behind one physical port.
func (h *Host) SendRaw(frame []byte) { h.send(frame) }

// SendRawBatch transmits a vector of pre-built frames in one port
// call. Ownership of each frame transfers; the vector is borrowed and
// reusable after the call (dataplane ownership rules).
func (h *Host) SendRawBatch(frames [][]byte) {
	h.mu.Lock()
	h.txFrames += len(frames)
	h.mu.Unlock()
	_ = h.port.SendBatch(frames)
}
