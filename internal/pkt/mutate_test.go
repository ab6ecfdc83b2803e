package pkt

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// verifyL4 re-validates IP and L4 checksums of an IPv4 frame from
// scratch, failing the test on any inconsistency. This is the oracle
// for all incremental-update tests.
func verifyL4(t *testing.T, frame []byte) {
	t.Helper()
	p := DecodeEthernet(frame)
	if p.Err() != nil {
		t.Fatalf("decode: %v", p.Err())
	}
	ip := p.IPv4()
	if ip == nil {
		t.Fatal("no IPv4 layer")
	}
	// Locate raw IP header within frame (skip VLANs).
	ipOff, _, _ := ipv4Offsets(frame)
	if ipOff < 0 {
		t.Fatal("ipv4Offsets failed")
	}
	if Checksum(frame[ipOff:ipOff+ip.HeaderLen()]) != 0 {
		t.Error("IP checksum invalid")
	}
	switch ip.Protocol {
	case IPProtoUDP, IPProtoTCP:
		if L4Checksum(ip.Src, ip.Dst, ip.Protocol, ip.LayerPayload()) != 0 {
			t.Errorf("L4 checksum invalid (proto %d)", ip.Protocol)
		}
	}
}

func TestPushPopVLANRoundTrip(t *testing.T) {
	orig := buildUDPFrame(t, []byte("data"))
	tagged, err := PushVLAN(orig, EtherTypeDot1Q, 101)
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged) != len(orig)+Dot1QHeaderLen {
		t.Errorf("tagged len = %d", len(tagged))
	}
	vid, ok := VLANID(tagged)
	if !ok || vid != 101 {
		t.Errorf("VLANID = %d, %v", vid, ok)
	}
	popped, err := PopVLAN(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(popped, orig) {
		t.Error("push+pop must reproduce the original frame")
	}
}

// naivePushVLAN and naivePopVLAN are the copying reference the
// in-place VLAN ops must agree with.
func naivePushVLAN(frame []byte, tpid, vid uint16) []byte {
	out := append([]byte(nil), frame[:12]...)
	out = binary.BigEndian.AppendUint16(out, tpid)
	out = binary.BigEndian.AppendUint16(out, vid&0x0fff)
	return append(out, frame[12:]...)
}

func naivePopVLAN(frame []byte) []byte {
	return append(append([]byte(nil), frame[:12]...), frame[16:]...)
}

// withCap returns a copy of frame with capacity len(frame)+room.
func withCap(frame []byte, room int) []byte {
	return append(make([]byte, 0, len(frame)+room), frame...)
}

// TestPushVLANPropertyRoundTrip pushes onto frames with and without
// spare capacity: the result must match the copying reference, reuse
// the storage exactly when there is room for the tag, and pop back to
// the original in place.
func TestPushVLANPropertyRoundTrip(t *testing.T) {
	orig := buildUDPFrame(t, []byte("data"))
	f := func(vid uint16, room uint8) bool {
		vid &= 0x0fff
		in := withCap(orig, int(room%9))
		tagged, err := PushVLAN(in, EtherTypeDot1Q, vid)
		if err != nil || !bytes.Equal(tagged, naivePushVLAN(orig, EtherTypeDot1Q, vid)) {
			return false
		}
		if inPlace := &tagged[0] == &in[0]; inPlace != (cap(in) >= len(orig)+Dot1QHeaderLen) {
			return false
		}
		got, ok := VLANID(tagged)
		if !ok || got != vid {
			return false
		}
		popped, err := PopVLAN(tagged)
		return err == nil && bytes.Equal(popped, orig) && &popped[0] == &tagged[0] && cap(popped) == cap(tagged)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPopVLANUntagged(t *testing.T) {
	orig := buildUDPFrame(t, []byte("data"))
	if _, err := PopVLAN(orig); err != ErrNoVLAN {
		t.Errorf("PopVLAN untagged: %v", err)
	}
}

func TestSetVLANID(t *testing.T) {
	orig := buildUDPFrame(t, []byte("data"))
	tagged, _ := PushVLAN(orig, EtherTypeDot1Q, 101)
	if err := SetVLANPCP(tagged, 6); err != nil {
		t.Fatal(err)
	}
	if err := SetVLANID(tagged, 102); err != nil {
		t.Fatal(err)
	}
	p := DecodeEthernet(tagged)
	v := p.VLAN()
	if v == nil || v.VLANID != 102 {
		t.Fatalf("VLAN after rewrite: %+v", v)
	}
	if v.Priority != 6 {
		t.Errorf("PCP must be preserved across SetVLANID, got %d", v.Priority)
	}
	if err := SetVLANID(orig, 102); err != ErrNoVLAN {
		t.Errorf("SetVLANID untagged: %v", err)
	}
}

func TestSetEthAddrs(t *testing.T) {
	frame := buildUDPFrame(t, []byte("data"))
	newDst := MustMAC("02:00:00:00:00:99")
	newSrc := MustMAC("02:00:00:00:00:98")
	if err := SetEthDst(frame, newDst); err != nil {
		t.Fatal(err)
	}
	if err := SetEthSrc(frame, newSrc); err != nil {
		t.Fatal(err)
	}
	p := DecodeEthernet(frame)
	e := p.Ethernet()
	if e.Dst != newDst || e.Src != newSrc {
		t.Errorf("MACs after rewrite: %v > %v", e.Src, e.Dst)
	}
}

func TestSetIPv4AddrsChecksum(t *testing.T) {
	frame := buildUDPFrame(t, []byte("some longer payload for checksum testing"))
	if err := SetIPv4Src(frame, MustIPv4("172.16.5.5")); err != nil {
		t.Fatal(err)
	}
	if err := SetIPv4Dst(frame, MustIPv4("172.16.9.9")); err != nil {
		t.Fatal(err)
	}
	p := DecodeEthernet(frame)
	ip := p.IPv4()
	if ip.Src.String() != "172.16.5.5" || ip.Dst.String() != "172.16.9.9" {
		t.Errorf("addresses: %s > %s", ip.Src, ip.Dst)
	}
	verifyL4(t, frame)
}

func TestSetIPv4AddrsOnTCP(t *testing.T) {
	pl := Payload([]byte("tcp payload"))
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoTCP, Src: testSrcIP, Dst: testDstIP},
		&TCP{SrcPort: 100, DstPort: 200, Window: 1000},
		&pl,
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetIPv4Dst(frame, MustIPv4("10.99.99.99")); err != nil {
		t.Fatal(err)
	}
	verifyL4(t, frame)
}

func TestSetIPv4AddrsThroughVLAN(t *testing.T) {
	frame := buildUDPFrame(t, []byte("pp"))
	tagged, _ := PushVLAN(frame, EtherTypeDot1Q, 55)
	if err := SetIPv4Src(tagged, MustIPv4("8.8.8.8")); err != nil {
		t.Fatal(err)
	}
	verifyL4(t, tagged)
	p := DecodeEthernet(tagged)
	if p.IPv4().Src.String() != "8.8.8.8" {
		t.Errorf("src = %s", p.IPv4().Src)
	}
}

func TestSetL4Ports(t *testing.T) {
	frame := buildUDPFrame(t, []byte("data"))
	if err := SetL4Src(frame, 999); err != nil {
		t.Fatal(err)
	}
	if err := SetL4Dst(frame, 888); err != nil {
		t.Fatal(err)
	}
	p := DecodeEthernet(frame)
	u := p.UDP()
	if u.SrcPort != 999 || u.DstPort != 888 {
		t.Errorf("ports: %d/%d", u.SrcPort, u.DstPort)
	}
	verifyL4(t, frame)
}

func TestSetL4PortPropertyChecksum(t *testing.T) {
	f := func(port uint16, payload []byte) bool {
		frame := buildUDPFrame(t, payload)
		if err := SetL4Dst(frame, port); err != nil {
			return false
		}
		p := DecodeEthernet(frame)
		ip := p.IPv4()
		return L4Checksum(ip.Src, ip.Dst, IPProtoUDP, ip.LayerPayload()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetL4PortsOnARPFails(t *testing.T) {
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: BroadcastMAC, EtherType: EtherTypeARP},
		&ARP{Op: ARPRequest, SenderHW: testSrcMAC, SenderIP: testSrcIP, TargetIP: testDstIP},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetL4Src(frame, 1); err == nil {
		t.Error("SetL4Src on ARP must fail")
	}
	if err := SetIPv4Src(frame, testSrcIP); err == nil {
		t.Error("SetIPv4Src on ARP must fail")
	}
}

func TestDecIPv4TTL(t *testing.T) {
	frame := buildUDPFrame(t, []byte("ttl test"))
	ttl, err := DecIPv4TTL(frame)
	if err != nil {
		t.Fatal(err)
	}
	if ttl != 63 {
		t.Errorf("ttl = %d, want 63", ttl)
	}
	p := DecodeEthernet(frame)
	if p.IPv4().TTL != 63 {
		t.Errorf("decoded TTL = %d", p.IPv4().TTL)
	}
	verifyL4(t, frame)
	// Exhaust TTL.
	for i := 0; i < 63; i++ {
		if _, err := DecIPv4TTL(frame); err != nil {
			t.Fatal(err)
		}
	}
	ttl, _ = DecIPv4TTL(frame)
	if ttl != 0 {
		t.Errorf("TTL after exhaustion = %d", ttl)
	}
	verifyL4(t, frame)
}

func TestUDPZeroChecksumStaysDisabled(t *testing.T) {
	// Hand-build a UDP frame with checksum 0 (disabled); mutators must
	// not "fix up" a disabled checksum into garbage.
	pl := Payload([]byte("nocsum"))
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP},
		&UDP{SrcPort: 10, DstPort: 20},
		&pl,
	)
	if err != nil {
		t.Fatal(err)
	}
	// Zero out the UDP checksum manually.
	_, l4Off, _ := ipv4Offsets(frame)
	frame[l4Off+6], frame[l4Off+7] = 0, 0
	if err := SetIPv4Src(frame, MustIPv4("10.1.2.3")); err != nil {
		t.Fatal(err)
	}
	if frame[l4Off+6] != 0 || frame[l4Off+7] != 0 {
		t.Error("disabled UDP checksum was modified")
	}
	// IP header checksum must still be valid.
	p := DecodeEthernet(frame)
	ipOff, _, _ := ipv4Offsets(frame)
	if Checksum(frame[ipOff:ipOff+p.IPv4().HeaderLen()]) != 0 {
		t.Error("IP checksum invalid")
	}
}

func BenchmarkPushPopVLAN(b *testing.B) {
	frame := buildUDPFrame(b, make([]byte, 1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tagged, err := PushVLAN(frame, EtherTypeDot1Q, 101)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := PopVLAN(tagged); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSetIPv4Dst(b *testing.B) {
	frame := buildUDPFrame(b, make([]byte, 1400))
	ip := MustIPv4("10.0.0.3")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip[3] = byte(i) // vary so the fast "no change" path isn't taken
		if err := SetIPv4Dst(frame, ip); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSetL4PortsOnTCPChecksum(t *testing.T) {
	pl := Payload([]byte("tcp body"))
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoTCP, Src: testSrcIP, Dst: testDstIP},
		&TCP{SrcPort: 1111, DstPort: 2222, Seq: 1, Window: 100},
		&pl,
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetL4Src(frame, 3333); err != nil {
		t.Fatal(err)
	}
	if err := SetL4Dst(frame, 80); err != nil {
		t.Fatal(err)
	}
	p := DecodeEthernet(frame)
	tcp := p.TCP()
	if tcp.SrcPort != 3333 || tcp.DstPort != 80 {
		t.Errorf("ports: %d/%d", tcp.SrcPort, tcp.DstPort)
	}
	verifyL4(t, frame)
}

func TestVLANHelpersOnShortFrames(t *testing.T) {
	if HasVLAN([]byte{1, 2}) {
		t.Error("short frame has VLAN")
	}
	if _, ok := VLANID([]byte{1, 2}); ok {
		t.Error("short frame returned VID")
	}
	if _, err := PushVLAN([]byte{1, 2}, EtherTypeDot1Q, 1); err != ErrTooShort {
		t.Errorf("PushVLAN: %v", err)
	}
	if _, err := PopVLAN([]byte{1, 2}); err != ErrTooShort {
		t.Errorf("PopVLAN: %v", err)
	}
	if err := SetEthDst([]byte{1}, testDstMAC); err != ErrTooShort {
		t.Errorf("SetEthDst: %v", err)
	}
	if err := SetEthSrc(make([]byte, 8), testSrcMAC); err != ErrTooShort {
		t.Errorf("SetEthSrc: %v", err)
	}
	if _, err := DecIPv4TTL([]byte{1, 2, 3}); err != ErrTooShort {
		t.Errorf("DecIPv4TTL: %v", err)
	}
}

func TestIPv6String(t *testing.T) {
	ip := IPv6{0xfe, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	if got := ip.String(); got != "fe80:0:0:0:0:0:0:1" {
		t.Errorf("IPv6 string: %q", got)
	}
}
