package pkt

import (
	"bytes"
	"reflect"
	"testing"
)

// reuseFrames is the corpus of the DecodeInto reuse property: frames
// whose layer stacks differ in depth, type and outcome, so that
// decoding one after another exercises every way a reused Packet could
// keep a stale layer, error or payload.
func reuseFrames(t testing.TB) map[string][]byte {
	t.Helper()
	udp := buildUDPFrame(t, []byte("payload"))
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	vlanUDP := must(PushVLAN(clone(udp), EtherTypeDot1Q, 101))
	qinq := must(PushVLAN(clone(vlanUDP), EtherTypeDot1Q, 200))
	threeTags := must(PushVLAN(clone(qinq), EtherTypeDot1Q, 300))
	arp := must(Serialize(
		&Ethernet{Src: testSrcMAC, Dst: BroadcastMAC, EtherType: EtherTypeARP},
		&ARP{Op: ARPRequest, SenderHW: testSrcMAC, SenderIP: testSrcIP, TargetIP: testDstIP},
	))
	tcp := must(Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoTCP, Src: testSrcIP, Dst: testDstIP},
		&TCP{SrcPort: 80, DstPort: 4000, Seq: 7, Flags: TCPSyn, Window: 1024},
	))
	icmp := &ICMPv4{Type: ICMPv4EchoRequest}
	icmp.SetEcho(3, 4)
	ping := Payload("ping")
	echo := must(Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoICMP, Src: testSrcIP, Dst: testDstIP},
		icmp, &ping,
	))
	dns := must(Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP},
		&UDP{SrcPort: 53, DstPort: 53},
		&DNS{ID: 9, Questions: []DNSQuestion{{Name: "a.example", Type: DNSTypeA, Class: DNSClassIN}}},
	))
	return map[string][]byte{
		"udp":               udp,
		"vlan+udp":          vlanUDP,
		"qinq+udp":          qinq,
		"three-tags":        threeTags,
		"arp":               arp,
		"tcp":               tcp,
		"icmp-echo":         echo,
		"dns":               dns,
		"truncated-ipv4":    vlanUDP[:EthernetHeaderLen+Dot1QHeaderLen+10],
		"truncated-eth":     udp[:EthernetHeaderLen-1],
		"ethernet-only":     udp[:EthernetHeaderLen],
		"empty":             nil,
		"unknown-ethertype": append(append([]byte(nil), udp[:12]...), 0x88, 0xb5, 1, 2, 3),
	}
}

// checkReuse decodes prev into a Packet, then cur into the same
// Packet, and requires the result to equal a fresh Decode of cur.
func checkReuse(t *testing.T, prev, cur []byte) {
	t.Helper()
	p := new(Packet)
	DecodeInto(p, prev, LayerTypeEthernet)
	DecodeInto(p, cur, LayerTypeEthernet)
	want := Decode(cur, LayerTypeEthernet)

	if got, exp := layerTypes(p), layerTypes(want); !reflect.DeepEqual(got, exp) {
		t.Fatalf("layers %v, fresh decode has %v", got, exp)
	}
	if (p.Err() == nil) != (want.Err() == nil) ||
		(p.Err() != nil && p.Err().Error() != want.Err().Error()) {
		t.Fatalf("Err %v, fresh decode has %v", p.Err(), want.Err())
	}
	if !bytes.Equal(p.ApplicationPayload(), want.ApplicationPayload()) {
		t.Fatalf("payload %x, fresh decode has %x", p.ApplicationPayload(), want.ApplicationPayload())
	}
	if p.String() != want.String() {
		t.Fatalf("String %q, fresh decode has %q", p, want)
	}
	// Every field, the layer set of types the frame does not carry
	// included: a layer decoded from prev must not survive.
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("reused Packet differs from a fresh decode\nreused: %+v\nfresh:  %+v", p, want)
	}
}

func layerTypes(p *Packet) []LayerType {
	var out []LayerType
	for _, l := range p.Layers() {
		out = append(out, l.LayerType())
	}
	return out
}

// TestDecodeIntoReuse is the reuse property over every ordered pair of
// the corpus: whatever a Packet decoded before, DecodeInto leaves it
// equal to a fresh Decode.
func TestDecodeIntoReuse(t *testing.T) {
	frames := reuseFrames(t)
	for prevName, prev := range frames {
		for curName, cur := range frames {
			t.Run(prevName+"/then/"+curName, func(t *testing.T) { checkReuse(t, prev, cur) })
		}
	}
}

// TestDecodeIntoReusedAllocs holds a recycled Packet's decode of a
// tagged UDP frame at zero allocations.
func TestDecodeIntoReusedAllocs(t *testing.T) {
	frame := reuseFrames(t)["vlan+udp"]
	p := new(Packet)
	if n := testing.AllocsPerRun(100, func() { DecodeInto(p, frame, LayerTypeEthernet) }); n != 0 {
		t.Errorf("DecodeInto into a reused Packet allocates %.0f objects", n)
	}
}

// FuzzDecodeInto runs the reuse property on arbitrary frame pairs.
func FuzzDecodeInto(f *testing.F) {
	frames := reuseFrames(f)
	for _, pair := range [][2]string{
		{"vlan+udp", "arp"},
		{"three-tags", "udp"},
		{"dns", "truncated-ipv4"},
		{"truncated-ipv4", "vlan+udp"},
		{"qinq+udp", "three-tags"},
		{"tcp", "empty"},
	} {
		f.Add(frames[pair[0]], frames[pair[1]])
	}
	f.Fuzz(func(t *testing.T, prev, cur []byte) { checkReuse(t, prev, cur) })
}
