package pkt

import (
	"bytes"
	"testing"
)

// Native fuzz targets: the decoders must never panic and, where a
// round trip exists, must reproduce their input. `go test` runs the
// seed corpus; `go test -fuzz=FuzzDecodeEthernet ./internal/pkt` digs
// deeper.

func FuzzDecodeEthernet(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, EthernetHeaderLen))
	seed, _ := Serialize(
		&Ethernet{Src: MustMAC("02:00:00:00:00:01"), Dst: MustMAC("02:00:00:00:00:02"), EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2")},
		&UDP{SrcPort: 53, DstPort: 53},
		&DNS{ID: 1, Questions: []DNSQuestion{{Name: "a.b", Type: DNSTypeA, Class: DNSClassIN}}},
	)
	f.Add(seed)
	tagged, _ := PushVLAN(seed, EtherTypeDot1Q, 101)
	f.Add(tagged)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := Decode(data, LayerTypeEthernet)
		_ = p.String() // must not panic either
		var k Key
		_ = ExtractKey(data, 1, &k)
		parser := NewParser()
		var decoded []LayerType
		_ = parser.DecodeLayers(data, &decoded)
	})
}

// FuzzVLANPushPop runs every input twice, once without and once with
// spare capacity (the in-place path), against the copying reference.
func FuzzVLANPushPop(f *testing.F) {
	base, _ := Serialize(
		&Ethernet{Src: MustMAC("02:00:00:00:00:01"), Dst: MustMAC("02:00:00:00:00:02"), EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2")},
		&UDP{SrcPort: 1, DstPort: 2},
	)
	f.Add(base, uint16(101))
	f.Fuzz(func(t *testing.T, data []byte, vid uint16) {
		vid &= 0x0fff
		for _, room := range []int{0, Dot1QHeaderLen} {
			in := withCap(data, room)
			tagged, err := PushVLAN(in, EtherTypeDot1Q, vid)
			if err != nil {
				return // short frames legitimately fail
			}
			if !bytes.Equal(tagged, naivePushVLAN(data, EtherTypeDot1Q, vid)) {
				t.Fatalf("push (room %d) differs from the reference", room)
			}
			got, ok := VLANID(tagged)
			if !ok || got != vid {
				t.Fatalf("VLANID after push: %d %v", got, ok)
			}
			popped, err := PopVLAN(tagged)
			if err != nil {
				t.Fatalf("pop after push: %v", err)
			}
			if !bytes.Equal(popped, data) {
				t.Fatal("push+pop altered the frame")
			}
		}
		if HasVLAN(data) && len(data) >= EthernetHeaderLen+Dot1QHeaderLen {
			want := naivePopVLAN(data)
			popped, err := PopVLAN(withCap(data, 0))
			if err != nil || !bytes.Equal(popped, want) {
				t.Fatalf("pop differs from the reference: %v", err)
			}
		}
	})
}

func FuzzDNSDecode(f *testing.F) {
	msg, _ := Serialize(&DNS{ID: 7, QR: true, Questions: []DNSQuestion{{Name: "x.y", Type: DNSTypeA, Class: DNSClassIN}},
		Answers: []DNSAnswer{{Name: "x.y", Type: DNSTypeA, Class: DNSClassIN, TTL: 1, A: IPv4{1, 2, 3, 4}}}})
	f.Add(msg)
	f.Add([]byte{0, 1, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0, 0xc0, 0x0c})
	f.Fuzz(func(t *testing.T, data []byte) {
		var d DNS
		_ = d.DecodeFromBytes(data) // must not panic or loop forever
	})
}
