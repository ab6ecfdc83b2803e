package pkt

import (
	"fmt"
	"strings"
)

// Packet is a fully decoded frame: an ordered stack of layers plus the
// raw bytes it was decoded from. Decoding is eager; a failed layer
// terminates the stack and is reported by Err.
//
// The layers live inside the Packet — one value per layer type (the
// Parser's set), the opaque payload and the stack's backing array —
// so decoding a frame costs one allocation, and none when DecodeInto
// reuses a Packet. Only a repeat beyond the set (a third stacked VLAN
// tag) allocates its own layer.
type Packet struct {
	data   []byte
	layers []Layer
	err    error

	set     Parser
	payload Payload
	stack   [8]Layer
}

// Decode parses data starting at the given first layer type. The
// returned Packet always contains the layers decoded before any error.
// data is NOT copied; the caller must not mutate it while the Packet is
// in use (the dataplane hands frames over by ownership transfer, so
// this is the gopacket NoCopy model).
func Decode(data []byte, first LayerType) *Packet {
	p := new(Packet)
	DecodeInto(p, data, first)
	return p
}

// DecodeInto is Decode into caller-owned storage: it replaces whatever
// p held with the decoding of data, leaving p equal to what Decode
// would return. A caller that recycles Packets (a sync.Pool, say)
// decodes without allocating, as long as the frame has no third
// stacked VLAN tag. Layers, payload and errors taken from p before the
// call are invalid after it.
func DecodeInto(p *Packet, data []byte, first LayerType) {
	*p = Packet{data: data}
	p.layers = p.stack[:0]
	rest := data
	next := first
	vlans := 0
	for next != LayerTypeNone && next != LayerTypePayload {
		l := p.set.layer(next, vlans)
		if next == LayerTypeDot1Q {
			if l == nil {
				l = &Dot1Q{}
			}
			vlans++
		}
		if l == nil {
			break
		}
		if err := l.DecodeFromBytes(rest); err != nil {
			p.err = err
			return
		}
		p.layers = append(p.layers, l)
		rest = l.LayerPayload()
		next = l.NextLayerType()
		if len(rest) == 0 {
			return
		}
	}
	if len(rest) > 0 {
		p.payload = Payload(rest)
		p.layers = append(p.layers, &p.payload)
	}
}

// DecodeEthernet decodes a frame starting from the Ethernet header.
func DecodeEthernet(data []byte) *Packet { return Decode(data, LayerTypeEthernet) }

// Data returns the raw bytes the packet was decoded from.
func (p *Packet) Data() []byte { return p.data }

// Err returns the decode error encountered, if any. Layers decoded
// before the error are still available.
func (p *Packet) Err() error { return p.err }

// Layers returns the decoded layer stack in wire order.
func (p *Packet) Layers() []Layer { return p.layers }

// Layer returns the first layer of the given type, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// Ethernet returns the Ethernet layer, or nil.
func (p *Packet) Ethernet() *Ethernet {
	if l := p.Layer(LayerTypeEthernet); l != nil {
		return l.(*Ethernet)
	}
	return nil
}

// VLAN returns the outermost 802.1Q tag, or nil if untagged.
func (p *Packet) VLAN() *Dot1Q {
	if l := p.Layer(LayerTypeDot1Q); l != nil {
		return l.(*Dot1Q)
	}
	return nil
}

// IPv4 returns the IPv4 layer, or nil.
func (p *Packet) IPv4() *IPv4Header {
	if l := p.Layer(LayerTypeIPv4); l != nil {
		return l.(*IPv4Header)
	}
	return nil
}

// ARP returns the ARP layer, or nil.
func (p *Packet) ARP() *ARP {
	if l := p.Layer(LayerTypeARP); l != nil {
		return l.(*ARP)
	}
	return nil
}

// TCP returns the TCP layer, or nil.
func (p *Packet) TCP() *TCP {
	if l := p.Layer(LayerTypeTCP); l != nil {
		return l.(*TCP)
	}
	return nil
}

// UDP returns the UDP layer, or nil.
func (p *Packet) UDP() *UDP {
	if l := p.Layer(LayerTypeUDP); l != nil {
		return l.(*UDP)
	}
	return nil
}

// ICMPv4 returns the ICMPv4 layer, or nil.
func (p *Packet) ICMPv4() *ICMPv4 {
	if l := p.Layer(LayerTypeICMPv4); l != nil {
		return l.(*ICMPv4)
	}
	return nil
}

// DNS returns the DNS layer, or nil.
func (p *Packet) DNS() *DNS {
	if l := p.Layer(LayerTypeDNS); l != nil {
		return l.(*DNS)
	}
	return nil
}

// ApplicationPayload returns the innermost opaque payload bytes, or nil.
func (p *Packet) ApplicationPayload() []byte {
	if len(p.layers) == 0 {
		return nil
	}
	last := p.layers[len(p.layers)-1]
	if pl, ok := last.(*Payload); ok {
		return []byte(*pl)
	}
	return nil
}

// String renders a one-line-per-layer summary, handy in test failures
// and the capture tooling.
func (p *Packet) String() string {
	var sb strings.Builder
	for i, l := range p.layers {
		if i > 0 {
			sb.WriteString(" / ")
		}
		if s, ok := l.(fmt.Stringer); ok {
			sb.WriteString(s.String())
		} else {
			sb.WriteString(l.LayerType().String())
		}
	}
	if p.err != nil {
		fmt.Fprintf(&sb, " [decode error: %v]", p.err)
	}
	return sb.String()
}
