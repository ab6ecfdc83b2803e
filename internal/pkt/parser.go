package pkt

// Parser is a reusable, zero-allocation decoder in the style of
// gopacket's DecodingLayerParser: the caller owns one Parser (it is NOT
// safe for concurrent use) and repeatedly calls DecodeLayers; the
// parser decodes into its own preallocated layer structs and reports
// which layers were found. Every Packet embeds one as its per-type
// layer set, which Decode and DecodeInto fill; a standalone Parser
// suits a caller that wants only the list of layer types found.
type Parser struct {
	Eth    Ethernet
	Dot1Q  [2]Dot1Q // outer, inner (QinQ)
	ARP    ARP
	IPv4   IPv4Header
	IPv6   IPv6Header
	TCP    TCP
	UDP    UDP
	ICMPv4 ICMPv4
	DNS    DNS

	// Truncated is set when an inner layer was cut short; the layers
	// decoded before it are still valid.
	Truncated bool
}

// NewParser returns a ready-to-use Parser.
func NewParser() *Parser { return &Parser{} }

// DecodeLayers decodes frame starting at Ethernet, appending each
// decoded LayerType to decoded (which is reset first). Unknown or
// truncated inner layers stop the walk without an error; only a frame
// too short for Ethernet returns one.
func (p *Parser) DecodeLayers(frame []byte, decoded *[]LayerType) error {
	*decoded = (*decoded)[:0]
	p.Truncated = false
	if err := p.Eth.DecodeFromBytes(frame); err != nil {
		return err
	}
	*decoded = append(*decoded, LayerTypeEthernet)
	next := p.Eth.NextLayerType()
	rest := p.Eth.LayerPayload()
	vlanIdx := 0
	for next != LayerTypeNone && next != LayerTypePayload {
		l := p.layer(next, vlanIdx)
		if l == nil {
			return nil // unknown type, or deeper QinQ nesting than supported: treat as payload
		}
		if next == LayerTypeDot1Q {
			vlanIdx++
		}
		if err := l.DecodeFromBytes(rest); err != nil {
			p.Truncated = true
			return nil
		}
		*decoded = append(*decoded, next)
		rest = l.LayerPayload()
		next = l.NextLayerType()
		if len(rest) == 0 && next != LayerTypeNone {
			return nil
		}
	}
	return nil
}

// OuterVLAN returns the outermost decoded VLAN tag. Only valid if
// decoded contains LayerTypeDot1Q.
func (p *Parser) OuterVLAN() *Dot1Q { return &p.Dot1Q[0] }

// layer returns the parser's value for layer type t, given that vlans
// VLAN tags were decoded before it. It returns nil for a type the
// parser does not decode and for a VLAN tag beyond the two slots.
func (p *Parser) layer(t LayerType, vlans int) Layer {
	switch t {
	case LayerTypeEthernet:
		return &p.Eth
	case LayerTypeDot1Q:
		if vlans < len(p.Dot1Q) {
			return &p.Dot1Q[vlans]
		}
	case LayerTypeARP:
		return &p.ARP
	case LayerTypeIPv4:
		return &p.IPv4
	case LayerTypeIPv6:
		return &p.IPv6
	case LayerTypeTCP:
		return &p.TCP
	case LayerTypeUDP:
		return &p.UDP
	case LayerTypeICMPv4:
		return &p.ICMPv4
	case LayerTypeDNS:
		return &p.DNS
	}
	return nil
}
