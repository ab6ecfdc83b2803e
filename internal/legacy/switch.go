package legacy

import (
	"fmt"
	"sync"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/stats"
)

// Switch is the emulated legacy Ethernet switch dataplane: an 802.1Q
// IVL transparent bridge. Ports are attached to netem links; all
// configuration goes through the management API used by the CLI, the
// SNMP agent and the HARMLESS manager.
//
// Locking discipline: the configuration lock is held only while
// classifying and learning; it is released before any frame is
// transmitted so hairpinned frames can re-enter the switch on the same
// goroutine (see the netem package comment).
type Switch struct {
	mu    sync.Mutex
	cfg   *Config
	ports []*netem.Port // indexed by port number; [0] unused
	fdb   *FDB
	clock netem.Clock

	// per-port dataplane counters, separate from the netem link
	// counters so the SNMP ifTable can expose switch-side numbers.
	// Indexed by port number and fixed at construction; the counters
	// are atomic, so the dataplane updates them without s.mu.
	counters []stats.PortCounters

	bootTime time.Time
	model    string
}

// Option configures a Switch at construction time.
type Option func(*Switch)

// WithClock injects a clock (tests use netem.ManualClock to exercise
// FDB aging deterministically).
func WithClock(c netem.Clock) Option { return func(s *Switch) { s.clock = c } }

// WithFDBAging overrides the MAC aging time.
func WithFDBAging(d time.Duration) Option {
	return func(s *Switch) { s.fdb = NewFDB(d, 0, s.clock) }
}

// WithModel sets the model string reported by the management planes.
func WithModel(m string) Option { return func(s *Switch) { s.model = m } }

// NewSwitch creates a legacy switch with n ports in factory-default
// configuration (all access, VLAN 1).
func NewSwitch(hostname string, n int, opts ...Option) *Switch {
	s := &Switch{
		cfg:      NewDefaultConfig(hostname, n),
		ports:    make([]*netem.Port, n+1),
		counters: make([]stats.PortCounters, n+1),
		clock:    netem.RealClock{},
		model:    "LGS-2400 Series L2 Switch",
	}
	for _, o := range opts {
		o(s)
	}
	if s.fdb == nil {
		s.fdb = NewFDB(0, 0, s.clock)
	}
	s.bootTime = s.clock.Now()
	return s
}

// AttachPort connects physical port number n (1-based) to one end of a
// netem link. It panics on an unknown port number — attaching is
// topology construction, not runtime input.
func (s *Switch) AttachPort(n int, p *netem.Port) {
	s.mu.Lock()
	if _, ok := s.cfg.Ports[n]; !ok {
		s.mu.Unlock()
		panic(fmt.Sprintf("legacy: switch %q has no port %d", s.cfg.Hostname, n))
	}
	s.ports[n] = p
	s.mu.Unlock()
	p.SetReceiver(func(frame []byte) { s.receive(n, frame) })
}

// maxStackEgress sizes the per-frame egress target array: a flood set
// up to this many ports costs no allocation, a wider one spills to
// the heap.
const maxStackEgress = 16

// receive implements the bridge forwarding process for a frame
// arriving on port in.
//
//harmless:hotpath
func (s *Switch) receive(in int, frame []byte) {
	if len(frame) < pkt.EthernetHeaderLen {
		s.counters[in].RxErrors.Inc()
		return
	}

	s.mu.Lock()
	pc, ok := s.cfg.Ports[in]
	if !ok || pc.Shutdown {
		s.mu.Unlock()
		return
	}
	s.counters[in].RecordRx(len(frame))

	// Ingress classification.
	vid, tagged := pkt.VLANID(frame)
	var vlan uint16
	switch pc.Mode {
	case ModeAccess:
		if tagged {
			// Access ports accept a tagged frame only for their own
			// VLAN (common vendor behaviour); anything else is dropped.
			if vid != pc.PVID {
				s.counters[in].RxDropped.Inc()
				s.mu.Unlock()
				return
			}
			vlan = vid
		} else {
			vlan = pc.PVID
		}
	case ModeTrunk:
		if tagged {
			vlan = vid
		} else {
			vlan = pc.PVID // native VLAN
		}
		if !pc.allows(vlan) {
			s.counters[in].RxDropped.Inc()
			s.mu.Unlock()
			return
		}
	}

	// Learning and lookup, one FDB pass.
	var src, dst pkt.MAC
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])
	p, known := s.fdb.learnLookup(vlan, src, in, dst)

	// Forwarding decision: either a single known port or a flood set.
	var buf [maxStackEgress]egressTarget
	out := buf[:0]
	switch {
	case !dst.IsUnicast() || !known:
		out = s.floodSetLocked(out, in, vlan)
	case p != in: // a known address on the ingress port itself is filtered
		out = s.egressLocked(out, p, vlan)
	}
	s.mu.Unlock()

	// Transmit outside the lock. Every target but the last gets its own
	// copy of the still-untouched ingress frame (flood replicas); the
	// last takes the ingress frame itself and is retagged in place.
	for i, e := range out {
		f := frame
		if i < len(out)-1 {
			f = make([]byte, len(frame), len(frame)+pkt.Dot1QHeaderLen) //harmless:allow-alloc flood replica, with room for a tag
			copy(f, frame)
		}
		if f = egressFrame(f, vlan, e.tagged); f == nil {
			continue
		}
		s.counters[e.port].RecordTx(len(f))
		_ = e.np.Send(f)
	}
}

// egressTarget is one port of a forwarding decision, resolved under
// s.mu so transmission needs no configuration.
type egressTarget struct {
	port   int
	np     *netem.Port
	tagged bool // the port sends the frame's VLAN tagged
}

// egressLocked appends port p to out if it forwards vlan. Caller holds
// s.mu.
func (s *Switch) egressLocked(out []egressTarget, p int, vlan uint16) []egressTarget {
	epc, ok := s.cfg.Ports[p]
	if !ok || epc.Shutdown || !epc.allows(vlan) || s.ports[p] == nil {
		return out
	}
	// Access ports and the trunk native VLAN send untagged, trunks
	// send tagged.
	return append(out, egressTarget{p, s.ports[p], epc.Mode == ModeTrunk && vlan != epc.PVID})
}

// floodSetLocked appends the flood set for vlan, excluding the
// ingress port, to out in port order. Caller holds s.mu.
func (s *Switch) floodSetLocked(out []egressTarget, in int, vlan uint16) []egressTarget {
	for p := 1; p < len(s.ports); p++ {
		if p != in {
			out = s.egressLocked(out, p, vlan)
		}
	}
	return out
}

// egressFrame tags, untags or retags frame in place for a port that
// sends vlan tagged or not, and returns it (nil if the frame is
// malformed).
func egressFrame(frame []byte, vlan uint16, wantTagged bool) []byte {
	_, tagged := pkt.VLANID(frame)
	var err error
	switch {
	case tagged && wantTagged:
		err = pkt.SetVLANID(frame, vlan)
	case tagged:
		frame, err = pkt.PopVLAN(frame)
	case wantTagged:
		frame, err = pkt.PushVLAN(frame, pkt.EtherTypeDot1Q, vlan)
	}
	if err != nil {
		return nil
	}
	return frame
}

// --- Management API ------------------------------------------------

// Hostname returns the configured hostname.
func (s *Switch) Hostname() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Hostname
}

// Model returns the model string.
func (s *Switch) Model() string { return s.model }

// Uptime returns time since boot.
func (s *Switch) Uptime() time.Duration {
	return s.clock.Now().Sub(s.bootTime)
}

// NumPorts returns the number of physical ports.
func (s *Switch) NumPorts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cfg.Ports)
}

// Config returns a deep copy of the running configuration.
func (s *Switch) Config() *Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.clone()
}

// SetHostname renames the switch.
func (s *Switch) SetHostname(h string) {
	s.mu.Lock()
	s.cfg.Hostname = h
	s.mu.Unlock()
}

// DeclareVLAN creates (or renames) a VLAN.
func (s *Switch) DeclareVLAN(id uint16, name string) error {
	if id < 1 || id > MaxVLAN {
		return fmt.Errorf("legacy: VLAN %d out of range", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		name = fmt.Sprintf("VLAN%04d", id)
	}
	s.cfg.VLANs[id] = name
	return nil
}

// RemoveVLAN deletes a VLAN declaration and flushes its FDB entries.
func (s *Switch) RemoveVLAN(id uint16) {
	s.mu.Lock()
	delete(s.cfg.VLANs, id)
	s.mu.Unlock()
	s.fdb.FlushVLAN(id)
}

// SetPortAccess configures port n as an access port in vlan.
func (s *Switch) SetPortAccess(n int, vlan uint16) error {
	if vlan < 1 || vlan > MaxVLAN {
		return fmt.Errorf("legacy: VLAN %d out of range", vlan)
	}
	s.mu.Lock()
	pc, ok := s.cfg.Ports[n]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("legacy: no port %d", n)
	}
	pc.Mode = ModeAccess
	pc.PVID = vlan
	pc.Allowed = nil
	if _, declared := s.cfg.VLANs[vlan]; !declared {
		s.cfg.VLANs[vlan] = fmt.Sprintf("VLAN%04d", vlan)
	}
	s.mu.Unlock()
	s.fdb.FlushPort(n)
	return nil
}

// SetPortTrunk configures port n as a trunk carrying the listed VLANs
// (nil allowed = all) with the given native VLAN.
func (s *Switch) SetPortTrunk(n int, native uint16, allowed []uint16) error {
	if native < 1 || native > MaxVLAN {
		return fmt.Errorf("legacy: native VLAN %d out of range", native)
	}
	s.mu.Lock()
	pc, ok := s.cfg.Ports[n]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("legacy: no port %d", n)
	}
	pc.Mode = ModeTrunk
	pc.PVID = native
	if allowed == nil {
		pc.Allowed = nil
	} else {
		pc.Allowed = make(map[uint16]bool, len(allowed))
		for _, v := range allowed {
			if v < 1 || v > MaxVLAN {
				s.mu.Unlock()
				return fmt.Errorf("legacy: allowed VLAN %d out of range", v)
			}
			pc.Allowed[v] = true
		}
	}
	s.mu.Unlock()
	s.fdb.FlushPort(n)
	return nil
}

// SetPortShutdown administratively disables or enables a port.
func (s *Switch) SetPortShutdown(n int, down bool) error {
	s.mu.Lock()
	pc, ok := s.cfg.Ports[n]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("legacy: no port %d", n)
	}
	pc.Shutdown = down
	s.mu.Unlock()
	if down {
		s.fdb.FlushPort(n)
	}
	return nil
}

// PortCounters returns the dataplane counters of port n (nil if the
// port does not exist).
func (s *Switch) PortCounters(n int) *stats.PortCounters {
	if n < 1 || n >= len(s.counters) {
		return nil
	}
	return &s.counters[n]
}

// PortAttached reports whether a link is attached to port n.
func (s *Switch) PortAttached(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return n >= 1 && n < len(s.ports) && s.ports[n] != nil
}

// FDB exposes the forwarding database for the management planes.
func (s *Switch) FDB() *FDB { return s.fdb }
