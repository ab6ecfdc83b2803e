// Package legacy emulates the "plain old legacy Ethernet switch" that
// HARMLESS migrates to SDN: an 802.1Q transparent bridge with per-port
// access/trunk VLAN configuration, MAC learning with aging, per-port
// counters, and two remote management planes — a vendor-style CLI (two
// dialects, see cli.go) and an SNMP agent binding (see mib.go).
//
// The dataplane implements exactly the standard behaviours the
// HARMLESS trick depends on (§2 of the paper): untagged frames entering
// an access port are classified into the port's VLAN; frames leaving on
// the trunk carry the 802.1Q tag; frames returning on the trunk tagged
// with an access port's VLAN are forwarded to that port with the tag
// stripped.
package legacy

import (
	"sort"
	"sync"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// DefaultFDBAging is the MAC table aging time used when none is
// configured; 300s matches common vendor defaults.
const DefaultFDBAging = 300 * time.Second

// fdbKey identifies a learned entry: learning is per (VLAN, MAC) as in
// an IVL (independent VLAN learning) bridge.
type fdbKey struct {
	vlan uint16
	mac  pkt.MAC
}

// FDBEntry is one visible forwarding-database entry.
type FDBEntry struct {
	VLAN     uint16
	MAC      pkt.MAC
	Port     int
	Static   bool
	LastSeen time.Time
}

// FDB is the filtering/forwarding database of the bridge. It is safe
// for concurrent use. Aging is lazy: expired entries are ignored by
// Lookup and physically removed by Sweep (or by re-learning).
type FDB struct {
	mu      sync.Mutex
	entries map[fdbKey]*FDBEntry
	aging   time.Duration
	clock   netem.Clock
	max     int
}

// NewFDB creates a table with the given aging time and capacity; zero
// values select DefaultFDBAging and an effectively unlimited capacity.
func NewFDB(aging time.Duration, max int, clock netem.Clock) *FDB {
	if aging <= 0 {
		aging = DefaultFDBAging
	}
	if clock == nil {
		clock = netem.RealClock{}
	}
	return &FDB{
		entries: make(map[fdbKey]*FDBEntry),
		aging:   aging,
		clock:   clock,
		max:     max,
	}
}

// Learn records that mac was seen on port within vlan. Static entries
// are never displaced by learning. Learning a full table is a no-op
// (as in hardware, where the entry simply isn't installed).
func (f *FDB) Learn(vlan uint16, mac pkt.MAC, port int) {
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.learnLocked(now, vlan, mac, port)
}

// AddStatic installs a permanent entry (management plane operation).
func (f *FDB) AddStatic(vlan uint16, mac pkt.MAC, port int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entries[fdbKey{vlan, mac}] = &FDBEntry{
		VLAN: vlan, MAC: mac, Port: port, Static: true, LastSeen: f.clock.Now(),
	}
}

// Lookup returns the egress port for (vlan, mac), or ok=false if the
// address is unknown (or the entry has aged out).
func (f *FDB) Lookup(vlan uint16, mac pkt.MAC) (port int, ok bool) {
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lookupLocked(now, vlan, mac)
}

// learnLookup is the bridge's per-frame step: Learn(vlan, src, in)
// then Lookup(vlan, dst), under one lock and one clock read.
func (f *FDB) learnLookup(vlan uint16, src pkt.MAC, in int, dst pkt.MAC) (port int, ok bool) {
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.learnLocked(now, vlan, src, in)
	return f.lookupLocked(now, vlan, dst)
}

func (f *FDB) learnLocked(now time.Time, vlan uint16, mac pkt.MAC, port int) {
	if !mac.IsUnicast() {
		return // never learn multicast/broadcast sources
	}
	k := fdbKey{vlan, mac}
	if e, ok := f.entries[k]; ok {
		if e.Static {
			return
		}
		e.Port = port
		e.LastSeen = now
		return
	}
	if f.max > 0 && len(f.entries) >= f.max {
		// Opportunistically evict one expired entry to make room.
		if !f.evictExpiredLocked(now) {
			return
		}
	}
	f.entries[k] = &FDBEntry{VLAN: vlan, MAC: mac, Port: port, LastSeen: now}
}

func (f *FDB) lookupLocked(now time.Time, vlan uint16, mac pkt.MAC) (port int, ok bool) {
	k := fdbKey{vlan, mac}
	e, ok := f.entries[k]
	if !ok {
		return 0, false
	}
	if !e.Static && now.Sub(e.LastSeen) > f.aging {
		delete(f.entries, k)
		return 0, false
	}
	return e.Port, true
}

// evictExpiredLocked removes one expired entry if any exists.
func (f *FDB) evictExpiredLocked(now time.Time) bool {
	for k, e := range f.entries {
		if !e.Static && now.Sub(e.LastSeen) > f.aging {
			delete(f.entries, k)
			return true
		}
	}
	return false
}

// Sweep removes all expired entries and returns how many were removed.
func (f *FDB) Sweep() int {
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	removed := 0
	for k, e := range f.entries {
		if !e.Static && now.Sub(e.LastSeen) > f.aging {
			delete(f.entries, k)
			removed++
		}
	}
	return removed
}

// FlushPort removes all dynamic entries pointing at port (issued when a
// port goes down or is reconfigured).
func (f *FDB) FlushPort(port int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, e := range f.entries {
		if e.Port == port && !e.Static {
			delete(f.entries, k)
		}
	}
}

// FlushVLAN removes all dynamic entries within vlan.
func (f *FDB) FlushVLAN(vlan uint16) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, e := range f.entries {
		if e.VLAN == vlan && !e.Static {
			delete(f.entries, k)
		}
	}
}

// Len returns the number of entries currently stored (including any
// not-yet-swept expired entries).
func (f *FDB) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}

// Entries returns a snapshot sorted by (VLAN, MAC) for the management
// plane ("show mac address-table").
func (f *FDB) Entries() []FDBEntry {
	f.mu.Lock()
	out := make([]FDBEntry, 0, len(f.entries))
	for _, e := range f.entries {
		out = append(out, *e)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].VLAN != out[j].VLAN {
			return out[i].VLAN < out[j].VLAN
		}
		for b := 0; b < 6; b++ {
			if out[i].MAC[b] != out[j].MAC[b] {
				return out[i].MAC[b] < out[j].MAC[b]
			}
		}
		return false
	})
	return out
}
