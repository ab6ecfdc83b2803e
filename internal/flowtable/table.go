package flowtable

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// Entry is one installed flow. The Instructions field holds the
// program the entry was installed with; after a flow-modify the live
// program is the one Instrs returns, which readers on the datapath
// must use (Modify publishes the replacement atomically so lookups
// racing a flow-mod never observe a torn instruction list).
type Entry struct {
	Priority     uint16
	Match        *Match
	Instructions []openflow.Instruction
	Cookie       uint64
	IdleTimeout  uint16 // seconds; 0 = none
	HardTimeout  uint16
	Flags        uint16

	instrs   atomic.Pointer[[]openflow.Instruction] // set by Modify; nil = Instructions
	created  time.Time
	lastUsed atomic.Int64 // unix nanos
	packets  atomic.Uint64
	bytes    atomic.Uint64
}

// Instrs returns the entry's current instruction program. Unlike
// reading the Instructions field it is safe to call concurrently with
// Table.Modify.
func (e *Entry) Instrs() []openflow.Instruction {
	if p := e.instrs.Load(); p != nil {
		return *p
	}
	return e.Instructions
}

// Packets returns the packet hit counter.
func (e *Entry) Packets() uint64 { return e.packets.Load() }

// Bytes returns the byte hit counter.
func (e *Entry) Bytes() uint64 { return e.bytes.Load() }

// Created returns the installation time.
func (e *Entry) Created() time.Time { return e.created }

// Hit accounts one matched packet of n bytes. Only an entry that can
// idle out records when it was hit, so a hit on a permanent entry
// reads no clock.
func (e *Entry) Hit(n int, now *Stamp) {
	e.packets.Add(1)
	e.bytes.Add(uint64(n))
	if e.IdleTimeout > 0 {
		e.lastUsed.Store(now.UnixNano())
	}
}

// Stamp is one lazily read clock value shared by the entry hits of a
// dispatch, the OVS time_msec idiom: the first hit that needs the time
// reads the clock and every later one reuses that reading. A hit on an
// entry without an idle timeout never asks for it.
type Stamp struct {
	clock netem.Clock
	ns    int64
	read  bool
}

// Reset forgets any reading and binds the stamp to clock.
func (s *Stamp) Reset(clock netem.Clock) { *s = Stamp{clock: clock} }

// UnixNano returns the stamp's time, reading the clock on first use.
func (s *Stamp) UnixNano() int64 {
	if !s.read {
		s.ns, s.read = s.clock.Now().UnixNano(), true
	}
	return s.ns
}

// expired reports whether the entry has timed out, and the reason.
func (e *Entry) expired(now time.Time) (bool, uint8) {
	if e.HardTimeout > 0 && now.Sub(e.created) >= time.Duration(e.HardTimeout)*time.Second {
		return true, openflow.FlowRemovedHardTimeout
	}
	if e.IdleTimeout > 0 {
		last := time.Unix(0, e.lastUsed.Load())
		if now.Sub(last) >= time.Duration(e.IdleTimeout)*time.Second {
			return true, openflow.FlowRemovedIdleTimeout
		}
	}
	return false, 0
}

// outputsTo reports whether any instruction outputs to the given port
// (used by flow-mod out_port filtering).
func (e *Entry) outputsTo(port uint32) bool {
	if port == openflow.PortAny {
		return true
	}
	for _, in := range e.Instrs() {
		var acts []openflow.Action
		switch t := in.(type) {
		case *openflow.InstrApplyActions:
			acts = t.Actions
		case *openflow.InstrWriteActions:
			acts = t.Actions
		}
		for _, a := range acts {
			if out, ok := a.(*openflow.ActionOutput); ok && out.Port == port {
				return true
			}
		}
	}
	return false
}

// String renders the entry for diagnostics.
func (e *Entry) String() string {
	return fmt.Sprintf("priority=%d %s (pkts=%d)", e.Priority, e.Match, e.Packets())
}

// Removed describes an entry that was deleted or expired, for
// flow-removed notifications.
type Removed struct {
	Entry    *Entry
	Reason   uint8
	TableID  uint8
	Duration time.Duration
}

// ErrTableFull is returned when the entry limit is reached.
var ErrTableFull = fmt.Errorf("flowtable: table full")

// Table is one priority-ordered flow table.
type Table struct {
	id       uint8
	clock    netem.Clock
	maxFlows int // 0 = unlimited

	mu      sync.RWMutex
	entries []*Entry // sorted by priority descending

	version atomic.Uint64 // bumped on every modification (specializer invalidation)
	lookups atomic.Uint64
	matched atomic.Uint64

	// consult caches the union MaskOf over all entries, keyed by the
	// version it was computed at (see ConsultMask).
	consult atomic.Pointer[consultState]
}

// consultState is one cached ConsultMask computation.
type consultState struct {
	version uint64
	mask    MatchMask
}

// NewTable creates an empty table.
func NewTable(id uint8, clock netem.Clock) *Table {
	if clock == nil {
		clock = netem.RealClock{}
	}
	return &Table{id: id, clock: clock}
}

// SetMaxFlows bounds the table size (0 = unlimited).
func (t *Table) SetMaxFlows(n int) { t.maxFlows = n }

// ID returns the table id.
func (t *Table) ID() uint8 { return t.id }

// Version returns the table's revision counter. It is bumped on every
// flow-mod (add, modify, delete) and on entry expiry, and is what the
// datapath caches — the ESwitch specializer and the softswitch
// microflow cache — validate against so a cached forwarding decision
// never outlives the rules it was derived from.
func (t *Table) Version() uint64 { return t.version.Load() }

// Len returns the number of installed entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Stats returns (lookups, matched) counters.
func (t *Table) Stats() (lookups, matched uint64) {
	return t.lookups.Load(), t.matched.Load()
}

// ConsultMask returns the union of MaskOf over every installed entry:
// the set of header fields a lookup against this table can possibly
// consult. Two keys whose ConsultMask projections are equal
// (mask.Apply) select the same entry here — the per-table step of the
// megaflow soundness argument (see Apply). The result is cached per
// revision, so the steady-state cost on the slow path is one atomic
// load; it is recomputed (under the read lock, so the version and the
// entry set are consistent) only after a flow-mod or expiry.
func (t *Table) ConsultMask() MatchMask {
	if c := t.consult.Load(); c != nil && c.version == t.version.Load() {
		return c.mask
	}
	t.mu.RLock()
	v := t.version.Load()
	var mm MatchMask
	for _, e := range t.entries {
		mm = mm.Union(MaskOf(e.Match))
	}
	t.mu.RUnlock()
	t.consult.Store(&consultState{version: v, mask: mm})
	return mm
}

// Lookup returns the highest-priority matching entry and accounts
// counters (nil on table miss). size is the frame length for byte
// counters.
func (t *Table) Lookup(k *pkt.Key, size int) *Entry {
	now := Stamp{clock: t.clock}
	return t.LookupAt(k, size, &now)
}

// LookupAt is Lookup with the hit time taken from now, which a
// dispatch shares across every table it consults.
func (t *Table) LookupAt(k *pkt.Key, size int, now *Stamp) *Entry {
	t.lookups.Add(1)
	t.mu.RLock()
	var hit *Entry
	for _, e := range t.entries {
		if e.Match.Matches(k) {
			hit = e
			break // entries are priority-sorted
		}
	}
	t.mu.RUnlock()
	if hit != nil {
		t.matched.Add(1)
		hit.Hit(size, now)
	}
	return hit
}

// CreditHit accounts a cache-hit forwarding decision against the table
// and entry counters exactly as the Lookup that produced the cached
// decision would have: one lookup, one match, one entry hit (which
// also refreshes an idle-timeout entry's last use, at now).
//
//harmless:hotpath
func (t *Table) CreditHit(e *Entry, size int, now *Stamp) {
	t.lookups.Add(1)
	t.matched.Add(1)
	e.Hit(size, now)
}

// Add installs a flow per OFPFC_ADD semantics: an entry with identical
// match and priority is replaced (counters reset).
func (t *Table) Add(e *Entry) error {
	now := t.clock.Now()
	e.created = now
	e.lastUsed.Store(now.UnixNano())
	if e.Match == nil {
		e.Match = &Match{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.version.Add(1)
	for i, old := range t.entries {
		if old.Priority == e.Priority && old.Match.Equal(e.Match) {
			t.entries[i] = e
			return nil
		}
	}
	if t.maxFlows > 0 && len(t.entries) >= t.maxFlows {
		return ErrTableFull
	}
	// Insert keeping priority-descending order; new entries go after
	// existing entries of the same priority.
	i := sort.Search(len(t.entries), func(i int) bool {
		return t.entries[i].Priority < e.Priority
	})
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
	return nil
}

// Modify updates instructions of matching flows (non-strict: all flows
// covered by the request match; strict: exact match + priority).
// Counters and timeouts of modified flows are preserved.
func (t *Table) Modify(match *Match, priority uint16, strict bool, instrs []openflow.Instruction) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.entries {
		if strict {
			if e.Priority != priority || !e.Match.Equal(match) {
				continue
			}
		} else if !e.Match.CoveredBy(match) {
			continue
		}
		e.instrs.Store(&instrs)
		n++
	}
	if n > 0 {
		t.version.Add(1)
	}
	return n
}

// Delete removes matching flows and returns them. Non-strict deletes
// remove every flow covered by the request match; strict requires
// exact equality. outPort filters to flows that output to that port
// (PortAny = no filter).
func (t *Table) Delete(match *Match, priority uint16, strict bool, outPort uint32) []Removed {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var removed []Removed
	kept := t.entries[:0]
	for _, e := range t.entries {
		del := false
		if strict {
			del = e.Priority == priority && e.Match.Equal(match)
		} else {
			del = e.Match.CoveredBy(match)
		}
		if del && !e.outputsTo(outPort) {
			del = false
		}
		if del {
			removed = append(removed, Removed{
				Entry: e, Reason: openflow.FlowRemovedDelete,
				TableID: t.id, Duration: now.Sub(e.created),
			})
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	if len(removed) > 0 {
		t.version.Add(1)
	}
	return removed
}

// ExpireEntries removes all timed-out entries and returns them.
func (t *Table) ExpireEntries() []Removed {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var removed []Removed
	kept := t.entries[:0]
	for _, e := range t.entries {
		if exp, reason := e.expired(now); exp {
			removed = append(removed, Removed{
				Entry: e, Reason: reason, TableID: t.id, Duration: now.Sub(e.created),
			})
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	if len(removed) > 0 {
		t.version.Add(1)
	}
	return removed
}

// Entries returns a snapshot of the table contents in priority order.
func (t *Table) Entries() []*Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Entry, len(t.entries))
	copy(out, t.entries)
	return out
}
