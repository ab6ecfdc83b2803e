// Package softswitch implements the OpenFlow 1.3 software switch that
// HARMLESS instantiates twice per migrated device: once as the
// translator (SS_1) and once as the controller-facing main switch
// (SS_2). It executes the flow-table semantics of internal/flowtable
// over frames arriving on netem ports, zero-copy patch ports, or any
// other PortBackend, and exposes the switch side of the OpenFlow
// channel (Agent).
//
// The hot-path entry point is ReceiveBatch (batch.go), which amortizes
// key extraction, cache shard locks and egress flushes over a frame
// vector; Receive is its one-frame wrapper. The datapath layers four
// lookup modes, fastest first:
//
//  1. a microflow cache (cache.go) — an OVS-style sharded exact-match
//     map from the packet's header key to a pre-resolved program,
//     revalidated against table revisions on every hit, enabled by
//     default;
//  2. a wildcard megaflow cache (megaflow.go) — one entry per
//     mask-equivalence class, probed on the packet key projected
//     through the union of the consulted tables' match masks, so a
//     churn of short-lived flows sharing a ruleset shape still hits;
//  3. the ESwitch-style compiled fast path (flowtable.Compile),
//     rebuilt lazily whenever the table version changes, opt-in via
//     WithSpecialization;
//  4. the generic priority scan of internal/flowtable.
//
// Tiers 1 and 2 compose behind the CacheTier interface (tier.go) as an
// ordered chain with pooled entries and per-shard adaptive bypass.
//
// See DESIGN.md for the full datapath walk and the cache's
// invalidation rules.
package softswitch

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/stats"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

// DefaultNumTables is the pipeline depth advertised to controllers.
const DefaultNumTables = 4

// swPort is one datapath port: a number, counters, and the pluggable
// backend frames egress through.
type swPort struct {
	no       uint32
	name     string
	backend  PortBackend
	counters stats.PortCounters
	hwAddr   pkt.MAC
}

// Switch is one software switch instance.
type Switch struct {
	name  string
	dpid  uint64
	clock netem.Clock

	tables    []*flowtable.Table
	numTables int // set by WithNumTables; 0 = DefaultNumTables
	groups    *flowtable.GroupTable
	meters    *flowtable.MeterTable

	// ports is the port table, copy-on-write: AttachPort publishes a
	// new map under portMu and every reader works on a snapshot
	// without a lock.
	portMu sync.Mutex
	ports  atomic.Pointer[map[uint32]*swPort]

	specialize bool
	fast       []atomic.Pointer[fastState]

	cacheSize      int  // per-tier cache capacity; <=0 disables the chain
	megaflow       bool // wildcard megaflow tier on top of the exact tier
	adaptiveBypass bool // per-shard hit-rate bypass
	injectedTiers  []CacheTier
	cache          *cacheChain

	// telemetry, when non-nil, receives per-flow accounting from the
	// batch dispatch path. Atomic so it can be attached to a running
	// switch (harmlessd wires it after deployment build).
	telemetry atomic.Pointer[telemetry.Table]

	buffers *bufferPool

	agentMu sync.RWMutex
	agent   *Agent // non-nil once connected to a controller

	pktIns stats.Counter
	drops  stats.Counter
}

// fastState caches one table's compilation attempt.
type fastState struct {
	fp            *flowtable.FastPath
	failedVersion uint64 // version at which compilation last failed (+1 offset)
}

// Option configures a Switch.
type Option func(*Switch)

// WithClock injects a clock for deterministic timeout tests.
func WithClock(c netem.Clock) Option { return func(s *Switch) { s.clock = c } }

// WithSpecialization enables the ESwitch-style compiled fast path.
func WithSpecialization(on bool) Option { return func(s *Switch) { s.specialize = on } }

// WithMicroflowCache switches the exact-match microflow cache on or
// off (on by default).
func WithMicroflowCache(on bool) Option {
	return func(s *Switch) {
		if on {
			s.cacheSize = DefaultMicroflowCacheSize
		} else {
			s.cacheSize = 0
		}
	}
}

// WithMicroflowCacheSize bounds each cache tier to roughly n entries
// (n <= 0 disables the cache chain).
func WithMicroflowCacheSize(n int) Option { return func(s *Switch) { s.cacheSize = n } }

// WithMegaflowCache switches the wildcard megaflow tier on or off (on
// by default; the exact-match tier is governed by WithMicroflowCache).
func WithMegaflowCache(on bool) Option { return func(s *Switch) { s.megaflow = on } }

// WithAdaptiveBypass switches the per-shard hit-rate bypass on or off
// (on by default). With it off the chain records and installs on every
// miss, whatever the hit rate — the right setting for alloc-profile
// tests and workloads known to be cache-friendly.
func WithAdaptiveBypass(on bool) Option { return func(s *Switch) { s.adaptiveBypass = on } }

// WithCacheTiers replaces the default tier stack (exact microflow +
// wildcard megaflow) with an explicit ordered chain — the injection
// point for custom CacheTier implementations and for tests. The
// chain's capacity, bypass and pooling machinery still apply.
func WithCacheTiers(tiers ...CacheTier) Option {
	return func(s *Switch) { s.injectedTiers = tiers }
}

// WithTelemetry attaches a flow-telemetry table at construction time
// (SetTelemetry attaches one to a running switch).
func WithTelemetry(t *telemetry.Table) Option {
	return func(s *Switch) { s.telemetry.Store(t) }
}

// WithNumTables sets the pipeline depth.
func WithNumTables(n int) Option { return func(s *Switch) { s.numTables = n } }

// New creates a switch with the given datapath id.
func New(name string, dpid uint64, opts ...Option) *Switch {
	s := &Switch{
		name:           name,
		dpid:           dpid,
		clock:          netem.RealClock{},
		groups:         flowtable.NewGroupTable(),
		buffers:        newBufferPool(256),
		cacheSize:      DefaultMicroflowCacheSize,
		megaflow:       true,
		adaptiveBypass: true,
	}
	s.ports.Store(new(map[uint32]*swPort))
	for _, o := range opts {
		o(s)
	}
	// The tables are built after every option so they run on the
	// switch's clock whatever the option order: a dispatch stamps their
	// entries' hits with one reading of that clock.
	if s.numTables <= 0 {
		s.numTables = DefaultNumTables
	}
	for i := 0; i < s.numTables; i++ {
		s.tables = append(s.tables, flowtable.NewTable(uint8(i), s.clock))
	}
	s.meters = flowtable.NewMeterTable(s.clock)
	s.fast = make([]atomic.Pointer[fastState], len(s.tables))
	if s.cacheSize > 0 {
		s.cache = newCacheChain(s.cacheSize, s.megaflow, s.adaptiveBypass, s.injectedTiers)
	}
	return s
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// DatapathID returns the datapath id.
func (s *Switch) DatapathID() uint64 { return s.dpid }

// NumTables returns the pipeline depth.
func (s *Switch) NumTables() int { return len(s.tables) }

// Table returns table id (nil if out of range).
func (s *Switch) Table(id uint8) *flowtable.Table {
	if int(id) >= len(s.tables) {
		return nil
	}
	return s.tables[id]
}

// Groups exposes the group table.
func (s *Switch) Groups() *flowtable.GroupTable { return s.groups }

// Meters exposes the meter table.
func (s *Switch) Meters() *flowtable.MeterTable { return s.meters }

// PacketIns returns the count of packets sent to the controller.
func (s *Switch) PacketIns() uint64 { return s.pktIns.Load() }

// Drops returns the count of packets dropped by the pipeline (table
// miss or empty action set).
func (s *Switch) Drops() uint64 { return s.drops.Load() }

// SetTelemetry attaches (or, with nil, detaches) a flow-telemetry
// table. Frames dispatched after the store are accounted against it;
// flow records resolve lazily, so attaching mid-flight is safe.
func (s *Switch) SetTelemetry(t *telemetry.Table) { s.telemetry.Store(t) }

// Telemetry returns the attached flow-telemetry table (nil if none).
func (s *Switch) Telemetry() *telemetry.Table { return s.telemetry.Load() }

// CacheStats returns a point-in-time snapshot of the cache chain's
// aggregated counters (hits summed over tiers, misses and bypasses at
// chain level), or nil when the cache is disabled.
func (s *Switch) CacheStats() *stats.CacheCounters {
	if s.cache == nil {
		return nil
	}
	return s.cache.statsSnapshot()
}

// CacheTierStats is one tier's identity and counters, snapshotted for
// diagnostics (/stats in harmlessd).
type CacheTierStats struct {
	Name          string `json:"name"`
	Exact         bool   `json:"exact"`
	Len           int    `json:"len"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Inserts       uint64 `json:"inserts"`
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
}

// CacheTierStats snapshots each tier of the cache chain in probe order
// (nil when the cache is disabled).
func (s *Switch) CacheTierStats() []CacheTierStats {
	if s.cache == nil {
		return nil
	}
	out := make([]CacheTierStats, 0, len(s.cache.tiers))
	for _, t := range s.cache.tiers {
		c := t.Counters()
		out = append(out, CacheTierStats{
			Name:          t.Name(),
			Exact:         t.Exact(),
			Len:           t.Len(),
			Hits:          c.Hits.Load(),
			Misses:        c.Misses.Load(),
			Inserts:       c.Inserts.Load(),
			Invalidations: c.Invalidations.Load(),
			Evictions:     c.Evictions.Load(),
		})
	}
	return out
}

// CacheLen returns the number of cached entries across all tiers (0
// when disabled).
func (s *Switch) CacheLen() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.len()
}

// AttachPort binds an arbitrary PortBackend as datapath port no. The
// backend is egress only; ingress is the caller's affair (call Receive
// or ReceiveBatch with this port number).
func (s *Switch) AttachPort(no uint32, name string, be PortBackend) {
	sp := &swPort{no: no, name: name, backend: be, hwAddr: portMAC(s.dpid, no)}
	s.portMu.Lock()
	old := s.portTable()
	ports := make(map[uint32]*swPort, len(old)+1)
	maps.Copy(ports, old)
	ports[no] = sp
	s.ports.Store(&ports)
	s.portMu.Unlock()
	s.notifyPortStatus(openflow.PortReasonAdd, sp)
}

// AttachNetPort binds a netem port as datapath port no, wiring both
// the per-frame and the batched receive path into the datapath.
func (s *Switch) AttachNetPort(no uint32, name string, p *netem.Port) {
	s.AttachPort(no, name, netBackend{port: p})
	p.SetReceiver(func(frame []byte) { s.Receive(no, frame) })
	p.SetBatchReceiver(func(frames [][]byte) { s.ReceiveBatch(no, frames) })
}

// ConnectPatch wires aPort on a to bPort on b with a zero-copy patch
// link (the HARMLESS-S4 internal wiring between SS_1 and SS_2).
// Frames crossing a patch port stay grouped: the dispatch loop hands
// the peer the whole per-port batch iteratively rather than recursing
// into it per frame.
func ConnectPatch(a *Switch, aPort uint32, b *Switch, bPort uint32) {
	a.AttachPort(aPort, fmt.Sprintf("patch-%s%d", b.name, bPort), &patchBackend{peer: b, peerPort: bPort})
	b.AttachPort(bPort, fmt.Sprintf("patch-%s%d", a.name, aPort), &patchBackend{peer: a, peerPort: aPort})
}

// portMAC derives a stable per-port MAC from the dpid.
func portMAC(dpid uint64, port uint32) pkt.MAC {
	return pkt.MAC{0x02, byte(dpid >> 16), byte(dpid >> 8), byte(dpid), byte(port >> 8), byte(port)}
}

// portTable returns the current port table snapshot. Callers must not
// modify it.
func (s *Switch) portTable() map[uint32]*swPort { return *s.ports.Load() }

// getPort looks up a datapath port.
func (s *Switch) getPort(no uint32) *swPort { return s.portTable()[no] }

// PortNumbers returns the attached port numbers in ascending order.
func (s *Switch) PortNumbers() []uint32 {
	ports := s.portTable()
	out := make([]uint32, 0, len(ports))
	for no := range ports {
		out = append(out, no)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PortCounters returns the datapath counters of a port (nil if absent).
func (s *Switch) PortCounters(no uint32) *stats.PortCounters {
	if p := s.getPort(no); p != nil {
		return &p.counters
	}
	return nil
}

// PortDescs renders the OpenFlow port descriptions.
func (s *Switch) PortDescs() []openflow.PortDesc {
	ports := s.portTable()
	out := make([]openflow.PortDesc, 0, len(ports))
	for _, p := range ports {
		out = append(out, openflow.PortDesc{
			PortNo: p.no, HWAddr: p.hwAddr, Name: p.name,
			State: openflow.PortStateLive, CurrSpeed: 1e6, MaxSpeed: 1e6,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PortNo < out[j].PortNo })
	return out
}

// transmit sends a frame out a datapath port by coalescing it into the
// dispatch's per-port egress vector; the port's backend sees it at the
// batch's flush. Every datapath entry point runs inside a dispatch, so
// tx is always live here.
func (s *Switch) transmit(p *swPort, frame []byte, tx *txContext) {
	tx.add(p, frame)
}

// ApplyFlowMod applies a flow-mod locally (management path and OF
// agent both funnel through here). Returned Removed entries carry
// flow-removed notifications for entries with the SendFlowRem flag.
func (s *Switch) ApplyFlowMod(fm *openflow.FlowMod) ([]flowtable.Removed, error) {
	if int(fm.TableID) >= len(s.tables) && !(fm.Command == openflow.FlowDelete && fm.TableID == openflow.TableAll) {
		return nil, fmt.Errorf("softswitch: table %d out of range", fm.TableID)
	}
	match, err := flowtable.FromOXM(&fm.Match)
	if err != nil {
		return nil, err
	}
	if err := match.ValidatePrerequisites(); err != nil {
		return nil, err
	}
	switch fm.Command {
	case openflow.FlowAdd:
		entry := &flowtable.Entry{
			Priority:     fm.Priority,
			Match:        match,
			Instructions: fm.Instructions,
			Cookie:       fm.Cookie,
			IdleTimeout:  fm.IdleTimeout,
			HardTimeout:  fm.HardTimeout,
			Flags:        fm.Flags,
		}
		return nil, s.tables[fm.TableID].Add(entry)
	case openflow.FlowModify, openflow.FlowModifyStrict:
		s.tables[fm.TableID].Modify(match, fm.Priority, fm.Command == openflow.FlowModifyStrict, fm.Instructions)
		return nil, nil
	case openflow.FlowDelete, openflow.FlowDeleteStrict:
		var removed []flowtable.Removed
		if fm.TableID == openflow.TableAll && fm.Command == openflow.FlowDelete {
			for _, t := range s.tables {
				removed = append(removed, t.Delete(match, fm.Priority, false, fm.OutPort)...)
			}
		} else {
			removed = s.tables[fm.TableID].Delete(match, fm.Priority, fm.Command == openflow.FlowDeleteStrict, fm.OutPort)
		}
		// Only report entries that asked for notification.
		var notify []flowtable.Removed
		for _, r := range removed {
			if r.Entry.Flags&openflow.FlowFlagSendFlowRem != 0 {
				notify = append(notify, r)
			}
		}
		return notify, nil
	}
	return nil, fmt.Errorf("softswitch: unknown flow-mod command %d", fm.Command)
}

// SweepExpired expires timed-out entries across all tables and returns
// the ones requesting flow-removed notification. The OF agent calls
// this periodically; tests call it directly with a manual clock.
func (s *Switch) SweepExpired() []flowtable.Removed {
	var notify, expired []flowtable.Removed
	for _, t := range s.tables {
		removed := t.ExpireEntries()
		expired = append(expired, removed...)
		for _, r := range removed {
			if r.Entry.Flags&openflow.FlowFlagSendFlowRem != 0 {
				notify = append(notify, r)
			}
		}
	}
	// A flow-table expiry ends the flows the entries carried: flush
	// exactly those flows' telemetry records so the finals (and the
	// byte/packet deltas the microflow cache accumulated since the
	// last export) reach the exporter now — exported totals stay in
	// step with the datapath counters instead of trailing by an idle
	// timeout, and unrelated flows keep their windows.
	if len(expired) > 0 {
		// Expired entries leave revision-stale cache entries behind;
		// they would lazily invalidate on next probe, but sweeping here
		// frees their pool slots promptly.
		if s.cache != nil {
			s.cache.sweep()
		}
		if tel := s.telemetry.Load(); tel != nil {
			tel.FlushWhere(func(fk telemetry.FlowKey) bool {
				k := fk.ToPacketKey()
				for _, r := range expired {
					if r.Entry.Match.Matches(&k) {
						return true
					}
				}
				return false
			}, s.clock.Now().UnixNano())
		}
	}
	if s.agent != nil && len(notify) > 0 {
		s.agentMu.RLock()
		a := s.agent
		s.agentMu.RUnlock()
		if a != nil {
			for _, r := range notify {
				a.sendFlowRemoved(r)
			}
		}
	}
	return notify
}

// notifyPortStatus forwards a port event to the controller, if any.
func (s *Switch) notifyPortStatus(reason uint8, p *swPort) {
	s.agentMu.RLock()
	a := s.agent
	s.agentMu.RUnlock()
	if a == nil {
		return
	}
	a.sendPortStatus(reason, openflow.PortDesc{
		PortNo: p.no, HWAddr: p.hwAddr, Name: p.name, State: openflow.PortStateLive,
	})
}

// FlowStats renders current flow statistics (the multipart FLOW body).
func (s *Switch) FlowStats(tableID uint8) []openflow.FlowStats {
	var out []openflow.FlowStats
	now := s.clock.Now()
	for _, t := range s.tables {
		if tableID != openflow.TableAll && t.ID() != tableID {
			continue
		}
		for _, e := range t.Entries() {
			out = append(out, openflow.FlowStats{
				TableID:      t.ID(),
				DurationSec:  uint32(now.Sub(e.Created()).Seconds()),
				Priority:     e.Priority,
				IdleTimeout:  e.IdleTimeout,
				HardTimeout:  e.HardTimeout,
				Cookie:       e.Cookie,
				PacketCount:  e.Packets(),
				ByteCount:    e.Bytes(),
				Match:        e.Match.ToOXM(),
				Instructions: e.Instrs(),
			})
		}
	}
	return out
}

// PortStats renders current port statistics.
func (s *Switch) PortStats() []openflow.PortStats {
	ports := s.portTable()
	out := make([]openflow.PortStats, 0, len(ports))
	for _, p := range ports {
		out = append(out, openflow.PortStats{
			PortNo:    p.no,
			RxPackets: p.counters.RxPackets.Load(),
			TxPackets: p.counters.TxPackets.Load(),
			RxBytes:   p.counters.RxBytes.Load(),
			TxBytes:   p.counters.TxBytes.Load(),
			RxDropped: p.counters.RxDropped.Load(),
			TxDropped: p.counters.TxDropped.Load(),
			RxErrors:  p.counters.RxErrors.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PortNo < out[j].PortNo })
	return out
}

// TableStats renders per-table statistics.
func (s *Switch) TableStats() []openflow.TableStats {
	out := make([]openflow.TableStats, 0, len(s.tables))
	for _, t := range s.tables {
		lookups, matched := t.Stats()
		out = append(out, openflow.TableStats{
			TableID: t.ID(), ActiveCount: uint32(t.Len()),
			LookupCount: lookups, MatchedCount: matched,
		})
	}
	return out
}
