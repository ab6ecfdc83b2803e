package softswitch

import (
	"encoding/binary"

	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// The per-frame entry point Receive and the vector entry point
// ReceiveBatch live in batch.go; both funnel into the walk below with
// a txContext that coalesces egress per port. With the microflow cache
// enabled (the default) a frame's header key is first probed against
// the cache; a valid hit replays the pre-resolved megaflow program, a
// miss takes the full pipeline walk and records a new megaflow.

// replayMicroflow executes a cached megaflow's operation program.
// Credits, meters, groups, TTL checks and packet-ins are re-executed
// per packet in recorded order, so their per-packet semantics — which
// tables get credited before a meter drop, with which frame size —
// are identical to the pipeline walk that was recorded.
func (s *Switch) replayMicroflow(mf *CacheEntry, inPort uint32, frame []byte, tx *txContext) {
	for i := range mf.ops {
		op := &mf.ops[i]
		switch op.kind {
		case opCredit:
			op.table.CreditHit(op.entry, len(frame), &tx.now)
			continue
		case opMeter:
			if !s.meters.Pass(op.meterID, len(frame)) {
				s.drops.Inc()
				return
			}
			continue
		}
		var res applyResult
		frame, res = s.applyActions(op.acts, inPort, frame, op.tableID, op.entry, tx)
		if res != applyRetained {
			return // frame consumed (output, group) or dropped
		}
	}
	// Program ran to completion without consuming the frame: the walk
	// ended with an empty action set or one lacking an output. Drop,
	// exactly as runPipelineKeyed does.
	s.drops.Inc()
}

// runPipeline extracts the frame's key and executes tables from
// startTable onwards (the uncached path; packet-out and OUTPUT:TABLE
// restarts come through here).
func (s *Switch) runPipeline(inPort uint32, frame []byte, startTable uint8, tx *txContext) {
	var key pkt.Key
	if err := pkt.ExtractKey(frame, inPort, &key); err != nil {
		s.drops.Inc()
		return
	}
	s.runPipelineKeyed(&key, inPort, frame, startTable, nil, tx)
}

// runPipelineKeyed executes tables from startTable onwards for an
// already-extracted key. When rec is non-nil every consulted table
// (with its pre-lookup revision) and every executed operation is
// recorded so the walk's decision can be cached; the table's consult
// mask is folded into rec.mask at the same point, so the recording
// also captures the minimal wildcard mask the megaflow tier needs.
// The revision is read *before* the lookup: a flow-mod racing the
// walk then leaves the recording stale-by-revision rather than
// wrongly valid.
func (s *Switch) runPipelineKeyed(key *pkt.Key, inPort uint32, frame []byte, startTable uint8, rec *CacheEntry, tx *txContext) {
	var actionSet []openflow.Action
	tableID := startTable
	for {
		var rev uint64
		if rec != nil {
			rev = s.tables[tableID].Version()
			rec.mask = rec.mask.Union(s.tables[tableID].ConsultMask())
		}
		entry := s.lookup(tableID, key, len(frame), &tx.now)
		if entry == nil {
			// OpenFlow 1.3 table-miss without a miss entry: drop. Not
			// cached — a later flow-add must see the packet's key again.
			if rec != nil {
				rec.uncacheable = true
			}
			s.drops.Inc()
			return
		}
		if rec != nil {
			rec.deps = append(rec.deps, tableDep{table: s.tables[tableID], rev: rev})
			rec.ops = append(rec.ops, microOp{kind: opCredit, table: s.tables[tableID], entry: entry})
		}
		next := int16(-1)
		for _, instr := range entry.Instrs() {
			switch in := instr.(type) {
			case *openflow.InstrMeter:
				if rec != nil {
					rec.ops = append(rec.ops, microOp{kind: opMeter, meterID: in.MeterID})
				}
				if !s.meters.Pass(in.MeterID, len(frame)) {
					// The rest of the walk was never observed; a future
					// packet of this flow may pass the meter, so the
					// truncated program must not be cached.
					if rec != nil {
						rec.uncacheable = true
					}
					s.drops.Inc()
					return
				}
			case *openflow.InstrApplyActions:
				if rec != nil {
					rec.ops = append(rec.ops, microOp{kind: opApply, acts: in.Actions, tableID: tableID, entry: entry})
				}
				var res applyResult
				frame, res = s.applyActions(in.Actions, inPort, frame, tableID, entry, tx)
				if res != applyRetained {
					// A per-packet drop truncates the observed program;
					// consumption by output/group is structural and the
					// recording stays cacheable.
					if rec != nil && res == applyDropped {
						rec.uncacheable = true
					}
					return
				}
			case *openflow.InstrClearActions:
				actionSet = actionSet[:0]
			case *openflow.InstrWriteActions:
				actionSet = mergeActionSet(actionSet, in.Actions)
			case *openflow.InstrGotoTable:
				next = int16(in.TableID)
			}
		}
		if next < 0 || int(next) >= len(s.tables) || uint8(next) <= tableID {
			break // end of pipeline
		}
		tableID = uint8(next)
	}

	// Execute the accumulated action set (spec order: pop, push,
	// set-field/dec-ttl, group, output last).
	if len(actionSet) == 0 {
		s.drops.Inc()
		return
	}
	ordered := orderActionSet(actionSet)
	if rec != nil {
		rec.ops = append(rec.ops, microOp{kind: opApply, acts: ordered, tableID: tableID})
	}
	if frame, res := s.applyActions(ordered, inPort, frame, tableID, nil, tx); res == applyRetained && frame != nil {
		// Action set without output: drop (already accounted inside
		// applyActions when it falls through).
		s.drops.Inc()
	} else if rec != nil && res == applyDropped {
		rec.uncacheable = true
	}
}

// lookup consults the fast path when specialization is enabled,
// falling back to (and recompiling from) the generic table. A hit is
// stamped with now.
func (s *Switch) lookup(tableID uint8, key *pkt.Key, size int, now *flowtable.Stamp) *flowtable.Entry {
	t := s.tables[tableID]
	if !s.specialize {
		return t.LookupAt(key, size, now)
	}
	st := s.fast[tableID].Load()
	if st == nil || (st.fp == nil && st.failedVersion != t.Version()+1) || (st.fp != nil && !st.fp.Valid(t)) {
		// (Re)compile. failedVersion is stored +1 so the zero value
		// never suppresses compilation.
		if fp, ok := flowtable.Compile(t); ok {
			st = &fastState{fp: fp}
		} else {
			st = &fastState{failedVersion: t.Version() + 1}
		}
		s.fast[tableID].Store(st)
	}
	if st.fp == nil {
		return t.LookupAt(key, size, now)
	}
	e := st.fp.Lookup(key)
	if e != nil {
		e.Hit(size, now)
	}
	return e
}

// mergeActionSet implements write-actions semantics: one action per
// type, later writes replace earlier ones.
func mergeActionSet(set, add []openflow.Action) []openflow.Action {
	for _, a := range add {
		replaced := false
		for i, old := range set {
			if old.ActionType() == a.ActionType() {
				// set-field actions are per-field.
				if sf, ok := a.(*openflow.ActionSetField); ok {
					if osf, ok := old.(*openflow.ActionSetField); ok && osf.OXM.Field != sf.OXM.Field {
						continue
					}
				}
				set[i] = a
				replaced = true
				break
			}
		}
		if !replaced {
			set = append(set, a)
		}
	}
	return set
}

// orderActionSet sorts the action set into spec execution order.
func orderActionSet(set []openflow.Action) []openflow.Action {
	rank := func(a openflow.Action) int {
		switch a.ActionType() {
		case openflow.ActionTypePopVLAN:
			return 0
		case openflow.ActionTypePushVLAN:
			return 1
		case openflow.ActionTypeDecNwTTL:
			return 2
		case openflow.ActionTypeSetField:
			return 3
		case openflow.ActionTypeGroup:
			return 4
		case openflow.ActionTypeOutput:
			return 5
		}
		return 3
	}
	out := make([]openflow.Action, len(set))
	copy(out, set)
	// Insertion sort: the set is tiny and must be stable.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && rank(out[j]) < rank(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// applyResult classifies how an action list left the frame. The
// distinction between consumed and dropped matters to the microflow
// recorder: consumption by output/group is decided by the program
// structure alone (every packet of the flow ends there), while a drop
// is a per-packet condition (TTL reached zero, malformed tag) after
// which the rest of the walk is unknown — such walks must not be
// cached.
type applyResult int

const (
	applyRetained applyResult = iota // caller keeps the (possibly reallocated) frame
	applyConsumed                    // output/group took ownership
	applyDropped                     // frame dropped by a per-packet condition
)

// applyActions executes an action list on the frame. It returns the
// (possibly reallocated) frame and applyRetained if the caller keeps
// ownership; otherwise the frame was consumed or dropped. entry may be
// nil (action-set execution).
func (s *Switch) applyActions(actions []openflow.Action, inPort uint32, frame []byte, tableID uint8, entry *flowtable.Entry, tx *txContext) ([]byte, applyResult) {
	for i, a := range actions {
		switch act := a.(type) {
		case *openflow.ActionPushVLAN:
			nf, err := pkt.PushVLAN(frame, act.EtherType, 0)
			if err != nil {
				s.drops.Inc()
				return nil, applyDropped
			}
			frame = nf
		case *openflow.ActionPopVLAN:
			nf, err := pkt.PopVLAN(frame)
			if err != nil {
				s.drops.Inc()
				return nil, applyDropped
			}
			frame = nf
		case *openflow.ActionDecNwTTL:
			ttl, err := pkt.DecIPv4TTL(frame)
			if err != nil || ttl == 0 {
				s.drops.Inc()
				return nil, applyDropped
			}
		case *openflow.ActionSetField:
			if err := s.applySetField(act, frame); err != nil {
				s.drops.Inc()
				return nil, applyDropped
			}
		case *openflow.ActionGroup:
			s.applyGroup(act.GroupID, inPort, frame, tableID, tx)
			return nil, applyConsumed // group consumes the frame
		case *openflow.ActionOutput:
			last := i == len(actions)-1
			s.output(act, inPort, frame, tableID, entry, last, tx)
			if last {
				return nil, applyConsumed
			}
			// More actions follow: they operate on a fresh copy since
			// output transferred ownership.
			cp := make([]byte, len(frame))
			copy(cp, frame)
			frame = cp
		}
	}
	return frame, applyRetained
}

// applySetField rewrites one field in place.
func (s *Switch) applySetField(act *openflow.ActionSetField, frame []byte) error {
	o := act.OXM
	switch o.Field {
	case openflow.OXMVLANVID:
		vid := binary.BigEndian.Uint16(o.Value) &^ openflow.OXMVIDPresent
		return pkt.SetVLANID(frame, vid)
	case openflow.OXMVLANPCP:
		return pkt.SetVLANPCP(frame, o.Value[0])
	case openflow.OXMEthDst:
		var m pkt.MAC
		copy(m[:], o.Value)
		return pkt.SetEthDst(frame, m)
	case openflow.OXMEthSrc:
		var m pkt.MAC
		copy(m[:], o.Value)
		return pkt.SetEthSrc(frame, m)
	case openflow.OXMIPv4Src:
		var ip pkt.IPv4
		copy(ip[:], o.Value)
		return pkt.SetIPv4Src(frame, ip)
	case openflow.OXMIPv4Dst:
		var ip pkt.IPv4
		copy(ip[:], o.Value)
		return pkt.SetIPv4Dst(frame, ip)
	case openflow.OXMTCPSrc, openflow.OXMUDPSrc:
		return pkt.SetL4Src(frame, binary.BigEndian.Uint16(o.Value))
	case openflow.OXMTCPDst, openflow.OXMUDPDst:
		return pkt.SetL4Dst(frame, binary.BigEndian.Uint16(o.Value))
	}
	return nil // unsupported set-fields are ignored (logged by vet of flow-mods in a real switch)
}

// applyGroup executes a group on the frame (consuming it).
func (s *Switch) applyGroup(groupID, inPort uint32, frame []byte, tableID uint8, tx *txContext) {
	g, ok := s.groups.Get(groupID)
	if !ok {
		s.drops.Inc()
		return
	}
	g.Hit(len(frame))
	switch g.Type {
	case openflow.GroupTypeAll:
		// Replicate to every bucket.
		for i := range g.Buckets {
			cp := make([]byte, len(frame))
			copy(cp, frame)
			if f, res := s.applyActions(g.Buckets[i].Actions, inPort, cp, tableID, nil, tx); res == applyRetained && f != nil {
				s.drops.Inc()
			}
		}
	default:
		var key pkt.Key
		if err := pkt.ExtractKey(frame, inPort, &key); err != nil {
			s.drops.Inc()
			return
		}
		b := g.SelectBucket(flowtable.FlowHash(&key))
		if b == nil {
			s.drops.Inc()
			return
		}
		if f, res := s.applyActions(b.Actions, inPort, frame, tableID, nil, tx); res == applyRetained && f != nil {
			s.drops.Inc()
		}
	}
}

// output realizes the OUTPUT action, including reserved ports. last
// indicates the frame can be transferred without copying.
func (s *Switch) output(act *openflow.ActionOutput, inPort uint32, frame []byte, tableID uint8, entry *flowtable.Entry, last bool, tx *txContext) {
	switch act.Port {
	case openflow.PortController:
		s.sendPacketIn(inPort, frame, act.MaxLen, tableID, entry)
	case openflow.PortFlood, openflow.PortAll:
		s.flood(inPort, frame, tx)
	case openflow.PortInPort:
		if p := s.getPort(inPort); p != nil {
			s.transmit(p, ownedCopy(frame, last), tx)
		}
	case openflow.PortTable:
		// Restart the pipeline (packet-out only).
		s.runPipeline(inPort, ownedCopy(frame, last), 0, tx)
	default:
		p := s.getPort(act.Port)
		if p == nil {
			s.drops.Inc()
			return
		}
		s.transmit(p, ownedCopy(frame, last), tx)
	}
}

// ownedCopy returns frame directly when ownership can transfer, or a
// copy otherwise.
func ownedCopy(frame []byte, canTransfer bool) []byte {
	if canTransfer {
		return frame
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	return cp
}

// flood replicates the frame to every port except the ingress: each
// port but the last gets a copy, the last takes the frame.
func (s *Switch) flood(inPort uint32, frame []byte, tx *txContext) {
	var prev *swPort
	for no, p := range s.portTable() {
		if no == inPort {
			continue
		}
		if prev != nil {
			s.transmit(prev, ownedCopy(frame, false), tx)
		}
		prev = p
	}
	if prev != nil {
		s.transmit(prev, frame, tx)
	}
}

// sendPacketIn forwards the frame to the controller.
func (s *Switch) sendPacketIn(inPort uint32, frame []byte, maxLen uint16, tableID uint8, entry *flowtable.Entry) {
	s.agentMu.RLock()
	a := s.agent
	s.agentMu.RUnlock()
	if a == nil {
		s.drops.Inc()
		return
	}
	s.pktIns.Inc()

	reason := openflow.PacketInReasonAction
	var cookie uint64
	if entry != nil {
		cookie = entry.Cookie
		// A priority-0 match-all entry is the table-miss entry; the
		// spec reports those packet-ins as NO_MATCH.
		if entry.Priority == 0 {
			reason = openflow.PacketInReasonNoMatch
		}
	}
	bufferID := openflow.NoBuffer
	data := frame
	if maxLen != 0xffff && int(maxLen) < len(frame) {
		bufferID = s.buffers.store(frame)
		data = frame[:maxLen]
	}
	match := openflow.Match{}
	match.WithInPort(inPort)
	a.sendPacketIn(&openflow.PacketIn{
		BufferID: bufferID,
		TotalLen: uint16(len(frame)),
		Reason:   reason,
		TableID:  tableID,
		Cookie:   cookie,
		Match:    match,
		Data:     data,
	})
}

// InjectPacketOut realizes a controller PACKET_OUT: resolve the buffer
// (if referenced) and run the actions through a full dispatch, so its
// outputs coalesce and patch deliveries stay iterative like any other
// ingress.
func (s *Switch) InjectPacketOut(po *openflow.PacketOut) {
	frame := po.Data
	if po.BufferID != openflow.NoBuffer {
		if buffered, ok := s.buffers.take(po.BufferID); ok {
			frame = buffered
		}
	}
	if len(frame) == 0 {
		return
	}
	st := dispatchPool.Get().(*dispatchState)
	st.tx.now.Reset(s.clock)
	if f, res := s.applyActions(po.Actions, po.InPort, frame, 0, nil, &st.tx); res == applyRetained && f != nil {
		s.drops.Inc() // no output action: drop
	}
	s.flushTx(&st.tx)
	runWork(st)
	dispatchPool.Put(st)
}
