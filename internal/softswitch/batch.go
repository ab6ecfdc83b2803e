package softswitch

import (
	"sync"

	"github.com/harmless-sdn/harmless/internal/dataplane"
	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

// Batch dispatch: the amortized entry point of the datapath.
//
// ReceiveBatch runs a frame vector through the switch paying the
// per-packet costs once per batch instead of once per frame:
//
//   - keys are extracted for the whole vector in one pass;
//   - the cache chain is probed tier by tier, the exact tier grouped
//     by shard so each shard read-lock is taken once per batch
//     (probeBatch);
//   - only the residue of misses walks the full pipeline;
//   - egress is coalesced per port (txContext) and every port backend
//     is flushed once per batch;
//   - frames crossing a patch port into a peer switch stay grouped and
//     are dispatched ITERATIVELY off a worklist — a chain of patched
//     switches (SS_1 -> SS_2 -> ...) runs at constant stack depth
//     instead of deepening the stack per hop per frame.
//
// Receive is the one-frame wrapper over the same machinery, so the
// two entry points cannot diverge semantically: counters, cache
// statistics and drop accounting are exactly equal for the same
// frames sent either way (batch_test.go proves it).
//
// Ownership follows the dataplane package rules: each frame of the
// vector transfers to the switch; the vector itself is borrowed and
// reusable by the caller as soon as ReceiveBatch returns.

// patchWork is one pending cross-switch delivery: a still-grouped
// egress batch that crossed a patch port.
type patchWork struct {
	sw     *Switch
	inPort uint32
	frames [][]byte
}

// txContext coalesces one batch's egress per port and carries the
// iterative patch-delivery worklist. ports/frames are parallel;
// flushed slot buffers are kept (or returned via recycle) so steady
// state dispatch does not allocate. now is the batch's one lazily read
// timestamp: every flow-entry hit of the batch shares it, and so does
// the telemetry observation.
type txContext struct {
	ports  []*swPort
	frames [][][]byte
	spare  [][][]byte // recycled slot buffers
	work   []patchWork
	now    flowtable.Stamp
}

// add coalesces one frame onto the egress vector of port p.
func (tx *txContext) add(p *swPort, frame []byte) {
	for i, q := range tx.ports {
		if q == p {
			tx.frames[i] = append(tx.frames[i], frame)
			return
		}
	}
	i := len(tx.ports)
	tx.ports = append(tx.ports, p)
	if i < cap(tx.frames) {
		tx.frames = tx.frames[:i+1] // revive the slot buffer from a previous flush
	} else {
		tx.frames = append(tx.frames, nil)
	}
	if tx.frames[i] == nil && len(tx.spare) > 0 {
		tx.frames[i] = tx.spare[len(tx.spare)-1]
		tx.spare = tx.spare[:len(tx.spare)-1]
	}
	tx.frames[i] = append(tx.frames[i][:0], frame)
}

// recycle takes back a frame vector whose frames have been consumed.
func (tx *txContext) recycle(frames [][]byte) {
	clear(frames)
	tx.spare = append(tx.spare, frames[:0])
}

// flushTx pushes every coalesced egress vector to its port backend,
// once per port per batch. Vectors for a BatchForwarder backend (patch
// ports and the like) are not delivered here: they go onto the
// worklist so the dispatch loop hands them to the peer switch
// iteratively.
func (s *Switch) flushTx(tx *txContext) {
	for i, p := range tx.ports {
		frames := tx.frames[i]
		var bytes uint64
		for _, f := range frames {
			bytes += uint64(len(f))
		}
		p.counters.TxPackets.Add(uint64(len(frames)))
		p.counters.TxBytes.Add(bytes)
		if fw, ok := p.backend.(BatchForwarder); ok {
			peer, peerPort := fw.ForwardTarget()
			tx.work = append(tx.work, patchWork{sw: peer, inPort: peerPort, frames: frames})
			tx.frames[i] = nil // handed to the worklist; recycled after processing
		} else {
			p.backend.TransmitBatch(frames)
			clear(frames) // drop frame refs, keep the buffer
			tx.frames[i] = frames[:0]
		}
		tx.ports[i] = nil
	}
	tx.ports = tx.ports[:0]
	tx.frames = tx.frames[:0]
}

// dispatchState is the pooled scratch of one dispatch: the egress
// context plus the per-batch classification arrays. recs/outs carry
// the batch's telemetry resolution (flow record and egress port per
// frame) to the single ObserveBatch call at the end of the dispatch —
// the zero-alloc batch-level hook, as opposed to a per-frame callback.
// exact[i] marks cache hits from an exact-match tier, whose entries
// may carry the flow's telemetry record; sc is the probe scratch the
// cache chain and its tiers share.
type dispatchState struct {
	tx    txContext
	keys  []pkt.Key
	mfs   []*CacheEntry
	skip  []bool
	exact []bool
	recs  []*telemetry.Record
	outs  []uint32
	sc    ProbeScratch
	one   [1][]byte // single-frame vector for the Receive wrapper
}

func (st *dispatchState) grow(n int) {
	if cap(st.keys) < n {
		st.keys = make([]pkt.Key, n)
		st.mfs = make([]*CacheEntry, n)
		st.skip = make([]bool, n)
		st.exact = make([]bool, n)
		st.recs = make([]*telemetry.Record, n)
		st.outs = make([]uint32, n)
	}
}

var dispatchPool = sync.Pool{New: func() any { return new(dispatchState) }}

// runWork drains the patch worklist: each entry is a still-grouped
// batch entering a peer switch, which may append further entries —
// the iterative replacement for per-frame cross-switch recursion.
func runWork(st *dispatchState) {
	for i := 0; i < len(st.tx.work); i++ {
		w := st.tx.work[i]
		st.tx.work[i] = patchWork{}
		w.sw.processBatch(w.inPort, w.frames, st, nil)
		st.tx.recycle(w.frames)
	}
	st.tx.work = st.tx.work[:0]
}

// ReceiveBatch runs a frame vector arriving on inPort through the
// datapath. It may be called concurrently, like Receive. Ownership of
// each frame transfers to the switch; the vector itself is borrowed
// and may be reused once the call returns.
//
//harmless:hotpath
func (s *Switch) ReceiveBatch(inPort uint32, frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	st := dispatchPool.Get().(*dispatchState)
	s.processBatch(inPort, frames, st, nil)
	runWork(st)
	dispatchPool.Put(st)
}

// ReceiveMixedBatch dispatches a dataplane.Batch whose frames may have
// arrived on DIFFERENT ports (b.Meta[i].InPort), filling each frame's
// Verdict as the datapath classifies it — the entry point for
// poll-mode drivers that drain several rx queues into one vector.
// Consecutive frames sharing an in-port dispatch as one grouped
// sub-batch, so a port-sorted batch keeps the full amortization.
// Frame ownership transfers to the switch; the Batch's slices remain
// the caller's (Reset to refill and reuse). The batch must carry a
// Meta entry per frame — build it with Batch.Append; a meta-less
// batch is rejected.
//
//harmless:hotpath
func (s *Switch) ReceiveMixedBatch(b *dataplane.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if len(b.Meta) < n {
		// Malformed batch (Frames poked without Append): the frames'
		// ownership already transferred, so account them as drops
		// rather than vanishing them silently.
		s.drops.Add(uint64(n))
		return
	}
	st := dispatchPool.Get().(*dispatchState)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && b.Meta[hi].InPort == b.Meta[lo].InPort {
			hi++
		}
		s.processBatch(b.Meta[lo].InPort, b.Frames[lo:hi], st, b.Meta[lo:hi])
		lo = hi
	}
	runWork(st)
	dispatchPool.Put(st)
}

// Receive runs one frame through the datapath starting at table 0: the
// one-frame wrapper over the batch dispatch. It is the entry point for
// per-frame physical ingress and may be called concurrently.
func (s *Switch) Receive(inPort uint32, frame []byte) {
	st := dispatchPool.Get().(*dispatchState)
	st.one[0] = frame
	s.processBatch(inPort, st.one[:1], st, nil)
	runWork(st)
	st.one[0] = nil
	dispatchPool.Put(st)
}

// processBatch classifies and executes one batch on one switch,
// flushing its egress at the end. Cross-switch patch deliveries are
// queued on st's worklist rather than executed inline. meta, when
// non-nil, receives the per-frame verdicts (ReceiveMixedBatch).
//
//harmless:hotpath
func (s *Switch) processBatch(inPort uint32, frames [][]byte, st *dispatchState, meta []dataplane.Meta) {
	if p := s.getPort(inPort); p != nil {
		var bytes uint64
		for _, f := range frames {
			bytes += uint64(len(f))
		}
		p.counters.RxPackets.Add(uint64(len(frames)))
		p.counters.RxBytes.Add(bytes)
	}
	st.tx.now.Reset(s.clock)
	tel := s.telemetry.Load()
	var now int64
	if tel != nil {
		now = st.tx.now.UnixNano()
	}
	// Pin the entry pool for the dispatch's duration: cache entries
	// held in st.mfs (or in locals of classifyAndRun) cannot be
	// recycled while any dispatch is in flight (see entryPool).
	ch := s.cache
	if ch != nil {
		ch.pool.pin()
	}
	n := len(frames)
	if n == 1 {
		// One frame: the classic per-frame walk, minus the batch-probe
		// bookkeeping. The key lives in the pooled scratch, not on the
		// stack: it crosses the CacheTier interface, which would
		// otherwise force a heap allocation per packet.
		st.grow(1)
		v := dataplane.VerdictDropped
		var rec *telemetry.Record
		var out uint32
		key := &st.keys[0]
		if err := pkt.ExtractKey(frames[0], inPort, key); err != nil {
			s.drops.Inc()
		} else {
			v, rec, out = s.classifyAndRun(key, inPort, frames[0], tel, &st.tx)
		}
		if meta != nil {
			meta[0].Verdict = v
		}
		if rec != nil {
			tel.Observe(rec, len(frames[0]), out, now)
		}
		s.flushTx(&st.tx)
		if ch != nil {
			ch.pool.unpin()
		}
		return
	}

	st.grow(n)
	keys, skip, mfs, exact := st.keys[:n], st.skip[:n], st.mfs[:n], st.exact[:n]
	bad := 0
	for i, f := range frames {
		skip[i] = false
		if err := pkt.ExtractKey(f, inPort, &keys[i]); err != nil {
			skip[i] = true
			bad++
		}
	}
	if bad > 0 {
		s.drops.Add(uint64(bad))
	}
	if ch != nil {
		ch.probeBatch(keys, skip, mfs, exact, &st.sc)
	} else {
		clear(mfs)
	}
	recs, outs := st.recs[:n], st.outs[:n]
	for i, f := range frames {
		v := dataplane.VerdictDropped
		recs[i] = nil
		if !skip[i] {
			if mf := mfs[i]; mf != nil {
				mfs[i] = nil
				if tel != nil {
					if exact[i] {
						recs[i] = mf.telRecord(tel, &keys[i])
					} else {
						// Wildcard-tier hit: the shared entry serves many
						// flows, so resolve this packet's record directly.
						recs[i] = tel.Lookup(&keys[i])
					}
					outs[i] = mf.outPort
				}
				s.replayMicroflow(mf, inPort, f, &st.tx)
				v = dataplane.VerdictCacheHit
			} else {
				// Batch probe missed: classifyAndRun re-probes per frame
				// (the exact miss/invalidation accounting, and an entry
				// installed by an earlier frame of this very batch can
				// already hit) before falling back to the pipeline walk.
				v, recs[i], outs[i] = s.classifyAndRun(&keys[i], inPort, f, tel, &st.tx)
			}
		}
		if meta != nil {
			meta[i].Verdict = v
		}
	}
	if tel != nil {
		tel.ObserveBatch(frames, recs, outs, now)
		clear(recs) // drop record refs: dispatchState is pooled
	}
	s.flushTx(&st.tx)
	if ch != nil {
		ch.pool.unpin()
	}
}

// classifyAndRun is the per-frame decision shared by every entry
// point: serve from the cache chain, or walk the pipeline and record
// a new cache entry. It returns the verdict plus the frame's
// telemetry resolution — the flow record to account it against (nil
// when tel is nil or the frame was not classified) and the resolved
// egress port — which the dispatch accumulates for the batch-level
// ObserveBatch call.
//
// The caller must hold a pool pin (processBatch does) so the entry a
// lookup returns cannot be recycled while it is replayed.
//
//harmless:hotpath
func (s *Switch) classifyAndRun(key *pkt.Key, inPort uint32, frame []byte, tel *telemetry.Table, tx *txContext) (dataplane.Verdict, *telemetry.Record, uint32) {
	ch := s.cache
	if ch == nil {
		var trec *telemetry.Record
		if tel != nil {
			trec = tel.Lookup(key)
		}
		s.runPipelineKeyed(key, inPort, frame, 0, nil, tx)
		return dataplane.VerdictSlowPath, trec, 0
	}
	mf, exactHit, record := ch.lookup(key)
	if mf != nil {
		var trec *telemetry.Record
		if tel != nil {
			if exactHit {
				trec = mf.telRecord(tel, key)
			} else {
				// Wildcard-tier hit: the shared entry serves many flows,
				// so resolve this packet's record directly.
				trec = tel.Lookup(key)
			}
		}
		s.replayMicroflow(mf, inPort, frame, tx)
		return dataplane.VerdictCacheHit, trec, mf.outPort
	}
	if !record {
		// Adaptive bypass: the shard's hit rate collapsed, so skip both
		// the recording and the install — a pure slow-path walk.
		var trec *telemetry.Record
		if tel != nil {
			trec = tel.Lookup(key)
		}
		s.runPipelineKeyed(key, inPort, frame, 0, nil, tx)
		return dataplane.VerdictSlowPath, trec, 0
	}
	// Read the group revision before the walk so a group-mod racing
	// the recording leaves it stale-by-revision, like the table revs.
	groupRev := s.groups.Version()
	rec := ch.pool.acquire()
	s.runPipelineKeyed(key, inPort, frame, 0, rec, tx)
	rec.resolveOutPort()
	var trec *telemetry.Record
	if tel != nil {
		trec = tel.Lookup(key)
		rec.tel.Store(trec)
	}
	out := rec.outPort
	if rec.uncacheable {
		ch.pool.giveBack(rec)
	} else {
		if rec.usesGroups() {
			rec.groups = s.groups
			rec.groupRev = groupRev
		}
		if !ch.install(key, rec) {
			ch.pool.giveBack(rec)
		}
	}
	return dataplane.VerdictSlowPath, trec, out
}
