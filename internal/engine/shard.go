// Shard worker loop and fault supervision.
//
// Each shard goroutine is a supervisor around its flow.Assembler. The
// failure model follows from the paper's flow independence: per-flow
// matching state is a tiny private (q, m) context, so a panic raised
// while scanning one flow's bytes implicates only that flow — the
// assembler's shared structures (flow map, LRU list) are never
// mid-mutation at the points user-supplied matcher code runs. Recovery
// is therefore two-tier:
//
//  1. Quarantine: the offending flow's context is excised (its runner is
//     not recycled — the state is suspect) and its key is blacklisted, so
//     later segments of the same flow are drop-counted instead of
//     re-triggering the fault. All other flows on the shard keep their
//     exact match state.
//  2. Rebuild: if excision itself panics, the assembler's invariants are
//     broken beyond one flow; the shard discards it, counts the lost
//     flows, and rebuilds a fresh assembler, preserving cumulative
//     counters across the swap.
//
// A shard that keeps panicking is burning CPU on a hostile input or a
// real matcher bug; after CrashBudget recovered panics it is marked
// unhealthy and its segments are drop-counted (never crashing the
// engine), keeping the other shards' service intact.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
)

// queued is one dispatched segment riding a shard queue together with
// the lease on its payload buffer (nil for ordinarily-allocated
// payloads). The shard releases the lease once the segment has been
// consumed — scanned or drop-counted — at which point the assembler has
// copied any bytes it still needs.
type queued struct {
	seg   pcap.Segment
	owner pcap.Owner
}

// shard is one goroutine's private scanning lane.
type shard struct {
	idx int
	in  chan queued
	asm *flow.Assembler
	// rebuild constructs a fresh assembler wired to this shard's match
	// counter — the recovery path of last resort.
	rebuild func() *flow.Assembler
	// base accumulates counters from assemblers discarded by rebuilds so
	// published stats stay monotonic across a restart.
	base flow.Stats
	// quarantined holds poisoned flow keys; only the shard goroutine
	// touches it.
	quarantined map[pcap.FlowKey]struct{}

	// Batched lockstep scanning (Config.BatchFlows, DESIGN.md §18).
	// batching is set when the assembler defers in-order payload into a
	// flow.Batcher; held parks the leased buffers of deferred segments
	// until the flush has scanned them (the batcher references the
	// payload bytes until then). Both are goroutine-private.
	batching bool
	held     []pcap.Owner

	// Rule-set commands (reload.go): cmds is the ordered list of pending
	// swaps, applied on the shard goroutine before its next segment;
	// pending keeps the hot path to one atomic load, and wake nudges an
	// idle shard so a swap is not stuck behind a quiet queue.
	cmdMu   sync.Mutex
	cmds    []command
	pending atomic.Bool
	wake    chan struct{}

	// matches is updated on every confirmed match; snap mirrors the
	// assembler's counters every statsEvery segments and at exit, so
	// outside observers never touch the assembler itself.
	matches atomic.Int64
	snap    atomic.Pointer[flow.Stats]

	// scanHist, when non-nil, observes per-segment scan latency
	// (reassembly + matching). Set before the shard goroutine starts
	// (engine.New registers metrics first), read only by the goroutine.
	scanHist *telemetry.Histogram
	// evClock makes the run loop read the clock once per segment into
	// evNano, which the match callback uses to stamp ring events —
	// match-dense segments then cost one clock read, not one per match.
	// Both fields stay on the shard goroutine (set before start / the
	// match callback runs inside process).
	evClock bool
	evNano  int64

	// processed counts segments consumed from the queue (scanned or
	// drop-counted); with len(in) it gives drain progress. exited flips
	// when the goroutine returns.
	processed atomic.Int64
	exited    atomic.Bool

	// Supervision counters.
	panics         atomic.Int64
	poisoned       atomic.Int64
	poisonedDrops  atomic.Int64
	restarts       atomic.Int64
	lostFlows      atomic.Int64
	unhealthy      atomic.Bool
	unhealthyDrops atomic.Int64

	// Stall-watchdog heartbeat (watchdog.go). hb arms it (set before
	// the goroutine starts). hbSeq/hbStart follow the guard.Target
	// protocol — the writer stores start=0, then seq=n+1, then
	// start=now, so the watchdog can never blame a fresh step for an
	// old step's age. stalledSeq is the step the watchdog flagged (the
	// shard checks it when the step returns and quarantines the flow);
	// wedged flips when the step outlives WedgeAfter, making dispatch
	// shed this shard's traffic into wedgeDrops. stallRecovered counts
	// flagged steps that did return.
	hb             bool
	hbSeq          atomic.Int64
	hbStart        atomic.Int64
	stalledSeq     atomic.Int64
	wedged         atomic.Bool
	stallRecovered atomic.Int64
	wedgeDrops     atomic.Int64
}

// statsEvery is how often (in segments) a shard refreshes its published
// stats snapshot. Snapshots are therefore at most this stale while the
// engine runs; Close publishes a final exact snapshot.
const statsEvery = 64

func (s *shard) publish() {
	st := s.asm.Stats()
	st.Packets += s.base.Packets
	st.PayloadBytes += s.base.PayloadBytes
	st.OutOfOrder += s.base.OutOfOrder
	st.DroppedSegs += s.base.DroppedSegs
	st.SkippedFrames += s.base.SkippedFrames
	st.FlowsTotal += s.base.FlowsTotal
	st.EvictedCap += s.base.EvictedCap
	st.EvictedIdle += s.base.EvictedIdle
	st.RunnersReused += s.base.RunnersReused
	st.FlowRestarts += s.base.FlowRestarts
	st.StaleRunners += s.base.StaleRunners
	st.TenantDrops += s.base.TenantDrops
	s.snap.Store(&st)
}

// batchBurst bounds how many already-queued segments a batching shard
// consumes per lockstep window before it flushes. The bound keeps match
// latency and held-buffer count proportional to the queue's actual
// backlog, never unbounded.
const batchBurst = 256

// loopState is the run loop's per-shard mutable state, shared with step
// so the batched drain path can reuse the exact per-segment body.
type loopState struct {
	normalBuf   int
	degradedBuf int
	appliedTier Tier
	n           int64
}

func (s *shard) run(e *Engine) {
	defer func() {
		s.exited.Store(true)
		s.publish()
		e.wg.Done()
	}()
	ls := &loopState{normalBuf: s.asm.MaxBuffered(), appliedTier: TierNormal}
	ls.degradedBuf = ls.normalBuf / 8
	if ls.degradedBuf < 4 {
		ls.degradedBuf = 4
	}
	for {
		var q queued
		var ok bool
		select {
		case q, ok = <-s.in:
		case <-s.wake:
			// Generation swap on an otherwise idle shard: apply it now
			// rather than when the next segment happens to arrive, so a
			// reload's gauges and reset policy take effect promptly
			// engine-wide. The batch is always empty here — every lockstep
			// window flushes before the loop blocks again.
			s.applyPending()
			continue
		}
		if !ok {
			return
		}
		s.step(e, q, ls)
		if !s.batching {
			continue
		}
		// Batched lockstep window: the blocking receive above proved the
		// queue has traffic, so drain whatever else it already holds
		// (bounded) — each payload-bearing segment defers its scan into
		// the batcher — then flush once, stepping all those flows'
		// automata in lockstep. An empty queue degrades to a one-segment
		// window: flush-per-segment, i.e. the sequential path.
		closed := false
		for i := 0; i < batchBurst && !closed; i++ {
			select {
			case q, ok = <-s.in:
				if !ok {
					closed = true
					break
				}
				s.step(e, q, ls)
			default:
				closed = true
			}
		}
		s.flushBatch(e)
		for i, o := range s.held {
			release(o)
			s.held[i] = nil
		}
		s.held = s.held[:0]
		if !ok {
			return
		}
	}
}

// step consumes one dequeued segment: accounting, supervision gates,
// degradation reactions, the scan itself (deferred into the batcher when
// batching) and the periodic sweeps.
func (s *shard) step(e *Engine, q queued, ls *loopState) {
	cfg := &e.cfg
	seg := q.seg
	if q.owner == nil && len(seg.Payload) > 0 {
		// Withdraw what dispatch charged to the queued-bytes account
		// (leased payloads are accounted by their arena instead).
		e.queuedBytes.Add(-int64(len(seg.Payload)))
	}
	// Apply pending swaps before scanning, so every segment dispatched
	// after Reload returned is scanned post-swap (a flow it creates
	// starts on the new generation). The swap paths flush the batch
	// themselves (flow.setTenantGen), so deferred work never crosses a
	// generation boundary.
	if s.pending.Load() {
		s.applyPending()
	}
	ls.n++
	if ls.n%statsEvery == 0 {
		s.publish()
		// Shards re-evaluate pressure too, so the ladder steps back
		// down as queues drain even when dispatch has gone quiet.
		e.evalPressure()
	}
	s.processed.Add(1)
	if s.wedged.Load() {
		// This goroutine is demonstrably live — it is executing the
		// loop — so a wedge mark here is residue of the narrow race
		// where the watchdog's escalation landed just as the stuck
		// step returned (recoverStall clears the mark in the normal
		// order). Lift it before the unhealthy gate below can drop
		// scannable work.
		s.wedged.Store(false)
		if s.panics.Load() < int64(e.cfg.CrashBudget) {
			s.unhealthy.Store(false)
		}
	}
	if s.unhealthy.Load() {
		s.unhealthyDrops.Add(1)
		release(q.owner)
		return
	}
	if _, bad := s.quarantined[seg.Key]; bad {
		s.poisonedDrops.Add(1)
		release(q.owner)
		return
	}
	if tier := Tier(e.tier.Load()); tier != ls.appliedTier {
		if tier >= TierSoft && ls.appliedTier == TierNormal {
			// Entering degradation: shed reassembly memory now and
			// sweep idle flows aggressively.
			s.asm.SetMaxBuffered(ls.degradedBuf)
			s.asm.EvictIdle(cfg.DegradedIdleAfter)
		} else if tier == TierNormal {
			s.asm.SetMaxBuffered(ls.normalBuf)
		}
		ls.appliedTier = tier
	}
	// Only payload-bearing segments are timed: they are the ones that
	// feed the matcher (and the only ones that can raise a match
	// event), while pure SYN/ACK/FIN bookkeeping would just pile
	// sub-microsecond noise into the lowest bucket and pay two clock
	// reads for it. Under batching the deferred scan is timed by
	// flushBatch instead; this still covers reassembly plus any inline
	// fallbacks (self-flushes, lifecycle flushes) HandleSegment runs.
	// Heartbeat for the stall watchdog: start=0, seq=n+1, start=now
	// (the order the watchdog's race-free read depends on). Published
	// only for payload-bearing segments — they are the ones that run
	// matcher code and can stall.
	var hseq int64
	if s.hb && len(seg.Payload) > 0 {
		s.hbStart.Store(0)
		hseq = s.hbSeq.Add(1)
		s.hbStart.Store(time.Now().UnixNano())
	}
	if len(seg.Payload) > 0 && (s.scanHist != nil || s.evClock) {
		t0 := time.Now()
		if s.evClock {
			s.evNano = t0.UnixNano()
		}
		s.process(e, seg)
		if s.scanHist != nil {
			s.scanHist.ObserveDuration(time.Since(t0))
		}
	} else {
		s.process(e, seg)
	}
	if hseq != 0 {
		s.hbStart.Store(0)
		if s.stalledSeq.Load() == hseq {
			// The watchdog flagged this very step while it ran: the
			// flow wedged the shard past the deadline and cannot be
			// trusted again.
			s.recoverStall(e, seg.Key)
		}
	}
	if s.batching && q.owner != nil {
		// The payload may now sit in the batcher waiting for the flush,
		// so the leased buffer cannot go back to its arena yet; run's
		// drain loop releases it after flushBatch. (Held even when this
		// particular segment was scanned inline — ownership tracking per
		// byte would cost more than the short extra hold.)
		s.held = append(s.held, q.owner)
	} else {
		// The scan is over and the assembler copied anything it buffered
		// (out-of-order payloads are duplicated at buffering time), so
		// the leased frame buffer can go back to its arena. process
		// recovers its own panics, so this release runs on the poisoned
		// path too.
		release(q.owner)
	}
	idleAfter, sweepEvery := cfg.IdleAfter, cfg.SweepEvery
	if ls.appliedTier >= TierSoft {
		idleAfter = cfg.DegradedIdleAfter
		if sweepEvery = cfg.SweepEvery / 8; sweepEvery < 1 {
			sweepEvery = 1
		}
	}
	if idleAfter > 0 && ls.n%sweepEvery == 0 {
		s.asm.EvictIdle(idleAfter)
	}
	// A degraded engine must be able to step back down without new
	// dispatches: when this shard's queue runs dry, re-check pressure.
	if ls.appliedTier != TierNormal && len(s.in) == 0 {
		e.evalPressure()
	}
}

// process scans one segment under the shard's panic supervisor.
func (s *shard) process(e *Engine, seg pcap.Segment) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.panics.Add(1)
		key := seg.Key
		if k, ok := s.asm.BatchScanning().(pcap.FlowKey); ok {
			// The panic surfaced from a deferred lockstep flush that
			// HandleSegment itself triggered (a full batch self-flushing,
			// or a FIN/restart flushing before a runner lifecycle event) —
			// blame the flow whose match callback was running, not the
			// segment that merely pulled the trigger.
			key = k
		}
		s.quarantined[key] = struct{}{}
		s.poisoned.Add(1)
		s.excise(key)
		s.publish()
		if s.panics.Load() >= int64(e.cfg.CrashBudget) {
			s.unhealthy.Store(true)
		}
	}()
	s.asm.HandleSegment(seg)
}

// flushBatch scans every deferred payload of the current lockstep window
// under the same supervision a single segment gets: panic quarantine
// (attributed through the batcher's Scanning tag), stall heartbeat, and
// the scan-latency histogram (one observation for the whole window — the
// per-flow split does not exist once flows step in lockstep).
func (s *shard) flushBatch(e *Engine) {
	if s.asm.BatchLen() == 0 {
		return
	}
	var hseq int64
	if s.hb {
		s.hbStart.Store(0)
		hseq = s.hbSeq.Add(1)
		s.hbStart.Store(time.Now().UnixNano())
	}
	var t0 time.Time
	if s.scanHist != nil || s.evClock {
		t0 = time.Now()
		if s.evClock {
			s.evNano = t0.UnixNano()
		}
	}
	key, attributed := s.flushScan(e)
	if s.scanHist != nil {
		s.scanHist.ObserveDuration(time.Since(t0))
	}
	if hseq != 0 {
		s.hbStart.Store(0)
		if s.stalledSeq.Load() == hseq {
			if attributed {
				// The flush both stalled and panicked; the panic already
				// named the flow, reuse it for the stall quarantine.
				s.recoverStall(e, key)
			} else {
				// The whole window outlived the deadline but completed
				// without naming one offender (the batcher clears its
				// Scanning tag on normal completion), so no flow can be
				// quarantined; count the recovery and lift the wedge —
				// this goroutine is demonstrably live.
				s.stallRecovered.Add(1)
				e.lastStallRecovery.Store(time.Now().UnixNano())
				if s.wedged.Swap(false) && s.panics.Load() < int64(e.cfg.CrashBudget) {
					s.unhealthy.Store(false)
				}
				s.publish()
			}
		}
	}
}

// flushScan runs the deferred flush under a recover mirroring process's:
// the batcher empties itself even when a callback panics and keeps the
// offending flow's tag readable, so the shard can quarantine exactly the
// poisoned flow while every other batched flow's written-back state
// stays good.
func (s *shard) flushScan(e *Engine) (key pcap.FlowKey, attributed bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.panics.Add(1)
		if k, ok := s.asm.BatchScanning().(pcap.FlowKey); ok {
			key, attributed = k, true
			s.quarantined[k] = struct{}{}
			s.poisoned.Add(1)
			s.excise(k)
		}
		s.publish()
		if s.panics.Load() >= int64(e.cfg.CrashBudget) {
			s.unhealthy.Store(true)
		}
	}()
	s.asm.FlushBatch()
	return pcap.FlowKey{}, false
}

// recoverStall handles a scan step the watchdog flagged that has now
// returned: the offending flow joins the quarantine set through the
// same poison path a panic takes, and if the stall had escalated to a
// wedge, the shard re-enters service — the step did return, so the
// goroutine is live — unless its crash budget is already spent.
func (s *shard) recoverStall(e *Engine, key pcap.FlowKey) {
	if _, dup := s.quarantined[key]; !dup {
		// A step can both stall *and* panic; process already quarantined
		// the flow then, and the poison accounting must not double.
		s.quarantined[key] = struct{}{}
		s.poisoned.Add(1)
		s.excise(key)
	}
	s.stallRecovered.Add(1)
	e.lastStallRecovery.Store(time.Now().UnixNano())
	if s.wedged.Swap(false) && s.panics.Load() < int64(e.cfg.CrashBudget) {
		s.unhealthy.Store(false)
	}
	s.publish()
}

// excise removes a poisoned flow from the assembler. If the assembler is
// corrupt beyond that one flow — the excision itself panics — the shard
// rebuilds a fresh assembler, carrying the old counters into base and
// counting the innocent flows that lost their state.
func (s *shard) excise(key pcap.FlowKey) {
	defer func() {
		if recover() == nil {
			return
		}
		old := s.asm.Stats()
		s.lostFlows.Add(int64(old.Flows))
		old.Flows = 0
		s.addBase(old)
		// The discarded assembler's occupancy must leave any shared
		// gauges; ReleaseGauges subtracts tracked contributions without
		// walking the (possibly corrupt) tables.
		s.asm.ReleaseGauges()
		s.asm = s.rebuild()
		s.restarts.Add(1)
	}()
	s.asm.DropFlow(key)
}

// addBase folds a discarded assembler's counters into the shard's base.
func (s *shard) addBase(st flow.Stats) {
	s.base.Packets += st.Packets
	s.base.PayloadBytes += st.PayloadBytes
	s.base.OutOfOrder += st.OutOfOrder
	s.base.DroppedSegs += st.DroppedSegs
	s.base.SkippedFrames += st.SkippedFrames
	s.base.FlowsTotal += st.FlowsTotal
	s.base.EvictedCap += st.EvictedCap
	s.base.EvictedIdle += st.EvictedIdle
	s.base.RunnersReused += st.RunnersReused
	s.base.FlowRestarts += st.FlowRestarts
	s.base.StaleRunners += st.StaleRunners
	s.base.TenantDrops += st.TenantDrops
}
