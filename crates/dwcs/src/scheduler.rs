//! The DWCS scheduler proper.
//!
//! Construction mirrors the paper's Figure 4: frames are queued per stream
//! (FIFO — all packets of a stream share the same loss-tolerance and their
//! deadlines are fixed offsets of each other, so in-stream order is always
//! arrival order), head-of-line packets are indexed by a pluggable
//! [`ScheduleRepr`], and each scheduling decision:
//!
//! 1. pops the precedence-minimal head packet;
//! 2. if its deadline has passed: applies the *miss* window adjustment and —
//!    for droppable streams — discards it without transmission ("can safely
//!    drop late packets in lossy streams without unnecessarily transmitting
//!    them") and tries the next candidate;
//! 3. otherwise applies the *timely service* adjustment and dispatches it.
//!
//! Scheduling and dispatch may be **coupled** (a decision immediately
//! transmits — single data structure, no extra queuing jitter) or
//! **decoupled** (decisions fill a bounded dispatch queue that a separate
//! dispatcher drains — decisions can run ahead at a higher rate at the cost
//! of dispatch-queue delay), matching the paper's §3.1.1 trade-off.

use crate::key::HeadKey;
use crate::metrics::StreamStats;
use crate::qos::{LossPolicy, MissOutcome, StreamQos, Window};
use crate::repr::{ScheduleRepr, Work};
use crate::types::{FrameDesc, StreamId, Time};
use fixedpt::ops::{LogicalOp, OpMeter};
use fixedpt::SharedMeter;
use std::collections::VecDeque;

/// Coupled or decoupled scheduling/dispatch (§3.1.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchMode {
    /// A decision *is* a dispatch. "Coupling scheduling and dispatch allows
    /// a single data structure to hold frame descriptors and conserves
    /// memory. Also, packets do not suffer additional queuing delay and
    /// jitter in dispatch queues."
    Coupled,
    /// Decisions fill a bounded dispatch queue; a dispatcher drains it.
    /// "Allows scheduling decisions to be made at a higher rate."
    Decoupled {
        /// Dispatch queue capacity; a full queue back-pressures decisions.
        queue_cap: usize,
    },
}

/// When a packet becomes eligible for service.
///
/// The deadline is "the latest time a packet can *commence* service". A
/// work-conserving scheduler sends a sole ready packet immediately; the
/// paper's streaming system instead services each packet *at* its deadline
/// — that is what paces a pre-loaded file down to the stream's negotiated
/// rate (the "settling bandwidth" of Figures 7/9) and what makes queuing
/// delay grow linearly with frame number even on an unloaded server
/// (Figures 8/10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Serve the minimal head packet as soon as the scheduler runs.
    WorkConserving,
    /// Serve a packet no earlier than its deadline (rate-paced service).
    #[default]
    DeadlinePaced,
}

/// How successive deadlines are anchored.
///
/// The paper states both readings: deadlines are "determined from a
/// specification of the maximum allowable time between servicing
/// consecutive packets" (service-anchored) and "offset by a fixed amount
/// from its predecessor" (arrival-grid). They coincide while the scheduler
/// keeps up and diverge under sustained lateness:
///
/// * [`DeadlineAnchor::ServiceChain`] — the next deadline is one period
///   past `max(previous deadline, previous service commencement)`. Falling
///   behind slips the whole chain: *rate* degrades persistently (this is
///   what reproduces Figures 7–8) but backlogged packets quickly stop
///   counting as late.
/// * [`DeadlineAnchor::ArrivalGrid`] — deadlines are fixed at enqueue,
///   one period apart from the predecessor's. A backlog stays late until
///   worked off, so loss-tolerances bite continuously — the classic DWCS
///   bandwidth-sharing behaviour ("share bandwidth among competing clients
///   in strict proportion to their … loss-tolerances").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeadlineAnchor {
    /// Chain from `max(prev deadline, prev service) + T`.
    #[default]
    ServiceChain,
    /// Fix each packet's deadline at enqueue: `prev deadline + T`.
    ArrivalGrid,
}

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Dispatch coupling.
    pub dispatch: DispatchMode,
    /// Eligibility pacing.
    pub pacing: Pacing,
    /// Deadline anchoring (see [`DeadlineAnchor`]).
    pub anchor: DeadlineAnchor,
    /// Lateness tolerance: a packet only counts as *late* (miss/drop) when
    /// service commences more than this many nanoseconds past its
    /// deadline. Zero (the default) is the strict DWCS reading; the host
    /// experiments use one period, matching the observed behaviour that
    /// mild CPU-contention jitter delays frames without dropping them
    /// while sustained contention sheds them (Figures 7–8).
    pub late_grace: Time,
    /// Upper bound on late-frame drops processed within one decision
    /// (keeps worst-case decision latency bounded on the co-processor).
    pub max_drops_per_decision: u32,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            dispatch: DispatchMode::Coupled,
            pacing: Pacing::WorkConserving,
            anchor: DeadlineAnchor::ServiceChain,
            late_grace: 0,
            max_drops_per_decision: 64,
        }
    }
}

/// A frame selected for transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchedFrame {
    /// The frame descriptor (address, length, stream).
    pub desc: FrameDesc,
    /// The deadline it was scheduled against.
    pub deadline: Time,
    /// Whether service commenced at or before the deadline.
    pub on_time: bool,
}

/// Outcome of one scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedDecision {
    /// The frame to transmit (`None`: nothing eligible — all queues empty,
    /// or everything late got dropped, or the dispatch queue is full).
    pub frame: Option<DispatchedFrame>,
    /// Late frames dropped while reaching this decision.
    pub dropped: u32,
    /// Data-structure work performed (for the co-processor cost model).
    pub work: Work,
}

/// Observer driving [`DwcsScheduler::schedule_batch`]: supplies the clock
/// and receives each pass's events in the exact order the service core
/// emits them one pass at a time (drops, then the decision, then
/// dispatches, then end-of-pass). The fused batch loop is monomorphized
/// over the sink, so a trivial sink (the benchmark drain) compiles down to
/// the bare scheduling work.
pub trait BatchSink {
    /// Current time. Called once at the start of every pass and once per
    /// decoupled dispatch-queue pop — the same clock reads
    /// `SchedService::service_once` performs.
    fn now(&mut self) -> Time;

    /// A late frame dropped (within loss budget) during the pass that
    /// started at `at`. Emitted in drop order, before the pass's decision
    /// completes — reclaim-before-dispatch ordering (DESIGN.md §8) holds.
    fn on_drop(&mut self, desc: FrameDesc, at: Time);

    /// One completed decision pass, after drops and before any dispatch.
    /// `backlog` counts frames still queued across active streams.
    fn on_decision(&mut self, decision: &SchedDecision, backlog: u64, at: Time) {
        let _ = (decision, backlog, at);
    }

    /// One dispatched frame. `dropped_before` carries the pass's drop
    /// count for the coupled decision (zero for decoupled queue drains),
    /// mirroring `DispatchRecord`.
    fn on_dispatch(&mut self, frame: DispatchedFrame, dropped_before: u32, at: Time);

    /// End of one pass; `depth` is the remaining queued-frame count
    /// (the `QueueDepth` trace hook).
    fn end_pass(&mut self, depth: u64, at: Time) {
        let _ = (depth, at);
    }
}

/// What one [`DwcsScheduler::schedule_batch`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Service passes executed (≤ the requested budget; the batch stops
    /// early at the first pass that makes no progress).
    pub passes: u32,
    /// Frames handed to [`BatchSink::on_dispatch`].
    pub dispatched: u32,
    /// Late frames dropped across all passes.
    pub dropped: u32,
    /// Data-structure work summed across all passes.
    pub work: Work,
}

struct QueuedFrame {
    desc: FrameDesc,
    arrival: u64,
    /// Fixed deadline under [`DeadlineAnchor::ArrivalGrid`] (unused by the
    /// service chain).
    grid_deadline: Time,
}

struct StreamSlot {
    qos: StreamQos,
    window: Window,
    queue: VecDeque<QueuedFrame>,
    /// Deadline of the current head packet (valid while non-empty).
    head_deadline: Time,
    /// Chain anchor: `max(previous deadline, previous service commence)`.
    /// The paper derives deadlines "from a specification of the maximum
    /// allowable time between servicing consecutive packets in the same
    /// stream": the next deadline is one period after the predecessor was
    /// *due or served, whichever is later* — so a scheduler that falls
    /// behind slips the whole chain (persistent rate degradation under
    /// sustained contention, Figure 7) instead of accumulating an
    /// ever-later backlog against a fixed grid.
    chain: Time,
    stats: StreamStats,
    active: bool,
}

/// The DWCS scheduler, generic over schedule representation.
pub struct DwcsScheduler<R> {
    streams: Vec<StreamSlot>,
    repr: R,
    meter: SharedMeter,
    cfg: SchedulerConfig,
    arrival_seq: u64,
    dispatch_q: VecDeque<DispatchedFrame>,
    decisions: u64,
    live_streams: usize,
    dropped_frames: Vec<FrameDesc>,
    /// Frames queued across all active streams, maintained incrementally
    /// at every queue mutation so [`DwcsScheduler::total_backlog`] — read
    /// twice per service pass — is O(1) instead of an O(streams) scan.
    queued_frames: u64,
}

impl<R: ScheduleRepr> DwcsScheduler<R> {
    /// New scheduler over the given representation with default config.
    pub fn new(repr: R) -> DwcsScheduler<R> {
        DwcsScheduler::with_config(repr, SchedulerConfig::default())
    }

    /// New scheduler with explicit configuration.
    pub fn with_config(repr: R, cfg: SchedulerConfig) -> DwcsScheduler<R> {
        DwcsScheduler {
            streams: Vec::new(),
            repr,
            meter: fixedpt::ops::null_meter(),
            cfg,
            arrival_seq: 0,
            dispatch_q: VecDeque::new(),
            decisions: 0,
            live_streams: 0,
            dropped_frames: Vec::new(),
            queued_frames: 0,
        }
    }

    /// Attach an op meter (the i960 cost model prices its counts).
    pub fn set_meter(&mut self, meter: SharedMeter) {
        self.meter = meter;
    }

    /// The attached meter.
    pub fn meter(&self) -> &OpMeter {
        &self.meter
    }

    /// Register a stream; returns its dense id. Slots of removed streams
    /// are reused.
    pub fn add_stream(&mut self, qos: StreamQos) -> StreamId {
        self.live_streams += 1;
        let slot = StreamSlot {
            qos,
            window: Window::new(&qos),
            queue: VecDeque::new(),
            head_deadline: 0,
            chain: 0,
            stats: StreamStats::default(),
            active: true,
        };
        if let Some(i) = self.streams.iter().position(|s| !s.active) {
            self.streams[i] = slot;
            StreamId(i as u32)
        } else {
            self.streams.push(slot);
            StreamId((self.streams.len() - 1) as u32)
        }
    }

    /// Deregister a stream, discarding its backlog.
    pub fn remove_stream(&mut self, sid: StreamId) {
        self.remove_stream_with(sid, |_| {});
    }

    /// Deregister a stream, handing every still-queued descriptor to `f`
    /// (embeddings that own payload storage reclaim the slots; see
    /// [`crate::svc::Platform::reclaim`]).
    pub fn remove_stream_with(&mut self, sid: StreamId, mut f: impl FnMut(FrameDesc)) {
        let slot = &mut self.streams[sid.index()];
        if slot.active {
            slot.active = false;
            self.queued_frames -= slot.queue.len() as u64;
            for qf in slot.queue.drain(..) {
                f(qf.desc);
            }
            self.repr.remove(sid);
            self.live_streams -= 1;
        }
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        self.live_streams
    }

    /// Enqueue a frame for `sid` at time `now`.
    ///
    /// Deadline assignment: each packet's deadline is its predecessor's
    /// plus the stream period `T` ("each successive packet in a stream has
    /// a deadline that is offset by a fixed amount from its predecessor").
    /// When a stream goes idle (empty queue) and its deadline chain has
    /// fallen behind the clock, the chain re-anchors at `now` — otherwise a
    /// paused stream would resume permanently late.
    // analysis: hot
    pub fn enqueue(&mut self, sid: StreamId, desc: FrameDesc, now: Time) {
        let arrival = self.arrival_seq;
        self.arrival_seq += 1;
        let slot = &mut self.streams[sid.index()];
        assert!(slot.active, "enqueue on removed stream {sid}");
        let was_empty = slot.queue.is_empty();
        let grid_deadline = if self.cfg.anchor == DeadlineAnchor::ArrivalGrid {
            // Fix the deadline now: one period past the predecessor's
            // (re-anchored after an idle gap).
            if was_empty && slot.chain < now {
                slot.chain = now;
            }
            let d = slot.chain + slot.qos.period;
            slot.chain = d;
            d
        } else {
            0
        };
        if was_empty {
            slot.head_deadline = match self.cfg.anchor {
                // Service chain: one period past the chain anchor,
                // re-anchored to `now` after an idle gap so a paused
                // stream does not resume permanently late.
                DeadlineAnchor::ServiceChain => slot.chain.max(now) + slot.qos.period,
                DeadlineAnchor::ArrivalGrid => grid_deadline,
            };
        }
        // analysis: allow(ni-no-alloc) reason="per-stream ring reuses its buffer once warm; growth only during admission ramp"
        slot.queue.push_back(QueuedFrame {
            desc: FrameDesc {
                enqueued_at: now,
                ..desc
            },
            arrival,
            grid_deadline,
        });
        slot.stats.note_enqueue();
        self.queued_frames += 1;
        self.meter.record(LogicalOp::Counter, 2);
        if was_empty {
            if let Some(key) = head_key(slot) {
                self.repr.update(sid, key);
            }
        }
    }

    /// Make one scheduling decision at time `now` (coupled mode — the
    /// returned frame is considered transmitted immediately).
    pub fn schedule_next(&mut self, now: Time) -> SchedDecision {
        let mut decision = self.decide(now);
        self.route(&mut decision, now);
        decision
    }

    /// Route a fresh decision's frame through the dispatch mode. Coupled:
    /// the frame is sent now. Decoupled: it joins the dispatch queue and
    /// leaves `decision.frame`, unless the queue is full — undo is then
    /// impossible (the window is already adjusted), so it is sent directly
    /// and stays in `decision.frame`: the bound caps memory, it does not
    /// drop scheduled frames.
    fn route(&mut self, decision: &mut SchedDecision, now: Time) {
        let Some(frame) = decision.frame else {
            return;
        };
        if let DispatchMode::Decoupled { queue_cap } = self.cfg.dispatch {
            if self.dispatch_q.len() < queue_cap {
                // analysis: allow(ni-no-alloc) reason="bounded by queue_cap just above; capacity reserved at construction"
                self.dispatch_q.push_back(frame);
                decision.frame = None;
                return;
            }
        }
        self.account_dispatch(frame, now);
    }

    /// Decoupled mode: drain one frame from the dispatch queue.
    pub fn pop_dispatch(&mut self, now: Time) -> Option<DispatchedFrame> {
        let f = self.dispatch_q.pop_front()?;
        self.account_dispatch(f, now);
        Some(f)
    }

    /// Frames waiting in the dispatch queue (decoupled mode).
    pub fn dispatch_backlog(&self) -> usize {
        self.dispatch_q.len()
    }

    /// One scheduling decision with per-decision metering: the single-pass
    /// path used by `schedule_next`. Drops stage into the internal buffer
    /// drained by [`DwcsScheduler::take_dropped`].
    fn decide(&mut self, now: Time) -> SchedDecision {
        // One ratio evaluation per decision (the priority computation the
        // soft-float build pays dearly for).
        self.meter.record(LogicalOp::RatioDivide, 1);
        let mut staged = core::mem::take(&mut self.dropped_frames);
        let decision = self.decide_core(now, &mut |desc| {
            // analysis: allow(ni-no-alloc) reason="drop staging recycles capacity with the service pass's buffer via take_dropped"
            staged.push(desc);
        });
        self.dropped_frames = staged;
        self.charge(&decision.work);
        decision
    }

    /// Core decision: pick, drop-late-if-lossy, adjust windows. Dropped
    /// descriptors go to `on_drop` in drop order. Metering of the
    /// per-decision ratio evaluation and of the accumulated [`Work`] is the
    /// caller's job — `decide` charges per decision, `schedule_batch` once
    /// per batch — so the two paths report identical totals.
    fn decide_core(&mut self, now: Time, on_drop: &mut dyn FnMut(FrameDesc)) -> SchedDecision {
        self.decisions += 1;
        let mut dropped = 0u32;
        let mut work = Work::default();

        // Every iteration either returns, skips one stale repr entry, or
        // drops one late frame. NI placements admit ≤ 16 streams (one live
        // repr entry each) and configure `max_drops_per_decision` ≤ 16 —
        // the knob that "keeps worst-case decision latency bounded on the
        // co-processor" — so the loop runs at most 32 times.
        // analysis: bound 32
        loop {
            let Some((sid, key)) = self.repr.pop_min() else {
                work.add(self.repr.take_work());
                return SchedDecision {
                    frame: None,
                    dropped,
                    work,
                };
            };
            let slot = &mut self.streams[sid.index()];
            let Some(qf) = slot.queue.pop_front() else {
                // A repr entry with no queued head would be an index/queue
                // desync; skip the stale entry rather than dying mid-stream
                // — the stream re-indexes on its next enqueue.
                continue;
            };
            self.queued_frames -= 1;
            debug_assert_eq!(qf.arrival, key.arrival, "repr key tracks queue head");

            let deadline = slot.head_deadline;
            if self.cfg.pacing == Pacing::DeadlinePaced && deadline > now {
                // The precedence-minimal packet is not yet eligible; since
                // the order is deadline-major, nothing else is either.
                // analysis: allow(ni-no-alloc) reason="returns the frame just popped to the same queue; its slot is still free"
                slot.queue.push_front(qf);
                self.queued_frames += 1;
                self.repr.update(sid, key);
                work.add(self.repr.take_work());
                return SchedDecision {
                    frame: None,
                    dropped,
                    work,
                };
            }

            // Expose the successor's deadline.
            match self.cfg.anchor {
                DeadlineAnchor::ServiceChain => {
                    // Service (or drop) commences now: the chain advances
                    // from whichever is later.
                    slot.chain = deadline.max(now);
                    if slot.queue.front().is_some() {
                        slot.head_deadline = slot.chain + slot.qos.period;
                    }
                }
                DeadlineAnchor::ArrivalGrid => {
                    if let Some(next) = slot.queue.front() {
                        slot.head_deadline = next.grid_deadline;
                    }
                }
            }

            let late = deadline.saturating_add(self.cfg.late_grace) < now;
            let frame = if late {
                let outcome = slot.window.on_miss(&self.meter);
                if outcome == MissOutcome::Violation {
                    slot.stats.note_violation();
                }
                // A late packet is dropped only when the stream is lossy
                // AND the miss fit inside the loss budget ("at most x
                // packets can miss their deadlines and be either dropped
                // or transmitted late, depending on whether or not the
                // attribute-based QoS for the stream allows some packets
                // to be lost"). A budget-exhausted miss is a violation:
                // the packet still goes out, late.
                let drop_it = slot.qos.policy == LossPolicy::Droppable && outcome == MissOutcome::Tolerated;
                if drop_it {
                    slot.stats.note_dropped();
                    on_drop(qf.desc);
                    dropped += 1;
                    // Re-index this stream's new head and retry unless
                    // the per-decision drop budget is exhausted.
                    if let Some(k) = head_key(slot) {
                        self.repr.update(sid, k);
                    }
                    if dropped >= self.cfg.max_drops_per_decision {
                        work.add(self.repr.take_work());
                        return SchedDecision {
                            frame: None,
                            dropped,
                            work,
                        };
                    }
                    continue;
                }
                Some(DispatchedFrame {
                    desc: qf.desc,
                    deadline,
                    on_time: false,
                })
            } else {
                slot.window.on_timely_service(&self.meter);
                Some(DispatchedFrame {
                    desc: qf.desc,
                    deadline,
                    on_time: true,
                })
            };

            if let Some(k) = head_key(slot) {
                self.repr.update(sid, k);
            }
            work.add(self.repr.take_work());
            return SchedDecision { frame, dropped, work };
        }
    }

    /// Run up to `budget` fused service passes in one sweep — the
    /// amortized batch path. Each pass performs exactly the work of one
    /// `schedule_next` (decide, route through the dispatch mode, drain the
    /// decoupled queue) and reports it through `sink` in the order the
    /// placement-facing service pass emits events: drops first, then the
    /// decision, then dispatches, then end-of-pass. Per-decision overheads
    /// are hoisted out of the inner loop: the ratio-evaluation meter record
    /// and the [`Work`] charge happen **once per batch** (identical totals
    /// to `budget` single passes), and drops bypass the staging buffer
    /// straight into the sink.
    ///
    /// The batch stops early at the first pass that makes no progress —
    /// nothing decided, dropped, or dispatched. With a non-decreasing
    /// clock, every remaining pass at the same instant would also be idle,
    /// so stopping is equivalent to running the rest of the budget.
    pub fn schedule_batch<S: BatchSink>(&mut self, budget: u32, sink: &mut S) -> BatchSummary {
        let mut summary = BatchSummary::default();
        // analysis: allow(ni-cycle-budget) reason="budget-bounded host-side batch sweep; NI placements keep the single-decision service path"
        for _ in 0..budget {
            let now = sink.now();
            let mut decision = self.decide_core(now, &mut |desc| sink.on_drop(desc, now));
            summary.passes += 1;
            summary.dropped += decision.dropped;
            summary.work.add(decision.work);
            let decided = decision.frame.is_some();
            self.route(&mut decision, now);
            let backlog = self.total_backlog();
            sink.on_decision(&decision, backlog, now);
            let mut dispatched = 0u32;
            if let Some(frame) = decision.frame {
                sink.on_dispatch(frame, decision.dropped, now);
                dispatched += 1;
            }
            // Drain the decoupled dispatch queue dry, re-reading the clock
            // per pop — the same loop (and the same clock reads) as the
            // single-pass service path.
            // analysis: bound 16
            loop {
                let t = sink.now();
                let Some(frame) = self.pop_dispatch(t) else {
                    break;
                };
                sink.on_dispatch(frame, 0, t);
                dispatched += 1;
            }
            summary.dispatched += dispatched;
            sink.end_pass(self.total_backlog(), now);
            if !decided && decision.dropped == 0 && dispatched == 0 {
                break;
            }
        }
        self.meter.record(LogicalOp::RatioDivide, u64::from(summary.passes));
        self.charge(&summary.work);
        summary
    }

    fn account_dispatch(&mut self, f: DispatchedFrame, now: Time) {
        let slot = &mut self.streams[f.desc.stream.index()];
        let delay = now.saturating_sub(f.desc.enqueued_at);
        slot.stats.note_sent(f.desc.len, delay, f.on_time);
        slot.stats.note_departure_at(now);
    }

    fn charge(&self, work: &Work) {
        self.meter.record(LogicalOp::RatioCompare, work.compares);
        self.meter.record(LogicalOp::Touch, work.touches);
    }

    /// Per-stream statistics.
    pub fn stats(&self, sid: StreamId) -> &StreamStats {
        &self.streams[sid.index()].stats
    }

    /// Current window state of a stream.
    pub fn window(&self, sid: StreamId) -> &Window {
        &self.streams[sid.index()].window
    }

    /// QoS a stream was admitted with.
    pub fn qos(&self, sid: StreamId) -> &StreamQos {
        &self.streams[sid.index()].qos
    }

    /// Frames queued for a stream.
    pub fn backlog(&self, sid: StreamId) -> usize {
        self.streams[sid.index()].queue.len()
    }

    /// Frames queued across all active streams (co-processor cost models
    /// scale decision time with this). O(1): maintained incrementally at
    /// every queue mutation; the debug build cross-checks the counter
    /// against a full scan.
    pub fn total_backlog(&self) -> u64 {
        debug_assert_eq!(
            self.queued_frames,
            self.streams
                .iter()
                .filter(|s| s.active)
                .map(|s| s.queue.len() as u64)
                .sum::<u64>(),
            "incremental backlog counter out of sync with the queues"
        );
        self.queued_frames
    }

    /// Whether any stream has queued frames (or the dispatch queue holds
    /// frames in decoupled mode).
    pub fn has_pending(&self) -> bool {
        !self.dispatch_q.is_empty() || self.streams.iter().any(|s| s.active && !s.queue.is_empty())
    }

    /// Deadline of a stream's head packet.
    pub fn head_deadline(&self, sid: StreamId) -> Option<Time> {
        let slot = &self.streams[sid.index()];
        (!slot.queue.is_empty()).then_some(slot.head_deadline)
    }

    /// Earliest deadline among all head packets — when the next packet
    /// becomes eligible under [`Pacing::DeadlinePaced`] (event-driven
    /// embeddings sleep until then).
    pub fn next_eligible(&mut self) -> Option<Time> {
        self.repr.peek_min().map(|(_, k)| k.deadline)
    }

    /// Total decisions made.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Move descriptors of frames dropped since the last drain into
    /// `into` (appended in drop order). Both sides recycle their buffer
    /// capacity, so a steady-state service pass never allocates
    /// ([`crate::svc::SchedService`] hoists `into` into the service
    /// struct).
    pub fn take_dropped(&mut self, into: &mut Vec<FrameDesc>) {
        // analysis: allow(ni-no-alloc) reason="both buffers recycle capacity; `into` stops growing once it has seen the largest drop burst"
        into.append(&mut self.dropped_frames);
    }

    /// Access the representation (e.g. `DualHeap::most_constrained`).
    pub fn repr_mut(&mut self) -> &mut R {
        &mut self.repr
    }

    /// Ids of all active streams.
    pub fn stream_ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active)
            .map(|(i, _)| StreamId(i as u32))
    }
}

fn head_key(slot: &StreamSlot) -> Option<HeadKey> {
    slot.queue.front().map(|qf| HeadKey {
        deadline: slot.head_deadline,
        x: slot.window.x(),
        y: slot.window.y(),
        arrival: qf.arrival,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::{DualHeap, LinearScan};
    use crate::types::{FrameKind, MILLISECOND};

    fn frame(sid: u32, seq: u64) -> FrameDesc {
        FrameDesc::new(StreamId(sid), seq, 1000, FrameKind::P)
    }

    fn sched() -> DwcsScheduler<LinearScan> {
        DwcsScheduler::new(LinearScan::new(8))
    }

    #[test]
    fn single_stream_fifo_dispatch() {
        let mut s = sched();
        let sid = s.add_stream(StreamQos::new(10 * MILLISECOND, 1, 2));
        for seq in 0..3 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        for seq in 0..3 {
            let d = s.schedule_next(1);
            let f = d.frame.expect("frame available");
            assert_eq!(f.desc.seq, seq);
            assert!(f.on_time);
        }
        assert!(s.schedule_next(1).frame.is_none());
        assert_eq!(s.stats(sid).sent_on_time, 3);
    }

    #[test]
    fn deadlines_are_period_spaced() {
        let mut s = sched();
        let sid = s.add_stream(StreamQos::new(5 * MILLISECOND, 0, 1));
        s.enqueue(sid, frame(0, 0), 0);
        s.enqueue(sid, frame(0, 1), 0);
        s.enqueue(sid, frame(0, 2), 0);
        assert_eq!(s.head_deadline(sid), Some(5 * MILLISECOND));
        let _ = s.schedule_next(0);
        assert_eq!(s.head_deadline(sid), Some(10 * MILLISECOND));
        let _ = s.schedule_next(0);
        assert_eq!(s.head_deadline(sid), Some(15 * MILLISECOND));
    }

    #[test]
    fn idle_stream_reanchors_deadline_chain() {
        let mut s = sched();
        let sid = s.add_stream(StreamQos::new(5 * MILLISECOND, 0, 1));
        s.enqueue(sid, frame(0, 0), 0);
        let _ = s.schedule_next(0);
        // Long pause, then resume: deadline = now + T, not 10 ms.
        let now = 1_000 * MILLISECOND;
        s.enqueue(sid, frame(0, 1), now);
        assert_eq!(s.head_deadline(sid), Some(now + 5 * MILLISECOND));
    }

    #[test]
    fn earliest_deadline_stream_wins() {
        let mut s = sched();
        let slow = s.add_stream(StreamQos::new(100 * MILLISECOND, 1, 2));
        let fast = s.add_stream(StreamQos::new(10 * MILLISECOND, 1, 2));
        s.enqueue(slow, frame(0, 0), 0);
        s.enqueue(fast, frame(1, 0), 0);
        let f = s.schedule_next(0).frame.unwrap();
        assert_eq!(f.desc.stream, fast);
    }

    #[test]
    fn late_droppable_head_is_shed_and_chain_reanchors() {
        let mut s = sched();
        // Tolerance 1/2: one of every two packets may be lost.
        let sid = s.add_stream(StreamQos::new(MILLISECOND, 1, 2));
        for seq in 0..3 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        // Far future: the head's deadline (1 ms) has passed → dropped
        // within budget; the successor's deadline re-anchors to now + T
        // (service-spacing semantics), so it transmits on time.
        let d = s.schedule_next(100 * MILLISECOND);
        assert_eq!(d.dropped, 1);
        let f = d.frame.expect("re-anchored successor transmits");
        assert!(f.on_time);
        assert_eq!(f.desc.seq, 1);
        assert_eq!(f.deadline, 101 * MILLISECOND);
        assert_eq!(s.stats(sid).dropped, 1);
        assert_eq!(s.stats(sid).sent_on_time, 1);
    }

    #[test]
    fn late_sendlate_frames_still_dispatch() {
        let mut s = sched();
        let sid = s.add_stream(StreamQos::new(MILLISECOND, 1, 2).send_late());
        s.enqueue(sid, frame(0, 0), 0);
        let d = s.schedule_next(100 * MILLISECOND);
        let f = d.frame.expect("late frame transmitted");
        assert!(!f.on_time);
        assert_eq!(d.dropped, 0);
        assert_eq!(s.stats(sid).sent_late, 1);
    }

    #[test]
    fn zero_tolerance_streams_never_drop_only_violate() {
        let mut s = sched();
        // Zero loss tolerance: a miss is a violation and the frame is
        // still transmitted, late.
        let sid = s.add_stream(StreamQos::new(MILLISECOND, 0, 4));
        for seq in 0..3 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        let d = s.schedule_next(1_000 * MILLISECOND);
        let f = d.frame.expect("violating frame still transmits");
        assert_eq!(f.desc.seq, 0);
        assert!(!f.on_time);
        assert_eq!(d.dropped, 0);
        assert_eq!(s.stats(sid).violations, 1);
        assert_eq!(s.stats(sid).sent_late, 1);
        // Successors re-anchor and go out clean.
        for expect_seq in 1..3 {
            let f = s.schedule_next(1_000 * MILLISECOND).frame.unwrap();
            assert_eq!(f.desc.seq, expect_seq);
            assert!(f.on_time);
        }
        assert_eq!(s.stats(sid).dropped, 0);
    }

    #[test]
    fn window_state_drives_priority() {
        let mut s = sched();
        // Two streams, same period; a has no loss budget left after misses.
        let a = s.add_stream(StreamQos::new(10 * MILLISECOND, 1, 4));
        let b = s.add_stream(StreamQos::new(10 * MILLISECOND, 3, 4));
        // Enqueue one frame each at t=0 (same deadline, arrival a first).
        s.enqueue(a, frame(0, 0), 0);
        s.enqueue(b, frame(1, 0), 0);
        // W'(a)=1/4 < W'(b)=3/4 → a wins the deadline tie.
        let f = s.schedule_next(0).frame.unwrap();
        assert_eq!(f.desc.stream, a);
    }

    #[test]
    fn decoupled_dispatch_queue() {
        let cfg = SchedulerConfig {
            dispatch: DispatchMode::Decoupled { queue_cap: 8 },
            ..SchedulerConfig::default()
        };
        let mut s = DwcsScheduler::with_config(LinearScan::new(4), cfg);
        let sid = s.add_stream(StreamQos::new(10 * MILLISECOND, 1, 2));
        s.enqueue(sid, frame(0, 0), 0);
        s.enqueue(sid, frame(0, 1), 0);
        // Decisions queue frames instead of returning them.
        let d = s.schedule_next(0);
        assert!(d.frame.is_none());
        assert_eq!(s.dispatch_backlog(), 1);
        let _ = s.schedule_next(0);
        assert_eq!(s.dispatch_backlog(), 2);
        // Dispatcher drains in decision order; delay measured at pop.
        let f0 = s.pop_dispatch(2 * MILLISECOND).unwrap();
        assert_eq!(f0.desc.seq, 0);
        let f1 = s.pop_dispatch(3 * MILLISECOND).unwrap();
        assert_eq!(f1.desc.seq, 1);
        assert!(s.pop_dispatch(3 * MILLISECOND).is_none());
        assert_eq!(s.stats(sid).sent_on_time, 2);
        assert!(s.stats(sid).mean_queue_delay() >= 2 * MILLISECOND);
    }

    #[test]
    fn deadline_pacing_withholds_early_frames() {
        let cfg = SchedulerConfig {
            pacing: Pacing::DeadlinePaced,
            ..SchedulerConfig::default()
        };
        let mut s = DwcsScheduler::with_config(LinearScan::new(4), cfg);
        let sid = s.add_stream(StreamQos::new(10 * MILLISECOND, 1, 2));
        for seq in 0..3 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        // Nothing eligible before the first deadline.
        assert!(s.schedule_next(5 * MILLISECOND).frame.is_none());
        assert_eq!(s.next_eligible(), Some(10 * MILLISECOND));
        // Exactly at the deadline: one frame, on time.
        let f = s.schedule_next(10 * MILLISECOND).frame.expect("eligible now");
        assert_eq!(f.desc.seq, 0);
        assert!(f.on_time);
        // The next frame's deadline is 20 ms; 15 ms yields nothing.
        assert!(s.schedule_next(15 * MILLISECOND).frame.is_none());
        let f = s.schedule_next(20 * MILLISECOND).frame.unwrap();
        assert_eq!(f.desc.seq, 1);
    }

    #[test]
    fn deadline_pacing_yields_stream_rate_bandwidth() {
        // Pre-load a whole "file" and verify dispatch spacing equals T.
        let cfg = SchedulerConfig {
            pacing: Pacing::DeadlinePaced,
            ..SchedulerConfig::default()
        };
        let mut s = DwcsScheduler::with_config(LinearScan::new(4), cfg);
        let period = 33 * MILLISECOND;
        let sid = s.add_stream(StreamQos::new(period, 2, 8));
        for seq in 0..30 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        let mut sent_times = Vec::new();
        let mut now = 0;
        while s.has_pending() {
            now = s.next_eligible().expect("pending frames have deadlines");
            let d = s.schedule_next(now);
            if let Some(f) = d.frame {
                sent_times.push((f.desc.seq, now));
            }
        }
        assert_eq!(sent_times.len(), 30);
        for w in sent_times.windows(2) {
            assert_eq!(w[1].1 - w[0].1, period, "dispatches exactly T apart");
        }
        // Queuing delay grows linearly: frame k waited k·T.
        assert_eq!(s.stats(sid).queue_delay_max, 30 * period);
        let _ = now;
    }

    #[test]
    fn arrival_grid_keeps_backlog_late() {
        let cfg = SchedulerConfig {
            anchor: DeadlineAnchor::ArrivalGrid,
            ..SchedulerConfig::default()
        };
        let mut s = DwcsScheduler::with_config(LinearScan::new(4), cfg);
        let sid = s.add_stream(StreamQos::new(10 * MILLISECOND, 4, 4));
        for seq in 0..5 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        // Deadlines fixed at 10,20,30,40,50 ms. At t=100 ms ALL are late:
        // the grid does not re-anchor after the first drop.
        let d = s.schedule_next(100 * MILLISECOND);
        assert!(d.frame.is_none());
        assert_eq!(d.dropped, 5, "whole backlog counted late under the grid");
    }

    #[test]
    fn service_chain_reanchors_after_first_miss() {
        // Contrast case: same scenario under the default chain — only the
        // head is late; successors re-anchor to now + T.
        let mut s = sched();
        let sid = s.add_stream(StreamQos::new(10 * MILLISECOND, 4, 4));
        for seq in 0..5 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        let d = s.schedule_next(100 * MILLISECOND);
        assert_eq!(d.dropped, 1);
        let f = d.frame.expect("re-anchored successor sends");
        assert!(f.on_time);
        assert_eq!(f.deadline, 110 * MILLISECOND);
    }

    #[test]
    fn anchors_agree_while_on_time() {
        // Served exactly at each deadline, the two anchorings produce the
        // same schedule.
        let run = |anchor: DeadlineAnchor| -> Vec<Time> {
            let cfg = SchedulerConfig {
                anchor,
                pacing: Pacing::DeadlinePaced,
                ..SchedulerConfig::default()
            };
            let mut s = DwcsScheduler::with_config(LinearScan::new(2), cfg);
            let sid = s.add_stream(StreamQos::new(7 * MILLISECOND, 1, 4));
            for seq in 0..10 {
                s.enqueue(sid, frame(0, seq), 0);
            }
            let mut times = Vec::new();
            while s.has_pending() {
                let t = s.next_eligible().unwrap();
                if s.schedule_next(t).frame.is_some() {
                    times.push(t);
                }
            }
            times
        };
        assert_eq!(run(DeadlineAnchor::ServiceChain), run(DeadlineAnchor::ArrivalGrid));
    }

    /// The O(1) backlog counter must agree with a queue scan through
    /// every mutation class: enqueue, paced put-back, drop, dispatch,
    /// and stream removal with a live backlog. (The debug build's
    /// `total_backlog` cross-check fires on any drift; this test walks
    /// all the paths.)
    #[test]
    fn incremental_backlog_survives_every_queue_mutation() {
        let cfg = SchedulerConfig {
            pacing: Pacing::DeadlinePaced,
            ..SchedulerConfig::default()
        };
        let mut s = DwcsScheduler::with_config(LinearScan::new(8), cfg);
        let a = s.add_stream(StreamQos::new(10 * MILLISECOND, 4, 4));
        let b = s.add_stream(StreamQos::new(3 * MILLISECOND, 0, 1));
        for seq in 0..4 {
            s.enqueue(a, frame(0, seq), 0);
            s.enqueue(b, frame(1, seq), 0);
        }
        assert_eq!(s.total_backlog(), 8);
        // Paced put-back: nothing eligible yet, count unchanged.
        assert!(s.schedule_next(MILLISECOND).frame.is_none());
        assert_eq!(s.total_backlog(), 8);
        // Dispatch one eligible frame.
        assert!(s.schedule_next(3 * MILLISECOND).frame.is_some());
        assert_eq!(s.total_backlog(), 7);
        // Late heads: droppable stream `a` sheds frames, strict stream
        // `b` sends late; every pass must satisfy the accounting
        // identity backlog' = backlog - dropped - dispatched.
        let mut dropped_total = 0;
        let mut t = SECOND;
        while s.has_pending() {
            let before = s.total_backlog();
            let d = s.schedule_next(t);
            dropped_total += d.dropped;
            assert_eq!(
                s.total_backlog(),
                before - u64::from(d.dropped) - u64::from(d.frame.is_some() as u8)
            );
            t += SECOND;
        }
        assert!(dropped_total >= 1, "droppable stream never shed a frame");
        assert_eq!(s.total_backlog(), 0);
        // Removal returns a live queue's frames to the count.
        for seq in 0..3 {
            s.enqueue(a, frame(0, 4 + seq), t);
        }
        assert_eq!(s.total_backlog(), 3);
        s.remove_stream(a);
        assert_eq!(s.total_backlog(), 0);
        let _ = b;
    }

    #[test]
    fn take_dropped_drains_the_staged_drops() {
        let mut s = sched();
        let sid = s.add_stream(StreamQos::new(MILLISECOND, 4, 4));
        for seq in 0..3 {
            s.enqueue(sid, frame(0, seq), 0);
        }
        let d = s.schedule_next(SECOND);
        assert!(d.dropped >= 1);
        let mut got = Vec::new();
        s.take_dropped(&mut got);
        assert_eq!(got.len(), d.dropped as usize);
        // Buffer drained: a second take yields nothing.
        let mut again = Vec::new();
        s.take_dropped(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn stream_removal_frees_slot() {
        let mut s = sched();
        let a = s.add_stream(StreamQos::new(MILLISECOND, 1, 2));
        s.enqueue(a, frame(0, 0), 0);
        s.remove_stream(a);
        assert_eq!(s.stream_count(), 0);
        assert!(s.schedule_next(0).frame.is_none());
        let b = s.add_stream(StreamQos::new(MILLISECOND, 1, 2));
        assert_eq!(b, a, "slot reused");
    }

    #[test]
    fn drop_budget_bounds_decision() {
        let cfg = SchedulerConfig {
            max_drops_per_decision: 2,
            ..SchedulerConfig::default()
        };
        let mut s = DwcsScheduler::with_config(LinearScan::new(8), cfg);
        // Five lossy streams, each with one long-expired head.
        let sids: Vec<_> = (0..5)
            .map(|_| s.add_stream(StreamQos::new(MILLISECOND, 4, 4)))
            .collect();
        for (i, &sid) in sids.iter().enumerate() {
            s.enqueue(sid, frame(i as u32, 0), 0);
        }
        let d = s.schedule_next(SECOND);
        assert!(d.frame.is_none());
        assert_eq!(d.dropped, 2, "budget respected");
        let backlog: usize = sids.iter().map(|&sid| s.backlog(sid)).sum();
        assert_eq!(backlog, 3);
    }

    #[test]
    fn works_identically_on_dual_heap() {
        let mut lin = DwcsScheduler::new(LinearScan::new(8));
        let mut heap = DwcsScheduler::new(DualHeap::new(8));
        let qos = [
            StreamQos::new(10 * MILLISECOND, 1, 3),
            StreamQos::new(7 * MILLISECOND, 0, 2),
            StreamQos::new(13 * MILLISECOND, 2, 4),
        ];
        let ids_l: Vec<_> = qos.iter().map(|q| lin.add_stream(*q)).collect();
        let ids_h: Vec<_> = qos.iter().map(|q| heap.add_stream(*q)).collect();
        for seq in 0..20u64 {
            for (i, (&l, &h)) in ids_l.iter().zip(&ids_h).enumerate() {
                let t = seq * MILLISECOND;
                lin.enqueue(l, frame(i as u32, seq), t);
                heap.enqueue(h, frame(i as u32, seq), t);
            }
        }
        let mut t = 0;
        loop {
            let a = lin.schedule_next(t);
            let b = heap.schedule_next(t);
            assert_eq!(
                a.frame.map(|f| (f.desc.stream, f.desc.seq)),
                b.frame.map(|f| (f.desc.stream, f.desc.seq))
            );
            if a.frame.is_none() && !lin.has_pending() {
                break;
            }
            t += 2 * MILLISECOND;
        }
    }

    use crate::types::SECOND;
}
