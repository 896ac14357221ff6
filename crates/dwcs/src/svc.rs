//! The placement-agnostic scheduler **service core**.
//!
//! The paper's central architectural claim (§3) is that the *same* DWCS
//! scheduler module runs unchanged wherever it is placed — in a host
//! process, or on the NI co-processor as a DVCM run-time extension. This
//! module makes the repository embody that claim: [`SchedService`] owns
//! the complete service loop — ingest descriptors, pace by deadline,
//! decide, resolve drops versus late sends, update window/violation
//! state, emit [`DispatchRecord`]s, meter op-classes — and every
//! placement supplies only its environment through a small [`Platform`]
//! trait (a clock, a dispatch sink, a drop reclaimer, an op meter).
//!
//! Three placements bind to this core:
//!
//! * the real threaded engine (`nistream-core::engine`) — wall clock,
//!   frame-pool payload resolution, pluggable frame sinks;
//! * the DVCM media-scheduler extension (`dvcm::media_sched`) — NI time,
//!   an outbox the embedding drains onto the wire;
//! * the simulation worlds (`serversim::{hostload,niload,ninode,chassis}`
//!   and the Tables 1–3 harness `serversim::micro`) — simulated time,
//!   cost-model pricing per decision and per dispatch.
//!
//! Like the rest of this crate the core is NI-resident code: no floating
//! point, no panicking constructs, and fully deterministic given its
//! inputs (enforced by `nistream-analysis`).

use crate::qos::StreamQos;
use crate::repr::ScheduleRepr;
use crate::scheduler::{BatchSink, BatchSummary, DispatchedFrame, DwcsScheduler, SchedDecision, SchedulerConfig};
use crate::types::{CardId, FrameDesc, StreamId, Time};
use fixedpt::SharedMeter;
use nistream_trace::{TraceEvent, TraceRing};

/// One dispatched frame with its decision metadata.
///
/// This is the unit every placement's dispatch path receives — the NI
/// extension queues them in an outbox, the threaded engine resolves the
/// descriptor to a pooled payload, the simulators price wire occupancy.
#[derive(Clone, Copy, Debug)]
pub struct DispatchRecord {
    /// The dispatched frame.
    pub frame: DispatchedFrame,
    /// Service-core time of the scheduling decision.
    pub decided_at: Time,
    /// Late frames dropped while reaching this decision.
    pub dropped_before: u32,
}

/// What one [`SchedService::service_once`] pass did.
#[derive(Clone, Copy, Debug)]
pub struct ServiceOutcome {
    /// The raw scheduling decision (work counts, drop count, frame).
    pub decision: SchedDecision,
    /// Dispatch records handed to [`Platform::dispatch`] this pass
    /// (coupled decision plus any decoupled queue drain).
    pub dispatched: u32,
}

/// A congestion snapshot of the service core since the previous probe —
/// the signal an adaptive-bitrate controller (`workload::abr`) feeds on.
///
/// Counters accumulate across service passes and reset when
/// [`SchedService::probe_congestion`] is called; `backlog` is sampled
/// live at probe time. All integer, fixed-size, allocation-free: the
/// probe is NI-resident like the rest of the service core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Congestion {
    /// Frames still queued across active streams at probe time.
    pub backlog: u64,
    /// Frames dropped (late, within loss budget) since the last probe.
    pub drops: u32,
    /// Frames dispatched after their deadline since the last probe.
    pub late: u32,
    /// Service passes since the last probe.
    pub passes: u32,
}

/// The environment a scheduler placement supplies to the service core.
///
/// Each placement provides exactly the pieces its environment owns:
///
/// | method | host engine (`nistream-core`) | NI extension (`dvcm`) | serversim worlds |
/// |---|---|---|---|
/// | [`now`](Platform::now) | wall clock since server epoch (or a virtual clock in tests) | NI time latched from the VCM instruction / poll | simulated time set by the world before each pass |
/// | [`set_now`](Platform::set_now) | ignored (wall clock) or sets the virtual clock | latches poll time | advances the world clock |
/// | [`on_decision`](Platform::on_decision) | unused (real time passes by itself) | unused (the embedding prices) | prices the decision on the `hwsim` CPU model and advances time |
/// | [`dispatch`](Platform::dispatch) | resolve descriptor in the `FramePool`, deliver to the `FrameSink` | push a [`DispatchRecord`] into the outbox | price send/wire occupancy, record bandwidth and queuing delay |
/// | [`reclaim`](Platform::reclaim) | release the frame's pool slot, notify the sink | log the descriptor for the host to reclaim | account the dropped frame (payloads are synthetic) |
/// | [`meter`](Platform::meter) | null meter | null meter (the i960 prices per-decision [`Work`](crate::repr::Work) instead) | null meter (ditto) |
///
/// Default implementations make every method except [`now`](Platform::now)
/// and [`dispatch`](Platform::dispatch) optional.
pub trait Platform {
    /// Current time on this placement's clock, in nanoseconds.
    fn now(&mut self) -> Time;

    /// Move a settable clock to `t`. Placements with an autonomous clock
    /// (the threaded engine's wall clock) ignore this.
    fn set_now(&mut self, t: Time) {
        let _ = t;
    }

    /// Observe one completed decision pass before any dispatch is
    /// delivered: `decision` carries the representation work counts and
    /// `backlog` the total frames still queued across active streams.
    /// Simulated placements price the decision here and advance their
    /// clock; real placements let time pass by itself.
    fn on_decision(&mut self, decision: &SchedDecision, backlog: u64) {
        let _ = (decision, backlog);
    }

    /// Deliver one dispatched frame to this placement's transport.
    fn dispatch(&mut self, rec: &DispatchRecord);

    /// Reclaim the resources of a frame the scheduler dropped (late,
    /// within loss budget) or discarded (stream close). The threaded
    /// engine releases the payload's pool slot here — "a single copy of
    /// frames in NI memory" requires every descriptor's slot to be
    /// returned exactly once.
    fn reclaim(&mut self, desc: &FrameDesc) {
        let _ = desc;
    }

    /// The op meter to attach to the scheduler (defaults to the null
    /// meter; the soft-float ablation builds attach a counting one).
    fn meter(&self) -> SharedMeter {
        fixedpt::ops::null_meter()
    }

    /// The NI-resident trace ring events should be pushed into, if this
    /// placement carries one (`None` — the default — disables tracing
    /// with zero overhead on the service path).
    ///
    /// The service core emits the events *centrally* through this hook,
    /// so every placement produces the identical stream for the same
    /// schedule: per pass `Drop*` (reclaims precede dispatches,
    /// DESIGN.md §8), then `Decision`, then `Dispatch*`, then
    /// `QueueDepth`, all stamped with the pass-start clock — placement
    /// cost models advance time *after* the decision, so the stamps are
    /// placement-invariant.
    fn tracer(&mut self) -> Option<&mut TraceRing> {
        None
    }
}

/// The scheduler service core: a [`DwcsScheduler`] plus the [`Platform`]
/// it is placed on, owning the decide → reclaim → dispatch loop that was
/// historically re-implemented by every embedding.
///
/// # Reclaim ordering
///
/// Within one service pass the order is fixed (DESIGN.md §8): frames
/// dropped while reaching a decision are reclaimed **before** the
/// surviving frame's dispatch is delivered. A dropped frame's pool slot
/// is therefore free by the time the dispatch path runs — on the memory-
/// constrained NI the reclaimed slot may be the one the very next
/// producer burst needs. `tests/` pins this with a regression test.
pub struct SchedService<R, P> {
    sched: DwcsScheduler<R>,
    platform: P,
    /// Per-pass drop staging, hoisted here so the steady-state service
    /// pass allocates nothing: the buffer trades capacity back and forth
    /// with the scheduler's internal drop list every pass.
    drops: Vec<FrameDesc>,
    /// Which chassis card this core runs on (0 for single-card
    /// placements; a multi-card placement layer stamps its own id).
    card: CardId,
    /// Congestion counters accumulated since the last probe (fixed-size,
    /// saturating — nothing here allocates or panics on overflow).
    congestion: Congestion,
}

impl<R: ScheduleRepr, P: Platform> SchedService<R, P> {
    /// Build a service core over `repr` with `cfg`, placed on `platform`.
    /// The platform's [`meter`](Platform::meter) is attached to the
    /// scheduler.
    pub fn new(repr: R, cfg: SchedulerConfig, platform: P) -> SchedService<R, P> {
        let mut sched = DwcsScheduler::with_config(repr, cfg);
        sched.set_meter(platform.meter());
        SchedService {
            sched,
            platform,
            drops: Vec::new(),
            card: CardId::default(),
            congestion: Congestion::default(),
        }
    }

    /// Same service core tagged as card `card` of a multi-card chassis
    /// (builder form).
    pub fn with_card(mut self, card: CardId) -> SchedService<R, P> {
        self.card = card;
        self
    }

    /// Re-tag the card identity (a chassis stamps each core at
    /// construction; tests re-stamp to model card replacement).
    pub fn set_card(&mut self, card: CardId) {
        self.card = card;
    }

    /// The chassis card this core is placed on.
    pub fn card(&self) -> CardId {
        self.card
    }

    /// Admit a stream (traced as an `Admit` event when the platform
    /// carries a ring).
    pub fn open(&mut self, qos: StreamQos) -> StreamId {
        let at = if self.platform.tracer().is_some() {
            self.platform.now()
        } else {
            0
        };
        let sid = self.sched.add_stream(qos);
        if let Some(ring) = self.platform.tracer() {
            ring.push(TraceEvent::Admit {
                at,
                stream: sid.0,
                period: qos.period,
                loss_num: qos.loss_num,
                loss_den: qos.loss_den,
            });
        }
        sid
    }

    /// Close a stream: its backlog is routed through
    /// [`Platform::reclaim`] (slot-per-descriptor accounting survives a
    /// mid-stream close), then the stream is deregistered. Each
    /// discarded frame is traced as a `Drop`.
    pub fn close(&mut self, sid: StreamId) {
        let at = if self.platform.tracer().is_some() {
            self.platform.now()
        } else {
            0
        };
        let platform = &mut self.platform;
        self.sched.remove_stream_with(sid, |desc| {
            if let Some(ring) = platform.tracer() {
                ring.push(TraceEvent::Drop {
                    at,
                    stream: desc.stream.0,
                    seq: desc.seq,
                });
            }
            platform.reclaim(&desc);
        });
    }

    /// Ingest one frame descriptor at the platform's current time.
    pub fn ingest(&mut self, sid: StreamId, desc: FrameDesc) {
        let now = self.platform.now();
        self.sched.enqueue(sid, desc, now);
    }

    /// Ingest one frame descriptor at an explicit time (simulated
    /// placements timestamp sub-slice arrivals).
    pub fn ingest_at(&mut self, sid: StreamId, desc: FrameDesc, now: Time) {
        self.sched.enqueue(sid, desc, now);
    }

    /// One full service pass at the platform's current time:
    ///
    /// 1. make one scheduling decision;
    /// 2. reclaim every frame dropped reaching it (before any dispatch —
    ///    see the type-level docs);
    /// 3. report the pass to [`Platform::on_decision`];
    /// 4. deliver the coupled decision's frame, then drain the decoupled
    ///    dispatch queue, through [`Platform::dispatch`].
    ///
    /// When the platform carries a [`Platform::tracer`] ring the pass
    /// additionally emits `Drop*`, `Decision`, `Dispatch*`, `QueueDepth`
    /// events in that order, stamped with the pass-start clock (the
    /// decoupled drain stamps each dispatch with its own pop time, which
    /// is what [`DispatchRecord::decided_at`] already records).
    // analysis: hot
    pub fn service_once(&mut self) -> ServiceOutcome {
        let now = self.platform.now();
        let decision = self.sched.schedule_next(now);
        self.sched.take_dropped(&mut self.drops);
        // One decision's drops: bounded by `max_drops_per_decision` ≤ 16
        // on the NI, doubled for the same stale slack as decide's bound.
        // analysis: bound 32
        for desc in self.drops.drain(..) {
            if let Some(ring) = self.platform.tracer() {
                ring.push(TraceEvent::Drop {
                    at: now,
                    stream: desc.stream.0,
                    seq: desc.seq,
                });
            }
            self.platform.reclaim(&desc);
        }
        let backlog = self.sched.total_backlog();
        if let Some(ring) = self.platform.tracer() {
            ring.push(TraceEvent::Decision {
                at: now,
                stream: decision.frame.map(|f| f.desc.stream.0),
                dropped: decision.dropped,
                backlog,
                compares: decision.work.compares,
                touches: decision.work.touches,
            });
        }
        self.platform.on_decision(&decision, backlog);
        self.congestion.passes = self.congestion.passes.saturating_add(1);
        self.congestion.drops = self.congestion.drops.saturating_add(decision.dropped);
        let mut dispatched = 0u32;
        if let Some(frame) = decision.frame {
            let rec = DispatchRecord {
                frame,
                decided_at: now,
                dropped_before: decision.dropped,
            };
            if !rec.frame.on_time {
                self.congestion.late = self.congestion.late.saturating_add(1);
            }
            Self::trace_dispatch(&mut self.platform, &rec);
            self.platform.dispatch(&rec);
            dispatched += 1;
        }
        // Decoupled dispatch backlog: schedule_next enqueues at most one
        // frame per pass and every pass drains the queue dry, so the
        // backlog never exceeds the admitted stream count (≤ 16 on the NI).
        // analysis: bound 16
        loop {
            let now = self.platform.now();
            let Some(frame) = self.sched.pop_dispatch(now) else {
                break;
            };
            let rec = DispatchRecord {
                frame,
                decided_at: now,
                dropped_before: 0,
            };
            if !rec.frame.on_time {
                self.congestion.late = self.congestion.late.saturating_add(1);
            }
            Self::trace_dispatch(&mut self.platform, &rec);
            self.platform.dispatch(&rec);
            dispatched += 1;
        }
        if let Some(ring) = self.platform.tracer() {
            ring.push(TraceEvent::QueueDepth {
                at: now,
                depth: self.sched.total_backlog(),
            });
        }
        ServiceOutcome { decision, dispatched }
    }

    /// Run up to `budget` service passes in one fused sweep — the
    /// amortized batch path. Observationally this is `budget` calls to
    /// [`SchedService::service_once`]: every pass delivers the identical
    /// platform-call and trace-event sequence (drops reclaimed first, then
    /// `Decision`/`on_decision`, then dispatches, then `QueueDepth`), and
    /// meter totals match exactly — but the per-decision repr probe, the
    /// meter charge, and the drop-staging round trip are hoisted out of
    /// the inner loop, which is what holds 10M+ decisions/s at 100k
    /// streams on the `batch-soa` representation. The sweep stops early
    /// at the first pass that makes no progress (nothing decided, dropped,
    /// or dispatched); with a non-advancing clock the remaining passes
    /// would all be idle.
    // analysis: hot
    pub fn service_batch(&mut self, budget: u32) -> BatchSummary {
        let mut sink = PlatformSink {
            platform: &mut self.platform,
            congestion: &mut self.congestion,
        };
        self.sched.schedule_batch(budget, &mut sink)
    }

    /// Trace one dispatch just before it is delivered, stamped with the
    /// record's decision time.
    fn trace_dispatch(platform: &mut P, rec: &DispatchRecord) {
        if let Some(ring) = platform.tracer() {
            ring.push(TraceEvent::Dispatch {
                at: rec.decided_at,
                stream: rec.frame.desc.stream.0,
                seq: rec.frame.desc.seq,
                len: rec.frame.desc.len,
                deadline: rec.frame.deadline,
                on_time: rec.frame.on_time,
            });
        }
    }

    /// Snapshot congestion since the previous probe and reset the
    /// counters. `backlog` is sampled live; `drops`/`late`/`passes`
    /// accumulate between probes, so a periodic caller sees per-interval
    /// rates. Probing never perturbs scheduling state.
    pub fn probe_congestion(&mut self) -> Congestion {
        let mut c = self.congestion;
        c.backlog = self.sched.total_backlog();
        self.congestion = Congestion::default();
        c
    }

    /// When the next queued frame becomes eligible (deadline-paced
    /// embeddings sleep until then).
    pub fn next_eligible(&mut self) -> Option<Time> {
        self.sched.next_eligible()
    }

    /// Whether any stream (or the decoupled dispatch queue) holds frames.
    pub fn has_pending(&self) -> bool {
        self.sched.has_pending()
    }

    /// The underlying scheduler (stats, windows, QoS).
    pub fn scheduler(&self) -> &DwcsScheduler<R> {
        &self.sched
    }

    /// Mutable scheduler access (representation experiments).
    pub fn scheduler_mut(&mut self) -> &mut DwcsScheduler<R> {
        &mut self.sched
    }

    /// The platform this core is placed on.
    pub fn platform(&self) -> &P {
        &self.platform
    }

    /// Mutable platform access (simulated placements set time, drain
    /// series).
    pub fn platform_mut(&mut self) -> &mut P {
        &mut self.platform
    }
}

/// The [`BatchSink`] binding a [`Platform`] (plus the service core's
/// congestion counters) to the fused batch loop. Borrows the service
/// struct's fields disjointly from the scheduler, and reproduces exactly
/// the trace/platform sequence of [`SchedService::service_once`].
struct PlatformSink<'a, P> {
    platform: &'a mut P,
    congestion: &'a mut Congestion,
}

impl<P: Platform> BatchSink for PlatformSink<'_, P> {
    fn now(&mut self) -> Time {
        self.platform.now()
    }

    fn on_drop(&mut self, desc: FrameDesc, at: Time) {
        if let Some(ring) = self.platform.tracer() {
            ring.push(TraceEvent::Drop {
                at,
                stream: desc.stream.0,
                seq: desc.seq,
            });
        }
        self.platform.reclaim(&desc);
    }

    fn on_decision(&mut self, decision: &SchedDecision, backlog: u64, at: Time) {
        if let Some(ring) = self.platform.tracer() {
            ring.push(TraceEvent::Decision {
                at,
                stream: decision.frame.map(|f| f.desc.stream.0),
                dropped: decision.dropped,
                backlog,
                compares: decision.work.compares,
                touches: decision.work.touches,
            });
        }
        self.platform.on_decision(decision, backlog);
        self.congestion.passes = self.congestion.passes.saturating_add(1);
        self.congestion.drops = self.congestion.drops.saturating_add(decision.dropped);
    }

    fn on_dispatch(&mut self, frame: DispatchedFrame, dropped_before: u32, at: Time) {
        let rec = DispatchRecord {
            frame,
            decided_at: at,
            dropped_before,
        };
        if !rec.frame.on_time {
            self.congestion.late = self.congestion.late.saturating_add(1);
        }
        if let Some(ring) = self.platform.tracer() {
            ring.push(TraceEvent::Dispatch {
                at: rec.decided_at,
                stream: rec.frame.desc.stream.0,
                seq: rec.frame.desc.seq,
                len: rec.frame.desc.len,
                deadline: rec.frame.deadline,
                on_time: rec.frame.on_time,
            });
        }
        self.platform.dispatch(&rec);
    }

    fn end_pass(&mut self, depth: u64, at: Time) {
        if let Some(ring) = self.platform.tracer() {
            ring.push(TraceEvent::QueueDepth { at, depth });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::LinearScan;
    use crate::scheduler::{DispatchMode, Pacing};
    use crate::types::{FrameKind, MILLISECOND};

    /// Test platform: settable clock, event log distinguishing reclaims
    /// from dispatches in arrival order.
    #[derive(Default)]
    struct Probe {
        now: Time,
        events: Vec<Event>,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Event {
        Reclaimed { stream: u32, seq: u64 },
        Dispatched { stream: u32, seq: u64, on_time: bool },
        Decision { dropped: u32, backlog: u64 },
    }

    impl Platform for Probe {
        fn now(&mut self) -> Time {
            self.now
        }
        fn set_now(&mut self, t: Time) {
            self.now = t;
        }
        fn on_decision(&mut self, d: &SchedDecision, backlog: u64) {
            self.events.push(Event::Decision {
                dropped: d.dropped,
                backlog,
            });
        }
        fn dispatch(&mut self, rec: &DispatchRecord) {
            self.events.push(Event::Dispatched {
                stream: rec.frame.desc.stream.0,
                seq: rec.frame.desc.seq,
                on_time: rec.frame.on_time,
            });
        }
        fn reclaim(&mut self, desc: &FrameDesc) {
            self.events.push(Event::Reclaimed {
                stream: desc.stream.0,
                seq: desc.seq,
            });
        }
    }

    fn svc(cfg: SchedulerConfig) -> SchedService<LinearScan, Probe> {
        SchedService::new(LinearScan::new(8), cfg, Probe::default())
    }

    fn frame(sid: StreamId, seq: u64) -> FrameDesc {
        FrameDesc::new(sid, seq, 1_000, FrameKind::P)
    }

    #[test]
    fn service_pass_dispatches_through_platform() {
        let mut s = svc(SchedulerConfig::default());
        let sid = s.open(StreamQos::new(10 * MILLISECOND, 1, 2));
        s.ingest_at(sid, frame(sid, 0), 0);
        s.platform_mut().now = MILLISECOND;
        let out = s.service_once();
        assert_eq!(out.dispatched, 1);
        assert!(out.decision.frame.is_some());
        assert_eq!(
            s.platform().events,
            vec![
                Event::Decision { dropped: 0, backlog: 0 },
                Event::Dispatched {
                    stream: sid.0,
                    seq: 0,
                    on_time: true
                },
            ]
        );
    }

    /// Regression test for the reclaim-ordering drift the consolidation
    /// fixed: drops reaching a decision MUST be reclaimed before the
    /// surviving frame's dispatch is delivered (DESIGN.md §8). The old
    /// embeddings disagreed — the threaded engine reclaimed first, the
    /// DVCM extension and both simulators never reclaimed at all.
    #[test]
    fn drops_are_reclaimed_before_the_surviving_dispatch() {
        let mut s = svc(SchedulerConfig::default());
        // Tolerance 1/2: the first late head drops within budget.
        let sid = s.open(StreamQos::new(MILLISECOND, 1, 2));
        s.ingest_at(sid, frame(sid, 0), 0);
        s.ingest_at(sid, frame(sid, 1), 0);
        // Far past the first deadline: seq 0 drops, seq 1 re-anchors and
        // dispatches on time.
        s.platform_mut().now = 100 * MILLISECOND;
        let out = s.service_once();
        assert_eq!(out.decision.dropped, 1);
        assert_eq!(out.dispatched, 1);
        assert_eq!(
            s.platform().events,
            vec![
                Event::Reclaimed { stream: sid.0, seq: 0 },
                Event::Decision { dropped: 1, backlog: 0 },
                Event::Dispatched {
                    stream: sid.0,
                    seq: 1,
                    on_time: true
                },
            ],
            "reclaim precedes dispatch within one pass"
        );
    }

    #[test]
    fn decoupled_queue_drains_through_the_same_dispatch_path() {
        let mut s = svc(SchedulerConfig {
            dispatch: DispatchMode::Decoupled { queue_cap: 8 },
            ..SchedulerConfig::default()
        });
        let sid = s.open(StreamQos::new(10 * MILLISECOND, 1, 2));
        s.ingest_at(sid, frame(sid, 0), 0);
        s.ingest_at(sid, frame(sid, 1), 0);
        let out = s.service_once();
        // One decision queued one frame; the same pass drained it.
        assert_eq!(out.dispatched, 1);
        let out = s.service_once();
        assert_eq!(out.dispatched, 1);
        let dispatches: Vec<u64> = s
            .platform()
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Dispatched { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(dispatches, vec![0, 1], "decision order preserved");
    }

    #[test]
    fn close_routes_backlog_through_reclaim() {
        let mut s = svc(SchedulerConfig {
            pacing: Pacing::DeadlinePaced,
            ..SchedulerConfig::default()
        });
        let sid = s.open(StreamQos::new(10 * MILLISECOND, 1, 2));
        for seq in 0..3 {
            s.ingest_at(sid, frame(sid, seq), 0);
        }
        s.close(sid);
        let reclaimed: Vec<u64> = s
            .platform()
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Reclaimed { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(reclaimed, vec![0, 1, 2], "whole backlog reclaimed on close");
        assert_eq!(s.scheduler().stream_count(), 0);
    }

    /// Probe carrying a trace ring: the service core must emit the
    /// canonical per-pass event sequence through [`Platform::tracer`].
    struct TracedProbe {
        inner: Probe,
        ring: TraceRing,
    }

    impl TracedProbe {
        fn new(cap: usize) -> TracedProbe {
            TracedProbe {
                inner: Probe::default(),
                ring: TraceRing::with_capacity(cap),
            }
        }
    }

    impl Platform for TracedProbe {
        fn now(&mut self) -> Time {
            self.inner.now
        }
        fn set_now(&mut self, t: Time) {
            self.inner.now = t;
        }
        fn on_decision(&mut self, d: &SchedDecision, backlog: u64) {
            self.inner.on_decision(d, backlog);
        }
        fn dispatch(&mut self, rec: &DispatchRecord) {
            self.inner.dispatch(rec);
        }
        fn reclaim(&mut self, desc: &FrameDesc) {
            self.inner.reclaim(desc);
        }
        fn tracer(&mut self) -> Option<&mut TraceRing> {
            Some(&mut self.ring)
        }
    }

    #[test]
    fn traced_pass_emits_drop_decision_dispatch_depth_in_order() {
        let mut s = SchedService::new(LinearScan::new(8), SchedulerConfig::default(), TracedProbe::new(64));
        let sid = s.open(StreamQos::new(MILLISECOND, 1, 2));
        s.ingest_at(sid, frame(sid, 0), 0);
        s.ingest_at(sid, frame(sid, 1), 0);
        s.ingest_at(sid, frame(sid, 2), 0);
        // Far past the first deadline: seq 0 drops within budget, seq 1
        // dispatches, seq 2 stays queued.
        s.platform_mut().inner.now = 100 * MILLISECOND;
        let _ = s.service_once();
        let events = s.platform_mut().ring.drain();
        let at = 100 * MILLISECOND;
        assert_eq!(
            events,
            vec![
                TraceEvent::Admit {
                    at: 0,
                    stream: sid.0,
                    period: MILLISECOND,
                    loss_num: 1,
                    loss_den: 2,
                },
                TraceEvent::Drop {
                    at,
                    stream: sid.0,
                    seq: 0
                },
                TraceEvent::Decision {
                    at,
                    stream: Some(sid.0),
                    dropped: 1,
                    backlog: 1,
                    compares: events
                        .iter()
                        .find_map(|e| match *e {
                            TraceEvent::Decision { compares, .. } => Some(compares),
                            _ => None,
                        })
                        .unwrap_or(0),
                    touches: events
                        .iter()
                        .find_map(|e| match *e {
                            TraceEvent::Decision { touches, .. } => Some(touches),
                            _ => None,
                        })
                        .unwrap_or(0),
                },
                // Seq 1 re-anchored after the drop: deadline now + period.
                TraceEvent::Dispatch {
                    at,
                    stream: sid.0,
                    seq: 1,
                    len: 1_000,
                    deadline: 101 * MILLISECOND,
                    on_time: true,
                },
                TraceEvent::QueueDepth { at, depth: 1 },
            ],
        );
    }

    #[test]
    fn traced_close_emits_drops_for_the_backlog() {
        let mut s = SchedService::new(LinearScan::new(8), SchedulerConfig::default(), TracedProbe::new(64));
        let sid = s.open(StreamQos::new(10 * MILLISECOND, 1, 2));
        s.ingest_at(sid, frame(sid, 0), 0);
        s.ingest_at(sid, frame(sid, 1), 0);
        s.close(sid);
        let drops: Vec<u64> = s
            .platform_mut()
            .ring
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Drop { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![0, 1], "close traces the whole backlog as drops");
    }

    #[test]
    fn untraced_platform_emits_nothing_and_behaves_identically() {
        let run = |traced: bool| {
            if traced {
                let mut s = SchedService::new(LinearScan::new(8), SchedulerConfig::default(), TracedProbe::new(64));
                let sid = s.open(StreamQos::new(MILLISECOND, 1, 2));
                for seq in 0..4 {
                    s.ingest_at(sid, frame(sid, seq), 0);
                }
                for k in 1..6 {
                    s.platform_mut().inner.now = k * 2 * MILLISECOND;
                    let _ = s.service_once();
                }
                s.platform().inner.events.clone()
            } else {
                let mut s = svc(SchedulerConfig::default());
                let sid = s.open(StreamQos::new(MILLISECOND, 1, 2));
                for seq in 0..4 {
                    s.ingest_at(sid, frame(sid, seq), 0);
                }
                for k in 1..6 {
                    s.platform_mut().now = k * 2 * MILLISECOND;
                    let _ = s.service_once();
                }
                s.platform().events.clone()
            }
        };
        assert_eq!(run(true), run(false), "tracing must not perturb scheduling");
    }

    #[test]
    fn congestion_probe_accumulates_and_resets() {
        let mut s = svc(SchedulerConfig::default());
        let sid = s.open(StreamQos::new(MILLISECOND, 1, 2));
        for seq in 0..4 {
            s.ingest_at(sid, frame(sid, seq), 0);
        }
        // Far past every deadline: drops and late dispatches accumulate.
        s.platform_mut().now = 100 * MILLISECOND;
        let _ = s.service_once();
        s.platform_mut().now = 102 * MILLISECOND;
        let _ = s.service_once();
        let c = s.probe_congestion();
        assert_eq!(c.passes, 2);
        assert!(c.drops > 0, "late frames dropped: {c:?}");
        assert_eq!(c.backlog, s.scheduler().total_backlog());
        // The probe resets the interval counters but not the backlog view.
        let c2 = s.probe_congestion();
        assert_eq!(c2.passes, 0);
        assert_eq!(c2.drops, 0);
        assert_eq!(c2.late, 0);
        assert_eq!(c2.backlog, c.backlog);
    }

    #[test]
    fn congestion_counts_late_dispatches() {
        // Loss tolerance 0: nothing drops, so a stale head dispatches
        // late instead.
        let mut s = svc(SchedulerConfig::default());
        let sid = s.open(StreamQos::new(MILLISECOND, 0, 8));
        s.ingest_at(sid, frame(sid, 0), 0);
        s.platform_mut().now = 100 * MILLISECOND;
        let out = s.service_once();
        assert_eq!(out.dispatched, 1);
        let c = s.probe_congestion();
        assert_eq!(c.drops, 0);
        assert_eq!(c.late, 1, "{c:?}");
    }

    /// `service_batch(n)` must be observationally identical to calling
    /// `service_once` until the first idle pass: same platform-call
    /// sequence, same trace events, same congestion counters. Exercised
    /// with a drop-heavy workload so drops, late sends, and on-time sends
    /// all appear.
    #[test]
    fn service_batch_matches_repeated_service_once() {
        let build = || {
            let mut s = SchedService::new(LinearScan::new(8), SchedulerConfig::default(), TracedProbe::new(256));
            let a = s.open(StreamQos::new(MILLISECOND, 1, 2));
            let b = s.open(StreamQos::new(2 * MILLISECOND, 0, 4));
            for seq in 0..6 {
                s.ingest_at(a, frame(a, seq), 0);
                s.ingest_at(b, frame(b, seq), 0);
            }
            // Far past every deadline: stream a drops within budget,
            // stream b violates and sends late.
            s.platform_mut().inner.now = 50 * MILLISECOND;
            s
        };

        let mut batch = build();
        let summary = batch.service_batch(64);
        assert!(summary.passes < 64, "workload drains before the budget");
        assert!(summary.dropped > 0 && summary.dispatched > 0);

        let mut single = build();
        let mut passes = 0u32;
        loop {
            let out = single.service_once();
            passes += 1;
            if out.decision.frame.is_none() && out.decision.dropped == 0 && out.dispatched == 0 {
                break;
            }
        }
        assert_eq!(
            summary.passes, passes,
            "batch executes the same passes, idle pass included"
        );
        assert_eq!(batch.platform().inner.events, single.platform().inner.events);
        assert_eq!(
            batch.platform_mut().ring.drain(),
            single.platform_mut().ring.drain(),
            "trace streams must be byte-identical"
        );
        let (cb, cs) = (batch.probe_congestion(), single.probe_congestion());
        assert_eq!(cb, cs, "congestion counters must match");
    }

    /// Decoupled dispatch through the batch path: queue + same-pass drain,
    /// identical to the single-pass service loop.
    #[test]
    fn service_batch_matches_service_once_decoupled() {
        let build = || {
            let mut s = SchedService::new(
                LinearScan::new(8),
                SchedulerConfig {
                    dispatch: DispatchMode::Decoupled { queue_cap: 4 },
                    ..SchedulerConfig::default()
                },
                TracedProbe::new(256),
            );
            let sid = s.open(StreamQos::new(10 * MILLISECOND, 1, 2));
            for seq in 0..4 {
                s.ingest_at(sid, frame(sid, seq), 0);
            }
            s.platform_mut().inner.now = MILLISECOND;
            s
        };
        let mut batch = build();
        let summary = batch.service_batch(16);
        assert_eq!(summary.dispatched, 4);
        let mut single = build();
        loop {
            let out = single.service_once();
            if out.decision.frame.is_none() && out.decision.dropped == 0 && out.dispatched == 0 {
                break;
            }
        }
        assert_eq!(batch.platform().inner.events, single.platform().inner.events);
        assert_eq!(batch.platform_mut().ring.drain(), single.platform_mut().ring.drain());
    }

    #[test]
    fn on_decision_reports_post_decision_backlog() {
        let mut s = svc(SchedulerConfig::default());
        let sid = s.open(StreamQos::new(10 * MILLISECOND, 1, 2));
        for seq in 0..3 {
            s.ingest_at(sid, frame(sid, seq), 0);
        }
        let _ = s.service_once();
        assert!(
            s.platform()
                .events
                .contains(&Event::Decision { dropped: 0, backlog: 2 }),
            "backlog excludes the frame just popped: {:?}",
            s.platform().events
        );
    }
}
