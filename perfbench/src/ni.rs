//! `ni-overload`: the single-NI firmware path, driven open-loop in virtual
//! time past its wire capacity.
//!
//! The benchmark is the NI's host: it opens and closes streams, DMAs frame
//! descriptors in with `EnqueueFrame`, and runs the NI task loop
//! (`next_eligible` then `poll_decision`) on the i960/Ethernet cost model
//! of `serversim::niload::NiWirePlatform`. No event executive and no bus
//! sit in between, so host time goes to `dvcm` and `dwcs`.
//!
//! Load: 40 long-lived VBR streams (about the NI's ~39-stream wire
//! capacity) plus heavy-tailed churn sessions, admitted by the DWCS
//! feasibility test. Frames are produced on their period whether or not
//! earlier ones were served, so backlog builds, late frames drop, and
//! opens and closes run beside the decisions.

use crate::measure::{self, Digest, Op, SpanLog};
use crate::report::{Args, Outcome};
use dvcm::instr::{StreamSpec, VcmInstruction};
use dvcm::{ExtensionModule, MediaSchedExt};
use dwcs::scheduler::Pacing;
use dwcs::svc::Platform;
use dwcs::{admission, FrameKind, SchedulerConfig, StreamId, StreamQos};
use mpeg1::Cadence;
use nistream_trace::TraceEvent;
use serversim::niload::NiWirePlatform;
use std::time::Instant;
use workload::churn::{ChurnConfig, ChurnGen};
use workload::vbr::{self, mean_frame_bytes, VbrSpec, VbrTraceGen};

const NS_PER_SEC: u64 = 1_000_000_000;
/// Virtual length of one iteration.
const VIRTUAL_SECS: u64 = 480;
const LONG_LIVED: usize = 40;
const BITRATE: u64 = 260_000;
const LOSS_NUM: u32 = 2;
const LOSS_DEN: u32 = 8;
/// Stream-table size of the NI platform: above the admission cap (~63
/// streams of this mix; about 53 are ever open at once), so every admitted
/// stream has a slot.
const SLOTS: usize = 96;
/// The host drains the NI trace ring once per virtual second; the ring
/// holds several seconds of events at this load.
const PROBE_NS: u64 = NS_PER_SEC;
const RING_CAP: usize = 1 << 15;
/// Set-ups (input generation plus NI build) timed per run for `setup_s`.
const SETUPS: usize = 5;

// Event kinds in tie-break order: a session opens before it produces,
// production precedes the service pass that would consume it, and the
// probe observes last.
const EV_OPEN: u8 = 0;
const EV_CLOSE: u8 = 1;
const EV_PROD: u8 = 2;
const EV_SVC: u8 = 3;
const EV_PROBE: u8 = 4;

/// One host-side event: `(time, kind, session, frame)`, where a
/// production's frame packs its length and picture kind. Ordering by the
/// tuple gives the tie-break order of the kinds.
type Event = (u64, u8, u32, u32);

const KINDS: [FrameKind; 5] = [
    FrameKind::I,
    FrameKind::P,
    FrameKind::B,
    FrameKind::Audio,
    FrameKind::Other,
];

/// Pack a frame's length (below 2^29 bytes) and picture kind into one word.
fn pack(len: u32, kind: FrameKind) -> u32 {
    let k = KINDS.iter().position(|&x| x == kind).unwrap_or(4) as u32;
    len << 3 | k
}

fn unpack(w: u32) -> (u32, FrameKind) {
    (w >> 3, KINDS[(w & 7) as usize % KINDS.len()])
}

struct Inputs {
    /// Frames each session offers, by session index.
    session_frames: Vec<u64>,
    /// Every open, close, production and probe of the run, sorted once
    /// here so the loop merges it with the service passes in O(1) per
    /// event. Events of sessions the NI refuses are skipped in the loop.
    timeline: Vec<Event>,
    period: u64,
    end: u64,
    /// Per-frame service estimate the admission test prices with.
    service_ns: u64,
    offered: u64,
}

fn generate(seed: u64) -> Inputs {
    let period = Cadence::NTSC.period_ns();
    let end = VIRTUAL_SECS * NS_PER_SEC;
    let mean = mean_frame_bytes(BITRATE, period);
    // (connect, depart, payload spec) of every session; sessions still
    // playing at the end of the run depart at the end and are never closed.
    let mut plan: Vec<(u64, u64, VbrSpec)> = (0..LONG_LIVED)
        .map(|i| {
            let connect = period * i as u64 / LONG_LIVED as u64;
            (connect, end, VbrSpec::classic(measure::mix(seed, i as u64)))
        })
        .collect();
    let churn = ChurnGen::new(ChurnConfig {
        interarrival_lo_ns: 100_000_000,
        interarrival_hi_ns: 4 * NS_PER_SEC,
        session_lo_ns: NS_PER_SEC / 2,
        session_hi_ns: 20 * NS_PER_SEC,
        seed: measure::mix(seed, 0xc4),
    });
    for s in churn.take_while(|s| s.arrive_ns < end) {
        let depart = s.arrive_ns.saturating_add(s.duration_ns).min(end);
        plan.push((
            s.arrive_ns,
            depart,
            VbrSpec::classic(measure::mix(seed, 1_000 + u64::from(s.index))),
        ));
    }
    let mut session_frames = Vec::with_capacity(plan.len());
    let mut timeline: Vec<Event> = (1..=VIRTUAL_SECS).map(|k| (k * PROBE_NS, EV_PROBE, 0, 0)).collect();
    for (i, (connect, depart, spec)) in plan.into_iter().enumerate() {
        let i = i as u32;
        let frames = (depart - connect).div_ceil(period);
        let mut g = VbrTraceGen::new(spec, mean);
        timeline.push((connect, EV_OPEN, i, 0));
        if depart < end {
            timeline.push((depart, EV_CLOSE, i, 0));
        }
        timeline.extend((0..frames).map(|k| {
            let f = g.frame(k);
            (connect + k * period, EV_PROD, i, pack(f.len, vbr::frame_kind(f.kind)))
        }));
        session_frames.push(frames);
    }
    let offered = session_frames.iter().sum();
    timeline.sort_unstable();
    Inputs {
        session_frames,
        timeline,
        period,
        end,
        service_ns: serversim::chassis::service_estimate_ns(mean, true),
        offered,
    }
}

/// Everything one iteration observed. The simulated fields repeat exactly
/// for a given seed; `cpu_ns` is a host measurement.
#[derive(Default)]
struct Iteration {
    cpu_ns: u64,
    digest: u64,
    enqueued: u64,
    refused: u64,
    refused_frames: u64,
    live_max: u64,
    dispatched: u64,
    on_time: u64,
    drops: u64,
    passes: u64,
    backlog_max: u64,
    backlog_end: u64,
    ni_busy_ns: u64,
    instr_calls: u64,
    open_status_errors: u64,
    slot_overruns: u64,
    trace_events: u64,
    trace_overflow: u64,
    trace_decisions: u64,
    trace_dispatches: u64,
    compares: u64,
    touches: u64,
    /// Virtual delay of every dispatched frame, production to decision.
    delays: Vec<u64>,
}

impl Iteration {
    /// Output checks: frame conservation, trace completeness, admission.
    fn checks(&self, inputs: &Inputs) -> Vec<(&'static str, bool)> {
        vec![
            (
                "offered = enqueued + refused",
                self.enqueued + self.refused_frames == inputs.offered,
            ),
            (
                "enqueued = dispatched + dropped + queued at end",
                self.enqueued == self.dispatched + self.drops + self.backlog_end,
            ),
            (
                "trace dispatches = dispatched",
                self.trace_dispatches == self.dispatched,
            ),
            ("trace decisions = passes", self.trace_decisions == self.passes),
            ("trace.overflow == 0", self.trace_overflow == 0),
            ("every admitted open succeeds", self.open_status_errors == 0),
            ("stream slots within the platform table", self.slot_overruns == 0),
        ]
    }
}

fn fold_trace(it: &mut Iteration, digest: &mut Digest, events: &[TraceEvent], overflow: u64) {
    it.trace_events += events.len() as u64;
    it.trace_overflow += overflow;
    for e in events {
        match *e {
            TraceEvent::Decision {
                compares,
                touches,
                backlog,
                ..
            } => {
                it.trace_decisions += 1;
                it.backlog_max = it.backlog_max.max(backlog);
                it.compares += compares;
                it.touches += touches;
            }
            TraceEvent::Dispatch {
                at,
                stream,
                seq,
                len,
                on_time,
                ..
            } => {
                it.trace_dispatches += 1;
                digest.word(at);
                digest.word(u64::from(stream) << 32 | seq);
                digest.word(u64::from(len) << 1 | u64::from(on_time));
            }
            TraceEvent::Drop { .. } => it.drops += 1,
            _ => {}
        }
    }
}

/// The NI: the media-scheduler extension on the i960/Ethernet platform.
fn new_ni() -> MediaSchedExt<NiWirePlatform> {
    let cfg = SchedulerConfig {
        pacing: Pacing::DeadlinePaced,
        ..SchedulerConfig::default()
    };
    MediaSchedExt::with_platform(SLOTS, cfg, NiWirePlatform::new(SLOTS, true, RING_CAP))
}

/// Drive one whole virtual run of the NI world.
fn iterate(inputs: &Inputs, spans: &mut SpanLog, keep_delays: bool) -> Iteration {
    let mut it = Iteration::default();
    let cpu0 = measure::cpu_ns();
    let root = spans.open();

    let mut ext = spans.time(Op::NiBuild, 0, new_ni);
    let n = inputs.session_frames.len();
    let mut sid_of: Vec<Option<StreamId>> = vec![None; n];
    let mut next_addr = vec![0xA000_0000u64; n];
    let mut next_seq = vec![0u64; n];
    let mut session_of_slot = vec![0u32; SLOTS];
    let mut live: Vec<StreamQos> = Vec::with_capacity(SLOTS);
    let qos = StreamQos::new(inputs.period, LOSS_NUM, LOSS_DEN);
    if keep_delays {
        it.delays.reserve(inputs.offered as usize);
    }

    let end = inputs.end;
    let mut clock = 0u64;
    let mut digest = Digest::default();
    let mut events = inputs.timeline.iter();
    let mut next_event = events.next();
    // Hot counters live in locals; they land in `it` after the loop.
    let (mut passes, mut dispatched, mut on_time, mut enqueued, mut busy) = (0u64, 0u64, 0u64, 0u64, 0u64);
    // Earliest head deadline, re-read only when it can have moved past the
    // NI clock: after a pass, a close, or an enqueue while the NI idles.
    let mut eligible = spans.time(Op::Peek, 0, || ext.scheduler_mut().next_eligible());
    loop {
        let svc = eligible.map(|d: u64| d.max(clock)).filter(|&t| t < end);
        let take_svc = match (svc, next_event) {
            (Some(s), Some(&(t, k, _, _))) => (s, EV_SVC) < (t, k),
            (Some(_), None) => true,
            (None, _) => false,
        };
        if let (true, Some(at)) = (take_svc, svc) {
            clock = at;
            // The pass and the peek that follows it are both DWCS work
            // and share one span.
            let t0 = spans.open();
            let frame = ext.poll_decision(clock).frame;
            eligible = ext.scheduler_mut().next_eligible();
            let busy_until = ext.platform_mut().now();
            let mut id = 0;
            passes += 1;
            if let Some(f) = frame {
                if spans.enabled() {
                    id = (u64::from(session_of_slot[f.desc.stream.index()]) << 32) | f.desc.seq;
                }
                dispatched += 1;
                on_time += u64::from(f.on_time);
                if keep_delays {
                    it.delays.push(clock - f.desc.enqueued_at);
                }
            }
            spans.close(Op::Pass, id, t0);
            busy += busy_until - clock;
            clock = busy_until;
            continue;
        }
        let Some(&(t, kind, i, frame)) = next_event else { break };
        if t >= end {
            break;
        }
        next_event = events.next();
        let si = i as usize;
        if kind == EV_PROD {
            let Some(sid) = sid_of[si] else { continue };
            let (len, kind) = unpack(frame);
            let enqueue = VcmInstruction::EnqueueFrame {
                stream: sid,
                addr: next_addr[si],
                len,
                kind,
            };
            // Descriptors DMA into NI memory without NI CPU: production
            // stamps arrival time but never moves the NI clock.
            spans.time(Op::Instr, (u64::from(i) << 32) | next_seq[si], || {
                ext.on_instruction(enqueue, t)
            });
            next_seq[si] += 1;
            enqueued += 1;
            next_addr[si] += u64::from(len);
            if eligible.is_none_or(|d| d > clock) {
                eligible = spans.time(Op::Peek, 0, || ext.scheduler_mut().next_eligible());
            }
            continue;
        }
        match kind {
            EV_OPEN => {
                let frames = inputs.session_frames[si];
                if !spans.time(Op::Admit, 0, || admission::admit(&live, qos, inputs.service_ns)) {
                    it.refused += 1;
                    it.refused_frames += frames;
                    continue;
                }
                let open = VcmInstruction::OpenStream(StreamSpec {
                    period: inputs.period,
                    loss_num: LOSS_NUM,
                    loss_den: LOSS_DEN,
                    droppable: true,
                });
                let reply = spans.time(Op::Instr, 0, || ext.on_instruction(open, t));
                it.instr_calls += 1;
                let sid = StreamId(reply.payload.first().copied().unwrap_or(0));
                if reply.status != 0 || sid.index() >= SLOTS {
                    it.open_status_errors += u64::from(reply.status != 0);
                    it.slot_overruns += u64::from(sid.index() >= SLOTS);
                    it.refused_frames += frames;
                    continue;
                }
                live.push(qos);
                it.live_max = it.live_max.max(live.len() as u64);
                sid_of[si] = Some(sid);
                session_of_slot[sid.index()] = i;
            }
            EV_CLOSE => {
                let Some(sid) = sid_of[si] else { continue };
                let close = VcmInstruction::CloseStream(sid);
                spans.time(Op::Instr, 0, || ext.on_instruction(close, t));
                it.instr_calls += 1;
                live.pop();
                eligible = spans.time(Op::Peek, 0, || ext.scheduler_mut().next_eligible());
            }
            EV_PROBE => {
                let cap = spans.time(Op::Drain, 0, || ext.platform_mut().drain_trace());
                fold_trace(&mut it, &mut digest, &cap.events, cap.overflow);
            }
            _ => unreachable!("unknown event kind {kind}"),
        }
    }
    it.passes = passes;
    it.dispatched = dispatched;
    it.on_time = on_time;
    it.enqueued = enqueued;
    it.instr_calls += enqueued;
    it.ni_busy_ns = busy;
    let cap = spans.time(Op::Drain, 0, || ext.platform_mut().drain_trace());
    fold_trace(&mut it, &mut digest, &cap.events, cap.overflow);
    it.backlog_end = ext.scheduler().total_backlog();
    it.digest = digest.0;
    spans.close(Op::Iteration, 0, root);
    it.cpu_ns = measure::cpu_ns() - cpu0;
    it
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let t_gen = Instant::now();
    let inputs = generate(args.seed);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let setup_s = crate::sim::median_setup_s(SETUPS, || drop((generate(args.seed), new_ni())));
    out.info.push(format!(
        "ni-overload: seed {}, {} sessions ({} long-lived), {} frames offered per {} s virtual iteration",
        args.seed,
        inputs.session_frames.len(),
        LONG_LIVED,
        inputs.offered,
        VIRTUAL_SECS
    ));

    // The first iteration is the warm-up; it also records every delay.
    let mut spans = SpanLog::new(false);
    let first = iterate(&inputs, &mut spans, true);
    let mut phases = crate::sim::Phases::new(args, Some(first.digest));
    phases.record_checks(&mut out, "warm-up", &first.checks(&inputs), inputs.offered);
    while let Some(traced) = phases.next() {
        spans.reset(traced);
        let it = iterate(&inputs, &mut spans, false);
        let checks = it.checks(&inputs);
        phases.record_iteration(
            &mut out,
            &checks,
            Some(it.digest),
            inputs.offered,
            it.dispatched,
            it.cpu_ns,
            &spans,
        );
    }

    let mut delays = first.delays.clone();
    delays.sort_unstable();
    let offered = inputs.offered;
    out.info.push(format!(
        "admission: {} ns per-frame service estimate, at most {} streams open, {} sessions refused",
        inputs.service_ns, first.live_max, first.refused
    ));
    out.info.push(format!("digest {:016x}", first.digest));
    phases.finish(&mut out, args);
    out.set("setup_s", setup_s);
    out.set("delay_p50_us", measure::percentile(&delays, 50.0) as f64 / 1e3);
    if let Some((v, p)) = measure::tail(&delays) {
        out.set("delay_tail_us", v as f64 / 1e3);
        out.info.push(format!(
            "delay tail: p{p:.4} of {} dispatched frames (10 beyond)",
            delays.len()
        ));
    }
    out.set("miss_ppm", (offered - first.on_time) as f64 * 1e6 / offered as f64);
    out.set("sustained_streams", first.on_time as f64 / (VIRTUAL_SECS * 30) as f64);

    out.set("workload.gen_s", gen_s);
    let d = first.trace_decisions.max(1) as f64;
    out.set("dwcs.compares_per_decision", first.compares as f64 / d);
    out.set("dwcs.touches_per_decision", first.touches as f64 / d);
    out.set(
        "dwcs.useful_pass_ratio",
        first.dispatched as f64 / first.passes.max(1) as f64,
    );
    out.set("dwcs.backlog_max", first.backlog_max as f64);
    out.set("dwcs.backlog_end", first.backlog_end as f64);
    out.set("dvcm.instr_calls", first.instr_calls as f64);
    out.set("dvcm.open_refused", first.refused as f64);
    out.set(
        "hwsim.ni_busy_ns_per_frame",
        first.ni_busy_ns as f64 / first.dispatched.max(1) as f64,
    );
    out.set("trace.events", first.trace_events as f64);
    out.set("trace.overflow", first.trace_overflow as f64);
    out
}
