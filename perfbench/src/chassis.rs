//! `chassis-busbound`: twelve NI cards behind one PCI bus, past its ceiling.
//!
//! One call, `serversim::chassis::run`, simulates the whole chassis: 480
//! seeded VBR streams placed on 12 cards, every frame sourced over the
//! shared bus (Path B). The bus saturates, so about 452 streams are
//! sustained, and each card's DWCS sees only a shallow queue. Host time
//! goes to the `simkit` timing wheel, bus arbitration and I2O peer-write
//! pricing: the mirror image of `ni-overload`.

use crate::measure::{self, Digest, Op, SpanLog};
use crate::report::{Args, Outcome};
use mpeg1::Cadence;
use nistream_trace::TraceEvent;
use serversim::chassis::{self, ChassisConfig, ChassisResult, Sourcing};
use simkit::SimDuration;
use std::time::Instant;
use workload::vbr::VbrSpec;

const CARDS: usize = 12;
const PER_CARD: usize = 40;
/// Virtual length of one iteration.
const VIRTUAL_SECS: u64 = 6;
/// Trace-ring slots per frame a card is offered. A card emits about 2.5
/// events per frame (decision, queue depth, dispatch or drop); the rings
/// hold the whole run so nothing is evicted before the run ends.
const EVENTS_PER_FRAME: usize = 4;
/// Set-ups (input generation plus world build) timed per run for `setup_s`.
const SETUPS: usize = 9;

fn config(seed: u64, run_secs: u64) -> ChassisConfig {
    let run = SimDuration::from_secs(run_secs);
    let period = Cadence::NTSC.period_ns();
    let mut plan = chassis::uniform_plan(CARDS * PER_CARD, run);
    for (i, c) in plan.clients.iter_mut().enumerate() {
        c.vbr = Some(VbrSpec::classic(measure::mix(seed, i as u64)));
    }
    let frames_per_stream = (run.as_nanos() / period) as usize + 2;
    ChassisConfig {
        cards: CARDS,
        plan,
        frames_per_stream,
        run,
        ni_cache: true,
        trace_capacity: PER_CARD * frames_per_stream * EVENTS_PER_FRAME,
        sourcing: Sourcing::PathB,
        failure: None,
        batch_budget: 1,
    }
}

/// What one chassis run showed. Everything but `cpu_ns` is simulated and
/// repeats exactly for a seed.
#[derive(Default)]
struct Iteration {
    cpu_ns: u64,
    digest: u64,
    offered: u64,
    produced: u64,
    sent: u64,
    dispatch_events: u64,
    on_time: u64,
    drops: u64,
    queued_end: u64,
    in_flight_end: u64,
    held_end: u64,
    refused: u64,
    lost: u64,
    decisions: u64,
    compares: u64,
    touches: u64,
    backlog_max: u64,
    trace_events: u64,
    trace_overflow: u64,
    card_decisions: Vec<u64>,
    delays: Vec<u64>,
}

impl Iteration {
    fn checks(&self) -> Vec<(&'static str, bool)> {
        vec![
            (
                "produced = dispatched + dropped + queued + in flight + held",
                self.produced == self.sent + self.drops + self.queued_end + self.in_flight_end + self.held_end,
            ),
            ("trace dispatches = dispatched", self.dispatch_events == self.sent),
            ("serversim.lost_frames == 0", self.lost == 0),
            ("trace.overflow == 0", self.trace_overflow == 0),
        ]
    }
}

/// Fold one chassis result: conservation counts, the dispatch digest, and
/// (when asked) every frame's delay from production to dispatch.
fn fold(cfg: &ChassisConfig, r: &ChassisResult, keep_delays: bool) -> Iteration {
    let period = Cadence::NTSC.period_ns();
    let run_ns = cfg.run.as_nanos();
    let mut it = Iteration {
        lost: r.lost_frames,
        ..Iteration::default()
    };
    for (s, c) in r.streams.iter().zip(&cfg.plan.clients) {
        if s.admitted {
            it.produced += s.produced;
            it.sent += s.series.sent;
            it.drops += s.series.dropped;
            it.queued_end += s.backlog_at_end;
            it.in_flight_end += s.in_flight_at_end;
            it.held_end += s.held_at_end;
            it.offered += s.produced;
        } else {
            // A refused stream's frames are offered and never served.
            it.refused += 1;
            let t0 = c.connect_at.as_nanos();
            it.offered += (run_ns.saturating_sub(t0).div_ceil(period)).min(cfg.frames_per_stream as u64);
        }
    }
    let mut digest = Digest::default();
    for card in &r.cards {
        it.card_decisions.push(card.decisions);
        let cap = &card.trace.capture;
        it.trace_events += cap.events.len() as u64;
        it.trace_overflow += cap.overflow;
        for e in &cap.events {
            match *e {
                TraceEvent::Decision {
                    compares,
                    touches,
                    backlog,
                    ..
                } => {
                    it.decisions += 1;
                    it.compares += compares;
                    it.touches += touches;
                    it.backlog_max = it.backlog_max.max(backlog);
                }
                TraceEvent::Dispatch {
                    at,
                    stream,
                    seq,
                    len,
                    on_time,
                    ..
                } => {
                    it.dispatch_events += 1;
                    it.on_time += u64::from(on_time);
                    let global = card.stream_map.get(stream as usize).copied().unwrap_or(usize::MAX);
                    digest.word(u64::from(card.trace.card) << 32 | global as u64);
                    digest.word(at);
                    digest.word(seq << 32 | u64::from(len) << 1 | u64::from(on_time));
                    if keep_delays {
                        // Path-B producers emit frame `seq` one period
                        // apart from connect time.
                        let due = cfg.plan.clients.get(global).map_or(0, |c| c.connect_at.as_nanos()) + seq * period;
                        it.delays.push(at.saturating_sub(due));
                    }
                }
                _ => {}
            }
        }
    }
    it.digest = digest.0;
    it
}

fn iterate(cfg: &ChassisConfig, spans: &mut SpanLog, keep_delays: bool) -> (Iteration, ChassisResult) {
    let cpu0 = measure::cpu_ns();
    let root = spans.open();
    let run_cfg = cfg.clone();
    let r = spans.time(Op::ChassisRun, 0, || chassis::run(run_cfg));
    let mut it = fold(cfg, &r, keep_delays);
    spans.close(Op::Iteration, 0, root);
    it.cpu_ns = measure::cpu_ns() - cpu0;
    (it, r)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let t_gen = Instant::now();
    let cfg = config(args.seed, VIRTUAL_SECS);
    let gen_s = t_gen.elapsed().as_secs_f64();

    // Set-up: the inputs generated and the world built and torn down with
    // a zero-length run, which places and admits every stream and
    // allocates every card.
    let setup_s = crate::sim::median_setup_s(SETUPS, || {
        let empty = ChassisConfig {
            run: SimDuration::ZERO,
            ..config(args.seed, VIRTUAL_SECS)
        };
        drop(chassis::run(empty));
    });

    let mut spans = SpanLog::new(false);
    let (first, result) = iterate(&cfg, &mut spans, true);
    out.info.push(format!(
        "chassis-busbound: seed {}, {CARDS} cards x {PER_CARD} streams, {} frames offered per {VIRTUAL_SECS} s virtual iteration, {} refused streams",
        args.seed, first.offered, first.refused
    ));
    let mut phases = crate::sim::Phases::new(args, Some(first.digest));
    phases.record_checks(&mut out, "warm-up", &first.checks(), first.offered);
    let mut span_ns_per_run = Vec::new();
    while let Some(traced) = phases.next() {
        spans.reset(traced);
        let (it, _) = iterate(&cfg, &mut spans, false);
        if traced {
            span_ns_per_run.extend(
                spans
                    .spans_ns()
                    .iter()
                    .filter(|s| s.op == Op::ChassisRun)
                    .map(|s| s.dur as f64),
            );
        }
        phases.record_iteration(
            &mut out,
            &it.checks(),
            Some(it.digest),
            it.offered,
            it.sent,
            it.cpu_ns,
            &spans,
        );
    }

    let mut delays = first.delays.clone();
    delays.sort_unstable();
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
    let offered = first.offered.max(1) as f64;
    out.set("miss_ppm", (first.offered - first.on_time) as f64 * 1e6 / offered);
    out.set("sustained_streams", first.on_time as f64 / (VIRTUAL_SECS * 30) as f64);

    let bus = &result.bus;
    let produced = first.produced.max(1) as f64;
    let decisions = first.decisions.max(1) as f64;
    out.set("workload.gen_s", gen_s);
    out.set("dwcs.compares_per_decision", first.compares as f64 / decisions);
    out.set("dwcs.touches_per_decision", first.touches as f64 / decisions);
    out.set("dwcs.useful_pass_ratio", first.sent as f64 / decisions);
    out.set("dwcs.backlog_max", first.backlog_max as f64);
    out.set("dwcs.backlog_end", first.queued_end as f64);
    out.set("hwsim.pci.utilization", bus.utilization);
    out.set("hwsim.pci.grant_wait_ms_mean", bus.mean_wait_ms);
    out.set("hwsim.pci.max_queue", bus.max_queue as f64);
    out.set("hwsim.pci.grants_per_frame", bus.grants as f64 / produced);
    out.set("hwsim.pci.dma_bytes_per_frame", bus.dma_bytes as f64 / produced);
    let run_ns = measure::median(&span_ns_per_run);
    out.set("serversim.host_ns_per_grant", run_ns / bus.grants.max(1) as f64);
    out.set("serversim.host_ns_per_decision", run_ns / decisions);
    let cd: Vec<f64> = first.card_decisions.iter().map(|&d| d as f64).collect();
    let mean = cd.iter().sum::<f64>() / cd.len().max(1) as f64;
    let spread = cd.iter().copied().fold(f64::MIN, f64::max) - cd.iter().copied().fold(f64::MAX, f64::min);
    out.set(
        "serversim.card_decision_spread",
        if mean > 0.0 { spread / mean } else { 0.0 },
    );
    out.set("serversim.lost_frames", first.lost as f64);
    out.set("trace.events", first.trace_events as f64);
    out.set("trace.overflow", first.trace_overflow as f64);
    out
}
