//! Chassis ⟷ single-card conformance.
//!
//! The multi-NI chassis generalises the single-card `niload` experiment;
//! the degenerate 1-card, preloaded-sourcing chassis must reproduce it
//! **byte-identically** — same dispatches, drops, stats, per-stream series
//! and trace events — so every multi-card result stays anchored to the
//! calibrated single-card model. These tests gate that equivalence field
//! by field, plus the chassis trace-tagging invariant: a 1-card tagged
//! export is the single-card export with a constant `card=0 ` prefix.
//! The 1-card Path-B sweeps anchor capacity: against the analytic cluster
//! model, and (Ablation 3) saturating the card before the shared bus.

use nistream::dwcs::StreamQos;
use nistream::serversim::chassis::{self, CardLoad, ChassisConfig, Sourcing};
use nistream::serversim::niload::{self, NiLoadConfig};
use nistream::trace::{tagged_lines, to_lines, ChassisAggregate};
use nistream::workload::mpegclient::ClientPlan;
use simkit::SimDuration;

fn chassis_quick(trace_capacity: usize) -> ChassisConfig {
    ChassisConfig {
        cards: 1,
        plan: ClientPlan::two_streams(30),
        frames_per_stream: 900,
        run: SimDuration::from_secs(30),
        ni_cache: true,
        trace_capacity,
        sourcing: Sourcing::Preloaded,
        failure: None,
        batch_budget: 1,
    }
}

fn niload_quick(trace_capacity: usize) -> NiLoadConfig {
    NiLoadConfig {
        plan: ClientPlan::two_streams(30),
        frames_per_stream: 900,
        run: SimDuration::from_secs(30),
        trace_capacity,
        ..NiLoadConfig::default()
    }
}

#[test]
fn one_card_chassis_reproduces_niload_byte_identically() {
    let ch = chassis::run(chassis_quick(1 << 16));
    let ni = niload::run(niload_quick(1 << 16));

    // Per-stream series: every field, exact.
    assert_eq!(ch.streams.len(), ni.streams.len());
    for (c, n) in ch.streams.iter().zip(&ni.streams) {
        assert_eq!(c.name, n.name);
        assert_eq!(c.series.name, n.name);
        assert_eq!(c.series.sent, n.sent, "{}", n.name);
        assert_eq!(c.series.dropped, n.dropped, "{}", n.name);
        assert_eq!(c.series.violations, n.violations, "{}", n.name);
        assert_eq!(
            c.series.mean_jitter_ms.to_bits(),
            n.mean_jitter_ms.to_bits(),
            "{}",
            n.name
        );
        assert_eq!(c.series.qdelay, n.qdelay, "{}", n.name);
        assert_eq!(c.series.bandwidth.points(), n.bandwidth.points(), "{}", n.name);
        // Chassis-only accounting is consistent with the series.
        assert!(c.admitted && c.alive);
        assert_eq!(c.card, Some(0));
        assert_eq!(c.arrived, 900);
        assert_eq!(c.backlog_at_end, c.arrived - c.series.sent - c.series.dropped);
        assert_eq!(c.in_flight_at_end, 0);
        assert_eq!(c.held_at_end, 0);
    }

    // Decision accounting, exact.
    assert_eq!(ch.mean_decision_us.to_bits(), ni.mean_decision_us.to_bits());

    // Trace: identical event stream, identical serialized bytes.
    assert_eq!(ch.cards.len(), 1);
    assert_eq!(ch.cards[0].trace.card, 0);
    assert_eq!(ch.cards[0].trace.capture, ni.trace);
    assert_eq!(to_lines(&ch.cards[0].trace.capture.events), to_lines(&ni.trace.events));

    // Nothing chassis-specific happened in the degenerate configuration.
    assert_eq!(ch.lost_frames, 0);
    assert!(ch.migrations.is_empty());
    assert_eq!(ch.bus.grants, 0, "preloaded sourcing never touches the bus");
}

#[test]
fn one_card_tagged_trace_is_prefixed_single_card_trace() {
    let ch = chassis::run(chassis_quick(1 << 16));
    let ni = niload::run(niload_quick(1 << 16));

    let tagged = tagged_lines(std::slice::from_ref(&ch.cards[0].trace));
    let plain = to_lines(&ni.trace.events);
    assert!(!tagged.is_empty());
    let stripped: String = tagged
        .lines()
        .map(|l| {
            format!(
                "{}\n",
                l.strip_prefix("card=0 ")
                    .expect("every chassis line carries its card id")
            )
        })
        .collect();
    assert_eq!(stripped, plain, "tagged export = `card=0 ` + single-card export");

    // And the chassis aggregation of that capture equals the single-card
    // fold: per-card tier for card 0 and the total tier agree.
    let agg = ChassisAggregate::from_captures(std::slice::from_ref(&ch.cards[0].trace));
    let mut single = nistream::trace::Aggregate::new();
    single.fold_all(&ni.trace.events);
    assert_eq!(agg.per_card.len(), 1);
    assert_eq!(agg.per_card[&0].total_dispatches(), single.total_dispatches());
    assert_eq!(agg.per_card[&0].total_drops(), single.total_drops());
    assert_eq!(agg.total.decisions, single.decisions);
    assert_eq!(agg.total.latency, single.latency);
    assert_eq!(agg.total.jitter, single.jitter);
}

#[test]
fn chassis_runs_are_deterministic() {
    let a = chassis::run(chassis_quick(1 << 14));
    let b = chassis::run(chassis_quick(1 << 14));
    for (x, y) in a.streams.iter().zip(&b.streams) {
        assert_eq!(x.series.qdelay, y.series.qdelay);
        assert_eq!(x.series.bandwidth.points(), y.series.bandwidth.points());
        assert_eq!(x.series.sent, y.series.sent);
    }
    assert_eq!(a.cards[0].trace, b.cards[0].trace);
    assert_eq!(a.mean_decision_us.to_bits(), b.mean_decision_us.to_bits());
}

#[test]
fn measured_capacity_cross_checks_analytic_cluster_model() {
    // One card, Path-B sourcing, offered well past service capacity: the
    // measured sustained-stream count must land near the closed-form
    // `cluster::node_capacity` prediction (≈47 streams/scheduler-NI).
    let run_for = SimDuration::from_secs(2);
    let rows = chassis::sweep_cards(&[1], 60, run_for);
    let measured = rows[0].sustained_streams;
    let analytic = nistream::serversim::cluster::node_capacity(&nistream::serversim::cluster::NodeConfig::default())
        .streams_per_scheduler_ni as f64;
    let ratio = measured / analytic;
    assert!(
        (0.7..=1.3).contains(&ratio),
        "measured {measured:.1} vs analytic {analytic:.0} streams (ratio {ratio:.2})"
    );
}

#[test]
fn one_card_path_b_saturates_the_card_before_the_bus() {
    // Ablation 3's topology: one scheduler card fed over the shared bus by
    // P Path-B producers sourcing 8 streams each.
    let run_for = SimDuration::from_secs(5);
    let rows: Vec<chassis::SweepRow> = [1, 2, 4, 8, 16]
        .iter()
        .map(|&p| chassis::sweep_cards(&[1], 8 * p, run_for)[0])
        .collect();

    // The card's admission cap for these streams: admit identical streams
    // onto one load set until placement refuses.
    let client = &chassis::uniform_plan(1, run_for).clients[0];
    let qos = StreamQos::new(client.period, client.loss_num, client.loss_den);
    let service = chassis::service_estimate_ns(ClientPlan::frame_bytes(client), true);
    let mut load = CardLoad {
        card: 0,
        dead: false,
        admitted: Vec::new(),
    };
    while chassis::place(std::slice::from_ref(&load), qos, service).is_some() {
        load.admitted.push(qos);
    }
    let cap = load.admitted.len();

    // Delivery grows with the producers until the card saturates (P = 8
    // offers 64 streams, one past the cap); past that the admitted set is
    // the same size and delivery holds within 1 %. The saturated rows are
    // compared by tolerance, not order: P = 16 packs the same 63 admitted
    // connects into half a period, which shifts delivery by a few frames.
    for w in rows[..4].windows(2) {
        assert!(w[1].delivered_frames >= w[0].delivered_frames, "{rows:?}");
    }
    let (p8, p16) = (rows[3].delivered_frames as f64, rows[4].delivered_frames as f64);
    assert!((p16 - p8).abs() <= 0.01 * p8, "P=8 {p8} vs P=16 {p16}");
    for r in &rows {
        assert!(r.admitted_streams <= cap, "admitted {} > cap {cap}", r.admitted_streams);
        // The card, not the bus, is the scarce resource.
        assert!(r.bus_utilization < 0.2, "bus util {:.3}", r.bus_utilization);
        assert!(r.mean_dma_wait_ms < 0.2, "dma wait {:.3} ms", r.mean_dma_wait_ms);
        assert_eq!(r.lost_frames, 0);
    }
    assert_eq!(rows[4].admitted_streams, cap, "16 producers saturate admission");
}
