//! Design-space ablations beyond the paper's tables:
//!
//! 1. Offload-target comparison — the same DWCS decision priced on the
//!    DVCM lineage's co-processors and hosts.
//! 2. Scheduler/producer NI split for a 6-slot node (§6's "careful
//!    balance").
//! 3. Shared-PCI-bus contention sweep on a one-card Path-B chassis
//!    (producer NIs vs delivered frames, bus utilization, DMA wait).
//!
//! The three sections are independent: each renders to a string in its own
//! sweep cell and the strings print in section order.
//!
//! Run: `cargo run --release -p nistream-bench --bin ablation_report`

use fixedpt::ops::MathMode;
use hwsim::profiles::{decision_us, ALL};
use nistream_bench::{format_table, par_sweep, trace_path, write_trace, Cell, TraceCapture};
use serversim::chassis;
use serversim::cluster::{node_capacity, sweep_ni_split, NodeConfig};
use simkit::SimDuration;
use std::fmt::Write as _;

/// Ablation 1: offload targets.
fn offload_targets() -> String {
    let rows: Vec<Vec<String>> = ALL
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.1}", decision_us(p, MathMode::FixedPoint, 40)),
                format!("{:.1}", decision_us(p, MathMode::SoftFloat, 40)),
                if p.has_fpu { "yes" } else { "no" }.into(),
            ]
        })
        .collect();
    let mut out = format_table(
        "Ablation 1: DWCS decision cost across offload targets (40 descriptor touches)",
        &["Target", "fixed-point (us)", "float (us)", "FPU"],
        &rows,
    );
    let _ = writeln!(
        out,
        "paper: host ~50 us vs i960RD ~65 us — \"comparable, although the i960RD"
    );
    let _ = writeln!(
        out,
        "is a much slower processor\"; fixed-point is what closes the gap.\n"
    );
    out
}

/// Ablation 2: scheduler/producer NI split.
fn ni_split() -> String {
    let node = NodeConfig::default();
    let cap = node_capacity(&node);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation 2: scheduler/producer NI balance (6-slot node, 260 kb/s streams)"
    );
    let _ = writeln!(
        out,
        "  per-NI limits: scheduler {} | producer {} | PCI {}",
        cap.streams_per_scheduler_ni, cap.streams_per_producer_ni, cap.pci_stream_limit
    );
    for (sched, streams) in sweep_ni_split(6, &node).expect("6-slot node sweeps cleanly") {
        let _ = writeln!(
            out,
            "  {sched} scheduler / {} producer NIs -> {streams:>4} streams",
            6 - sched
        );
    }
    let _ = writeln!(out);
    out
}

/// Ablation 3: shared-PCI-bus contention — one scheduler card fed over
/// the shared bus by Path-B producers sourcing 8 streams each.
fn bus_contention() -> String {
    let rows: Vec<Vec<String>> = [1, 2, 4, 8, 16]
        .into_iter()
        .map(|p| {
            let r = chassis::sweep_cards(&[1], 8 * p, SimDuration::from_secs(5))[0];
            vec![
                p.to_string(),
                r.offered_streams.to_string(),
                r.admitted_streams.to_string(),
                r.delivered_frames.to_string(),
                format!("{:.1}", r.sustained_streams),
                format!("{:.1}", r.bus_utilization * 100.0),
                format!("{:.3}", r.mean_dma_wait_ms),
            ]
        })
        .collect();
    let mut out = format_table(
        "Ablation 3: shared-PCI contention, one scheduler card, 5 s runs (8 x 30fps streams per producer NI)",
        &[
            "producer NIs",
            "offered",
            "admitted",
            "delivered",
            "sustained streams",
            "bus util %",
            "DMA wait ms",
        ],
        &rows,
    );
    let _ = writeln!(
        out,
        "one scheduler card's CPU+wire budget saturates long before the bus: admission"
    );
    let _ = writeln!(
        out,
        "caps the card and the bus stays lightly used; it takes ~12 scheduler cards to"
    );
    let _ = writeln!(out, "saturate the bus (BENCH_cluster), hence §6's \"careful balance\".");
    out
}

fn main() {
    let sections: Vec<Cell<'static, String>> =
        vec![Box::new(offload_targets), Box::new(ni_split), Box::new(bus_contention)];
    for section in par_sweep(sections) {
        print!("{section}");
    }
    if let Some(p) = trace_path() {
        // Sections 1–2 price decisions analytically and section 3 runs its
        // chassis untraced, so the document carries a labeled run with no
        // events.
        write_trace(&p, &[("ablations", &TraceCapture::default())]);
    }
}
