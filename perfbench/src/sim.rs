//! Iteration schedule and metric folding shared by the workloads.
//!
//! A run repeats its workload in iterations until `--seconds` of wall time
//! have passed. The first iteration is a warm-up. An untraced run measures
//! every later iteration; a traced run measures the first half untraced
//! and the second half traced, so the two halves give the tracing
//! overhead. Every iteration of a simulation must reproduce the warm-up's
//! dispatch digest.

use crate::measure::{self, Layer, Op, Span, SpanLog};
use crate::report::{Args, Outcome};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Fewest measured iterations per phase, however long each takes.
const MIN_ITERATIONS: usize = 3;

#[derive(Default)]
struct Samples {
    frames: Vec<f64>,
    cpu_ns: Vec<f64>,
    pass_p50: Vec<f64>,
    pass_p99: Vec<f64>,
    instr_p50: Vec<f64>,
    send_p50: Vec<f64>,
    drain_ns: Vec<f64>,
    busy_s: [Vec<f64>; measure::LAYERS],
    /// Per traced iteration: harness self ns and span count.
    harness: Vec<(f64, f64)>,
}

pub struct Phases {
    start: Instant,
    seconds: f64,
    trace: bool,
    /// The warm-up's dispatch digest, for workloads that repeat exactly.
    ref_digest: Option<u64>,
    untraced: Samples,
    traced: Samples,
    checks: BTreeMap<String, bool>,
    last_spans: Vec<Span>,
    /// Span recorder cost per span (inside, outside), measured when the
    /// traced half starts.
    span_cost: Option<(f64, f64)>,
}

impl Phases {
    pub fn new(args: &Args, ref_digest: Option<u64>) -> Phases {
        Phases {
            start: Instant::now(),
            seconds: args.seconds,
            trace: args.trace,
            ref_digest,
            untraced: Samples::default(),
            traced: Samples::default(),
            checks: BTreeMap::new(),
            last_spans: Vec::new(),
            span_cost: None,
        }
    }

    /// Whether to run another iteration, and whether it is traced.
    pub fn next(&mut self) -> Option<bool> {
        let elapsed = self.start.elapsed().as_secs_f64();
        let (u, t) = (self.untraced.cpu_ns.len(), self.traced.cpu_ns.len());
        if !self.trace {
            return (u < MIN_ITERATIONS || elapsed < self.seconds).then_some(false);
        }
        if u < MIN_ITERATIONS || elapsed < self.seconds / 2.0 {
            Some(false)
        } else if t < MIN_ITERATIONS || elapsed < self.seconds {
            self.span_cost.get_or_insert_with(measure::span_cost_ns);
            Some(true)
        } else {
            None
        }
    }

    /// Record a set of named checks over `frames` offered frames; the frames
    /// count as failed unless every check held.
    pub fn record_checks(&mut self, out: &mut Outcome, phase: &str, checks: &[(&str, bool)], frames: u64) {
        let ok = checks.iter().all(|&(_, ok)| ok);
        for &(name, pass) in checks {
            *self.checks.entry(name.to_string()).or_insert(true) &= pass;
        }
        if !ok {
            out.failed += frames;
            out.info.push(format!("{phase} iteration failed a check"));
        }
        out.attempted += frames;
    }

    /// Record one measured iteration.
    #[allow(clippy::too_many_arguments)]
    pub fn record_iteration(
        &mut self,
        out: &mut Outcome,
        checks: &[(&str, bool)],
        digest: Option<u64>,
        offered: u64,
        frames: u64,
        cpu_ns: u64,
        spans: &SpanLog,
    ) {
        let mut all: Vec<(&str, bool)> = checks.to_vec();
        if self.ref_digest.is_some() {
            all.push((
                "dispatch digest identical in every iteration",
                digest == self.ref_digest,
            ));
        }
        self.record_checks(out, "measured", &all, offered);
        let s = if spans.enabled() {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        s.frames.push(frames as f64);
        s.cpu_ns.push(cpu_ns as f64);
        if spans.enabled() {
            let recorded = spans.spans_ns();
            fold_spans(s, &recorded);
            self.last_spans = recorded;
        }
    }

    /// Frames per on-CPU second over all untraced iterations together.
    pub fn untraced_fps(&self) -> f64 {
        pooled_fps(&self.untraced)
    }

    /// Median on-CPU ns of an untraced iteration.
    pub fn untraced_cpu_ns(&self) -> f64 {
        measure::median(&self.untraced.cpu_ns)
    }

    /// The harness's own share of each traced iteration: its self time
    /// less the span recorder's cost outside the spans, over the untraced
    /// iteration time. The recorder's cost in place is the measured
    /// traced-minus-untraced CPU time per span, split inside/outside in
    /// the proportion measured on empty spans.
    fn harness_shares(&self) -> Vec<f64> {
        let (cin, cout) = self.span_cost.unwrap_or((0.0, 0.0));
        let base = self.untraced_cpu_ns();
        let slowdown = (measure::median(&self.traced.cpu_ns) - base).max(0.0);
        let spans = measure::median(&self.traced.harness.iter().map(|h| h.1).collect::<Vec<_>>());
        let out_per_span = if spans > 0.0 && cin + cout > 0.0 {
            slowdown / spans * cout / (cin + cout)
        } else {
            0.0
        };
        self.traced
            .harness
            .iter()
            .map(|&(own, n)| (own - n * out_per_span).max(0.0) / base.max(1.0))
            .collect()
    }

    /// Set the host metrics, the checks, and (traced) write the spans.
    pub fn finish(&mut self, out: &mut Outcome, args: &Args) {
        out.set("frames_per_cpu_s", self.untraced_fps());
        out.set("peak_rss_mb", measure::peak_rss_mib());
        let u = &self.untraced;
        let fps: Vec<f64> = u
            .frames
            .iter()
            .zip(&u.cpu_ns)
            .map(|(f, c)| f / (c.max(1.0) / 1e9))
            .collect();
        out.info.push(format!(
            "measured iterations: {} untraced, {} traced; untraced frames per CPU-second min {:.0} median {:.0} max {:.0}",
            fps.len(),
            self.traced.cpu_ns.len(),
            fps.iter().copied().fold(f64::MAX, f64::min),
            measure::median(&fps),
            fps.iter().copied().fold(0.0, f64::max),
        ));
        for (name, ok) in std::mem::take(&mut self.checks) {
            out.check(name, ok);
        }
        if !self.trace {
            return;
        }
        let t = &self.traced;
        let med = |v: &Vec<f64>| measure::median(v);
        let traced_fps = pooled_fps(t);
        out.set("harness.frames_per_cpu_s_traced", traced_fps);
        out.set("harness.trace_overhead", 1.0 - traced_fps / self.untraced_fps());
        let share = measure::median(&self.harness_shares());
        out.set("harness.self_share", share);
        out.check("harness self time under a tenth of the run", share < 0.1);
        out.set("dwcs.pass_ns_p50", med(&t.pass_p50));
        out.set("dwcs.pass_ns_p99", med(&t.pass_p99));
        out.set("dvcm.instr_ns_p50", med(&t.instr_p50));
        out.set("core.send_ns_p50", med(&t.send_p50));
        out.set("trace.drain_ns_total", med(&t.drain_ns));
        for (layer, name) in [
            (Layer::Dwcs, "dwcs.busy_s"),
            (Layer::Dvcm, "dvcm.busy_s"),
            (Layer::Serversim, "serversim.busy_s"),
            (Layer::Core, "core.busy_s"),
        ] {
            out.set(name, med(&t.busy_s[layer as usize]));
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.tsv", args.workload));
        match measure::write_spans(&path, &self.last_spans) {
            Ok(()) => out.info.push(format!(
                "spans of the last traced iteration ({}) written to {}",
                self.last_spans.len(),
                path.display()
            )),
            Err(e) => out.info.push(format!("could not write spans: {e}")),
        }
    }
}

/// `setup_s`: the median on-CPU seconds of `k` runs of `setup`, each of
/// which generates the seeded inputs and builds the world up to the first
/// service pass.
pub fn median_setup_s(k: usize, mut setup: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..k)
        .map(|_| {
            let t = measure::cpu_ns();
            setup();
            (measure::cpu_ns() - t) as f64 / 1e9
        })
        .collect();
    measure::median(&samples)
}

/// Total frames over total on-CPU time: steadier than the median of
/// per-iteration rates when the machine's speed drifts during a run.
fn pooled_fps(s: &Samples) -> f64 {
    let cpu: f64 = s.cpu_ns.iter().sum();
    if cpu > 0.0 {
        s.frames.iter().sum::<f64>() / (cpu / 1e9)
    } else {
        0.0
    }
}

fn fold_spans(s: &mut Samples, spans: &[Span]) {
    let durations = |op: Op| {
        let mut v: Vec<u64> = spans.iter().filter(|x| x.op == op).map(|x| x.dur).collect();
        v.sort_unstable();
        v
    };
    let pass = durations(Op::Pass);
    if !pass.is_empty() {
        s.pass_p50.push(measure::percentile(&pass, 50.0) as f64);
        s.pass_p99.push(measure::percentile(&pass, 99.0) as f64);
    }
    let instr = durations(Op::Instr);
    if !instr.is_empty() {
        s.instr_p50.push(measure::percentile(&instr, 50.0) as f64);
    }
    let send = durations(Op::Send);
    if !send.is_empty() {
        s.send_p50.push(measure::percentile(&send, 50.0) as f64);
    }
    s.drain_ns
        .push(spans.iter().filter(|x| x.op == Op::Drain).map(|x| x.dur).sum::<u64>() as f64);
    let selfs = measure::self_times(spans);
    for (i, v) in selfs.iter().enumerate() {
        s.busy_s[i].push(*v as f64 / 1e9);
    }
    let own = selfs[Layer::Harness as usize];
    s.harness.push((own as f64, spans.len().saturating_sub(1) as f64));
}
