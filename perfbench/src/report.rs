//! Command line, the metric catalogue and the result line.

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// End-to-end metrics, `(name, unit)`, in output order: the ones every
/// workload reports, nonzero and steady.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("delay_p50_us", "us"),
];

/// Per-layer metrics, `(name, unit)`, in output order. A workload that
/// never calls into a layer reports its metrics as 0. The first three are
/// end-to-end outcomes of the simulations that the closed-loop engine
/// cannot report steadily (its tail is OS wake-up jitter and it never
/// misses a deadline), so they ride in this set.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("delay_tail_us", "us"),
    ("miss_ppm", "ppm"),
    ("sustained_streams", "streams"),
    ("workload.gen_s", "s"),
    ("dwcs.pass_ns_p50", "ns"),
    ("dwcs.pass_ns_p99", "ns"),
    ("dwcs.busy_s", "s"),
    ("dwcs.compares_per_decision", "count"),
    ("dwcs.touches_per_decision", "count"),
    ("dwcs.useful_pass_ratio", "ratio"),
    ("dwcs.backlog_max", "frames"),
    ("dwcs.backlog_end", "frames"),
    ("dvcm.instr_calls", "count"),
    ("dvcm.instr_ns_p50", "ns"),
    ("dvcm.open_refused", "count"),
    ("dvcm.busy_s", "s"),
    ("hwsim.ni_busy_ns_per_frame", "ns"),
    ("hwsim.pci.utilization", "ratio"),
    ("hwsim.pci.grant_wait_ms_mean", "ms"),
    ("hwsim.pci.max_queue", "count"),
    ("hwsim.pci.grants_per_frame", "count"),
    ("hwsim.pci.dma_bytes_per_frame", "bytes"),
    ("serversim.host_ns_per_grant", "ns"),
    ("serversim.host_ns_per_decision", "ns"),
    ("serversim.card_decision_spread", "ratio"),
    ("serversim.lost_frames", "count"),
    ("serversim.busy_s", "s"),
    ("trace.drain_ns_total", "ns"),
    ("trace.events", "count"),
    ("trace.overflow", "count"),
    ("core.send_ns_p50", "ns"),
    ("core.send_retry_ratio", "ratio"),
    ("core.sched_thread_cpu_s", "s"),
    ("core.producer_cpu_s", "s"),
    ("core.busy_s", "s"),
    ("harness.self_share", "ratio"),
    ("harness.trace_overhead", "ratio"),
    ("harness.frames_per_cpu_s_traced", "1/s"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Frames offered over the whole run.
    pub attempted: u64,
    /// Frames of iterations that failed a check.
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name (end-to-end and per-layer alike).
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form lines printed before the metrics (digests, sample counts).
    pub info: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Print every metric by name and unit (per-layer timings exist only in
    /// a traced run), the checks, and as the last line the JSON result
    /// holding the end-to-end (untraced) or per-layer (traced) set.
    pub fn print(&self, trace: bool) {
        for line in &self.info {
            println!("{line}");
        }
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            match self.values.get(name) {
                Some(v) => println!("metric {name} = {v} {unit}"),
                None if trace => println!("metric {name} = n/a {unit}"),
                None => {}
            }
        }
        for (name, ok) in &self.checks {
            println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        let set = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = set
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
