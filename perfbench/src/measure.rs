//! Timing helpers, the span recorder and small statistics.
//!
//! Host cost is read in on-CPU nanoseconds from the process and thread CPU
//! clocks (Linux), so time the process spends waiting for a CPU does not
//! count against the program. Spans are recorded only in a traced run; an
//! untraced run pays one branch per call site.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// On-CPU nanoseconds of every thread of this process by thread name
/// (first field of `/proc/self/task/<tid>/schedstat`, tick-granular for a
/// running thread).
pub fn cpu_ns_by_thread() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(stat) = fs::read_to_string(dir.join("schedstat")) else {
            continue; // the thread exited while we looked
        };
        let Some(ns) = stat.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()) else {
            continue;
        };
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        out.push((comm.trim().to_string(), ns));
    }
    out
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, laid out as the C library's on 64-bit Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    (ts.tv_sec as u64)
        .wrapping_mul(1_000_000_000)
        .wrapping_add(ts.tv_nsec as u64)
}

/// On-CPU nanoseconds summed over every thread of this process, exact to
/// the moment of the call. (The per-thread `schedstat` files hold the same
/// sums but advance only at scheduler ticks for a running thread.)
pub fn cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU nanoseconds of the calling thread alone.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Pin the calling thread, and every thread it spawns later, to the CPU it
/// is running on. Returns that CPU, or `None` if the kernel refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and only reads scheduler state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16]; // a 1024-CPU cpu_set_t
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live cpu_set_t-sized bitmask and `size` is its
    // length in bytes; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail of an ascending sample: the highest percentile with at least
/// ten samples beyond it. Returns `(value, percentile)`; `None` when the
/// sample is too small to have such a tail.
pub fn tail(sorted: &[u64]) -> Option<(u64, f64)> {
    let n = sorted.len();
    (n > 10).then(|| (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

/// Multiply-rotate hash over 64-bit words: the dispatch-sequence digest.
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Deterministic 64-bit mix of a seed and a salt (splitmix64 finalizer).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The layers a span can be charged to. `Harness` is the benchmark's own
/// loop; every other variant is a crate of the program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Harness,
    Dwcs,
    Dvcm,
    Trace,
    Serversim,
    Core,
}

/// Number of [`Layer`]s; per-layer arrays are indexed by `layer as usize`.
pub const LAYERS: usize = 6;

/// The operation a span times; each belongs to one layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// One iteration or segment of the workload (the root span).
    Iteration,
    /// `MediaSchedExt::poll_decision`: one DWCS service pass.
    Pass,
    /// `next_eligible`: the DWCS earliest-deadline peek.
    Peek,
    /// `dwcs::admission::admit`.
    Admit,
    /// `ExtensionModule::on_instruction`.
    Instr,
    /// Building the NI extension and its platform.
    NiBuild,
    /// A trace-ring drain.
    Drain,
    /// `serversim::chassis::run`.
    ChassisRun,
    /// `MediaServer` start plus stream open.
    EngineStart,
    /// `StreamHandle::send`, first attempt to success.
    Send,
    /// Waiting on `MediaServer::stats` for the last frame.
    EngineDrain,
    /// `MediaServer::collected`/`dropped_frames` plus shutdown.
    EngineCollect,
}

impl Op {
    pub fn layer(self) -> Layer {
        match self {
            Op::Iteration => Layer::Harness,
            Op::Pass | Op::Peek | Op::Admit => Layer::Dwcs,
            Op::Instr | Op::NiBuild => Layer::Dvcm,
            Op::Drain => Layer::Trace,
            Op::ChassisRun => Layer::Serversim,
            Op::EngineStart | Op::Send | Op::EngineDrain | Op::EngineCollect => Layer::Core,
        }
    }
}

/// One recorded span: which call, for which frame, when, for how long.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: Op,
    /// Frame identifier (`stream << 32 | seq`), or 0 when the call serves
    /// no single frame.
    pub id: u64,
    /// Start since the log's epoch (ticks while recording, ns after
    /// [`SpanLog::spans_ns`]).
    pub start: u64,
    pub dur: u64,
}

/// A cheap monotonic tick counter for spans: the time-stamp counter on
/// x86-64 (about half the cost of `Instant::now` here), nanoseconds since
/// a process epoch elsewhere.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: RDTSC only reads the time-stamp counter; it touches no memory
    // and has no preconditions on x86-64.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per tick, measured against `Instant` over 20 ms.
fn ns_per_tick() -> f64 {
    let (t0, k0) = (Instant::now(), ticks());
    while t0.elapsed().as_millis() < 20 {
        std::hint::spin_loop();
    }
    let (ns, k) = (t0.elapsed().as_nanos() as f64, ticks().wrapping_sub(k0));
    if k == 0 {
        1.0
    } else {
        ns / k as f64
    }
}

/// In-memory span recorder. Disabled, it costs one branch per call.
/// Spans hold raw ticks until [`spans_ns`](SpanLog::spans_ns) converts them.
pub struct SpanLog {
    enabled: bool,
    epoch: u64,
    ns_per_tick: f64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            epoch: ticks(),
            ns_per_tick: if enabled { ns_per_tick() } else { 1.0 },
            spans: Vec::new(),
        }
    }

    /// Drop recorded spans (keeping their storage) and restart the epoch.
    pub fn reset(&mut self, enabled: bool) {
        if enabled && !self.enabled {
            self.ns_per_tick = ns_per_tick();
        }
        self.enabled = enabled;
        self.epoch = ticks();
        self.spans.clear();
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f`, recording a span for it when enabled.
    #[inline]
    pub fn time<R>(&mut self, op: Op, id: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = ticks();
        let r = f();
        let t1 = ticks();
        self.spans.push(Span {
            op,
            id,
            start: t0.wrapping_sub(self.epoch),
            dur: t1.wrapping_sub(t0),
        });
        r
    }

    /// Start a span by hand (for spans that enclose others).
    #[inline]
    pub fn open(&self) -> Option<u64> {
        self.enabled.then(ticks)
    }

    /// Close a span opened with [`open`](SpanLog::open).
    #[inline]
    pub fn close(&mut self, op: Op, id: u64, t0: Option<u64>) {
        if let Some(t0) = t0 {
            let t1 = ticks();
            self.spans.push(Span {
                op,
                id,
                start: t0.wrapping_sub(self.epoch),
                dur: t1.wrapping_sub(t0),
            });
        }
    }

    /// The recorded spans with start and duration in nanoseconds.
    pub fn spans_ns(&self) -> Vec<Span> {
        let k = self.ns_per_tick;
        self.spans
            .iter()
            .map(|s| Span {
                start: (s.start as f64 * k) as u64,
                dur: (s.dur as f64 * k) as u64,
                ..*s
            })
            .collect()
    }
}

/// The span recorder's own cost per span, in ns: the part inside the span
/// it records and the part outside it. Measured by recording empty spans,
/// median of several rounds.
pub fn span_cost_ns() -> (f64, f64) {
    const K: usize = 100_000;
    let mut log = SpanLog::new(true);
    let mut inside = Vec::new();
    let mut outside = Vec::new();
    for _ in 0..5 {
        log.reset(true);
        let t0 = Instant::now();
        for _ in 0..K {
            log.time(Op::Peek, 0, || std::hint::black_box(0u64));
        }
        let total = t0.elapsed().as_nanos() as f64;
        let within: u64 = log.spans_ns().iter().map(|s| s.dur).sum();
        inside.push(within as f64 / K as f64);
        outside.push((total - within as f64) / K as f64);
    }
    (median(&inside), median(&outside))
}

/// Self time per layer (indexed by `layer as usize`): each span's duration
/// minus the part its direct children cover. Spans must come from one
/// thread and nest properly.
pub fn self_times(spans: &[Span]) -> [u64; LAYERS] {
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_by_key(|s| (s.start, std::cmp::Reverse(s.dur)));
    let mut out = [0i128; LAYERS];
    let mut stack: Vec<(u64, usize)> = Vec::new(); // (end, layer index)
    for s in order {
        while stack.last().is_some_and(|&(end, _)| end <= s.start) {
            stack.pop();
        }
        let li = s.op.layer() as usize;
        if let Some(&(_, parent)) = stack.last() {
            out[parent] -= i128::from(s.dur);
        }
        out[li] += i128::from(s.dur);
        stack.push((s.start + s.dur, li));
    }
    out.map(|v| v.max(0) as u64)
}

/// Write spans as tab-separated `op id start_ns dur_ns` lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(fs::File::create(path)?);
    writeln!(w, "op\tid\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(w, "{:?}\t{}\t{}\t{}", s.op, s.id, s.start, s.dur)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: Op, start: u64, dur: u64) -> Span {
        Span { op, id: 0, start, dur }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(Op::Iteration, 0, 100),
            span(Op::Instr, 10, 20),
            span(Op::Pass, 40, 30),
            span(Op::Drain, 80, 5),
        ];
        let t = self_times(&spans);
        assert_eq!(t[Layer::Harness as usize], 45);
        assert_eq!(t[Layer::Dvcm as usize], 20);
        assert_eq!(t[Layer::Dwcs as usize], 30);
        assert_eq!(t[Layer::Trace as usize], 5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        assert_eq!(tail(&v[..10]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let a = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(thread_cpu_ns() > a, "{x}");
        assert!(cpu_ns() >= thread_cpu_ns());
        assert!(peak_rss_mib() > 0.0);
    }
}
