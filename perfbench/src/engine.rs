//! `engine-1stream`: the real threaded `MediaServer`, one stream.
//!
//! The benchmark's main thread is a closed-loop producer: it sends the
//! next frame as soon as the last one was accepted, and retries while the
//! per-stream ring or the frame pool is full. The engine's scheduler
//! thread runs work-conserving (no pacing sleeps) into a collecting sink.
//! This is the only workload through the `core` ring hand-off, frame pool
//! and sink path; with one stream, DWCS work is trivial.
//!
//! The process is pinned to one CPU before any server starts, so the
//! producer and the scheduler thread always share it and yield to each
//! other on a full ring. Unpinned, the pair's frames per CPU-second swung
//! between about 0.38M and 0.62M depending on whether the machine's other
//! CPU happened to be free.
//!
//! A run is a series of segments, each on a fresh server: start it, push
//! a fixed number of frames, wait for the scheduler to account for all of
//! them, check the sink's log, shut down. The first segment is a warm-up.

use crate::measure::{self, Op, SpanLog};
use crate::report::{Args, Outcome};
use dwcs::scheduler::Pacing;
use dwcs::StreamQos;
use nistream_core::engine::{MediaServer, ServerError, SinkKind, StreamHandle};
use simkit::Pcg32;
use std::time::{Duration, Instant};

const FRAMES: usize = 100_000;
const POOL_SLOTS: usize = 512;
const SLOT_BYTES: usize = 2_048;
const RING: usize = 512;
const MIN_PAYLOAD: u32 = 128;
/// Period and loss tolerance of the stream: a 1 ms deadline grid.
const PERIOD_NS: u64 = 1_000_000;
/// Set-ups (input generation plus server start) timed per run for `setup_s`.
const SETUPS: usize = 9;
/// A segment that has not drained after this long has lost frames.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Seeded payload lengths, one per frame of a segment.
fn generate(seed: u64) -> Vec<u32> {
    let mut rng = Pcg32::new(seed, 0x1e);
    (0..FRAMES)
        .map(|_| MIN_PAYLOAD + rng.below(SLOT_BYTES as u32 - MIN_PAYLOAD + 1))
        .collect()
}

#[derive(Default)]
struct Segment {
    cpu_ns: u64,
    sched_cpu_ns: u64,
    producer_cpu_ns: u64,
    wall_ns: u64,
    attempts: u64,
    on_time: u64,
    collected: u64,
    dropped: u64,
    /// Sink log checks: each frame collected or dropped exactly once, and
    /// collected with the length it was sent with.
    exactly_once: bool,
    lengths_match: bool,
    drained: bool,
    /// Median and tail of the segment's send-to-delivery delays, ns. Only
    /// the summary is kept, so memory does not grow with segment count.
    delay_p50_ns: u64,
    delay_tail_ns: u64,
}

fn thread_cpu(name: &str) -> u64 {
    measure::cpu_ns_by_thread()
        .iter()
        .filter(|(comm, _)| comm == name)
        .map(|(_, ns)| ns)
        .sum()
}

/// A fresh work-conserving server with its one stream open.
fn start_server() -> Result<(MediaServer, StreamHandle), ServerError> {
    let server = MediaServer::builder()
        .pool(POOL_SLOTS, SLOT_BYTES)
        .ring_capacity(RING)
        .pacing(Pacing::WorkConserving)
        .sink(SinkKind::Collect)
        .start()
        .map_err(|_| ServerError::Stopped)?;
    let stream = server.open_stream(StreamQos::new(PERIOD_NS, 2, 8))?;
    Ok((server, stream))
}

fn segment(lens: &[u32], payload: &[u8], spans: &mut SpanLog) -> Result<Segment, ServerError> {
    let mut seg = Segment::default();
    let root = spans.open();
    let t0 = spans.open();
    let (server, mut stream) = start_server()?;
    spans.close(Op::EngineStart, 0, t0);

    let (cpu0, sched0, prod0) = (
        measure::cpu_ns(),
        thread_cpu("dwcs-scheduler"),
        measure::thread_cpu_ns(),
    );
    let wall0 = Instant::now();
    let mut sent_at = Vec::with_capacity(lens.len());
    for (k, &len) in lens.iter().enumerate() {
        let t0 = spans.open();
        let at = loop {
            let at = server.now_ns();
            seg.attempts += 1;
            match stream.send(&payload[..len as usize]) {
                Ok(()) => break at,
                // Let the scheduler thread drain the ring.
                Err(ServerError::RingFull | ServerError::PoolExhausted) => std::thread::yield_now(),
                Err(e) => return Err(e),
            }
        };
        spans.close(Op::Send, k as u64, t0);
        sent_at.push(at);
    }
    let sid = stream.id();
    let t0 = spans.open();
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while Instant::now() < deadline {
        let st = server.stats(sid)?;
        if st.sent() + st.dropped >= lens.len() as u64 {
            seg.drained = true;
            break;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    spans.close(Op::EngineDrain, 0, t0);
    seg.wall_ns = wall0.elapsed().as_nanos() as u64;
    seg.cpu_ns = measure::cpu_ns() - cpu0;
    seg.sched_cpu_ns = thread_cpu("dwcs-scheduler") - sched0;
    seg.producer_cpu_ns = measure::thread_cpu_ns() - prod0;

    let t0 = spans.open();
    let records = server.collected();
    let drops = server.dropped_frames();
    server.shutdown();
    spans.close(Op::EngineCollect, 0, t0);

    let mut seen = vec![0u8; lens.len()];
    let mut delays = Vec::with_capacity(records.len());
    seg.lengths_match = true;
    for r in &records {
        let Some(k) = usize::try_from(r.seq).ok().filter(|&k| k < lens.len()) else {
            seg.lengths_match = false;
            continue;
        };
        seen[k] += 1;
        seg.lengths_match &= r.len == lens[k];
        seg.on_time += u64::from(r.on_time);
        delays.push(r.at_ns.saturating_sub(sent_at[k]));
    }
    for d in &drops {
        if let Some(slot) = usize::try_from(d.seq).ok().and_then(|k| seen.get_mut(k)) {
            *slot += 1;
        }
    }
    seg.collected = records.len() as u64;
    seg.dropped = drops.len() as u64;
    seg.exactly_once = seen.iter().all(|&n| n == 1);
    delays.sort_unstable();
    seg.delay_p50_ns = measure::percentile(&delays, 50.0);
    seg.delay_tail_ns = measure::tail(&delays).map_or(0, |(v, _)| v);
    spans.close(Op::Iteration, 0, root);
    Ok(seg)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let t_gen = Instant::now();
    let lens = generate(args.seed);
    let payload: Vec<u8> = (0..SLOT_BYTES)
        .map(|i| (measure::mix(args.seed, i as u64) & 0xff) as u8)
        .collect();
    let gen_s = t_gen.elapsed().as_secs_f64();
    out.info.push(format!(
        "engine-1stream: seed {}, {FRAMES} frames per segment, payloads {MIN_PAYLOAD}..={SLOT_BYTES} bytes",
        args.seed
    ));

    let pinned = measure::pin_to_current_cpu();
    if let Some(cpu) = pinned {
        out.info.push(format!("pinned to CPU {cpu}"));
    }
    let mut started = true;
    let setup_s = crate::sim::median_setup_s(SETUPS, || {
        drop(generate(args.seed));
        match start_server() {
            Ok((server, _stream)) => server.shutdown(),
            Err(_) => started = false,
        }
    });
    out.check("engine set-up starts a server", started);
    let mut spans = SpanLog::new(false);
    let mut phases = crate::sim::Phases::new(args, None);
    let mut first = true;
    let mut measured: Vec<(Segment, bool)> = Vec::new();
    loop {
        let traced = if first {
            false
        } else {
            match phases.next() {
                Some(t) => t,
                None => break,
            }
        };
        spans.reset(traced);
        let seg = match segment(&lens, &payload, &mut spans) {
            Ok(s) => s,
            Err(e) => {
                out.check(format!("engine segment ran ({e})"), false);
                out.failed += FRAMES as u64;
                out.attempted += FRAMES as u64;
                break;
            }
        };
        let checks = [
            ("producer and scheduler pinned to one CPU", pinned.is_some()),
            (
                "every frame sent is collected or dropped exactly once",
                seg.exactly_once,
            ),
            ("collected lengths match sent lengths", seg.lengths_match),
            ("scheduler accounts for every frame", seg.drained),
            (
                "collected + dropped = sent",
                seg.collected + seg.dropped == FRAMES as u64,
            ),
        ];
        if first {
            phases.record_checks(&mut out, "warm-up", &checks, FRAMES as u64);
            first = false;
            continue;
        }
        phases.record_iteration(
            &mut out,
            &checks,
            None,
            FRAMES as u64,
            seg.collected,
            seg.cpu_ns,
            &spans,
        );
        measured.push((seg, traced));
    }
    phases.finish(&mut out, args);
    out.set("setup_s", setup_s);

    let untraced: Vec<&Segment> = measured.iter().filter(|(_, t)| !t).map(|(s, _)| s).collect();
    let med = |f: &dyn Fn(&Segment) -> f64, segs: &[&Segment]| {
        measure::median(&segs.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    out.set("delay_p50_us", med(&|s| s.delay_p50_ns as f64 / 1e3, &untraced));
    out.set("delay_tail_us", med(&|s| s.delay_tail_ns as f64 / 1e3, &untraced));
    let frames: u64 = untraced.len() as u64 * FRAMES as u64;
    let on_time: u64 = untraced.iter().map(|s| s.on_time).sum();
    out.set(
        "miss_ppm",
        (frames - on_time.min(frames)) as f64 * 1e6 / frames.max(1) as f64,
    );
    out.set(
        "sustained_streams",
        med(
            &|s| s.on_time as f64 / (s.wall_ns.max(1) as f64 / 1e9) / 30.0,
            &untraced,
        ),
    );
    out.info.push(format!(
        "delay tail: highest percentile with 10 of {FRAMES} frames beyond, median over {} segments",
        untraced.len()
    ));

    out.set("workload.gen_s", gen_s);
    let all: Vec<&Segment> = measured.iter().map(|(s, _)| s).collect();
    let attempts: u64 = all.iter().map(|s| s.attempts).sum();
    let sends = all.len() as u64 * FRAMES as u64;
    out.set(
        "core.send_retry_ratio",
        (attempts - sends) as f64 / attempts.max(1) as f64,
    );
    out.set(
        "core.sched_thread_cpu_s",
        med(&|s| s.sched_cpu_ns as f64 / 1e9, &untraced),
    );
    out.set(
        "core.producer_cpu_s",
        med(&|s| s.producer_cpu_ns as f64 / 1e9, &untraced),
    );
    out
}
