//! # serversim — whole-server experiments
//!
//! Composes the substrates (`hwsim` cost models, `vxkit` kernel, `i2o`
//! messaging, `dvcm` extensions, `dwcs` scheduling, `workload` generators)
//! into the paper's experiments. One module per experiment family:
//!
//! * [`micro`] — the scheduler microbenchmarks of **Tables 1–3**: a
//!   pre-loaded MPEG sequence served by the `dwcs` service core on a
//!   platform that prices each pass on the modelled i960, sweeping
//!   arithmetic build (software-FP vs fixed-point), data cache (off/on),
//!   and descriptor store (pinned memory vs hardware-queue registers).
//! * [`paths`] — the critical-path benchmarks of **Table 4** (frame
//!   transfer Paths A, B, C of Figure 3) and the raw PCI numbers of
//!   **Table 5**.
//! * [`hostload`] — the host-based scheduler under web load
//!   (**Figures 6–8**): a quantum-scheduled multi-CPU host running the
//!   Apache pool, daemons, MPEG producers and the DWCS process, with CPU
//!   utilization, per-stream bandwidth and queuing-delay traces.
//! * [`niload`] — the NI-based scheduler (**Figures 9–10**): the same
//!   streams served by the i960 model, structurally immune to host load.
//! * [`ninode`] — the integrated embedded NI: the DVCM service loop as a
//!   *wind* task on the `vxkit` kernel, watchdog-paced, with interference
//!   tasks quantifying the "few system tasks" argument.
//! * [`cluster`] — the multi-node topology of the paper's Figure 1, for
//!   capacity exploration beyond the single-node evaluation.
//! * [`chassis`] — the multi-NI chassis: N independent scheduler cards
//!   behind one host sharing an arbitrated PCI bus, with DWCS-feasibility
//!   placement, Path-B cross-card frame sourcing, and a deterministic
//!   rebalancer that migrates streams off a fault-injected card. A
//!   one-card Path-B chassis is also the shared-PCI contention experiment
//!   (producers DMA across the arbitrated bus into one scheduler NI).
//! * [`report`] — windowed-rate collectors and table formatting shared by
//!   the `repro_*` binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chassis;
pub mod cluster;
pub mod hostload;
pub mod micro;
pub mod niload;
pub mod ninode;
pub mod paths;
pub mod report;
