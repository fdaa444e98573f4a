//! One pass of a workload's stream through a freshly set-up engine,
//! closed-loop (saturated) or open-loop (paced).
//!
//! Every call into the engine goes through the [`Tracer`], so a traced
//! pass records a span per call; an untraced pass records nothing beyond
//! the timestamps the end-to-end metrics need.

use crate::latency::due_ms;
use crate::trace::Tracer;
use crate::workload::{Kind, Spec, BATCH};
use sharon::executor::{
    CheckpointConfig, ExecutorResults, ShardedOptions, SplitConfig, DEFAULT_PIPELINE_DEPTH,
};
use sharon::optimizer::optimizer::OptimizeStats;
use sharon::prelude::*;
use sharon::QueryHandle;
use sharon_metrics::{alloc_count, peak_bytes, reset_peak};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards of the `Sharded` workload.
pub const SHARDS: usize = 2;

/// Set-ups timed per pass: at least [`MIN_SETUPS`], and more until they
/// add up to [`SETUP_SAMPLE_S`], so cheap set-ups get enough samples for a
/// steady median. The engine of the last one runs the pass.
const MIN_SETUPS: usize = 5;
const SETUP_SAMPLE_S: f64 = 0.05;

/// How a pass releases the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Closed loop: the next batch as soon as the previous call returns;
    /// results drained only where the workload needs it (the session).
    Saturated,
    /// Open loop: events are due at the workload's paced rate; each
    /// (small) batch is handed over once its last event is due, then
    /// results drained.
    Paced,
}

/// The engine under test.
enum System {
    Seq(Executor),
    Sharded(Box<ShardedExecutor>),
    Session {
        session: Box<SharonSession>,
        /// Attached handles, oldest first.
        attached: VecDeque<QueryHandle>,
    },
}

/// What one pass measured.
#[derive(Default)]
pub struct PassOut {
    /// Parse → optimize → compile / session start, seconds, per set-up.
    pub setup_s: Vec<f64>,
    /// First handoff until `finish` returned, seconds.
    pub wall_s: f64,
    /// Peak heap growth over the pass, bytes (saturated passes).
    pub peak_bytes: usize,
    /// Allocation calls per batch over the second half of the batches.
    pub allocs_per_batch: f64,
    /// Every drained result set with its return time, in milliseconds
    /// after the first handoff; the last entry is `finish`'s.
    pub drains: Vec<(f64, ExecutorResults)>,
    /// Paced: how far each handoff ran behind its release time (the due
    /// time of its last event), milliseconds.
    pub lags_ms: Vec<f64>,
    /// Optimizer statistics of the set-up (`Seq`, `Sharded`).
    pub opt_stats: Option<OptimizeStats>,
    /// Counters read from the engine's accessors at the end of the pass.
    pub counters: Counters,
    /// Durations of session `process_columnar` calls during which a plan
    /// hot swap happened, milliseconds.
    pub swap_stalls_ms: Vec<f64>,
    /// Checkpoints written and their total size on disk.
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
}

/// End-of-pass accessor readings.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub events_matched: u64,
    pub cell_count: u64,
    pub rows_scanned: u64,
    pub rows_selected: u64,
    pub split_groups: u64,
    pub late_rows_dropped: u64,
    pub batches_routed: u64,
    pub stall_waits: u64,
    pub scope_scans: u64,
    pub reoptimizations: u64,
    pub plan_swaps: u64,
    pub sidecars_max: u64,
}

/// Process-wide counters read as deltas over a pass.
#[derive(Clone, Copy)]
struct Globals {
    batches_routed: u64,
    stall_waits: u64,
    scope_scans: u64,
    rows_scanned: u64,
    rows_selected: u64,
    late_rows: u64,
}

impl Globals {
    fn read() -> Self {
        Globals {
            batches_routed: sharon_metrics::router_batches_routed(),
            stall_waits: sharon_metrics::router_stall_waits(),
            scope_scans: sharon_metrics::router_scope_scans(),
            rows_scanned: sharon_metrics::rows_scanned(),
            rows_selected: sharon_metrics::rows_selected(),
            late_rows: sharon_metrics::late_rows_dropped(),
        }
    }
}

/// Run the stream of `spec` once through a freshly set-up engine.
///
/// `chunks` is the stream cut into the mode's handoffs — [`BATCH`] rows
/// saturated, [`Spec::paced_batch`] rows paced after a first handoff of
/// [`Spec::paced_first`] rows; `scratch` is a directory the pass may use
/// for checkpoints and leaves empty.
pub fn run_pass(
    spec: &Spec,
    mode: Mode,
    chunks: &[Arc<EventBatch>],
    scratch: &Path,
    tr: &mut Tracer,
) -> PassOut {
    let mut out = PassOut::default();
    let ckpt_dir = scratch.join("checkpoints");
    let (mut sys, setup_s, opt_stats) = setup(spec, &ckpt_dir, tr);
    out.setup_s.push(setup_s);
    while out.setup_s.len() < MIN_SETUPS || out.setup_s.iter().sum::<f64>() < SETUP_SAMPLE_S {
        // tear the previous engine down untimed; keep the last one
        let (next, setup_s, _) = setup(spec, &ckpt_dir, tr);
        drop(std::mem::replace(&mut sys, next));
        out.setup_s.push(setup_s);
    }
    out.opt_stats = opt_stats;
    let globals = Globals::read();
    let n = spec.stream.len();
    let mut next_control = if spec.control_every == 0 {
        usize::MAX
    } else {
        spec.control_every
    };
    let mut control_k = 0;

    let base = reset_peak();
    let t0 = Instant::now();
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    // Handoffs are batches cut before the pass; the paced mode releases
    // each one when its last event is due, so the boundaries never depend
    // on how late the driver runs: timing never changes what the engine
    // computes (a session re-plans and retires incarnations at batch
    // boundaries).
    let drain_each = mode == Mode::Paced || spec.kind == Kind::Session;
    // steady state: count allocations over the second half of the batches
    let half = chunks.len() / 2;
    let mut allocs_from = 0;
    let mut done = 0;
    for (k, chunk) in chunks.iter().enumerate() {
        done += chunk.len();
        if mode == Mode::Paced {
            let release = due_ms(done - 1, spec.paced_rate);
            let wait = release - ms(t0);
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait / 1e3));
            }
            out.lags_ms.push(ms(t0) - release);
        } else if k == half {
            allocs_from = tr.span("metrics.alloc:alloc_count", alloc_count);
        }
        tr.next_batch();
        tr.begin("driver:handoff");
        ingest(&mut sys, chunk, tr, &mut out);
        if drain_each {
            let r = drain(&mut sys, tr);
            out.drains.push((ms(t0), r));
        }
        if done >= next_control && done < n {
            control(&mut sys, spec, control_k, tr, &mut out);
            control_k += 1;
            next_control += spec.control_every;
        }
        tr.end();
    }
    if mode == Mode::Saturated {
        let allocs_to = tr.span("metrics.alloc:alloc_count", alloc_count);
        let batches = (chunks.len() - half).max(1);
        out.allocs_per_batch = (allocs_to - allocs_from) as f64 / batches as f64;
    }
    let (results, counters) = finish(sys, tr, globals);
    out.drains.push((ms(t0), results));
    out.wall_s = t0.elapsed().as_secs_f64();
    out.peak_bytes = peak_bytes().saturating_sub(base);
    out.counters = Counters {
        sidecars_max: out.counters.sidecars_max,
        ..counters
    };
    if ckpt_dir.exists() {
        out.checkpoint_bytes = dir_bytes(&ckpt_dir);
        std::fs::remove_dir_all(&ckpt_dir).expect("remove checkpoint directory");
    }
    out
}

/// Parse the query texts, optimize, and build the engine — timed.
fn setup(spec: &Spec, ckpt_dir: &Path, tr: &mut Tracer) -> (System, f64, Option<OptimizeStats>) {
    let mut catalog = spec.catalog.clone();
    let start = Instant::now();
    let workload = tr
        .span("query:parse_workload", || {
            parse_workload(&mut catalog, &spec.sources)
        })
        .expect("workload parses");
    let (sys, stats) = match spec.kind {
        Kind::Seq => {
            let outcome = tr.span("optimizer:optimize_sharon", || {
                optimize_sharon(&workload, &spec.rates, &OptimizerConfig::default())
            });
            let ex = tr
                .span("executor.compile:new", || {
                    Executor::new(&catalog, &workload, &outcome.plan)
                })
                .expect("workload compiles");
            (System::Seq(ex), Some(outcome.stats))
        }
        Kind::Sharded => {
            let outcome = tr.span("optimizer:optimize_sharon", || {
                optimize_sharon(&workload, &spec.rates, &OptimizerConfig::default())
            });
            let options = ShardedOptions {
                batch_size: BATCH,
                split: SplitConfig::default(),
                pipeline_depth: DEFAULT_PIPELINE_DEPTH,
                routers: 1,
                spill: None,
                // checkpoints are taken explicitly at the control points
                checkpoint: Some(CheckpointConfig::every(PathBuf::from(ckpt_dir), u64::MAX)),
                fault: None,
                lateness: spec.lateness,
            };
            let ex = tr
                .span("executor.compile:new", || {
                    ShardedExecutor::with_options(
                        &catalog,
                        &workload,
                        &outcome.plan,
                        SHARDS,
                        options,
                    )
                })
                .expect("workload compiles");
            (System::Sharded(Box::new(ex)), Some(outcome.stats))
        }
        Kind::Session => {
            let session = tr
                .span("core.session:start", || {
                    SharonBuilder::new(&catalog, &workload, &spec.rates)
                        .shards(1)
                        .pipeline_depth(DEFAULT_PIPELINE_DEPTH)
                        .routers(1)
                        .session(SessionConfig::default())
                })
                .expect("session starts");
            let attached = (0..workload.len() as u32)
                .map(|i| session.handle(i).expect("initial handle"))
                .collect();
            (
                System::Session {
                    session: Box::new(session),
                    attached,
                },
                None,
            )
        }
    };
    (sys, start.elapsed().as_secs_f64(), stats)
}

/// Hand one batch to the engine.
fn ingest(sys: &mut System, batch: &Arc<EventBatch>, tr: &mut Tracer, out: &mut PassOut) {
    match sys {
        System::Seq(ex) => tr.span("executor.engine:process_columnar", || {
            ex.process_columnar(batch)
        }),
        System::Sharded(ex) => tr.span("executor.sharded:process_shared", || {
            ex.process_shared(batch)
        }),
        System::Session { session, .. } => {
            let swaps = session.plan_swaps();
            let start = Instant::now();
            tr.span("core.session:process_columnar", || {
                session.process_columnar(batch)
            });
            if session.plan_swaps() > swaps {
                out.swap_stalls_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            let sidecars = session.sidecar_count() as u64;
            out.counters.sidecars_max = out.counters.sidecars_max.max(sidecars);
        }
    }
}

/// Move out the results the engine has settled so far.
fn drain(sys: &mut System, tr: &mut Tracer) -> ExecutorResults {
    match sys {
        System::Seq(ex) => tr.span("executor.engine:take_results", || ex.take_results()),
        System::Sharded(ex) => tr
            .span("executor.sharded:harvest_results", || ex.harvest_results())
            .expect("harvest"),
        System::Session { session, .. } => {
            tr.span("core.session:drain_results", || session.drain_results())
        }
    }
}

/// The `k`-th control action: a checkpoint, or an attach of the next
/// query plus a detach of the oldest attached one.
fn control(sys: &mut System, spec: &Spec, k: usize, tr: &mut Tracer, out: &mut PassOut) {
    match sys {
        System::Seq(_) => {}
        System::Sharded(ex) => {
            tr.span("executor.checkpoint:checkpoint_now", || ex.checkpoint_now())
                .expect("checkpoint");
            out.checkpoints += 1;
        }
        System::Session { session, attached } => {
            let query = spec.attach[k].clone();
            let h = tr
                .span("core.session:attach", || session.attach(query))
                .expect("attach compiles");
            attached.push_back(h);
            let oldest = attached.pop_front().expect("a query is attached");
            tr.span("core.session:detach", || session.detach(oldest));
        }
    }
}

/// Read the end-of-pass accessors, then flush the engine.
fn finish(sys: System, tr: &mut Tracer, globals: Globals) -> (ExecutorResults, Counters) {
    let mut c = Counters::default();
    let g = Globals::read();
    c.batches_routed = g.batches_routed - globals.batches_routed;
    c.stall_waits = g.stall_waits - globals.stall_waits;
    c.scope_scans = g.scope_scans - globals.scope_scans;
    let results = match sys {
        System::Seq(ex) => {
            c.events_matched = ex.events_matched();
            c.cell_count = ex.cell_count() as u64;
            let scans = tr.span("executor.scan:scan_stats", || ex.scan_stats());
            (c.rows_scanned, c.rows_selected) = sum_pairs(&scans);
            c.late_rows_dropped = tr.span("executor.event_time:late_rows_dropped", || {
                ex.late_rows_dropped()
            });
            tr.span("executor.engine:finish", || ex.finish())
        }
        System::Sharded(ex) => {
            let scans = tr.span("executor.scan:scan_stats", || ex.scan_stats());
            (c.rows_scanned, c.rows_selected) = sum_pairs(&scans);
            c.split_groups = tr.span("executor.router:split_groups", || ex.split_groups()) as u64;
            let (results, matched, state) =
                tr.span("executor.sharded:finish", || ex.finish_with_stats());
            c.events_matched = matched;
            c.cell_count = state as u64;
            // the event-time gates run on the workers; their drops reach
            // the process-wide counter by the time the workers joined
            c.late_rows_dropped = tr.span("executor.event_time:late_rows_dropped", || {
                sharon_metrics::late_rows_dropped()
            }) - globals.late_rows;
            results
        }
        System::Session { session, .. } => {
            c.reoptimizations = session.reoptimizations();
            c.plan_swaps = session.plan_swaps();
            c.cell_count = session.state_size() as u64;
            let results = tr.span("core.session:finish", || session.finish());
            let g = Globals::read();
            c.rows_scanned = g.rows_scanned - globals.rows_scanned;
            c.rows_selected = g.rows_selected - globals.rows_selected;
            c.late_rows_dropped = tr.span("executor.event_time:late_rows_dropped", || {
                sharon_metrics::late_rows_dropped()
            }) - globals.late_rows;
            results
        }
    };
    (results, c)
}

fn sum_pairs(pairs: &[(u64, u64)]) -> (u64, u64) {
    pairs.iter().fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            match e.file_type() {
                Ok(t) if t.is_dir() => total += dir_bytes(&e.path()),
                Ok(_) => total += e.metadata().map(|m| m.len()).unwrap_or(0),
                Err(_) => {}
            }
        }
    }
    total
}

/// Replay the stream through a standalone router built from the
/// workload's compiled plan (the traced run's router probe). Returns the
/// routed batch count.
pub fn route_replay(spec: &Spec, chunks: &[Arc<EventBatch>], tr: &mut Tracer) -> usize {
    let mut catalog = spec.catalog.clone();
    let workload = parse_workload(&mut catalog, &spec.sources).expect("workload parses");
    let plan = optimize_sharon(&workload, &spec.rates, &OptimizerConfig::default()).plan;
    let parts = sharon::executor::compile(&catalog, &workload, &plan).expect("workload compiles");
    let shards = if spec.kind == Kind::Sharded {
        SHARDS
    } else {
        1
    };
    let mut router = sharon::executor::BatchRouter::new(parts, shards);
    for chunk in chunks {
        tr.next_batch();
        let routed = tr.span("executor.router:route", || router.route(chunk));
        drop(routed);
    }
    chunks.len()
}
