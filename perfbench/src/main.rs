//! End-to-end and per-layer benchmark of the Sharon engine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its workload's stream from the seed, computes the
//! reference result with the sequential non-shared (A-Seq) executor, and
//! then measures for about `--seconds` seconds:
//!
//! * **saturated** passes (closed loop), each set up from the query text,
//!   fed [`workload::BATCH`]-row batches back to back, and flushed —
//!   giving `events_per_s` and `peak_mem_mb`;
//! * **paced** passes (open loop), one after every two saturated ones:
//!   events fall due at the workload's fixed rate, each small batch
//!   ([`Spec::paced_batch`] rows, the boundaries shifted by a quarter
//!   batch from one paced pass to the next) is handed over once its last
//!   event is due, and results are drained after every handoff — giving
//!   result latency.
//!
//! Every pass's results are compared with the reference; a run with any
//! missing, extra, or differing cell exits with code 1. `--trace 1`
//! repeats the run with spans around every call into the engine (the
//! saturated passes alternate traced and untraced to measure the tracing
//! overhead) and reports per-layer metrics instead of end-to-end ones.
//! The last line of standard output is one JSON object; the line before
//! it is the run record (`record {...}`), the input of `compare.py`.

mod driver;
mod json;
mod latency;
mod oracle;
mod stats;
mod trace;
mod workload;

use driver::{run_pass, Mode, PassOut};
use json::Json;
use latency::{cell_latency_ms, LastInWindow};
use oracle::{diff, Cells};
use sharon::executor::ExecutorResults;
use sharon::prelude::*;
use stats::{median, percentile, tail};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::{self_times, Tracer};
use workload::{Kind, Spec, BATCH};

#[global_allocator]
static ALLOC: sharon_metrics::TrackingAllocator = sharon_metrics::TrackingAllocator;

/// Fewest saturated passes per run.
const MIN_SATURATED: usize = 4;
/// Fewest paced passes per run: one per handoff phase.
const MIN_PACED: usize = workload::PACED_PHASES;
/// Where runs keep spans, checkpoints, and other scratch files.
const OUT_DIR: &str = "perfbench/out";

/// Layers, named after the engine's modules, that spans are attributed to.
const LAYERS: [&str; 12] = [
    "query",
    "optimizer",
    "executor.compile",
    "executor.engine",
    "executor.scan",
    "executor.router",
    "executor.sharded",
    "executor.event_time",
    "executor.checkpoint",
    "core.session",
    "metrics.alloc",
    "driver",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workload::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value for {flag}: {value}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse::<u64>().unwrap_or_else(|_| bad()),
            "--seconds" => args.seconds = value.parse::<f64>().unwrap_or_else(|_| bad()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad value for --trace: {value}")),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        usage("--workload is required");
    }
    args
}

/// The reference cells: the sequential non-shared executor over the
/// time-sorted stream, with the session's ownership intervals applied.
fn reference(spec: &Spec) -> Cells {
    let mut all = spec.queries.clone();
    for q in &spec.attach {
        all.push(q.clone());
    }
    let mut ex = Executor::non_shared(&spec.catalog, &all).expect("reference compiles");
    if spec.kind == Kind::Sharded {
        // the engine under test absorbs the disorder; the reference reads
        // the stream in timestamp order
        let mut order: Vec<usize> = (0..spec.stream.len()).collect();
        order.sort_by_key(|&i| spec.stream.time(i));
        let mut sorted = EventBatch::with_capacity(order.len(), 2);
        for i in order {
            sorted.push(spec.stream.ty(i), spec.stream.time(i), spec.stream.attrs(i));
        }
        ex.process_columnar(&sorted);
    } else {
        ex.process_columnar(&spec.stream);
    }
    let results = ex.finish();
    if spec.kind != Kind::Session {
        return Cells::of([&results], |_, _| true);
    }
    // handle h: attached after frontier F[h − base] (base handles from the
    // start), detached at frontier F[h] by the FIFO churn (if it ran)
    let times = spec.stream.times();
    let frontier: Vec<Timestamp> = (1..=spec.controls())
        .map(|k| {
            times[..k * spec.control_every]
                .iter()
                .copied()
                .max()
                .expect("non-empty prefix")
        })
        .collect();
    let base = spec.queries.len();
    Cells::of([&results], |q, w| {
        let h = q.0 as usize;
        let within = spec.window_of(q).within.millis();
        let after = (h >= base).then(|| frontier[h - base]);
        let detached = frontier.get(h).copied();
        after.is_none_or(|a| w > a) && detached.is_none_or(|d| w.millis() + within <= d.millis())
    })
}

/// Cut the stream into `rows`-row batches, the first one `first` rows
/// long (`0 < first ≤ rows`).
fn chunks(stream: &EventBatch, rows: usize, first: usize) -> Vec<Arc<EventBatch>> {
    let n = stream.len();
    let mut cuts: Vec<usize> = std::iter::once(0).chain((first..n).step_by(rows)).collect();
    cuts.push(n);
    cuts.windows(2)
        .map(|w| {
            let mut b = EventBatch::with_capacity(w[1] - w[0], 3);
            b.extend_from_range(stream, w[0], w[1]);
            Arc::new(b)
        })
        .collect()
}

/// Latency attribution tables, one per distinct window of the queries.
struct LatencyTables {
    tables: Vec<(WindowSpec, LastInWindow)>,
    /// Result key → index into `tables`.
    of_query: Vec<usize>,
}

impl LatencyTables {
    fn new(spec: &Spec) -> Self {
        let n = spec.queries.len() + spec.attach.len();
        let mut tables: Vec<(WindowSpec, LastInWindow)> = Vec::new();
        let mut of_query = Vec::with_capacity(n);
        for q in 0..n {
            let w = spec.window_of(QueryId(q as u32));
            let i = match tables.iter().position(|(s, _)| *s == w) {
                Some(i) => i,
                None => {
                    tables.push((w, LastInWindow::new(spec.stream.times(), w)));
                    tables.len() - 1
                }
            };
            of_query.push(i);
        }
        LatencyTables { tables, of_query }
    }

    /// Append one latency sample per drained cell.
    fn samples(&self, drains: &[(f64, ExecutorResults)], rate: f64, out: &mut Vec<f64>) {
        for (at, results) in drains {
            for (q, _, w, _) in results.iter() {
                let table = &self.tables[self.of_query[q.0 as usize]].1;
                if let Some(l) = cell_latency_ms(table, w, *at, rate) {
                    out.push(l);
                }
            }
        }
    }
}

/// What a run keeps of each pass once its results are checked: the
/// measurements without the drained results.
struct Pass {
    id: u32,
    mode: Mode,
    traced: bool,
    events_per_s: f64,
    cells: usize,
    out: PassOut,
}

/// `git describe --always --dirty` of a `.git` directory in the working
/// directory (never one further up), or "unknown".
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = parse_args();
    let began = Instant::now();
    let Some(spec) = workload::build(&args.workload, args.seed) else {
        usage(&format!("unknown workload {}", args.workload));
    };
    let scratch = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");
    let batches = chunks(&spec.stream, BATCH, BATCH);
    let n = spec.stream.len();

    // the reference and the attribution tables stay outside every timed
    // region
    let generated_s = began.elapsed().as_secs_f64();
    let want = reference(&spec);
    let tables = LatencyTables::new(&spec);
    eprintln!(
        "perfbench: {} events generated in {generated_s:.2} s; reference of {} cells in {:.2} s",
        n,
        want.len(),
        began.elapsed().as_secs_f64() - generated_s
    );

    let mut tr = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    let mut attempted: u64 = 0;
    let mut failed: u64 = 0;
    let mut latencies: Vec<f64> = Vec::new();
    let mut check = |out: &PassOut| {
        let got = Cells::of(out.drains.iter().map(|(_, r)| r), |_, _| true);
        let d = diff(&want, &got);
        attempted += want.len() as u64;
        failed += d.failed();
        if d.failed() > 0 {
            eprintln!(
                "perfbench: {} result cells wrong ({} missing, {} extra, {} differing of {})",
                d.failed(),
                d.missing,
                d.extra,
                d.differing,
                want.len()
            );
        }
        got.len()
    };
    // saturated and paced passes interleave, so both kinds sample the
    // host over the whole run; a traced run alternates untraced and traced
    // saturated passes to measure the tracing overhead
    let cycle: [(Mode, bool); 3] = [
        (Mode::Saturated, false),
        (Mode::Saturated, args.trace),
        (Mode::Paced, args.trace),
    ];
    // one untimed saturated pass first, so the allocator, page cache and
    // instruction caches are warm when measuring starts
    let warm = run_pass(&spec, Mode::Saturated, &batches, &scratch, &mut tr);
    check(&warm);
    drop(warm);
    let start = Instant::now();
    let (mut saturated, mut paced) = (0, 0);
    let mut id = 0u32;
    loop {
        let (mode, traced) = cycle[id as usize % cycle.len()];
        tr.set_on(traced);
        tr.set_pass(id);
        let mut out = match mode {
            Mode::Saturated => run_pass(&spec, mode, &batches, &scratch, &mut tr),
            Mode::Paced => {
                let first = spec.paced_first(paced);
                let handoffs = chunks(&spec.stream, spec.paced_batch, first);
                run_pass(&spec, mode, &handoffs, &scratch, &mut tr)
            }
        };
        let cells = check(&out);
        if mode == Mode::Paced {
            let before = latencies.len();
            tables.samples(&out.drains, spec.paced_rate, &mut latencies);
            let mut mine = latencies[before..].to_vec();
            eprintln!(
                "perfbench: pass {id} paced, first handoff {} rows: latency p50 {:.3} ms, lag max {:.3} ms",
                spec.paced_first(paced),
                median(&mut mine),
                out.lags_ms.iter().copied().fold(0.0, f64::max)
            );
            paced += 1;
        } else {
            saturated += 1;
        }
        eprintln!(
            "perfbench: pass {id} {mode:?}{}: {:.0} events/s, set-up {:.4} s, peak {:.1} MB",
            if traced { " traced" } else { "" },
            n as f64 / out.wall_s,
            median(&mut out.setup_s.clone()),
            out.peak_bytes as f64 / 1048576.0
        );
        let events_per_s = n as f64 / out.wall_s;
        out.drains = Vec::new();
        passes.push(Pass {
            id,
            mode,
            traced,
            events_per_s,
            cells,
            out,
        });
        id += 1;
        if saturated >= MIN_SATURATED
            && paced >= MIN_PACED
            && start.elapsed().as_secs_f64() >= args.seconds
        {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    // end-to-end figures, always from untraced passes
    let untraced_sat = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.mode == Mode::Saturated && !p.traced)
            .map(f)
            .collect()
    };
    let events_per_s = median(&mut untraced_sat(&|p| p.events_per_s));
    let peak_mem_mb = median(&mut untraced_sat(&|p| p.out.peak_bytes as f64 / 1048576.0));
    let setup_s = median(
        &mut passes
            .iter()
            .flat_map(|p| p.out.setup_s.iter().copied())
            .collect::<Vec<_>>(),
    );
    latencies.sort_by(f64::total_cmp);
    let latency_p50_ms = percentile(&latencies, 50.0);
    let (latency_tail_ms, tail_pct) = tail(&latencies).unwrap_or((f64::NAN, f64::NAN));
    let failed_frac = failed as f64 / attempted.max(1) as f64;

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.push(("events_per_s".into(), events_per_s, "events/s"));
        metrics.push(("latency_p50_ms".into(), latency_p50_ms, "ms"));
        metrics.push(("latency_p99_ms".into(), latency_tail_ms, "ms"));
        metrics.push(("peak_mem_mb".into(), peak_mem_mb, "MB"));
        metrics.push(("setup_s".into(), setup_s, "s"));
    } else {
        let route_pass = id;
        tr.set_pass(route_pass);
        driver::route_replay(&spec, &batches, &mut tr);
        if spec.kind == Kind::Session {
            // the session plans inside its own start; time the optimizer
            // on the base workload directly
            tr.set_pass(route_pass + 1);
            let mut catalog = spec.catalog.clone();
            let wl = parse_workload(&mut catalog, &spec.sources).expect("workload parses");
            let outcome = tr.span("optimizer:optimize_sharon", || {
                optimize_sharon(&wl, &spec.rates, &OptimizerConfig::default())
            });
            passes.last_mut().expect("a pass ran").out.opt_stats = Some(outcome.stats);
        }
        metrics = per_layer(&passes, &tr, route_pass);
        let spans_path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(&spans_path).expect("create the spans file"),
        );
        tr.write_jsonl(&mut f).expect("write spans");
        f.flush().expect("write spans");
        eprintln!(
            "perfbench: wrote {} spans to {}",
            tr.spans().len(),
            spans_path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // human-readable lines, then the run record, then the result line
    println!(
        "perfbench {} seed={} trace={} passes: {} saturated, {} paced in {:.1} s",
        spec.name,
        args.seed,
        u8::from(args.trace),
        saturated,
        paced,
        measured_s
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!(
        "  latency: {} samples, p50 {:.3} ms, p{:.3} {:.3} ms; results_failed_frac {} ({} of {} cells)",
        latencies.len(),
        latency_p50_ms,
        tail_pct,
        latency_tail_ms,
        failed_frac,
        failed,
        attempted
    );
    let metrics_json = Json::obj(metrics.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }));
    let record = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Int(i64::from(args.trace))),
        (
            "available_parallelism",
            Json::Int(
                std::thread::available_parallelism()
                    .map(|n| n.get() as i64)
                    .unwrap_or(0),
            ),
        ),
        ("git_rev", Json::str(git_rev())),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("paced_rate_per_s", Json::Num(spec.paced_rate)),
        (
            "params",
            Json::obj(spec.params.iter().map(|(k, v)| (*k, v.clone()))),
        ),
        (
            "passes",
            Json::obj([
                ("saturated", Json::Int(saturated as i64)),
                ("paced", Json::Int(paced as i64)),
            ]),
        ),
        ("latency_samples", Json::Int(latencies.len() as i64)),
        ("latency_tail_percentile", Json::Num(tail_pct)),
        ("results_failed_frac", Json::Num(failed_frac)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics_json.clone()),
    ]);
    println!("record {record}");
    let correct = failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(attempted as i64)),
            ("failed", Json::Int(failed as i64)),
            ("metrics", metrics_json),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Per-layer metrics of a traced run.
fn per_layer(passes: &[Pass], tr: &Tracer, route_pass: u32) -> Vec<(String, f64, &'static str)> {
    let spans = tr.spans();
    let traced_sat: Vec<u32> = passes
        .iter()
        .filter(|p| p.traced && p.mode == Mode::Saturated)
        .map(|p| p.id)
        .collect();
    let traced: Vec<u32> = passes.iter().filter(|p| p.traced).map(|p| p.id).collect();
    let paced: Vec<u32> = passes
        .iter()
        .filter(|p| p.mode == Mode::Paced)
        .map(|p| p.id)
        .collect();
    // durations (ms) of the spans named `name` in `ids`, in start order
    let durs = |name: &str, ids: &[u32]| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && ids.contains(&s.pass))
            .map(|s| s.ms())
            .collect()
    };
    // median over the passes `ids` of each pass's summed span time
    let per_pass = |name: &str, ids: &[u32]| -> f64 {
        let mut sums: Vec<f64> = ids
            .iter()
            .map(|id| durs(name, std::slice::from_ref(id)).iter().sum())
            .collect();
        zero_if_nan(median(&mut sums))
    };
    let med = |mut v: Vec<f64>| zero_if_nan(median(&mut v));
    let p99 = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        tail(&v).map_or(v.last().copied().unwrap_or(0.0), |(x, _)| x)
    };
    let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    let last_sat = passes
        .iter()
        .rev()
        .find(|p| p.traced && p.mode == Mode::Saturated)
        .expect("a traced saturated pass");
    let c = last_sat.out.counters;
    let stats = passes
        .iter()
        .rev()
        .find_map(|p| p.out.opt_stats.clone())
        .unwrap_or_default();
    let us = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<_>>();
    let untraced_sat = passes
        .iter()
        .filter(|p| !p.traced && p.mode == Mode::Saturated);
    let allocs = med(untraced_sat
        .clone()
        .map(|p| p.out.allocs_per_batch)
        .collect());
    let eps_untraced = med(untraced_sat.map(|p| p.events_per_s).collect());
    let eps_traced = med(passes
        .iter()
        .filter(|p| p.traced && p.mode == Mode::Saturated)
        .map(|p| p.events_per_s)
        .collect());
    let checkpoints: u64 = passes.iter().map(|p| p.out.checkpoints).sum();
    let checkpoint_bytes: u64 = passes.iter().map(|p| p.out.checkpoint_bytes).sum();
    let session_passes: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let lags: Vec<f64> = passes
        .iter()
        .filter(|p| p.mode == Mode::Paced)
        .flat_map(|p| p.out.lags_ms.iter().copied())
        .collect();
    let latency_cells: usize = passes
        .iter()
        .filter(|p| p.mode == Mode::Paced)
        .map(|p| p.cells)
        .sum();
    let last_paced_cells = passes
        .iter()
        .rev()
        .find(|p| p.mode == Mode::Paced)
        .map_or(0, |p| p.cells);

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    put(
        "query.parse_ms",
        med(durs("query:parse_workload", &traced)),
        "ms",
    );
    put(
        "optimizer.optimize_ms",
        med(durs(
            "optimizer:optimize_sharon",
            &all_ids(passes, route_pass),
        )),
        "ms",
    );
    put(
        "optimizer.plans_considered",
        stats.plans_considered as f64,
        "count",
    );
    put(
        "optimizer.graph_vertices",
        stats.graph_vertices as f64,
        "count",
    );
    put("optimizer.graph_edges", stats.graph_edges as f64, "count");
    put(
        "optimizer.timed_out",
        f64::from(u8::from(stats.timed_out)),
        "count",
    );
    put(
        "compile.build_ms",
        med(durs("executor.compile:new", &traced)),
        "ms",
    );
    put(
        "engine.process_ms",
        per_pass("executor.engine:process_columnar", &traced_sat),
        "ms",
    );
    let batch_us = us(durs("executor.engine:process_columnar", &traced_sat));
    put("engine.batch_p50_us", med(batch_us.clone()), "us");
    put("engine.batch_p99_us", p99(batch_us), "us");
    put("engine.events_matched", c.events_matched as f64, "count");
    put("engine.cell_count", c.cell_count as f64, "count");
    put(
        "engine.finish_ms",
        med(durs("executor.engine:finish", &traced_sat)),
        "ms",
    );
    put("scan.rows_scanned", c.rows_scanned as f64, "count");
    put("scan.rows_selected", c.rows_selected as f64, "count");
    put(
        "scan.selectivity",
        if c.rows_scanned == 0 {
            0.0
        } else {
            c.rows_selected as f64 / c.rows_scanned as f64
        },
        "ratio",
    );
    put(
        "router.route_ms",
        durs("executor.router:route", &[route_pass]).iter().sum(),
        "ms",
    );
    put("router.batches_routed", c.batches_routed as f64, "count");
    put("router.stall_waits", c.stall_waits as f64, "count");
    put("router.scope_scans", c.scope_scans as f64, "count");
    put("router.split_groups", c.split_groups as f64, "count");
    put(
        "sharded.ingest_ms",
        per_pass("executor.sharded:process_shared", &traced_sat),
        "ms",
    );
    put(
        "sharded.ingest_p99_us",
        p99(us(durs("executor.sharded:process_shared", &traced_sat))),
        "us",
    );
    let harvests = durs("executor.sharded:harvest_results", &paced);
    put("sharded.harvest_p50_ms", med(harvests.clone()), "ms");
    put("sharded.harvest_p99_ms", p99(harvests), "ms");
    put(
        "sharded.finish_ms",
        med(durs("executor.sharded:finish", &traced_sat)),
        "ms",
    );
    put(
        "event_time.late_rows_dropped",
        passes
            .iter()
            .map(|p| p.out.counters.late_rows_dropped as f64)
            .sum(),
        "count",
    );
    put("checkpoint.count", last_sat.out.checkpoints as f64, "count");
    let snaps = durs("executor.checkpoint:checkpoint_now", &traced);
    put("checkpoint.snapshot_p50_ms", med(snaps.clone()), "ms");
    put("checkpoint.snapshot_max_ms", max(snaps), "ms");
    put(
        "checkpoint.bytes",
        if checkpoints == 0 {
            0.0
        } else {
            checkpoint_bytes as f64 / checkpoints as f64
        },
        "bytes",
    );
    put(
        "session.start_ms",
        med(durs("core.session:start", &traced)),
        "ms",
    );
    let attaches = us(durs("core.session:attach", &traced));
    put("session.attach_p50_us", med(attaches.clone()), "us");
    put("session.attach_max_us", max(attaches), "us");
    put(
        "session.detach_max_us",
        max(us(durs("core.session:detach", &traced))),
        "us",
    );
    let drains = durs("core.session:drain_results", &traced);
    put("session.drain_p50_ms", med(drains.clone()), "ms");
    put("session.drain_p99_ms", p99(drains), "ms");
    put(
        "session.reoptimizations",
        med(session_passes
            .iter()
            .map(|p| p.out.counters.reoptimizations as f64)
            .collect()),
        "count",
    );
    put(
        "session.plan_swaps",
        med(session_passes
            .iter()
            .map(|p| p.out.counters.plan_swaps as f64)
            .collect()),
        "count",
    );
    put(
        "session.swap_stall_max_ms",
        max(session_passes
            .iter()
            .flat_map(|p| p.out.swap_stalls_ms.iter().copied())
            .collect()),
        "ms",
    );
    put(
        "session.sidecars_max",
        session_passes
            .iter()
            .map(|p| p.out.counters.sidecars_max as f64)
            .fold(0.0, f64::max),
        "count",
    );
    put("alloc.calls_per_batch", allocs, "allocs/batch");
    put("driver.lag_p99_ms", p99(lags), "ms");
    put("driver.latency_samples", latency_cells as f64, "count");
    put("driver.results_total", last_paced_cells as f64, "count");

    // self time per layer, per traced pass (the router probe excluded)
    let in_passes: Vec<_> = spans
        .iter()
        .filter(|s| traced.contains(&s.pass))
        .cloned()
        .collect();
    let selfs = self_times(&in_passes);
    for layer in LAYERS {
        let ns = selfs.get(layer).copied().unwrap_or(0);
        put(
            &format!("self_ms.{layer}"),
            ns as f64 / 1e6 / traced.len().max(1) as f64,
            "ms",
        );
    }
    put(
        "trace.overhead_frac",
        if eps_untraced > 0.0 {
            1.0 - eps_traced / eps_untraced
        } else {
            0.0
        },
        "ratio",
    );
    put("trace.spans", spans.len() as f64, "count");
    m
}

/// Every pass id of the run plus the probes after it.
fn all_ids(passes: &[Pass], route_pass: u32) -> Vec<u32> {
    passes
        .iter()
        .map(|p| p.id)
        .chain([route_pass, route_pass + 1])
        .collect()
}

/// `x`, with NaN (an empty sample) and −0 read as 0.
fn zero_if_nan(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x + 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_start_with_a_short_handoff_then_cut_every_batch() {
        let mut stream = EventBatch::with_capacity(10, 0);
        for t in 0..10 {
            stream.push(EventTypeId(0), Timestamp(t), &[]);
        }
        let lens = |first| {
            chunks(&stream, 4, first)
                .iter()
                .map(|b| b.len())
                .collect::<Vec<_>>()
        };
        assert_eq!(lens(4), [4, 4, 2]);
        assert_eq!(lens(1), [1, 4, 4, 1]);
        let cut = chunks(&stream, 4, 3);
        assert_eq!(cut[1].time(0), Timestamp(3));
    }
}
