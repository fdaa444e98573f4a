//! The benchmark's named workloads: a seeded stream, the query texts the
//! engine parses at set-up, and the load-model parameters.
//!
//! The seed draws the stream sample (car entry points, speeds, vehicle
//! draws, disorder); each workload's query set is fixed, so runs with
//! different seeds measure the same workload.

use crate::json::Json;
use sharon::executor::DEFAULT_BATCH_SIZE;
use sharon::prelude::*;
use sharon::streams::disorder::required_lateness;
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::streams::workload::{measured_rates_batch, overlapping_workload, WorkloadConfig};

/// Rows per saturated-phase handoff.
pub const BATCH: usize = DEFAULT_BATCH_SIZE;

/// Which engine surface a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The sequential `Executor` under the SHARON plan.
    Seq,
    /// The pipelined `ShardedExecutor` (2 shards, 1 router) in event-time
    /// mode, with harvests and checkpoints.
    Sharded,
    /// A `SharonSession` on 1 shard under attach/detach churn.
    Session,
}

/// One named workload, generated from a seed.
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Paced-phase release rate, events per second of wall time.
    pub paced_rate: f64,
    /// Rows per paced-phase handoff: small, so a paced latency is mostly
    /// the engine's and little the wait for a batch to fill.
    pub paced_batch: usize,
    /// Events between control actions — checkpoints for `Sharded`,
    /// attach + detach for `Session`; 0 for none. A multiple of [`BATCH`]
    /// and of `paced_batch`; a control action runs after the first handoff
    /// that reaches its offset, so the session, whose paced handoffs never
    /// shift, churns at the same offsets in both modes.
    pub control_every: usize,
    /// Catalog with every event type of the stream registered.
    pub catalog: Catalog,
    /// The stream, in arrival order.
    pub stream: EventBatch,
    /// Base query texts, parsed at every set-up.
    pub sources: Vec<String>,
    /// The base queries parsed once, for the oracle and the latency
    /// attribution (never handed to the engine under test).
    pub queries: Workload,
    /// Queries attached at the control points, in order (`Session`).
    pub attach: Vec<Query>,
    /// Measured per-type rates, the optimizer's input.
    pub rates: RateMap,
    /// Allowed lateness covering the stream's disorder (`Sharded`).
    pub lateness: Option<u64>,
    /// Workload parameters for the run record.
    pub params: Vec<(&'static str, Json)>,
}

/// Names of every workload, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["lr-120q-seq", "taxi-skew-2shard", "lr-churn-session"];

/// Linear Road stream length in simulated seconds.
const LR_SECS: u64 = 180;
/// Linear Road `WITHIN 30 s SLIDE 6 s`.
const LR_WITHIN_S: u64 = 30;
const LR_SLIDE_S: u64 = 6;
/// Taxi stream size and shape.
const TAXI_EVENTS: usize = 500_000;
const TAXI_VEHICLES: usize = 10_000;
const TAXI_THETA: f64 = 0.8;
const TAXI_DISORDER: u32 = 64;
/// Handoff phases the paced passes rotate through.
pub const PACED_PHASES: usize = 4;
/// Fixed query-generator seed: the query set is part of the workload.
const QUERY_SEED: u64 = 42;

/// Build workload `name` from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Spec> {
    match name {
        "lr-120q-seq" => Some(linear_road_workload("lr-120q-seq", Kind::Seq, seed, 120)),
        "taxi-skew-2shard" => Some(taxi_workload(seed)),
        "lr-churn-session" => Some(linear_road_workload(
            "lr-churn-session",
            Kind::Session,
            seed,
            40,
        )),
        _ => None,
    }
}

fn lr_window() -> WindowSpec {
    WindowSpec::new(
        TimeDelta::from_secs(LR_WITHIN_S),
        TimeDelta::from_secs(LR_SLIDE_S),
    )
}

fn linear_road_workload(name: &'static str, kind: Kind, seed: u64, n_queries: usize) -> Spec {
    let mut catalog = Catalog::new();
    let config = LinearRoadConfig {
        n_segments: 12,
        duration_secs: LR_SECS,
        seed,
        ..LinearRoadConfig::default()
    };
    let stream = linear_road::generate_batch(&mut catalog, &config);
    let alphabet: Vec<String> = (0..config.n_segments).map(|i| format!("Seg{i}")).collect();
    let generated = overlapping_workload(
        &mut catalog,
        &WorkloadConfig {
            n_queries,
            pattern_len: 6,
            alphabet,
            window: lr_window(),
            group_by: Some("car".into()),
            seed: QUERY_SEED,
        },
    );
    let sources: Vec<String> = generated
        .queries()
        .iter()
        .map(|q| q.display(&catalog).to_string())
        .collect();

    let (control_every, attach_sources) = match kind {
        Kind::Session => {
            // one attach + one detach every 2 batches. Every attached query
            // pairs a pattern with a window no base query has; the pairs
            // repeat only after 60 attaches, so each attach brings a new
            // signature and compiles a sidecar instead of aliasing
            let every = 2 * BATCH;
            let n_controls = stream.len().saturating_sub(1) / every;
            let sources = (0..n_controls)
                .map(|k| {
                    let segs: Vec<String> = (0..6)
                        .map(|i| format!("Seg{}", (5 * k + 3 + i) % config.n_segments))
                        .collect();
                    format!(
                        "RETURN COUNT(*) PATTERN SEQ({}) GROUP BY car WITHIN {} s SLIDE {} s",
                        segs.join(", "),
                        LR_WITHIN_S + LR_SLIDE_S * (k as u64 % 5 + 1),
                        LR_SLIDE_S
                    )
                })
                .collect();
            (every, sources)
        }
        _ => (0, Vec::new()),
    };
    let mut params = vec![
        ("stream", Json::str("linear-road")),
        ("segments", Json::Int(config.n_segments as i64)),
        ("duration_s", Json::Int(LR_SECS as i64)),
        ("cars_per_s", Json::Num(config.cars_per_sec)),
        ("trip_segments", Json::Int(config.trip_segments as i64)),
        ("queries", Json::Int(n_queries as i64)),
        ("pattern_len", Json::Int(6)),
        (
            "window",
            Json::str(format!("WITHIN {LR_WITHIN_S} s SLIDE {LR_SLIDE_S} s")),
        ),
        ("group_by", Json::str("car")),
        ("query_seed", Json::Int(QUERY_SEED as i64)),
    ];
    let shards = if kind == Kind::Session { 1 } else { 0 };
    params.push(("shards", Json::Int(shards)));
    if kind == Kind::Session {
        params.push(("attach_every_events", Json::Int(control_every as i64)));
        params.push(("attaches", Json::Int(attach_sources.len() as i64)));
        params.push(("session_config", Json::str("default")));
    }
    finish(
        name,
        kind,
        catalog,
        stream,
        sources,
        attach_sources,
        control_every,
        None,
        params,
    )
}

fn taxi_workload(seed: u64) -> Spec {
    let mut catalog = Catalog::new();
    let config = TaxiConfig {
        seed,
        ..TaxiConfig::high_cardinality(TAXI_EVENTS, TAXI_VEHICLES)
            .with_skew(TAXI_THETA)
            .with_disorder(TAXI_DISORDER)
    };
    let stream = taxi::generate_batch(&mut catalog, &config);
    let lateness = required_lateness(&stream);
    // speed is uniform on [5, 70): `speed < v` passes (v − 5) / 65 of the
    // rows. Every query filters a different type at a different threshold,
    // so no two share a signature and the optimizer has nothing to share.
    let sources: Vec<String> = [
        ("OakSt, MainSt, StateSt", "OakSt", 31.0),    // 40 %
        ("MainSt, StateSt, ParkAve", "MainSt", 44.0), // 60 %
        ("StateSt, ParkAve", "ParkAve", 57.0),        // 80 %
        ("ParkAve, WestSt, ElmSt", "WestSt", 37.5),   // 50 %
        ("ElmSt, BroadSt", "ElmSt", 50.5),            // 70 %
    ]
    .iter()
    .map(|(seq, ty, v)| {
        format!(
            "RETURN COUNT(*) PATTERN SEQ({seq}) WHERE {ty}.speed < {v:.1} AND [vehicle] \
             WITHIN 10 s SLIDE 2 s"
        )
    })
    .collect();
    let every = 32 * BATCH;
    let params = vec![
        ("stream", Json::str("taxi")),
        ("events", Json::Int(TAXI_EVENTS as i64)),
        ("vehicles", Json::Int(TAXI_VEHICLES as i64)),
        ("zipf_theta", Json::Num(TAXI_THETA)),
        ("disorder", Json::Int(TAXI_DISORDER as i64)),
        ("lateness_ms", Json::Int(lateness as i64)),
        ("queries", Json::Int(sources.len() as i64)),
        ("shards", Json::Int(2)),
        ("routers", Json::Int(1)),
        ("checkpoint_every_events", Json::Int(every as i64)),
    ];
    finish(
        "taxi-skew-2shard",
        Kind::Sharded,
        catalog,
        stream,
        sources,
        Vec::new(),
        every,
        Some(lateness),
        params,
    )
}

/// Paced release rate per workload and rows per paced handoff. Each rate
/// keeps the engine, with its per-handoff drain, busy at most about half
/// of the time on a 2-CPU x86-64 host, also when the host runs a third
/// slower: near saturation a slow-down queues handoffs behind each other,
/// and latency then swings far more than the host's speed. `lr-120q-seq`
/// hands over 512 rows, which fall due in 17 ms. The other two keep
/// 4096-row handoffs (27 and 82 ms of due times): each of their
/// handoffs is followed by a harvest across the shards or a session drain
/// that costs milliseconds whatever its size. The taxi rate is about a
/// quarter of its saturated rate because that harvest, absent from the
/// saturated passes, costs as much as processing the handoff.
fn paced_load(name: &str) -> (f64, usize) {
    match name {
        "lr-120q-seq" => (30_000.0, 512),
        "taxi-skew-2shard" => (150_000.0, BATCH),
        _ => (50_000.0, BATCH),
    }
}

#[allow(clippy::too_many_arguments)]
fn finish(
    name: &'static str,
    kind: Kind,
    mut catalog: Catalog,
    stream: EventBatch,
    sources: Vec<String>,
    attach_sources: Vec<String>,
    control_every: usize,
    lateness: Option<u64>,
    mut params: Vec<(&'static str, Json)>,
) -> Spec {
    let queries = parse_workload(&mut catalog, &sources).expect("base queries parse");
    let attach = attach_sources
        .iter()
        .map(|s| parse_query(&mut catalog, s).expect("attach query parses"))
        .collect();
    let (counts, span) = measured_rates_batch(&stream);
    let rates = RateMap::from_counts(&counts, span);
    let (paced_rate, paced_batch) = paced_load(name);
    assert!(control_every.is_multiple_of(paced_batch) && BATCH.is_multiple_of(paced_batch));
    params.push(("stream_events", Json::Int(stream.len() as i64)));
    params.push(("batch_rows", Json::Int(BATCH as i64)));
    params.push(("paced_batch_rows", Json::Int(paced_batch as i64)));
    params.push(("paced_rate_per_s", Json::Num(paced_rate)));
    Spec {
        name,
        kind,
        paced_rate,
        paced_batch,
        control_every,
        catalog,
        stream,
        sources,
        queries,
        attach,
        rates,
        lateness,
        params,
    }
}

impl Spec {
    /// Window of the query behind result key `q`: the base queries first,
    /// then the attached ones in attach order (the session's handle
    /// numbering).
    pub fn window_of(&self, q: QueryId) -> WindowSpec {
        let i = q.0 as usize;
        let n = self.queries.len();
        if i < n {
            self.queries.queries()[i].window
        } else {
            self.attach[i - n].window
        }
    }

    /// Length of the first handoff of paced pass `k`. Successive paced
    /// passes shift the handoff boundaries by a quarter batch, so the
    /// wait for a window's last event to be handed over is sampled at
    /// several phases instead of the one the seed happens to give. The
    /// session keeps fixed boundaries: it re-plans and churns at them.
    pub fn paced_first(&self, k: usize) -> usize {
        if self.kind == Kind::Session {
            return self.paced_batch;
        }
        let phase = k % PACED_PHASES;
        self.paced_batch * (PACED_PHASES - phase) / PACED_PHASES
    }

    /// Number of control points in one pass.
    pub fn controls(&self) -> usize {
        // control points lie strictly inside the stream
        (self.stream.len().saturating_sub(1))
            .checked_div(self.control_every)
            .unwrap_or(0)
    }
}
