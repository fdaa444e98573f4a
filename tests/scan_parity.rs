//! Scan parity: the compiled [`ScanKernel`] bitmap path every executor
//! runs must select exactly the rows the per-row interpreter selects —
//! not "equivalent" rows, the *same* rows, row for row. The interpreter
//! lives on here, and only here, as the oracle.
//!
//! Three layers of evidence:
//!
//! 1. **Property test against a scalar oracle** — random ragged batches
//!    mixing NaN / ±inf / −0.0 / huge exact integers / strings / missing
//!    attributes, random predicate tables (all six operators × numeric and
//!    string literals), random `GROUP BY` widths, evaluated over random
//!    sub-ranges (partial trailing words included). The kernel's selection
//!    must equal the interpreter's exactly.
//! 2. **Row-for-row parity on the paper streams** — every compiled
//!    partition of predicate-bearing TX / LR / EC workloads, kernel vs
//!    interpreter, over ragged chunkings of the generated stream.
//! 3. **End-to-end equivalence** — on all three streams, sequential,
//!    sharded, Flink-like, and SPASS-like executors over ragged chunkings
//!    agree (`semantically_eq`) with an A-Seq reference run over the
//!    whole stream as one batch; the
//!    sequential executor's per-partition `(rows_scanned, rows_selected)`
//!    tallies equal the interpreter's counts over the compiled
//!    partitions, and the sharded runtime reports the same tallies.

use proptest::prelude::{prop, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as _;
use sharon::prelude::*;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::twostep::{FlinkLike, SpassLike};
use sharon_executor::{compile, CompiledPartition, ScanKernel};
use sharon_query::{clause_passes, CmpOp};
use sharon_types::AttrId;

/// The per-row interpreter, spelled out: routing, then every predicate
/// clause through [`clause_passes`], then groupability.
fn scalar_select(
    routed: &[bool],
    group_attrs: &[Box<[AttrId]>],
    predicates: &[Vec<(AttrId, CmpOp, Value)>],
    batch: &EventBatch,
    lo: usize,
    hi: usize,
) -> Vec<u32> {
    let mut sel = Vec::new();
    for row in lo..hi {
        let ty = batch.ty(row);
        if !routed.get(ty.index()).copied().unwrap_or(false) {
            continue;
        }
        let attrs = batch.attrs(row);
        let preds_ok = predicates.get(ty.index()).is_none_or(|preds| {
            preds
                .iter()
                .all(|(a, op, lit)| clause_passes(*op, attrs.get(a.index()), lit))
        });
        let grp_ok = group_attrs
            .get(ty.index())
            .is_none_or(|gattrs| gattrs.iter().all(|a| attrs.get(a.index()).is_some()));
        if preds_ok && grp_ok {
            sel.push(row as u32);
        }
    }
    sel
}

/// Attribute values spanning every comparison edge case: NaN (fails all
/// ops but `!=`), ±inf, −0.0 (== 0.0), integers past 2^53 (exact in the
/// i64 lane, conflated in f64), small overlapping numerics, and strings
/// (incomparable with numeric literals).
fn values() -> impl proptest::strategy::Strategy<Value = Value> {
    prop_oneof![
        (-3i64..=3).prop_map(Value::Int),
        Just(Value::Int(1i64 << 53)),
        Just(Value::Int((1i64 << 53) + 1)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(f64::NEG_INFINITY)),
        Just(Value::Float(-0.0)),
        (-4.0f64..4.0).prop_map(Value::Float),
        Just(Value::str("MainSt")),
        Just(Value::str("x")),
        Just(Value::str("")),
    ]
}

fn ops() -> impl proptest::strategy::Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random scope tables × random ragged batches: the kernel's selection
    /// equals the scalar oracle's, row for row, over random sub-ranges.
    #[test]
    fn kernel_matches_scalar_oracle(
        routed in prop::collection::vec(proptest::strategy::any::<bool>(), 3..=3),
        group_raw in prop::collection::vec(prop::collection::vec(0usize..3, 0..=2), 0..=3),
        preds_raw in prop::collection::vec(
            prop::collection::vec((0usize..3, ops(), values()), 0..=3),
            3..=3,
        ),
        rows in prop::collection::vec(
            (0u32..4, prop::collection::vec(values(), 0..=3)),
            0..=200,
        ),
        cuts in prop::collection::vec(0usize..=200, 0..=4),
    ) {
        let group_attrs: Vec<Box<[AttrId]>> = group_raw
            .into_iter()
            .map(|g| g.into_iter().map(|a| AttrId(a as u16)).collect())
            .collect();
        let predicates: Vec<Vec<(AttrId, CmpOp, Value)>> = preds_raw
            .into_iter()
            .map(|ps| {
                ps.into_iter()
                    .map(|(a, op, lit)| (AttrId(a as u16), op, lit))
                    .collect()
            })
            .collect();
        let mut batch = EventBatch::new();
        for (i, (ty, attrs)) in rows.iter().enumerate() {
            // type 3 exists in the batch but never in the 3-entry tables:
            // the unrouted-type lane of every pass
            batch.push_from(EventTypeId(*ty), Timestamp(i as u64), attrs.iter().cloned());
        }

        let mut kernel = ScanKernel::new(routed.clone(), &group_attrs, &predicates);
        let n = batch.len();
        let mut ranges = vec![(0usize, n)];
        for c in cuts {
            let mid = c.min(n);
            ranges.push((mid, n));
            ranges.push((0, mid));
        }
        for (lo, hi) in ranges {
            let want = scalar_select(&routed, &group_attrs, &predicates, &batch, lo, hi);
            let mut got = Vec::new();
            kernel.select_into(&batch, lo, hi, &mut got);
            proptest::prop_assert_eq!(
                &got,
                &want,
                "kernel and interpreter disagree on rows {}..{} of {}",
                lo,
                hi,
                n
            );
        }
    }
}

/// Ragged `(lo, hi)` chunkings of an `n`-row batch: whole, empty, odd
/// primes (partial 64-row words), and a singleton tail.
fn ragged_ranges(n: usize) -> Vec<(usize, usize)> {
    let mut out = vec![(0, n), (0, 0)];
    let mut lo = 0;
    for step in [61usize, 64, 67, 1, 128, 3] {
        let hi = (lo + step).min(n);
        out.push((lo, hi));
        lo = hi;
    }
    out.push((n.saturating_sub(1), n));
    out
}

/// The routing-type bitmap of a compiled partition.
fn routed_types(part: &CompiledPartition) -> Vec<bool> {
    part.routes.iter().map(Option::is_some).collect()
}

/// Kernel vs interpreter, row for row, on every compiled partition of a
/// real stream's workload.
fn assert_stream_kernel_parity(
    catalog: &Catalog,
    workload: &Workload,
    batch: &EventBatch,
    label: &str,
) {
    let parts = compile(catalog, workload, &SharingPlan::non_shared()).expect("workload compiles");
    let mut selected_any = false;
    for (pi, part) in parts.iter().enumerate() {
        let mut kernel = part.scan_kernel();
        let routed = routed_types(part);
        for (lo, hi) in ragged_ranges(batch.len()) {
            let want = scalar_select(&routed, &part.group_attrs, &part.predicates, batch, lo, hi);
            let mut got = Vec::new();
            kernel.select_into(batch, lo, hi, &mut got);
            assert_eq!(
                got, want,
                "{label}: partition {pi} selection diverges on rows {lo}..{hi}"
            );
            selected_any |= !want.is_empty();
        }
    }
    assert!(
        selected_any,
        "{label}: the stream must exercise the kernels"
    );
}

#[test]
fn taxi_stream_kernel_row_parity() {
    let mut catalog = Catalog::new();
    let batch = EventBatch::from_events(&taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 3000,
            n_streets: 5,
            n_vehicles: 40,
            ..Default::default()
        },
    ));
    // numeric predicates plus a string literal against the Float speed
    // column: present-but-incomparable rows satisfy only `!=`
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt) WHERE OakSt.speed > 40.0 AND [vehicle] \
             WITHIN 10 min SLIDE 1 min",
            "RETURN SUM(MainSt.speed) PATTERN SEQ(MainSt, StateSt) WHERE MainSt.speed >= 20.0 \
             AND StateSt.speed < 65.0 AND [vehicle] WITHIN 10 min SLIDE 1 min",
            "RETURN COUNT(*) PATTERN SEQ(ParkAve, WestSt) WHERE ParkAve.speed != 'fast' AND \
             [vehicle] WITHIN 10 min SLIDE 1 min",
        ],
    )
    .expect("taxi predicate workload parses");
    assert_stream_kernel_parity(&catalog, &workload, &batch, "taxi");
}

#[test]
fn linear_road_stream_kernel_row_parity() {
    let mut catalog = Catalog::new();
    let batch = EventBatch::from_events(&linear_road::generate(
        &mut catalog,
        &LinearRoadConfig {
            duration_secs: 30,
            cars_per_sec: 3.0,
            n_segments: 6,
            trip_segments: 40,
            ..Default::default()
        },
    ));
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(Seg0, Seg1, Seg2) WHERE Seg0.speed >= 60.0 AND \
             Seg1.speed >= 60.0 AND [car] WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(Seg3, Seg4) WHERE Seg3.pos > 1000.0 AND [car] \
             WITHIN 10 s SLIDE 2 s",
        ],
    )
    .expect("linear-road predicate workload parses");
    assert_stream_kernel_parity(&catalog, &workload, &batch, "linear-road");
}

#[test]
fn ecommerce_stream_kernel_row_parity() {
    let mut catalog = Catalog::new();
    let batch = EventBatch::from_events(&ecommerce::generate(
        &mut catalog,
        &EcommerceConfig {
            n_items: 6,
            n_customers: 8,
            events_per_sec: 300,
            n_events: 2500,
            ..Default::default()
        },
    ));
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, Adapter) WHERE Laptop.price > 250.0 AND \
             [customer] WITHIN 20 min SLIDE 1 min",
            "RETURN SUM(Case.price) PATTERN SEQ(Case, iPhone) WHERE Case.price <= 400.0 AND \
             iPhone.price >= 2.0 AND [customer] WITHIN 20 min SLIDE 1 min",
        ],
    )
    .expect("ecommerce predicate workload parses");
    assert_stream_kernel_parity(&catalog, &workload, &batch, "ecommerce");
}

/// Run every executor over ragged chunkings of `events` and check it
/// end to end: sequential, sharded (route-once columnar), Flink-like, and
/// SPASS-like results equal the whole-stream A-Seq reference; the sequential
/// executor's per-partition scan tallies equal the interpreter's counts
/// over the compiled partitions; the sharded runtime's tallies equal the
/// sequential executor's.
fn assert_scan_end_to_end(
    catalog: &Catalog,
    workload: &Workload,
    plan: &SharingPlan,
    events: &[Event],
    label: &str,
) {
    // ragged chunking, empty chunk included: partial trailing bitmap words
    let mut batches = Vec::new();
    let mut rest = events;
    for len in [497usize, 0, 64, 1023, 131, 1] {
        let take = len.min(rest.len());
        let (head, tail) = rest.split_at(take);
        batches.push(EventBatch::from_events(head));
        rest = tail;
    }
    batches.push(EventBatch::from_events(rest));

    // the reference sees the whole stream as one batch
    let mut reference = Executor::non_shared(catalog, workload).expect("reference compiles");
    reference.process_columnar(&EventBatch::from_events(events));
    let want = reference.finish();
    assert!(!want.is_empty(), "{label}: the stream must produce results");
    let check = |name: &str, got: &ExecutorResults| {
        assert!(
            got.semantically_eq(&want, 1e-9),
            "{label}/{name}: results diverge from the A-Seq reference ({} vs {})",
            got.len(),
            want.len(),
        );
    };

    let mut sequential = Executor::new(catalog, workload, plan).expect("sequential compiles");
    for b in &batches {
        sequential.process_columnar(b);
    }
    let seq_stats = sequential.scan_stats();
    check("sequential", &sequential.finish());

    // the oracle's tallies over the same compiled partitions
    let parts = compile(catalog, workload, plan).expect("workload compiles");
    let oracle: Vec<(u64, u64)> = parts
        .iter()
        .map(|part| {
            let routed = routed_types(part);
            batches.iter().fold((0, 0), |(scanned, selected), b| {
                let sel =
                    scalar_select(&routed, &part.group_attrs, &part.predicates, b, 0, b.len());
                (scanned + b.len() as u64, selected + sel.len() as u64)
            })
        })
        .collect();
    assert_eq!(
        seq_stats, oracle,
        "{label}/sequential: kernel tallies diverge from the interpreter"
    );
    let selected: u64 = oracle.iter().map(|&(_, sel)| sel).sum();
    assert!(selected > 0, "{label}: the scan must select rows");

    // a small flush threshold forces mid-stream route-once fan-outs;
    // `split_snapshot` flushes the buffer and waits in-band for every
    // router, so the tallies cover the whole stream when read
    let mut sharded = ShardedExecutor::with_options(
        catalog,
        workload,
        plan,
        3,
        sharon_executor::ShardedOptions {
            batch_size: 512,
            ..Default::default()
        },
    )
    .expect("sharded compiles");
    for b in &batches {
        sharded.process_columnar(b);
    }
    let _ = sharded.split_snapshot();
    assert_eq!(
        sharded.scan_stats(),
        seq_stats,
        "{label}/sharded: scan tallies diverge from the sequential executor"
    );
    check("sharded", &sharded.finish());

    let mut flink = FlinkLike::new(catalog, workload).expect("flink-like compiles");
    for b in &batches {
        flink.process_columnar(b);
    }
    let selected: u64 = flink.scan_stats().iter().map(|&(_, sel)| sel).sum();
    assert!(
        selected > 0,
        "{label}/flink-like: the scan must select rows"
    );
    check("flink-like", &flink.finish());

    let mut spass =
        SpassLike::new(catalog, workload, &SharingPlan::non_shared()).expect("spass-like compiles");
    for b in &batches {
        spass.process_columnar(b);
    }
    let selected: u64 = spass.scan_stats().iter().map(|&(_, sel)| sel).sum();
    assert!(
        selected > 0,
        "{label}/spass-like: the scan must select rows"
    );
    check("spass-like", &spass.finish());
}

#[test]
fn taxi_scan_matches_oracle_end_to_end() {
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 4000,
            n_streets: 5,
            n_vehicles: 30,
            ..Default::default()
        },
    );
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE OakSt.speed > 30.0 AND \
             [vehicle] WITHIN 10 min SLIDE 1 min",
            "RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt) WHERE MainSt.speed >= 10.0 AND \
             [vehicle] WITHIN 10 min SLIDE 1 min",
            "RETURN SUM(ParkAve.speed) PATTERN SEQ(ParkAve, OakSt) WHERE ParkAve.speed < 66.0 \
             AND [vehicle] WITHIN 10 min SLIDE 1 min",
        ],
    )
    .expect("taxi workload parses");
    assert_scan_end_to_end(
        &catalog,
        &workload,
        &SharingPlan::non_shared(),
        &events,
        "taxi",
    );
}

#[test]
fn linear_road_scan_matches_oracle_end_to_end() {
    let mut catalog = Catalog::new();
    let events = linear_road::generate(
        &mut catalog,
        &LinearRoadConfig {
            duration_secs: 40,
            cars_per_sec: 3.0,
            n_segments: 8,
            trip_segments: 50,
            ..Default::default()
        },
    );
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(Seg0, Seg1) WHERE Seg0.speed >= 40.0 AND [car] \
             WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(Seg1, Seg2, Seg3) WHERE Seg1.speed >= 40.0 AND \
             Seg2.speed >= 40.0 AND [car] WITHIN 10 s SLIDE 2 s",
        ],
    )
    .expect("linear-road workload parses");
    assert_scan_end_to_end(
        &catalog,
        &workload,
        &SharingPlan::non_shared(),
        &events,
        "linear-road",
    );
}

#[test]
fn ecommerce_scan_matches_oracle_end_to_end() {
    let mut catalog = Catalog::new();
    let events = ecommerce::generate(
        &mut catalog,
        &EcommerceConfig {
            n_items: 6,
            n_customers: 8,
            events_per_sec: 300,
            n_events: 3000,
            ..Default::default()
        },
    );
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, Adapter) WHERE Laptop.price > 100.0 AND \
             [customer] WITHIN 20 min SLIDE 1 min",
            "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, iPhone) WHERE Case.price <= 450.0 AND \
             [customer] WITHIN 20 min SLIDE 1 min",
        ],
    )
    .expect("ecommerce workload parses");
    assert_scan_end_to_end(
        &catalog,
        &workload,
        &SharingPlan::non_shared(),
        &events,
        "ecommerce",
    );
}
