//! Dynamic workloads (§7.4): event rates drift mid-stream, the
//! DynamicPlanManager detects it and re-optimizes, and the executor
//! migrates to the new plan at a window boundary without losing results.
//!
//! ```sh
//! cargo run --release --example dynamic_workload
//! ```

use sharon::executor_for_plan;
use sharon::optimizer::{DynamicPlanManager, PlanDecision};
use sharon::prelude::*;

fn main() {
    let mut catalog = Catalog::new();
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, X) WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, Y) WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(E, F, G, H, X) WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(E, F, G, H, Y) WITHIN 10 s SLIDE 2 s",
        ],
    )
    .expect("parses");

    // phase 1 rates favour sharing (A,B,C,D); phase 2 favours (E,F,G,H)
    let initial_rates = RateMap::uniform(100.0);
    let cfg = OptimizerConfig::default();
    let initial = optimize_sharon(&workload, &initial_rates, &cfg);
    println!(
        "initial plan ({} candidates, score {:.0}):",
        initial.plan.len(),
        initial.score
    );
    for cand in &initial.plan.candidates {
        println!("  share {}", cand.pattern.display(&catalog));
    }

    let mut manager = DynamicPlanManager::new(TimeDelta::from_secs(2), 0.05, cfg, &initial);
    let mut executor = executor_for_plan(&catalog, &workload, &initial.plan).expect("compiles");
    let mut results = ExecutorResultsAccumulator::new();

    let names_phase1 = ["A", "B", "C", "D", "X"];
    let names_phase2 = ["E", "F", "G", "H", "Y"];
    let ids = |names: &[&str], c: &Catalog| -> Vec<EventTypeId> {
        names.iter().map(|n| c.lookup(n).unwrap()).collect()
    };
    let phase1 = ids(&names_phase1, &catalog);
    let phase2 = ids(&names_phase2, &catalog);

    let mut t = 0u64;
    let mut migrations = 0;
    for phase in 0..2 {
        let types = if phase == 0 { &phase1 } else { &phase2 };
        for _ in 0..4000 {
            // one round of the phase's types, fed as one columnar batch
            let round: Vec<Event> = types
                .iter()
                .map(|&ty| {
                    t += 5;
                    Event::new(ty, Timestamp(t))
                })
                .collect();
            executor.process_columnar(&EventBatch::from_events(&round));
            for e in &round {
                if let PlanDecision::Replace(outcome) = manager.observe(&workload, e) {
                    migrations += 1;
                    println!(
                        "\nrate drift detected at t={}: new plan ({} candidates, score {:.0})",
                        e.time,
                        outcome.plan.len(),
                        outcome.score
                    );
                    for cand in &outcome.plan.candidates {
                        println!("  share {}", cand.pattern.display(&catalog));
                    }
                    // plan migration: drain the old executor (flushing its
                    // windows), then continue under the new plan — "no
                    // results are lost or corrupted" (§7.4)
                    let old = std::mem::replace(
                        &mut executor,
                        executor_for_plan(&catalog, &workload, &outcome.plan).expect("compiles"),
                    );
                    results.merge(old.finish());
                }
            }
        }
    }
    results.merge(executor.finish());
    println!("\nmigrations: {migrations}");
    println!("total results across migrations: {}", results.len());
    assert!(
        migrations >= 1,
        "the rate shift must trigger a re-optimization"
    );
}

/// Tiny helper collecting results across plan migrations.
struct ExecutorResultsAccumulator {
    inner: ExecutorResults,
}

impl ExecutorResultsAccumulator {
    fn new() -> Self {
        ExecutorResultsAccumulator {
            inner: ExecutorResults::new(),
        }
    }
    fn merge(&mut self, other: ExecutorResults) {
        self.inner.merge(other);
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}
