//! The uniform columnar operator interface of the execution layer.
//!
//! Every strategy in the system — the online Sharon/A-Seq engines, the
//! sharded parallel runtime, and the two-step baselines — is a *stage
//! pipeline over [`EventBatch`]*: a *stateless scan* of the batch columns
//! (routing on the `ty` column, predicate evaluation over the value
//! buffer, group-key extraction) selects the surviving row indices, and a
//! *stateful dispatch* folds only those rows into per-group state.
//! [`BatchProcessor`] captures that contract behind one trait so callers
//! (the strategy layer, the framework, the CLI, the benches) drive every
//! strategy identically — no per-strategy match arms. Columnar batches
//! are the only way in: callers holding row-form events build a batch
//! with [`EventBatch::from_events`] or [`EventBatch::push_event`].
//!
//! Implementors: [`crate::Executor`] (online engines),
//! [`crate::ShardedExecutor`] (route-once parallel runtime), and the
//! `sharon-twostep` crate's `FlinkLike` / `SpassLike` baselines.

use crate::results::ExecutorResults;
use sharon_types::EventBatch;

/// A columnar operator: consumes time-ordered [`EventBatch`]es and
/// produces [`ExecutorResults`] when finished.
///
/// Ingestion requires global timestamp order across calls, the
/// same contract every executor in the system already imposes — unless
/// the caller enables event-time processing via
/// [`BatchProcessor::set_lateness`], after which input may carry bounded
/// disorder: rows buffer behind the watermark `max_time_seen − lateness`
/// and release in event-time order, and rows behind the watermark are
/// dropped and counted ([`sharon_metrics::late_rows_dropped`]).
pub trait BatchProcessor: Send {
    /// Process a time-ordered columnar batch: the stateless scan +
    /// stateful dispatch pipeline, the one ingest entry point.
    fn process_columnar(&mut self, batch: &EventBatch);

    /// Enable event-time processing: tolerate out-of-order input up to
    /// `lateness_ms` milliseconds of timestamp regression (drop-and-count
    /// beyond). Must be called before any ingestion. Panics for
    /// strategies without an event-time gate; every strategy in this
    /// workspace implements it.
    fn set_lateness(&mut self, lateness_ms: u64) {
        let _ = lateness_ms;
        panic!("this strategy does not support event-time (out-of-order) input");
    }

    /// Late rows dropped by the event-time gate so far; zero when no
    /// gate is configured.
    fn late_rows_dropped(&self) -> u64 {
        0
    }

    /// Events that passed the stateless prefix (routing, predicates,
    /// grouping) so far; zero for strategies that do not track it.
    fn events_matched(&self) -> u64 {
        0
    }

    /// Per-scope `(rows_scanned, rows_selected)` tallies of the stateless
    /// scan so far — one entry per routing scope (partition engine, query,
    /// or baseline partition), in scope order. Counted before any
    /// shard-ownership filtering, so the sequential and sharded runtimes
    /// of one workload report identical tallies; empty for strategies
    /// that do not track it.
    fn scan_stats(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }

    /// Strategy-specific state-size proxy: live aggregate cells (online),
    /// buffered raw events (Flink-like), materialized matches
    /// (SPASS-like), zero when state lives off-thread (sharded).
    fn state_size(&self) -> usize {
        0
    }

    /// Flush all remaining windows and return
    /// `(results, events_matched)`. The matched count here is exact even
    /// for the sharded runtime, whose workers drain before reporting.
    fn finish(self: Box<Self>) -> (ExecutorResults, u64);
}
