//! Shared plumbing for the two-step baselines: per-type routing tables
//! (predicates, grouping, aggregate contribution), mirroring the clauses
//! the online engine compiles, so the baselines answer exactly the same
//! queries.
//!
//! All methods operate on `(type, attrs)` column data — the baselines run
//! natively over [`EventBatch`] rows and never materialize a row-form
//! event. [`ScopeFilter`] packages one baseline routing scope (a query for
//! Flink-like, a sharing-signature partition for SPASS-like) as a
//! [`RowFilter`], which is what lets the sharded runtime's route-once
//! [`sharon_executor::BatchRouter`] fan baseline work out across shards.
//!
//! [`TwoStep`] is the executor core both baselines share: one compiled scan per
//! scope, one [`ScopeKernel`] trait object per scope for the stateful
//! side, the event-time gate, and the result store. [`ScopeFanShard`] is
//! the shard worker both run on the sharded runtime.

use sharon_executor::agg::Contribution;
use sharon_executor::compile::CompileError;
use sharon_executor::{
    split_router_plane, ExecutorResults, Reorder, RoutedRows, RowFilter, ScanKernel,
    ShardProcessor, ShardReport, ShardedExecutor, ShardedOptions,
};
use sharon_query::{CmpOp, Query};
use sharon_types::{AttrId, Catalog, EventBatch, EventTypeId, GroupKey, Timestamp, Value};
use std::collections::HashMap;

/// Refuse durability options on a sharded two-step baseline: its shard
/// processors cannot serialize their state, and silently running without
/// the asked-for checkpoints, spill tier, or fault injection would be
/// worse than refusing.
fn assert_durability_free(options: &ShardedOptions, baseline: &str) {
    assert!(
        options.checkpoint.is_none() && options.spill.is_none() && options.fault.is_none(),
        "the {baseline} two-step baseline does not support checkpoint/spill/fault options"
    );
}

/// Per-event-type resolved clauses for one query or partition.
#[derive(Debug, Clone, Default)]
pub(crate) struct TypeTable {
    /// Per type id: resolved `GROUP BY` attribute ids.
    pub group_attrs: Vec<Box<[AttrId]>>,
    /// Per type id: compiled predicates.
    pub predicates: Vec<Vec<(AttrId, CmpOp, Value)>>,
    /// Aggregate contribution source.
    pub contrib_target: Option<(EventTypeId, Option<AttrId>)>,
}

impl TypeTable {
    /// Resolve clauses of `query` against `catalog`.
    pub fn build(catalog: &Catalog, query: &Query) -> Result<Self, CompileError> {
        let max_ty = query
            .pattern
            .types()
            .iter()
            .map(|t| t.index())
            .max()
            .unwrap_or(0);
        let mut group_attrs: Vec<Box<[AttrId]>> = vec![Box::new([]); max_ty + 1];
        let mut predicates: Vec<Vec<(AttrId, CmpOp, Value)>> = vec![Vec::new(); max_ty + 1];
        for &t in query.pattern.types() {
            let schema = catalog.schema(t);
            let ids: Vec<AttrId> = query
                .group_by
                .iter()
                .map(|name| {
                    schema
                        .attr(name)
                        .ok_or_else(|| CompileError::GroupAttrMissing {
                            ty: catalog.name(t).to_string(),
                            attr: name.clone(),
                        })
                })
                .collect::<Result<_, _>>()?;
            group_attrs[t.index()] = ids.into_boxed_slice();
        }
        for p in &query.predicates {
            if p.ty.index() <= max_ty && query.pattern.contains_type(p.ty) {
                let attr = catalog.schema(p.ty).attr(&p.attr).ok_or_else(|| {
                    CompileError::PredicateAttrMissing {
                        ty: catalog.name(p.ty).to_string(),
                        attr: p.attr.clone(),
                    }
                })?;
                predicates[p.ty.index()].push((attr, p.op, p.value.clone()));
            }
        }
        let contrib_target =
            match (query.agg.target_type(), query.agg.target_attr()) {
                (Some(t), Some(name)) => {
                    let id = catalog.schema(t).attr(name).ok_or_else(|| {
                        CompileError::AggAttrMissing {
                            ty: catalog.name(t).to_string(),
                            attr: name.to_string(),
                        }
                    })?;
                    Some((t, Some(id)))
                }
                (Some(t), None) => Some((t, None)),
                (None, _) => None,
            };
        Ok(TypeTable {
            group_attrs,
            predicates,
            contrib_target,
        })
    }

    /// Merge `other`'s clauses into this table so it covers the union of
    /// both queries' pattern types (used by SPASS partitions, whose
    /// queries share predicates/grouping by signature but span different
    /// type sets).
    pub fn absorb(&mut self, other: TypeTable) {
        if other.group_attrs.len() > self.group_attrs.len() {
            self.group_attrs
                .resize(other.group_attrs.len(), Box::new([]));
            self.predicates.resize(other.predicates.len(), Vec::new());
        }
        for (i, g) in other.group_attrs.into_iter().enumerate() {
            if !g.is_empty() {
                self.group_attrs[i] = g;
            }
        }
        for (i, p) in other.predicates.into_iter().enumerate() {
            if !p.is_empty() {
                self.predicates[i] = p;
            }
        }
        if other.contrib_target.is_some() {
            self.contrib_target = other.contrib_target;
        }
    }

    /// Build the row's group key into `key` (reusing the `vals` scratch
    /// buffer, so the steady-state path allocates nothing), returning
    /// `false` if a grouping attribute is absent. With no `GROUP BY`,
    /// writes [`GroupKey::Global`].
    pub fn read_group_key(
        &self,
        ty: EventTypeId,
        attrs: &[Value],
        vals: &mut Vec<Value>,
        key: &mut GroupKey,
    ) -> bool {
        let gattrs = match self.group_attrs.get(ty.index()) {
            Some(a) if !a.is_empty() => a,
            _ => {
                *key = GroupKey::Global;
                return true;
            }
        };
        vals.clear();
        for a in gattrs.iter() {
            match attrs.get(a.index()) {
                Some(v) => vals.push(v.clone()),
                None => return false,
            }
        }
        key.assign_from_slice(vals);
        true
    }

    /// The row's aggregate contribution.
    pub fn contribution(&self, ty: EventTypeId, attrs: &[Value]) -> Contribution {
        match self.contrib_target {
            Some((t, attr)) if t == ty => match attr {
                None => Contribution::of(1.0),
                Some(a) => match attrs.get(a.index()).and_then(Value::as_f64) {
                    Some(v) => Contribution::of(v),
                    None => Contribution::NONE,
                },
            },
            _ => Contribution::NONE,
        }
    }
}

/// Dense per-type-id routing bitmap: `true` where any of `queries`'
/// patterns contains the type.
fn routed_bitmap(queries: &[&Query]) -> Vec<bool> {
    let max_ty = queries
        .iter()
        .flat_map(|q| q.pattern.types())
        .map(|t| t.index())
        .max()
        .unwrap_or(0);
    let mut routed = vec![false; max_ty + 1];
    for q in queries {
        for t in q.pattern.types() {
            routed[t.index()] = true;
        }
    }
    routed
}

/// One baseline routing scope as seen by the batch router: a type-routing
/// bitmap plus the scope's [`TypeTable`]. The stateless prefix it encodes
/// is exactly the one the baseline's stateful side applies, so routed rows
/// are precisely the rows the baseline would process.
#[derive(Debug, Clone)]
pub(crate) struct ScopeFilter {
    /// Per type id (dense): does the scope's pattern contain the type?
    routed: Vec<bool>,
    table: TypeTable,
}

impl ScopeFilter {
    /// A filter routing the union of `queries`' pattern types, with their
    /// merged clause table.
    pub fn build(catalog: &Catalog, queries: &[&Query]) -> Result<Self, CompileError> {
        let mut table = TypeTable::build(catalog, queries[0])?;
        for q in &queries[1..] {
            table.absorb(TypeTable::build(catalog, q)?);
        }
        Ok(ScopeFilter {
            routed: routed_bitmap(queries),
            table,
        })
    }

    /// Compile this scope's stateless prefix into a vectorized
    /// [`ScanKernel`] — the **single** definition used by both the
    /// sequential scans of [`TwoStep`] and, via
    /// [`RowFilter::scan_kernel`], the sharded batch router, so the two
    /// sides cannot drift apart on what routes.
    pub fn compile_scan(&self) -> ScanKernel {
        ScanKernel::new(
            self.routed.clone(),
            &self.table.group_attrs,
            &self.table.predicates,
        )
    }

    /// The routing identity of this filter (see [`ScopeKey`]).
    pub fn key(&self) -> ScopeKey {
        ScopeKey {
            routed: self.routed.clone(),
            group_attrs: self.table.group_attrs.clone(),
            predicates: self
                .table
                .predicates
                .iter()
                .map(|preds| {
                    preds
                        .iter()
                        .map(|(a, op, v)| (*a, *op, HashableValue::of(v)))
                        .collect()
                })
                .collect(),
        }
    }
}

/// A [`Value`] literal with total equality and hashing (floats compared
/// by bit pattern), so predicate clauses can key a hash map. Bit-exact
/// float comparison is conservative: `0.0` vs `-0.0` fail to merge, which
/// only costs a missed dedup, never correctness.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum HashableValue {
    Int(i64),
    Float(u64),
    Str(std::sync::Arc<str>),
}

impl HashableValue {
    fn of(v: &Value) -> Self {
        match v {
            Value::Int(i) => HashableValue::Int(*i),
            Value::Float(f) => HashableValue::Float(f.to_bits()),
            Value::Str(s) => HashableValue::Str(std::sync::Arc::clone(s)),
        }
    }
}

/// The routing identity of a [`ScopeFilter`]: pattern type set, per-type
/// `GROUP BY` attributes, and per-type predicate clauses. Two scopes with
/// equal keys select *exactly* the same rows of any batch and hash every
/// row to the same shard, so the router only needs to scan one of them —
/// the compile-time basis of scope deduplication ([`dedup_scopes`]).
///
/// Deliberately excluded: aggregate contribution targets and window
/// specs — they shape the *stateful* side only and never affect which
/// rows route where.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScopeKey {
    routed: Vec<bool>,
    group_attrs: Vec<Box<[AttrId]>>,
    predicates: Vec<Vec<(AttrId, CmpOp, HashableValue)>>,
}

/// Deduplicate routing scopes by [`ScopeKey`]: returns the distinct
/// filters (first-seen order) and, parallel to them, the original scope
/// indexes subscribing to each — the worker side fans each distinct
/// scope's row selection out to all of its subscribers. With no duplicate
/// scopes this is the identity (`subscribers[i] == [i]`).
fn dedup_scopes(scopes: Vec<ScopeFilter>) -> (Vec<ScopeFilter>, Vec<Vec<usize>>) {
    let mut index: HashMap<ScopeKey, usize> = HashMap::with_capacity(scopes.len());
    let mut distinct = Vec::new();
    let mut subscribers: Vec<Vec<usize>> = Vec::new();
    for (i, scope) in scopes.into_iter().enumerate() {
        match index.entry(scope.key()) {
            std::collections::hash_map::Entry::Occupied(e) => subscribers[*e.get()].push(i),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(distinct.len());
                subscribers.push(vec![i]);
                distinct.push(scope);
            }
        }
    }
    (distinct, subscribers)
}

impl RowFilter for ScopeFilter {
    #[inline]
    fn read_group_key(
        &self,
        ty: EventTypeId,
        attrs: &[Value],
        vals: &mut Vec<Value>,
        key: &mut GroupKey,
    ) -> bool {
        self.table.read_group_key(ty, attrs, vals, key)
    }

    fn scan_kernel(&self) -> ScanKernel {
        self.compile_scan()
    }

    fn route_cost(&self) -> f64 {
        let total_types = self.routed.len().max(1);
        let routed_types = self.routed.iter().filter(|&&r| r).count();
        let clauses: usize = self.table.predicates.iter().map(Vec::len).sum();
        (1.0 + clauses as f64) * (routed_types as f64 / total_types as f64).max(f64::MIN_POSITIVE)
    }
}

/// The stateful side of one two-step routing scope (a Flink-like query or
/// a SPASS-like signature partition), monomorphized on its aggregate
/// kernel. [`TwoStep`] dispatches to it once per batch per scope; every
/// row it sees already passed the scope's stateless prefix.
pub(crate) trait ScopeKernel: Send {
    /// Fold one selected row, in time order.
    fn process_row(
        &mut self,
        ty: EventTypeId,
        time: Timestamp,
        attrs: &[Value],
        results: &mut ExecutorResults,
    );

    /// Fold the selected rows `rows` of `batch`, in order.
    fn process_rows(&mut self, batch: &EventBatch, rows: &[u32], results: &mut ExecutorResults) {
        for &row in rows {
            let row = row as usize;
            self.process_row(batch.ty(row), batch.time(row), batch.attrs(row), results);
        }
    }

    /// Flush every open window into `results`.
    fn finish(&mut self, results: &mut ExecutorResults);

    /// Pre-size `results` for about `additional` results per query.
    fn reserve_results(&self, results: &mut ExecutorResults, additional: usize);

    /// Sequences (and segment matches) explicitly constructed so far.
    fn sequences_constructed(&self) -> u64;

    /// Rows this scope folded (its "matched" count).
    fn events_matched(&self) -> u64;

    /// State-size proxy: buffered events, plus materialized matches where
    /// the scope keeps them.
    fn state_size(&self) -> usize;
}

/// One scope's compiled stateless prefix plus its scan tallies.
struct ScopeScan {
    kernel: ScanKernel,
    rows_scanned: u64,
    rows_selected: u64,
}

/// The two-step executor core both baselines share: per scope a compiled scan and
/// a [`ScopeKernel`], plus the event-time gate and the result store.
pub(crate) struct TwoStep {
    scans: Vec<ScopeScan>,
    scopes: Vec<Box<dyn ScopeKernel>>,
    /// Reused row-selection buffer of the scans.
    sel: Vec<u32>,
    results: ExecutorResults,
    last_time: Timestamp,
    /// Event-time reorder gate (see [`Reorder`]); `None` keeps the
    /// historical arrival-order contract. Rows enter it only after their
    /// scope's scan selected them, tagged with the scope index.
    reorder: Option<Reorder>,
}

impl TwoStep {
    /// An executor core over `scopes`: each scope's scan kernel and stateful side.
    pub fn new(scopes: Vec<(ScanKernel, Box<dyn ScopeKernel>)>) -> Self {
        let (scans, scopes) = scopes
            .into_iter()
            .map(|(kernel, scope)| {
                let scan = ScopeScan {
                    kernel,
                    rows_scanned: 0,
                    rows_selected: 0,
                };
                (scan, scope)
            })
            .unzip();
        TwoStep {
            scans,
            scopes,
            sel: Vec::new(),
            results: ExecutorResults::new(),
            last_time: Timestamp::ZERO,
            reorder: None,
        }
    }

    /// Enable event-time processing (see [`Reorder`]).
    pub fn set_lateness(&mut self, lateness_ms: u64) {
        self.reorder = Some(Reorder::new(lateness_ms));
    }

    /// Late rows dropped by the event-time gate (0 when no gate).
    pub fn late_rows_dropped(&self) -> u64 {
        self.reorder.as_ref().map_or(0, Reorder::late_rows_dropped)
    }

    /// Process a time-ordered columnar batch: each scope runs its scan
    /// over the whole batch, then folds the selected rows while its state
    /// is hot. With an event-time gate, the selected rows are admitted
    /// tagged with their scope, and the watermark advances to the batch's
    /// maximum timestamp afterwards.
    pub fn process_columnar(&mut self, batch: &EventBatch) {
        if self.reorder.is_none() {
            if let Some(&t) = batch.times().last() {
                debug_assert!(t >= self.last_time, "batches must be time-ordered");
                self.last_time = t;
            }
        }
        let mut sel = std::mem::take(&mut self.sel);
        for (si, scan) in self.scans.iter_mut().enumerate() {
            sel.clear();
            scan.kernel.select_into(batch, 0, batch.len(), &mut sel);
            scan.rows_scanned += batch.len() as u64;
            scan.rows_selected += sel.len() as u64;
            sharon_metrics::record_rows_scanned(batch.len() as u64);
            sharon_metrics::record_rows_selected(sel.len() as u64);
            match &mut self.reorder {
                None => self.scopes[si].process_rows(batch, &sel, &mut self.results),
                Some(gate) => {
                    for &row in &sel {
                        let row = row as usize;
                        gate.admit(
                            batch.ty(row),
                            batch.time(row),
                            batch.attrs(row),
                            si as u32,
                            false,
                        );
                    }
                }
            }
        }
        self.sel = sel;
        if let Some(max) = batch.max_time() {
            self.advance_watermark(max);
        }
    }

    /// Fold pre-routed rows of `batch` into scope `si` (the sharded
    /// fan-out path).
    fn process_scope_rows(&mut self, si: usize, batch: &EventBatch, rows: &[u32]) {
        self.scopes[si].process_rows(batch, rows, &mut self.results);
    }

    /// Fold one pre-routed row into scope `si` (the release path of an
    /// event-time gate).
    fn process_scope_row(&mut self, si: usize, ty: EventTypeId, time: Timestamp, attrs: &[Value]) {
        self.scopes[si].process_row(ty, time, attrs, &mut self.results);
    }

    /// Advance the gate's watermark and fold every released row (a no-op
    /// without a gate).
    fn advance_watermark(&mut self, frontier: Timestamp) {
        let Some(gate) = &mut self.reorder else {
            return;
        };
        gate.advance(frontier);
        self.release_ready();
    }

    fn release_ready(&mut self) {
        while let Some(row) = self.reorder.as_mut().and_then(Reorder::pop_ready) {
            self.process_scope_row(row.scope as usize, row.ty, row.time, &row.attrs);
            if let Some(gate) = &mut self.reorder {
                gate.recycle(row);
            }
        }
    }

    /// Pre-size the result store for about `additional` further results
    /// per query.
    pub fn reserve_results(&mut self, additional: usize) {
        for scope in &self.scopes {
            scope.reserve_results(&mut self.results, additional);
        }
    }

    /// End of stream: release every gate-buffered row, flush every window,
    /// and return the results plus the final matched count.
    pub fn finish(mut self) -> (ExecutorResults, u64) {
        if let Some(gate) = &mut self.reorder {
            gate.open();
            self.release_ready();
        }
        let matched = self.events_matched();
        for scope in &mut self.scopes {
            scope.finish(&mut self.results);
        }
        (self.results, matched)
    }

    /// Sequences constructed so far, summed over scopes.
    pub fn sequences_constructed(&self) -> u64 {
        self.scopes.iter().map(|s| s.sequences_constructed()).sum()
    }

    /// Rows the scopes folded, summed — comparable to the online engines'
    /// per-partition matched counts.
    pub fn events_matched(&self) -> u64 {
        self.scopes.iter().map(|s| s.events_matched()).sum()
    }

    /// Per-scope `(rows_scanned, rows_selected)` of the scans, in scope
    /// order.
    pub fn scan_stats(&self) -> Vec<(u64, u64)> {
        self.scans
            .iter()
            .map(|s| (s.rows_scanned, s.rows_selected))
            .collect()
    }

    /// State-size proxy, summed over scopes.
    pub fn state_size(&self) -> usize {
        self.scopes.iter().map(|s| s.state_size()).sum()
    }
}

/// Run a baseline on the sharded parallel runtime: one routing scope per
/// entry of `scopes` (deduplicated, so the router scans each distinct
/// scope once per batch), and one [`TwoStep`] from `build` per shard
/// behind a [`ScopeFanShard`].
///
/// Panics when `options` asks for checkpoints, a spill tier, or fault
/// injection (see [`assert_durability_free`]).
pub(crate) fn sharded(
    baseline: &str,
    scopes: Vec<ScopeFilter>,
    n_shards: usize,
    options: &ShardedOptions,
    build: impl Fn() -> Result<TwoStep, CompileError>,
) -> Result<ShardedExecutor, CompileError> {
    assert_durability_free(options, baseline);
    let (scopes, subscribers) = dedup_scopes(scopes);
    let plane = split_router_plane(scopes, n_shards, options.split, options.routers);
    let shards = (0..n_shards)
        .map(|_| {
            build().map(|inner| {
                Box::new(ScopeFanShard {
                    inner,
                    subscribers: subscribers.clone(),
                    gate: options.lateness.map(Reorder::new),
                }) as Box<dyn ShardProcessor>
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ShardedExecutor::from_parts(plane, shards, options.clone()))
}

/// The shard worker of a sharded baseline: `rows.per_part` is parallel to
/// the router's *distinct* (deduplicated) routing scopes, and each scope's
/// row selection is folded into every subscribing scope of the baseline —
/// the worker-side half of routing each scope once per batch. The
/// baselines never host split groups, so replica lists and split notices
/// are always empty here.
pub(crate) struct ScopeFanShard {
    inner: TwoStep,
    /// Per distinct scope: the baseline scope indexes subscribing to it.
    subscribers: Vec<Vec<usize>>,
    /// Event-time gate over the pre-routed rows: admission records the
    /// distinct scope in [`sharon_executor::PendingRow::scope`], release
    /// fans the row back out to the scope's subscribers. `None` keeps the
    /// arrival-order contract.
    gate: Option<Reorder>,
}

impl ScopeFanShard {
    /// Fold every gate-released row into its scope's subscribers.
    fn release_ready(&mut self) {
        while let Some(row) = self.gate.as_mut().and_then(Reorder::pop_ready) {
            for &si in &self.subscribers[row.scope as usize] {
                self.inner
                    .process_scope_row(si, row.ty, row.time, &row.attrs);
            }
            if let Some(gate) = &mut self.gate {
                gate.recycle(row);
            }
        }
    }
}

impl ShardProcessor for ScopeFanShard {
    fn process_routed(&mut self, batch: &EventBatch, rows: &RoutedRows) {
        debug_assert!(
            rows.splits.is_empty() && rows.state_rows.iter().all(Vec::is_empty),
            "baseline scopes never split groups"
        );
        if let Some(gate) = &mut self.gate {
            // event-time mode: buffer each scope's rows behind the
            // router's merged frontier and release in event-time order
            for (scope, list) in rows.per_part.iter().enumerate() {
                for &row in list {
                    let row = row as usize;
                    gate.admit(
                        batch.ty(row),
                        batch.time(row),
                        batch.attrs(row),
                        scope as u32,
                        false,
                    );
                }
            }
            gate.advance(rows.frontier);
            self.release_ready();
            return;
        }
        for (scope, list) in rows.per_part.iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            for &si in &self.subscribers[scope] {
                self.inner.process_scope_rows(si, batch, list);
            }
        }
    }

    fn events_matched(&self) -> u64 {
        self.inner.events_matched()
    }

    fn finish(mut self: Box<Self>) -> ShardReport {
        if let Some(gate) = &mut self.gate {
            gate.open();
        }
        self.release_ready();
        let state_size = self.inner.state_size();
        let (results, events_matched) = self.inner.finish();
        ShardReport {
            results,
            events_matched,
            state_size,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_query::parse_workload;
    use sharon_types::Schema;

    #[test]
    fn scopes_dedup_by_routing_identity() {
        let mut c = Catalog::new();
        c.register_with_schema("A", Schema::new(["g", "v"]));
        c.register_with_schema("B", Schema::new(["g", "v"]));
        let w = parse_workload(
            &mut c,
            [
                // queries 0 and 1 differ only in aggregate and window —
                // identical routing scope
                "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.v > 2 GROUP BY g WITHIN 10 ms SLIDE 2 ms",
                "RETURN SUM(B.v) PATTERN SEQ(A, B) WHERE A.v > 2 GROUP BY g WITHIN 20 ms SLIDE 4 ms",
                // dropping the predicate or the grouping changes the scope
                "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.v > 2 WITHIN 10 ms SLIDE 2 ms",
            ],
        )
        .unwrap();
        let scopes: Vec<ScopeFilter> = w
            .queries()
            .iter()
            .map(|q| ScopeFilter::build(&c, &[q]).unwrap())
            .collect();
        let (distinct, subscribers) = dedup_scopes(scopes);
        assert_eq!(distinct.len(), 3, "queries 0 and 1 share a scope");
        assert_eq!(subscribers, vec![vec![0, 1], vec![2], vec![3]]);
    }
}
