//! The plan executors over the lateral chain.
//!
//! The three plan executors, selected per request by
//! [`ExecOptions::mode`](fedwf_sim::ExecOptions) on the request's meter:
//!
//! * [`ExecMode::Columnar`] (production, in the `vexec` module) and
//!   [`ExecMode::Rows`] (its row-batch parity reference) pull bounded
//!   batches through a chain of non-blocking operators (chunked local
//!   scans, lazy hash-join probes, index point lookups, residual filters,
//!   memoized dependent-UDTF calls), so intermediate results are never
//!   materialized whole; only genuine pipeline breakers — hash-join build
//!   sides, buffered foreign/UDTF result sets, ORDER BY, GROUP BY — buffer
//!   rows, and each such buffer is tallied on the meter's materialization
//!   counters.
//! * [`ExecMode::Naive`] materializes the cross product of every step,
//!   re-evaluates the join conjuncts per composed row, and groups and
//!   de-duplicates by linear search — the reference semantics the
//!   equivalence suite checks the streaming executors against.
//!
//! All three honor [`Plan::step_projections`]: the binder prunes each step
//! to its referenced columns, scans return only those (pushed through
//! `Database::scan_project` / `ForeignServer::scan_project`), and UDTF
//! result rows are cut down before composing. `JoinKey::build` keeps the
//! step's original column numbering, so executors translate build columns
//! into pruned positions before hashing.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

use fedwf_relstore::{Predicate, RowId};
use fedwf_sim::{Component, CostModel, ExecMode, Meter, SpanName, TraceNode};
use fedwf_types::{
    implicit_cast, DataType, FedError, FedResult, Ident, ResultExt, Row, SchemaRef, Table, TxnId,
    Value, ValueKey,
};

use crate::engine::Fdbs;
use crate::expr::BoundExpr;
use crate::hashjoin::{nan_key_error, BuildSide, HashJoin};
use crate::plan::{Access, AggColumn, AggFn, AggregatePlan, FromStep, JoinKey, Plan};
use crate::udtf::{Udtf, UdtfKind};
use crate::vexpr::VCol;

/// Rows per streaming batch. Small enough that a batch of wide rows stays
/// cache-friendly, large enough to amortize per-batch dispatch.
pub(crate) const STREAM_BATCH_ROWS: usize = 1024;

/// Execute a bound plan against the engine's catalog, booking executor
/// costs to `meter`. `params` supplies the plan's parameter slots in order.
/// The executor is the one the meter's [`ExecOptions`](fedwf_sim::ExecOptions)
/// name.
pub fn execute_plan(
    fdbs: &Fdbs,
    plan: &Plan,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    if params.len() != plan.params.len() {
        return Err(FedError::execution(format!(
            "plan expects {} parameters, got {}",
            plan.params.len(),
            params.len()
        )));
    }
    match meter.exec_options().mode {
        ExecMode::Columnar => crate::vexec::execute_streaming_vectorized(fdbs, plan, params, meter),
        ExecMode::Rows => execute_streaming(fdbs, plan, params, meter),
        ExecMode::Naive => execute_naive(fdbs, plan, params, meter),
    }
}

// ---------------------------------------------------------------------------
// Naive reference executor
// ---------------------------------------------------------------------------

fn execute_naive(
    fdbs: &Fdbs,
    plan: &Plan,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    let cost = fdbs.cost();

    // The lateral chain starts from a single empty row.
    let mut rows: Vec<Row> = vec![Row::empty()];
    for (i, step) in plan.steps.iter().enumerate() {
        let proj = plan.step_projections.get(i).and_then(|p| p.as_deref());
        rows = naive_step(fdbs, step, i, proj, rows, params, meter)
            .context(from_item_context(i, step))?;
        // Every composed intermediate is a materialization point on this
        // path — that is exactly what the streaming executors avoid.
        tally_rows(meter, &rows);
        // Composition ignored the join keys, so their conjuncts apply
        // here as an ordinary residual filter.
        if let Some(jk) = &plan.step_join_keys[i] {
            rows = filter_rows(rows, &jk.residual, params, meter, cost.predicate_eval)?;
        }
        if let Some(filter) = &plan.step_filters[i] {
            rows = filter_rows(rows, filter, params, meter, cost.predicate_eval)?;
        }
    }

    // Grouping/aggregation replaces the scalar projection entirely; its
    // ORDER BY keys index the aggregate *output* layout.
    if let Some(agg) = &plan.aggregate {
        let mut a = Aggregator::new(plan, agg, cost, false);
        for row in &rows {
            a.push(row, params, meter)?;
        }
        return finish_aggregate(plan, a.finish(meter)?, params);
    }

    scalar_tail(fdbs, plan, rows, params, meter, false)
}

/// Sort (ORDER BY on the aggregate output layout) and LIMIT an aggregate
/// result — shared by the naive and streaming paths.
pub(crate) fn finish_aggregate(plan: &Plan, mut out: Table, params: &[Value]) -> FedResult<Table> {
    if !plan.order_by.is_empty() {
        let sorted = sort_rows(out.into_rows(), &plan.order_by, params)?;
        out = table_from_rows(plan.out_schema.clone(), sorted);
    }
    if let Some(limit) = plan.limit {
        let rows: Vec<Row> = out.into_rows().into_iter().take(limit as usize).collect();
        out = table_from_rows(plan.out_schema.clone(), rows);
    }
    Ok(out)
}

/// The scalar (non-aggregate) finishing stages over fully collected rows:
/// ORDER BY on the pre-projection layout, projection, DISTINCT, LIMIT.
/// Shared by the naive path and the streaming sort sink.
pub(crate) fn scalar_tail(
    fdbs: &Fdbs,
    plan: &Plan,
    mut rows: Vec<Row>,
    params: &[Value],
    meter: &mut Meter,
    hashed: bool,
) -> FedResult<Table> {
    let cost = fdbs.cost();

    // ORDER BY is evaluated on the full (pre-projection) row layout, so it
    // may reference any FROM column, not just projected ones.
    if !plan.order_by.is_empty() {
        rows = sort_rows(rows, &plan.order_by, params)?;
    }

    // Projection.
    let mut out = Table::new(plan.out_schema.clone());
    for row in &rows {
        let values: Vec<Value> = plan
            .projection
            .iter()
            .map(|(e, _)| e.eval(row.values(), params))
            .collect::<FedResult<_>>()?;
        meter.charge(Component::Fdbs, "Produce result rows", cost.row_output);
        out.push_unchecked(Row::new(values));
    }

    // DISTINCT: hashed on the streaming paths, quadratic scan on the naive
    // reference path. Both keep first-appearance order and group by
    // `index_cmp` equality (`group_key` is hash-consistent with it).
    if plan.distinct {
        let mut deduped = Table::new(plan.out_schema.clone());
        if hashed {
            let mut seen: HashSet<Vec<ValueKey>> = HashSet::new();
            for row in out.into_rows() {
                let key: Vec<ValueKey> = row.values().iter().map(Value::group_key).collect();
                if seen.insert(key) {
                    deduped.push_unchecked(row);
                }
            }
        } else {
            let mut seen: Vec<Row> = Vec::new();
            for row in out.into_rows() {
                let dup = seen.iter().any(|r| {
                    r.values()
                        .iter()
                        .zip(row.values())
                        .all(|(a, b)| a.index_cmp(b) == std::cmp::Ordering::Equal)
                });
                if !dup {
                    seen.push(row.clone());
                    deduped.push_unchecked(row);
                }
            }
        }
        out = deduped;
    }

    // LIMIT.
    if let Some(limit) = plan.limit {
        let rows: Vec<Row> = out.into_rows().into_iter().take(limit as usize).collect();
        out = table_from_rows(plan.out_schema.clone(), rows);
    }

    Ok(out)
}

/// Compose one lateral step with its prefix by cross product: scans once,
/// independent functions once (booking the join-with-selection beyond the
/// first position), dependent functions once per prefix row.
fn naive_step(
    fdbs: &Fdbs,
    step: &FromStep,
    position: usize,
    proj: Option<&[usize]>,
    prefix: Vec<Row>,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Vec<Row>> {
    let cost = fdbs.cost();
    match step {
        FromStep::ScanLocal { .. } | FromStep::ScanForeign { .. } => {
            let rows = scan_step_rows(fdbs, step, proj, meter)?;
            Ok(cross(prefix, &rows))
        }
        FromStep::TableFunc {
            udtf,
            args,
            independent: true,
            ..
        } => {
            let arg_values: Vec<Value> = args
                .iter()
                .map(|a| a.eval(&[], params))
                .collect::<FedResult<_>>()?;
            let result = invoke_udtf(fdbs, udtf, &arg_values, meter)?;
            let rrows = pruned_rows(&result, proj);
            tally_rows(meter, &rrows);
            if position > 0 {
                meter.charge(
                    Component::Fdbs,
                    "Join with selection (compose result sets)",
                    cost.join_with_selection_setup
                        + cost.join_with_selection_per_row * (prefix.len() * rrows.len()) as u64,
                );
            }
            Ok(cross(prefix, &rrows))
        }
        FromStep::TableFunc { udtf, args, .. } => {
            let mut out = Vec::new();
            for row in &prefix {
                let arg_values: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(row.values(), params))
                    .collect::<FedResult<_>>()?;
                let t = invoke_udtf(fdbs, udtf, &arg_values, meter)?;
                let rrows = pruned_rows(&t, proj);
                tally_rows(meter, &rrows);
                for rrow in &rrows {
                    out.push(row.concat(rrow));
                }
            }
            Ok(out)
        }
    }
}

/// Whether a joined local scan can be served by index point lookups: a
/// single integer-typed join key backed by an index. (DOUBLE keys fall back
/// to the hash join: NaN would change the naive path's error semantics
/// under the storage layer's silent 3VL comparison.)
pub(crate) fn step_is_indexable(
    fdbs: &Fdbs,
    table: &Ident,
    schema: &SchemaRef,
    jk: &JoinKey,
) -> FedResult<bool> {
    Ok(jk.build.len() == 1
        && schema.columns()[jk.build[0]].data_type != DataType::Double
        && jk.probe[0].data_type() != Some(DataType::Double)
        && fdbs
            .catalog()
            .local()
            .index_serves(table.as_str(), &Predicate::eq(jk.build[0], Value::Null))?)
}

/// Apply the planner's access-path choice to one joined local scan.
/// [`Access::Hash`] forces the hash join; [`Access::IndexProbe`] and
/// [`Access::Auto`] still re-check indexability at run time (an index may
/// have been dropped since planning), so a stale choice degrades to the
/// hash join instead of failing.
pub(crate) fn use_index_probe(
    fdbs: &Fdbs,
    table: &Ident,
    schema: &SchemaRef,
    jk: &JoinKey,
    access: Access,
) -> FedResult<bool> {
    match access {
        Access::Hash => Ok(false),
        Access::IndexProbe | Access::Auto => step_is_indexable(fdbs, table, schema, jk),
    }
}

/// Translate the original step-local build columns of a join key into
/// positions within the pruned step projection. The binder always keeps
/// join build columns in the projection, so a miss is an internal error.
pub(crate) fn build_positions(build: &[usize], proj: Option<&[usize]>) -> FedResult<Vec<usize>> {
    match proj {
        None => Ok(build.to_vec()),
        Some(p) => build
            .iter()
            .map(|b| {
                p.iter().position(|c| c == b).ok_or_else(|| {
                    FedError::execution(format!(
                        "join build column {b} was pruned out of the step projection"
                    ))
                })
            })
            .collect(),
    }
}

/// A step's result rows cut down to the pruned projection (UDTF results are
/// produced full-width by the function body; scans prune at the source).
pub(crate) fn pruned_rows(table: &Table, proj: Option<&[usize]>) -> Vec<Row> {
    match proj {
        None => table.rows().to_vec(),
        Some(p) => table.rows().iter().map(|r| r.project(p)).collect(),
    }
}

/// Record `rows` as materialized on the meter's observability counters.
pub(crate) fn tally_rows(meter: &mut Meter, rows: &[Row]) {
    let bytes: usize = rows.iter().map(Row::approx_bytes).sum();
    meter.tally_materialized(rows.len() as u64, bytes as u64);
}

/// Keep the rows satisfying `filter`, booking one predicate evaluation per
/// input row (the naive composition's per-row cost).
pub(crate) fn filter_rows(
    rows: Vec<Row>,
    filter: &BoundExpr,
    params: &[Value],
    meter: &mut Meter,
    predicate_eval: u64,
) -> FedResult<Vec<Row>> {
    let mut kept = Vec::with_capacity(rows.len());
    for row in rows {
        meter.charge(Component::Fdbs, "Evaluate predicates", predicate_eval);
        if filter.eval_predicate(row.values(), params)? {
            kept.push(row);
        }
    }
    Ok(kept)
}

/// Book the composition cost of a hash join. The step name matches the
/// paper's "join with selection" (it is that operation, implemented
/// better); the per-row cost scales with build + output instead of the
/// cross product.
pub(crate) fn charge_join(meter: &mut Meter, cost: &CostModel, rows: usize) {
    meter.charge(
        Component::Fdbs,
        "Join with selection (compose result sets)",
        cost.join_with_selection_setup + cost.join_with_selection_per_row * rows as u64,
    );
}

/// The join key of one value, with the naive path's error semantics:
/// NULL joins nothing (`None`), NaN is a hard comparison error (the naive
/// path's `sql_cmp` raises "cannot compare" for it on every pairing).
pub(crate) fn join_key_checked(v: &Value) -> FedResult<Option<ValueKey>> {
    match v.join_key() {
        Some(ValueKey::NaN) => Err(nan_key_error()),
        other => Ok(other),
    }
}

/// Stable sort by the evaluated key expressions under `index_cmp`.
fn sort_rows(rows: Vec<Row>, order: &[(BoundExpr, bool)], params: &[Value]) -> FedResult<Vec<Row>> {
    let mut keyed: Vec<(Vec<Value>, Row)> = rows
        .into_iter()
        .map(|row| {
            let keys = order
                .iter()
                .map(|(e, _)| e.eval(row.values(), params))
                .collect::<FedResult<Vec<_>>>()?;
            Ok((keys, row))
        })
        .collect::<FedResult<_>>()?;
    keyed.sort_by(|(ka, _), (kb, _)| {
        for ((a, b), (_, asc)) in ka.iter().zip(kb).zip(order) {
            let ord = a.index_cmp(b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

pub(crate) fn table_from_rows(schema: SchemaRef, rows: Vec<Row>) -> Table {
    let mut t = Table::new(schema);
    for row in rows {
        t.push_unchecked(row);
    }
    t
}

// ---------------------------------------------------------------------------
// Incremental aggregation (shared by all executors)
// ---------------------------------------------------------------------------

/// One aggregate column's running state, folded one non-NULL argument at a
/// time in input order. Folding gives exactly what evaluating the function
/// over the whole collected argument list would, without keeping the list.
#[derive(Clone)]
enum Acc {
    /// A GROUP BY key column (its value lives in [`Group::keys`]).
    Key,
    /// `COUNT(*)`: reads the group's row count.
    CountRows,
    /// `COUNT(arg)`: non-NULL arguments.
    Count(u64),
    /// Integer `SUM`: non-NULL arguments and the checked running sum,
    /// `None` once it overflowed (the error surfaces at finish).
    IntSum {
        n: u64,
        sum: Option<i64>,
    },
    /// `AVG`, and `SUM` into a DOUBLE column: non-NULL arguments and their
    /// f64 sum, folded from `-0.0` as `Iterator::sum` does.
    FloatSum {
        n: u64,
        sum: f64,
        avg: bool,
    },
    /// `MIN`/`MAX` under `index_cmp`; the first of equal values is kept.
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(col: &AggColumn, out: DataType) -> Acc {
        let AggColumn::Agg { f, arg } = col else {
            return Acc::Key;
        };
        match f {
            AggFn::Count if arg.is_none() => Acc::CountRows,
            AggFn::Count => Acc::Count(0),
            AggFn::Sum if out != DataType::Double => Acc::IntSum { n: 0, sum: Some(0) },
            AggFn::Sum | AggFn::Avg => Acc::FloatSum {
                n: 0,
                sum: -0.0,
                avg: *f == AggFn::Avg,
            },
            AggFn::Min => Acc::Min(None),
            AggFn::Max => Acc::Max(None),
        }
    }

    /// Fold one non-NULL argument. Non-numeric arguments count toward
    /// `n` but not the sums, as the collected-list evaluation had it.
    fn add(&mut self, v: Value) {
        match self {
            Acc::Key | Acc::CountRows => {}
            Acc::Count(n) => *n += 1,
            Acc::IntSum { n, sum } => {
                *n += 1;
                if let Some(x) = v.as_i64() {
                    *sum = sum.and_then(|s| s.checked_add(x));
                }
            }
            Acc::FloatSum { n, sum, .. } => {
                *n += 1;
                if let Some(x) = v.as_f64() {
                    *sum += x;
                }
            }
            Acc::Min(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|a| a.index_cmp(&v) == Ordering::Greater)
                {
                    *cur = Some(v);
                }
            }
            Acc::Max(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|a| a.index_cmp(&v) == Ordering::Less)
                {
                    *cur = Some(v);
                }
            }
        }
    }

    /// The aggregate's value over a group of `rows` rows.
    fn result(&self, rows: u64) -> FedResult<Value> {
        Ok(match self {
            Acc::Key => unreachable!("key columns read the group's key values"),
            Acc::CountRows => Value::BigInt(rows as i64),
            Acc::Count(n) => Value::BigInt(*n as i64),
            Acc::IntSum { n: 0, .. } | Acc::FloatSum { n: 0, .. } => Value::Null,
            Acc::IntSum { sum, .. } => {
                Value::BigInt(sum.ok_or_else(|| FedError::execution("SUM overflow"))?)
            }
            Acc::FloatSum {
                n, sum, avg: true, ..
            } => Value::Double(sum / *n as f64),
            Acc::FloatSum { sum, .. } => Value::Double(*sum),
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
        })
    }
}

/// One group: its key values (from its first row), one accumulator per
/// aggregate column, and its row count.
struct Group {
    keys: Vec<Value>,
    accs: Vec<Acc>,
    seen: u64,
}

/// Incremental GROUP BY/aggregate state. Rows are pushed one at a time (the
/// streaming sinks feed it per batch; the naive path feeds it the collected
/// row set), and [`Aggregator::finish`] reads the accumulators.
/// Without GROUP BY there is exactly one group — even over zero rows
/// (`COUNT(*)` of an empty table is 0, `SUM` is NULL). Groups appear in
/// first-appearance order on every path; the streaming paths find them
/// through a hash map, the naive path by linear `index_cmp` search.
pub(crate) struct Aggregator<'p> {
    plan: &'p Plan,
    agg: &'p AggregatePlan,
    hashed: bool,
    predicate_eval: u64,
    row_output: u64,
    /// Fresh accumulators, cloned into each new group.
    fresh: Vec<Acc>,
    groups: Vec<Group>,
    /// The hashed lookup: group keys to group index.
    lookup: HashMap<Vec<ValueKey>, usize>,
    /// The lookup's probe key, reused across rows so a group that already
    /// exists is found without allocating.
    key_buf: Vec<ValueKey>,
}

impl<'p> Aggregator<'p> {
    pub(crate) fn new(
        plan: &'p Plan,
        agg: &'p AggregatePlan,
        cost: &CostModel,
        hashed: bool,
    ) -> Self {
        Aggregator {
            plan,
            agg,
            hashed,
            predicate_eval: cost.predicate_eval,
            row_output: cost.row_output,
            fresh: agg
                .columns
                .iter()
                .zip(plan.out_schema.columns())
                .map(|((col, _), out)| Acc::new(col, out.data_type))
                .collect(),
            groups: Vec::new(),
            lookup: HashMap::default(),
            key_buf: Vec::new(),
        }
    }

    /// The group of a row with these key values, created on first sight.
    fn group_of(&mut self, keys: &[Value]) -> usize {
        if self.hashed {
            self.key_buf.clear();
            self.key_buf.extend(keys.iter().map(Value::group_key));
            if let Some(&g) = self.lookup.get(self.key_buf.as_slice()) {
                return g;
            }
            self.lookup.insert(self.key_buf.clone(), self.groups.len());
        } else if let Some(g) = self.groups.iter().position(|g| {
            g.keys
                .iter()
                .zip(keys)
                .all(|(a, b)| a.index_cmp(b) == Ordering::Equal)
        }) {
            return g;
        }
        self.groups.push(Group {
            keys: keys.to_vec(),
            accs: self.fresh.clone(),
            seen: 0,
        });
        self.groups.len() - 1
    }

    pub(crate) fn push(&mut self, row: &Row, params: &[Value], meter: &mut Meter) -> FedResult<()> {
        meter.charge(Component::Fdbs, "Evaluate predicates", self.predicate_eval);
        let keys: Vec<Value> = self
            .agg
            .keys
            .iter()
            .map(|k| k.eval(row.values(), params))
            .collect::<FedResult<_>>()?;
        let group = self.group_of(&keys);
        let group = &mut self.groups[group];
        group.seen += 1;
        for ((col, _), acc) in self.agg.columns.iter().zip(&mut group.accs) {
            if let AggColumn::Agg { arg: Some(arg), .. } = col {
                let v = arg.eval(row.values(), params)?;
                if !v.is_null() {
                    acc.add(v);
                }
            }
        }
        Ok(())
    }

    pub(crate) fn agg_plan(&self) -> &'p AggregatePlan {
        self.agg
    }

    /// Book the per-row grouping charge for a whole batch at once — one
    /// record whose amount equals what [`Aggregator::push`] books across
    /// the same rows, so virtual-time totals are identical.
    pub(crate) fn charge_batch(&self, meter: &mut Meter, rows: u64) {
        meter.charge(
            Component::Fdbs,
            "Evaluate predicates",
            self.predicate_eval * rows,
        );
    }

    /// Fold `rows` rows whose key and argument columns were already
    /// evaluated (the vectorized sink's entry; `args` holds `None` for
    /// columns without an argument). Grouping, first-appearance order and
    /// NULL-skipping match [`Aggregator::push`] exactly; the caller books
    /// the charge via [`Aggregator::charge_batch`].
    pub(crate) fn push_cols(&mut self, keys: &[VCol], args: &[Option<VCol>], rows: usize) {
        if rows == 0 {
            return;
        }
        // Find every row's group first, then fold each argument column
        // into its accumulators in one pass.
        let mut groups = Vec::with_capacity(rows);
        if keys.is_empty() {
            let g = self.group_of(&[]);
            self.groups[g].seen += rows as u64;
            groups.resize(rows, g);
        } else {
            let mut key = Vec::with_capacity(keys.len());
            for i in 0..rows {
                key.clear();
                key.extend(keys.iter().map(|k| k.value_at(i)));
                let g = self.group_of(&key);
                self.groups[g].seen += 1;
                groups.push(g);
            }
        }
        for (c, arg) in args.iter().enumerate() {
            if let Some(arg) = arg {
                for (i, &g) in groups.iter().enumerate() {
                    let v = arg.value_at(i);
                    if !v.is_null() {
                        self.groups[g].accs[c].add(v);
                    }
                }
            }
        }
    }

    pub(crate) fn finish(mut self, meter: &mut Meter) -> FedResult<Table> {
        // Global aggregation over zero rows still yields one (empty) group.
        if self.groups.is_empty() && self.agg.keys.is_empty() {
            self.groups.push(Group {
                keys: vec![],
                accs: self.fresh.clone(),
                seen: 0,
            });
        }

        let mut out = Table::new(self.plan.out_schema.clone());
        for group in &self.groups {
            let mut values = Vec::with_capacity(group.accs.len());
            for (((col, _), acc), schema_col) in self
                .agg
                .columns
                .iter()
                .zip(&group.accs)
                .zip(self.plan.out_schema.columns())
            {
                let v = match col {
                    AggColumn::Key(k) => group.keys[*k].clone(),
                    AggColumn::Agg { .. } => acc.result(group.seen)?,
                };
                values.push(coerce_agg(v, schema_col.data_type)?);
            }
            meter.charge(Component::Fdbs, "Produce result rows", self.row_output);
            out.push_unchecked(Row::new(values));
        }
        Ok(out)
    }
}

/// Widen an aggregate result to the declared column type. A value that
/// does not fit the declared type is a hard error — pushing it through
/// unchecked would corrupt the result table's schema invariants.
fn coerce_agg(v: Value, to: DataType) -> FedResult<Value> {
    if v.is_null() {
        return Ok(v);
    }
    implicit_cast(&v, to).map_err(|e| {
        FedError::execution(format!(
            "aggregate result {v} does not fit declared column type {to}: {e}"
        ))
    })
}

pub(crate) fn cross(prefix: Vec<Row>, rows: &[Row]) -> Vec<Row> {
    let mut out = Vec::with_capacity(prefix.len() * rows.len());
    for left in &prefix {
        for right in rows {
            out.push(left.concat(right));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Streaming executor
// ---------------------------------------------------------------------------

/// Where streaming batches come from: a bounded cursor over a leading local
/// scan, the eagerly fetched rows of a leading foreign scan (one batch, as
/// the wrapper returned it), or the single seed row when step 0 does not
/// lead (operators then cover every step including the first).
enum Source<'p> {
    Rows(Option<Vec<Row>>),
    Chunked {
        table: &'p Ident,
        pushdown: &'p Predicate,
        projection: Option<&'p [usize]>,
        next: Option<RowId>,
        started: bool,
        matched: u64,
        /// Snapshot epoch pinned at the first pull: every later chunk reads
        /// the same committed state even while writers commit in between.
        epoch: Option<TxnId>,
    },
}

impl Source<'_> {
    fn next_batch(&mut self, fdbs: &Fdbs) -> FedResult<Option<Vec<Row>>> {
        match self {
            Source::Rows(batch) => Ok(batch.take()),
            Source::Chunked {
                table,
                pushdown,
                projection,
                next,
                started,
                matched,
                epoch,
            } => {
                if *started && next.is_none() {
                    return Ok(None);
                }
                let local = fdbs.catalog().local();
                let pinned = *epoch.get_or_insert_with(|| local.snapshot_epoch());
                let start = next.unwrap_or(0);
                let (rows, cont) = local.scan_chunk(
                    table.as_str(),
                    pushdown,
                    *projection,
                    start,
                    STREAM_BATCH_ROWS,
                    pinned,
                )?;
                *started = true;
                *next = cont;
                *matched += rows.len() as u64;
                Ok(Some(rows))
            }
        }
    }

    /// Book the deferred scan charge — one record for the whole scan, same
    /// total as the naive path books for its single full scan.
    fn finish(&self, cost: &CostModel, meter: &mut Meter) {
        if let Source::Chunked { matched, .. } = self {
            meter.charge(
                Component::Fdbs,
                "Scan local table",
                cost.predicate_eval * matched,
            );
        }
    }
}

/// One non-blocking streaming operator. Pipeline-breaking state (hash-join
/// build sides, buffered foreign/UDTF results, probe caches) is built at
/// prepare time or on demand and tallied as materialized; batches flowing
/// through are not. Charges whose amounts depend on totals (join
/// composition, index-probe scans) are deferred to [`Op::finish`] and
/// booked as one record each.
pub(crate) enum Op<'p> {
    HashJoin(HashJoin<'p>),
    IndexProbe {
        table: &'p Ident,
        pushdown: &'p Predicate,
        projection: Option<&'p [usize]>,
        build_col: usize,
        probe: &'p BoundExpr,
        cache: HashMap<ValueKey, Vec<Row>>,
        scanned_total: u64,
        out_count: usize,
    },
    Cross {
        right: Vec<Row>,
        /// Book a join-with-selection at finish (independent UDTF composed
        /// at position > 0).
        charge_select: bool,
        prefix_rows: usize,
    },
    DependentUdtf {
        udtf: &'p Udtf,
        args: &'p [BoundExpr],
        projection: Option<&'p [usize]>,
        memo_on: bool,
        memo: HashMap<Vec<(Option<DataType>, ValueKey)>, Vec<Row>>,
    },
    Filter {
        filter: &'p BoundExpr,
    },
}

impl Op<'_> {
    pub(crate) fn push(
        &mut self,
        fdbs: &Fdbs,
        batch: Vec<Row>,
        params: &[Value],
        meter: &mut Meter,
    ) -> FedResult<Vec<Row>> {
        match self {
            Op::HashJoin(join) => join.push_rows(batch, params),
            Op::IndexProbe {
                table,
                pushdown,
                projection,
                build_col,
                probe,
                cache,
                scanned_total,
                out_count,
            } => {
                let local = fdbs.catalog().local();
                let mut out = Vec::new();
                for left in &batch {
                    let v = probe.eval(left.values(), params)?;
                    let Some(key) = join_key_checked(&v)? else {
                        continue;
                    };
                    let matches = match cache.entry(key) {
                        Entry::Occupied(e) => e.into_mut(),
                        Entry::Vacant(e) => {
                            let t = local.scan_eq_project(
                                table.as_str(),
                                *build_col,
                                v,
                                pushdown,
                                *projection,
                            )?;
                            *scanned_total += t.row_count() as u64;
                            let rows = t.into_rows();
                            tally_rows(meter, &rows);
                            e.insert(rows)
                        }
                    };
                    for r in matches.iter() {
                        out.push(left.concat(r));
                    }
                }
                *out_count += out.len();
                Ok(out)
            }
            Op::Cross {
                right, prefix_rows, ..
            } => {
                *prefix_rows += batch.len();
                Ok(cross(batch, right))
            }
            Op::DependentUdtf {
                udtf,
                args,
                projection,
                memo_on,
                memo,
            } => {
                let mut out = Vec::new();
                for row in &batch {
                    let arg_values: Vec<Value> = args
                        .iter()
                        .map(|a| a.eval(row.values(), params))
                        .collect::<FedResult<_>>()?;
                    let fresh;
                    let result: &[Row] = if *memo_on {
                        let key: Vec<(Option<DataType>, ValueKey)> = arg_values
                            .iter()
                            .map(|v| (v.data_type(), v.group_key()))
                            .collect();
                        match memo.entry(key) {
                            Entry::Occupied(e) => e.into_mut(),
                            Entry::Vacant(e) => {
                                let t = invoke_udtf(fdbs, udtf, &arg_values, meter)?;
                                let rows = pruned_rows(&t, *projection);
                                tally_rows(meter, &rows);
                                e.insert(rows)
                            }
                        }
                    } else {
                        let t = invoke_udtf(fdbs, udtf, &arg_values, meter)?;
                        fresh = pruned_rows(&t, *projection);
                        tally_rows(meter, &fresh);
                        &fresh
                    };
                    for rrow in result {
                        out.push(row.concat(rrow));
                    }
                }
                Ok(out)
            }
            Op::Filter { filter } => {
                let predicate_eval = fdbs.cost().predicate_eval;
                filter_rows(batch, filter, params, meter, predicate_eval)
            }
        }
    }

    /// Book the deferred composition charges, one record per operator.
    pub(crate) fn finish(&self, cost: &CostModel, meter: &mut Meter) {
        match self {
            Op::HashJoin(join) => join.finish(cost, meter),
            Op::IndexProbe {
                scanned_total,
                out_count,
                ..
            } => {
                meter.charge(
                    Component::Fdbs,
                    "Scan local table",
                    cost.predicate_eval * scanned_total,
                );
                charge_join(meter, cost, *out_count);
            }
            Op::Cross {
                right,
                charge_select,
                prefix_rows,
            } => {
                if *charge_select {
                    meter.charge(
                        Component::Fdbs,
                        "Join with selection (compose result sets)",
                        cost.join_with_selection_setup
                            + cost.join_with_selection_per_row
                                * (*prefix_rows * right.len()) as u64,
                    );
                }
            }
            Op::DependentUdtf { .. } | Op::Filter { .. } => {}
        }
    }
}

/// Where streaming batches end up: an incremental aggregation, a sort
/// buffer (pipeline breaker), or the streaming projection with inline
/// DISTINCT and LIMIT early-exit.
pub(crate) enum Sink<'p> {
    Aggregate(Aggregator<'p>),
    Sort(Vec<Row>),
    Project {
        out: Table,
        seen: Option<HashSet<Vec<ValueKey>>>,
    },
}

/// Per-operator actuals accumulated while tracing: active virtual time,
/// wall time, and the batches/rows/bytes the operator emitted. Rendered
/// as one leaf span per operator after the pipeline drains. The leaf's
/// `start..end` window is the pipeline start plus the *accumulated active*
/// virtual time (operators interleave batch-by-batch, so per-operator
/// wall-clock windows would overlap meaninglessly); its booked vector is
/// left empty — the charges themselves are already attributed to the
/// enclosing `fdbs.execute` span, so actuals never double-count.
pub(crate) struct StreamProbe {
    name: SpanName,
    pub(crate) virt_us: u64,
    wall_ns: u64,
    batches: u64,
    rows: u64,
    bytes: u64,
    /// Planner-estimated output rows, when the plan carries estimates.
    est: Option<u64>,
}

impl StreamProbe {
    pub(crate) fn new(name: impl Into<SpanName>) -> StreamProbe {
        StreamProbe {
            name: name.into(),
            virt_us: 0,
            wall_ns: 0,
            batches: 0,
            rows: 0,
            bytes: 0,
            est: None,
        }
    }

    /// Attach the planner's row estimate; `EXPLAIN ANALYZE` reads it back
    /// as the `est` counter beside the actual `rows`.
    pub(crate) fn with_est(mut self, est: Option<f64>) -> StreamProbe {
        self.est = est.map(|e| e.round().max(0.0) as u64);
        self
    }

    fn record(&mut self, virt_us: u64, wall_ns: u64, out: &[Row]) {
        let bytes = out.iter().map(Row::approx_bytes).sum::<usize>() as u64;
        self.record_counts(virt_us, wall_ns, out.len() as u64, bytes);
    }

    pub(crate) fn record_counts(&mut self, virt_us: u64, wall_ns: u64, rows: u64, bytes: u64) {
        self.virt_us += virt_us;
        self.wall_ns += wall_ns;
        self.batches += 1;
        self.rows += rows;
        self.bytes += bytes;
    }

    pub(crate) fn into_leaf(self, start_us: u64) -> TraceNode {
        let mut node = TraceNode::leaf(Component::Fdbs, self.name, start_us);
        node.end_us = start_us + self.virt_us;
        node.wall_ns = self.wall_ns;
        node.add_counter("batches", self.batches);
        node.add_counter("rows", self.rows);
        node.add_counter("bytes", self.bytes);
        if let Some(est) = self.est {
            node.add_counter("est", est);
        }
        node
    }
}

/// Planner row estimates for the streaming operator chain, parallel to the
/// `ops` vector [`prepare_ops`] builds: each step contributes its composed
/// (`join_rows`) estimate, its residual filter (when present) the
/// post-filter `out_rows`. A leading scan is the source itself, so only
/// its filter op (if any) leads the chain.
fn op_estimates(plan: &Plan, leads: bool) -> Vec<Option<f64>> {
    let est = |i: usize| plan.step_estimates.get(i);
    let mut out = Vec::new();
    for i in 0..plan.steps.len() {
        if i > 0 || !leads {
            out.push(est(i).map(|e| e.join_rows));
        }
        if plan.step_filters[i].is_some() {
            out.push(est(i).map(|e| e.out_rows));
        }
    }
    out
}

/// Probes for the whole pipeline: source, one per operator, sink.
pub(crate) struct StreamProbes {
    pub(crate) start_us: u64,
    pub(crate) source: StreamProbe,
    pub(crate) ops: Vec<StreamProbe>,
    pub(crate) sink: StreamProbe,
}

impl StreamProbes {
    /// Probes named after the stages — `scan <table>` for a leading scan
    /// (carrying the planner's scan estimate), `seed` otherwise — starting
    /// at the current virtual time.
    pub(crate) fn new(
        plan: &Plan,
        leads: bool,
        ops: &[Op<'_>],
        sink: &Sink<'_>,
        meter: &Meter,
    ) -> StreamProbes {
        let scanned = match plan.steps.first() {
            Some(FromStep::ScanLocal { table, .. }) if leads => Some(table),
            Some(FromStep::ScanForeign { catalog_name, .. }) if leads => Some(catalog_name),
            _ => None,
        };
        let source = match scanned {
            Some(table) => StreamProbe::new(SpanName::from(format!("scan {table}")))
                .with_est(plan.step_estimates.first().map(|e| e.scan_rows)),
            None => StreamProbe::new(SpanName::Static("seed")),
        };
        StreamProbes {
            start_us: meter.now_us(),
            source,
            ops: ops
                .iter()
                .zip(op_estimates(plan, leads))
                .map(|(op, est)| StreamProbe::new(op_probe_name(op)).with_est(est))
                .collect(),
            sink: StreamProbe::new(match sink {
                Sink::Aggregate(_) => "aggregate",
                Sink::Sort(_) => "sort",
                Sink::Project { .. } => "project",
            }),
        }
    }
}

pub(crate) fn op_probe_name(op: &Op<'_>) -> SpanName {
    match op {
        Op::HashJoin(_) => SpanName::Static("hash-join"),
        Op::IndexProbe { table, .. } => SpanName::from(format!("index-probe {table}")),
        Op::Cross { .. } => SpanName::Static("cross"),
        Op::DependentUdtf { udtf, .. } => SpanName::from(format!("dependent-udtf {}", udtf.name)),
        Op::Filter { .. } => SpanName::Static("filter"),
    }
}

/// Start one probe measurement: a wall-clock mark (only when the trace has
/// wall sampling on — neither the untraced path nor an ordinary virtual
/// trace ever reads the OS clock here) and the current virtual time.
pub(crate) fn probe_mark(wall: bool, meter: &Meter) -> (Option<Instant>, u64) {
    (wall.then(Instant::now), meter.now_us())
}

pub(crate) fn elapsed_ns(mark: Option<Instant>) -> u64 {
    mark.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

fn execute_streaming(
    fdbs: &Fdbs,
    plan: &Plan,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    let cost = fdbs.cost();

    // Source: a leading local scan streams in bounded chunks; a leading
    // foreign scan enters as the rows the wrapper sent back; otherwise the
    // seed row starts the chain and the operators cover every step.
    let leads = scan_leads(plan);
    let mut source = match plan.steps.first() {
        Some(FromStep::ScanLocal {
            table, pushdown, ..
        }) if leads => Source::Chunked {
            table,
            pushdown,
            projection: plan.step_projections.first().and_then(|p| p.as_deref()),
            next: None,
            started: false,
            matched: 0,
            epoch: None,
        },
        Some(step @ FromStep::ScanForeign { .. }) if leads => {
            let proj = plan.step_projections.first().and_then(|p| p.as_deref());
            let rows =
                scan_step_rows(fdbs, step, proj, meter).context(from_item_context(0, step))?;
            Source::Rows(Some(rows))
        }
        _ => Source::Rows(Some(vec![Row::empty()])),
    };

    // Prepare the operator chain. Build sides, foreign result sets, and
    // independent UDTF results are produced (and their charges booked)
    // eagerly, exactly as the naive path does even over an empty prefix.
    let mut ops = prepare_ops(fdbs, plan, params, meter, leads, prepare_step_op)?;
    let mut sink = new_sink(plan, cost);

    let mut probes = meter
        .tracing()
        .then(|| StreamProbes::new(plan, leads, &ops, &sink, meter));
    let tracing = probes.is_some();
    let wall = tracing && meter.wall_sampling();

    // Pull batches until the source runs dry or LIMIT is satisfied. When
    // LIMIT stops the pull early, upstream work (and its Fdbs-side charges)
    // that the naive path would still perform simply never happens.
    loop {
        let (w0, v0) = probe_mark(wall, meter);
        let Some(mut batch) = source.next_batch(fdbs)? else {
            break;
        };
        if let Some(p) = probes.as_mut() {
            p.source.record(meter.now_us() - v0, elapsed_ns(w0), &batch);
        }
        for (i, op) in ops.iter_mut().enumerate() {
            let (w0, v0) = probe_mark(wall, meter);
            batch = op
                .push(fdbs, batch, params, meter)
                .context(format!("evaluating streaming operator {}", i + 1))?;
            if let Some(p) = probes.as_mut() {
                p.ops[i].record(meter.now_us() - v0, elapsed_ns(w0), &batch);
            }
        }
        let (w0, v0) = probe_mark(wall, meter);
        let in_counts = tracing.then(|| {
            (
                batch.len() as u64,
                batch.iter().map(Row::approx_bytes).sum::<usize>() as u64,
            )
        });
        let done = sink_push(&mut sink, plan, batch, params, meter, cost)?;
        if let Some(p) = probes.as_mut() {
            let (rows, bytes) = in_counts.expect("tracing implies counts");
            p.sink
                .record_counts(meter.now_us() - v0, elapsed_ns(w0), rows, bytes);
        }
        if done {
            break;
        }
    }

    let v0 = meter.now_us();
    source.finish(cost, meter);
    if let Some(p) = probes.as_mut() {
        p.source.virt_us += meter.now_us() - v0;
    }
    finish_pipeline(fdbs, plan, &ops, probes, sink, params, meter)
}

/// Whether step 0 is a scan nothing joins back to the seed row. It then
/// becomes the pipeline source itself — chunked for a local table, one
/// batch for a foreign one — instead of an operator over the seed.
pub(crate) fn scan_leads(plan: &Plan) -> bool {
    matches!(
        plan.steps.first(),
        Some(FromStep::ScanLocal { .. } | FromStep::ScanForeign { .. })
    ) && plan.step_join_keys.first().is_some_and(|jk| jk.is_none())
}

/// The error context of FROM item `i`.
pub(crate) fn from_item_context(i: usize, step: &FromStep) -> String {
    format!("evaluating FROM item {} ({step:?})", i + 1)
}

/// One executor's per-step operator constructor.
pub(crate) type PrepareStep = for<'p> fn(
    &Fdbs,
    &'p FromStep,
    usize,
    Option<&'p JoinKey>,
    Option<&'p [usize]>,
    Access,
    &[Value],
    &mut Meter,
) -> FedResult<Op<'p>>;

/// The operator chain of a streaming pipeline, in step order: every step
/// after the source through `prepare`, each followed by its residual
/// filter. A leading scan is the source, so only its filter is an
/// operator.
pub(crate) fn prepare_ops<'p>(
    fdbs: &Fdbs,
    plan: &'p Plan,
    params: &[Value],
    meter: &mut Meter,
    leads: bool,
    prepare: PrepareStep,
) -> FedResult<Vec<Op<'p>>> {
    let mut ops = Vec::new();
    for (i, step) in plan.steps.iter().enumerate() {
        if i > 0 || !leads {
            let jk = plan.step_join_keys[i].as_ref();
            let proj = plan.step_projections.get(i).and_then(|p| p.as_deref());
            let access = plan.step_access.get(i).copied().unwrap_or_default();
            let op = prepare(fdbs, step, i, jk, proj, access, params, meter)
                .context(from_item_context(i, step))?;
            ops.push(op);
        }
        if let Some(filter) = &plan.step_filters[i] {
            ops.push(Op::Filter { filter });
        }
    }
    Ok(ops)
}

/// The sink a plan's tail needs: aggregation, a sort buffer, or the
/// streaming projection (with inline DISTINCT).
pub(crate) fn new_sink<'p>(plan: &'p Plan, cost: &CostModel) -> Sink<'p> {
    if let Some(agg) = &plan.aggregate {
        Sink::Aggregate(Aggregator::new(plan, agg, cost, true))
    } else if !plan.order_by.is_empty() {
        Sink::Sort(Vec::new())
    } else {
        Sink::Project {
            out: Table::new(plan.out_schema.clone()),
            seen: plan.distinct.then(HashSet::new),
        }
    }
}

/// Drain a pipeline whose source ran dry (or hit LIMIT): book the
/// operators' deferred charges, emit one leaf span per stage, and finish
/// the sink into the result table.
pub(crate) fn finish_pipeline(
    fdbs: &Fdbs,
    plan: &Plan,
    ops: &[Op<'_>],
    mut probes: Option<StreamProbes>,
    sink: Sink<'_>,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    let cost = fdbs.cost();
    for (i, op) in ops.iter().enumerate() {
        let v0 = meter.now_us();
        op.finish(cost, meter);
        if let Some(p) = probes.as_mut() {
            p.ops[i].virt_us += meter.now_us() - v0;
        }
    }

    // Emit one leaf span per pipeline stage, source to sink, under the
    // enclosing `fdbs.execute` span.
    if let Some(p) = probes {
        let start = p.start_us;
        meter.span_leaf(p.source.into_leaf(start));
        for op_probe in p.ops {
            meter.span_leaf(op_probe.into_leaf(start));
        }
        meter.span_leaf(p.sink.into_leaf(start));
    }

    match sink {
        Sink::Aggregate(agg) => finish_aggregate(plan, agg.finish(meter)?, params),
        Sink::Sort(rows) => scalar_tail(fdbs, plan, rows, params, meter, true),
        Sink::Project { out, .. } => {
            if let Some(limit) = plan.limit {
                if out.row_count() as u64 > limit {
                    let rows: Vec<Row> = out.into_rows().into_iter().take(limit as usize).collect();
                    return Ok(table_from_rows(plan.out_schema.clone(), rows));
                }
            }
            Ok(out)
        }
    }
}

/// Build the streaming operator for one lateral step, performing the
/// eager (pipeline-breaking) work up front.
#[allow(clippy::too_many_arguments)]
pub(crate) fn prepare_step_op<'p>(
    fdbs: &Fdbs,
    step: &'p FromStep,
    position: usize,
    jk: Option<&'p JoinKey>,
    proj: Option<&'p [usize]>,
    access: Access,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Op<'p>> {
    match step {
        FromStep::ScanLocal { .. } | FromStep::ScanForeign { .. } => {
            if let (
                FromStep::ScanLocal {
                    table,
                    pushdown,
                    schema,
                    ..
                },
                Some(jk),
            ) = (step, jk)
            {
                if use_index_probe(fdbs, table, schema, jk, access)? {
                    return Ok(Op::IndexProbe {
                        table,
                        pushdown,
                        projection: proj,
                        build_col: jk.build[0],
                        probe: &jk.probe[0],
                        cache: HashMap::new(),
                        scanned_total: 0,
                        out_count: 0,
                    });
                }
            }
            let rows = scan_step_rows(fdbs, step, proj, meter)?;
            join_op(BuildSide::Rows(rows), jk, proj)
        }
        FromStep::TableFunc {
            udtf,
            args,
            independent,
            ..
        } => {
            if *independent {
                let arg_values: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(&[], params))
                    .collect::<FedResult<_>>()?;
                let result = invoke_udtf(fdbs, udtf, &arg_values, meter)?;
                let rows = pruned_rows(&result, proj);
                tally_rows(meter, &rows);
                match jk {
                    Some(_) => join_op(BuildSide::Rows(rows), jk, proj),
                    None => Ok(Op::Cross {
                        right: rows,
                        charge_select: position > 0,
                        prefix_rows: 0,
                    }),
                }
            } else {
                Ok(Op::DependentUdtf {
                    udtf,
                    args,
                    projection: proj,
                    memo_on: meter.exec_options().udtf_memo,
                    memo: HashMap::new(),
                })
            }
        }
    }
}

/// Scan one local or foreign step eagerly: fetch its (pruned) rows, book
/// the scan charge, and tally the rows as materialized.
pub(crate) fn scan_step_rows(
    fdbs: &Fdbs,
    step: &FromStep,
    proj: Option<&[usize]>,
    meter: &mut Meter,
) -> FedResult<Vec<Row>> {
    let cost = fdbs.cost();
    let rows = match step {
        FromStep::ScanLocal {
            table, pushdown, ..
        } => {
            let scanned = fdbs
                .catalog()
                .local()
                .scan_project(table.as_str(), pushdown, proj)?;
            meter.charge(
                Component::Fdbs,
                "Scan local table",
                cost.predicate_eval * scanned.row_count() as u64,
            );
            scanned.into_rows()
        }
        FromStep::ScanForeign {
            server,
            remote_name,
            pushdown,
            ..
        } => {
            let scanned = server.scan_project(remote_name, pushdown, proj)?;
            meter.charge(
                Component::Fdbs,
                format!("Subquery to SQL source {}", server.name()),
                cost.rmi_call + cost.rmi_return,
            );
            scanned.into_rows()
        }
        FromStep::TableFunc { .. } => unreachable!("only scan steps are scanned"),
    };
    tally_rows(meter, &rows);
    Ok(rows)
}

/// The operator composing an eagerly produced step with its prefix: a
/// hash join on the step's join key, a cross product without one.
pub(crate) fn join_op<'p>(
    build: BuildSide,
    jk: Option<&'p JoinKey>,
    proj: Option<&[usize]>,
) -> FedResult<Op<'p>> {
    Ok(match jk {
        Some(jk) => Op::HashJoin(HashJoin::new(
            build,
            build_positions(&jk.build, proj)?,
            &jk.probe,
        )),
        None => Op::Cross {
            right: build.into_rows(),
            charge_select: false,
            prefix_rows: 0,
        },
    })
}

/// Feed one batch to the sink. Returns `true` when the sink is satisfied
/// (LIMIT reached) and pulling should stop.
pub(crate) fn sink_push(
    sink: &mut Sink<'_>,
    plan: &Plan,
    batch: Vec<Row>,
    params: &[Value],
    meter: &mut Meter,
    cost: &CostModel,
) -> FedResult<bool> {
    match sink {
        Sink::Aggregate(agg) => {
            for row in &batch {
                agg.push(row, params, meter)?;
            }
            Ok(false)
        }
        Sink::Sort(rows) => {
            // ORDER BY is a pipeline breaker: the buffer is a
            // materialization point.
            tally_rows(meter, &batch);
            rows.extend(batch);
            Ok(false)
        }
        Sink::Project { out, seen } => {
            if plan.limit.is_some_and(|l| out.row_count() as u64 >= l) {
                return Ok(true);
            }
            for row in &batch {
                let values: Vec<Value> = plan
                    .projection
                    .iter()
                    .map(|(e, _)| e.eval(row.values(), params))
                    .collect::<FedResult<_>>()?;
                meter.charge(Component::Fdbs, "Produce result rows", cost.row_output);
                let keep = match seen {
                    Some(s) => s.insert(values.iter().map(Value::group_key).collect()),
                    None => true,
                };
                if keep {
                    out.push_unchecked(Row::new(values));
                    if plan.limit.is_some_and(|l| out.row_count() as u64 >= l) {
                        return Ok(true);
                    }
                }
            }
            Ok(false)
        }
    }
}

/// Invoke a UDTF: book its architecture charges, bind arguments, run the
/// body (recursing into the engine for SQL-bodied functions), and map the
/// result to the declared return schema.
pub fn invoke_udtf(
    fdbs: &Fdbs,
    udtf: &Udtf,
    args: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    if !meter.tracing() {
        return invoke_udtf_inner(fdbs, udtf, args, meter);
    }
    meter.span_start(Component::Udtf, fdbs.udtf_span_name(udtf));
    let result = invoke_udtf_inner(fdbs, udtf, args, meter);
    if let Ok(table) = &result {
        meter.span_counter("rows", table.row_count() as u64);
    }
    meter.span_end();
    result
}

fn invoke_udtf_inner(
    fdbs: &Fdbs,
    udtf: &Udtf,
    args: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    udtf.charges.book_start(meter);

    if args.len() != udtf.params.len() {
        return Err(FedError::execution(format!(
            "function {} expects {} arguments, got {}",
            udtf.name,
            udtf.params.len(),
            args.len()
        )));
    }
    let bound: Vec<Value> = args
        .iter()
        .zip(&udtf.params)
        .map(|(v, (pname, ptype))| {
            implicit_cast(v, *ptype)
                .map_err(|e| FedError::execution(format!("argument {pname} of {}: {e}", udtf.name)))
        })
        .collect::<FedResult<_>>()?;

    let raw = match &udtf.kind {
        UdtfKind::Native(body) => {
            body(&bound, meter).context(format!("invoking table function {}", udtf.name))?
        }
        UdtfKind::Sql(body) => fdbs
            .execute_function_body(udtf, body, &bound, meter)
            .context(format!("invoking SQL table function {}", udtf.name))?,
    };

    // Positional mapping onto the declared return schema (the SQL body's
    // column names need not match the declared names, as in DB2).
    if raw.schema().len() != udtf.returns.len() {
        return Err(FedError::execution(format!(
            "function {} returned {} columns but declares {}",
            udtf.name,
            raw.schema().len(),
            udtf.returns.len()
        )));
    }
    let mut mapped = Table::new(udtf.returns.clone());
    for row in raw.rows() {
        let values: Vec<Value> = row
            .values()
            .iter()
            .zip(udtf.returns.columns())
            .map(|(v, col)| {
                implicit_cast(v, col.data_type).map_err(|e| {
                    FedError::execution(format!(
                        "function {} result column {}: {e}",
                        udtf.name, col.name
                    ))
                })
            })
            .collect::<FedResult<_>>()?;
        mapped.push_unchecked(Row::new(values));
    }

    udtf.charges.book_finish(meter);
    Ok(mapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggColumn, AggFn, AggregatePlan};
    use fedwf_sim::CostModel;
    use fedwf_types::{Column, Ident, Schema};
    use std::sync::Arc;

    #[test]
    fn coerce_agg_rejects_lossy_results() {
        assert_eq!(
            coerce_agg(Value::Int(5), DataType::BigInt).unwrap(),
            Value::BigInt(5)
        );
        assert!(coerce_agg(Value::Double(2.5), DataType::Int).is_err());
        assert!(coerce_agg(Value::Null, DataType::Int).unwrap().is_null());
    }

    #[test]
    fn build_positions_translates_into_pruned_layout() {
        assert_eq!(build_positions(&[3], None).unwrap(), vec![3]);
        assert_eq!(build_positions(&[3], Some(&[1, 3, 5])).unwrap(), vec![1]);
        assert!(build_positions(&[2], Some(&[1, 3, 5])).is_err());
    }

    /// Aggregate `rows` the way the naive oracle (`streaming = false`) or
    /// the streaming aggregate sink (`streaming = true`) does.
    fn aggregate(
        fdbs: &Fdbs,
        plan: &Plan,
        agg: &AggregatePlan,
        rows: &[Row],
        streaming: bool,
    ) -> FedResult<Table> {
        let mut meter = Meter::new();
        let cost = fdbs.cost();
        if !streaming {
            let mut a = Aggregator::new(plan, agg, cost, false);
            for row in rows {
                a.push(row, &[], &mut meter)?;
            }
            return a.finish(&mut meter);
        }
        let mut sink = new_sink(plan, cost);
        sink_push(&mut sink, plan, rows.to_vec(), &[], &mut meter, cost)?;
        match sink {
            Sink::Aggregate(a) => a.finish(&mut meter),
            _ => unreachable!("an aggregate plan gets the aggregate sink"),
        }
    }

    /// A DOUBLE aggregate flowing into a column declared INT must fail
    /// loudly, not be pushed unchecked into the mistyped table.
    #[test]
    fn double_aggregate_into_int_column_fails_loudly() {
        let fdbs = Fdbs::new(CostModel::zero());
        let agg = AggregatePlan {
            keys: vec![],
            columns: vec![(
                AggColumn::Agg {
                    f: AggFn::Max,
                    arg: Some(BoundExpr::Literal(Value::Double(2.5))),
                },
                Ident::new("m"),
            )],
        };
        let plan = Plan {
            steps: vec![],
            step_projections: vec![],
            step_access: vec![],
            step_estimates: vec![],
            step_filters: vec![],
            step_join_keys: vec![],
            projection: vec![],
            aggregate: Some(agg.clone()),
            distinct: false,
            order_by: vec![],
            limit: None,
            params: vec![],
            out_schema: Arc::new(Schema::new(vec![Column::new(
                Ident::new("m"),
                DataType::Int,
            )])),
        };
        for streaming in [false, true] {
            let err = aggregate(&fdbs, &plan, &agg, &[Row::empty()], streaming).unwrap_err();
            assert!(
                err.to_string().contains("does not fit"),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn integer_sum_overflow_is_an_error() {
        let fdbs = Fdbs::new(CostModel::zero());
        let agg = AggregatePlan {
            keys: vec![],
            columns: vec![(
                AggColumn::Agg {
                    f: AggFn::Sum,
                    arg: Some(BoundExpr::Column {
                        index: 0,
                        data_type: DataType::BigInt,
                    }),
                },
                Ident::new("s"),
            )],
        };
        let plan = Plan {
            steps: vec![],
            step_projections: vec![],
            step_access: vec![],
            step_estimates: vec![],
            step_filters: vec![],
            step_join_keys: vec![],
            projection: vec![],
            aggregate: Some(agg.clone()),
            distinct: false,
            order_by: vec![],
            limit: None,
            params: vec![],
            out_schema: Arc::new(Schema::new(vec![Column::new(
                Ident::new("s"),
                DataType::BigInt,
            )])),
        };
        let rows = vec![
            Row::new(vec![Value::BigInt(i64::MAX)]),
            Row::new(vec![Value::BigInt(1)]),
        ];
        for streaming in [false, true] {
            let err = aggregate(&fdbs, &plan, &agg, &rows, streaming).unwrap_err();
            assert!(err.to_string().contains("SUM overflow"), "{err}");
        }
    }

    /// The aggregate functions as the executor used to evaluate them: over
    /// the whole collected list of non-NULL arguments.
    fn collected_list_result(f: AggFn, out: DataType, vals: &[Value]) -> FedResult<Value> {
        Ok(match f {
            AggFn::Count => Value::BigInt(vals.len() as i64),
            AggFn::Sum | AggFn::Avg if vals.is_empty() => Value::Null,
            AggFn::Avg => {
                let sum: f64 = vals.iter().filter_map(Value::as_f64).sum();
                Value::Double(sum / vals.len() as f64)
            }
            AggFn::Sum if out == DataType::Double => {
                Value::Double(vals.iter().filter_map(Value::as_f64).sum())
            }
            AggFn::Sum => {
                let mut acc: i64 = 0;
                for v in vals.iter().filter_map(Value::as_i64) {
                    acc = acc
                        .checked_add(v)
                        .ok_or_else(|| FedError::execution("SUM overflow"))?;
                }
                Value::BigInt(acc)
            }
            AggFn::Min | AggFn::Max => vals
                .iter()
                .cloned()
                .reduce(|a, b| {
                    let keep_a = match f {
                        AggFn::Min => a.index_cmp(&b) != Ordering::Greater,
                        _ => a.index_cmp(&b) != Ordering::Less,
                    };
                    if keep_a {
                        a
                    } else {
                        b
                    }
                })
                .unwrap_or(Value::Null),
        })
    }

    /// Running accumulators fold to exactly what evaluating over the
    /// collected list gave — bit for bit (-0.0, NaN, infinity), the first
    /// of `index_cmp`-equal MIN/MAX candidates, the overflow error.
    #[test]
    fn accumulators_match_collected_list_evaluation() {
        let pool = [
            Value::Int(3),
            Value::Int(-7),
            Value::BigInt(i64::MAX - 1),
            Value::BigInt(i64::MIN + 1),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(1.7e308),
            Value::Double(-1.7e308),
            Value::Double(f64::NAN),
            Value::Double(2.5),
            Value::BigInt(3),
            Value::str("x"),
        ];
        let cases = [
            (AggFn::Count, DataType::BigInt),
            (AggFn::Sum, DataType::BigInt),
            (AggFn::Sum, DataType::Double),
            (AggFn::Avg, DataType::Double),
            (AggFn::Min, DataType::Double),
            (AggFn::Max, DataType::Double),
        ];
        let mut rng = fedwf_types::rng::Rng::seed_from_u64(7);
        for _ in 0..2_000 {
            let n = rng.range_usize(0, 6);
            let vals: Vec<Value> = (0..n).map(|_| rng.pick(&pool).clone()).collect();
            for (f, out) in cases {
                let col = AggColumn::Agg {
                    f,
                    arg: Some(BoundExpr::Literal(Value::Null)),
                };
                let mut acc = Acc::new(&col, out);
                for v in &vals {
                    acc.add(v.clone());
                }
                let want = collected_list_result(f, out, &vals);
                assert_eq!(
                    format!("{:?}", acc.result(n as u64)),
                    format!("{want:?}"),
                    "{f:?} into {out} over {vals:?}"
                );
            }
        }
    }
}
