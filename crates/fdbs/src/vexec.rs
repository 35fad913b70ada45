//! The vectorized streaming executor: typed column batches end to end.
//!
//! This is [`ExecMode::Columnar`](fedwf_sim::ExecMode): the row-batch
//! streaming executor ([`ExecMode::Rows`](fedwf_sim::ExecMode)) with the
//! `Vec<Row>` batches replaced by [`ColumnBatch`]es. The source pulls column vectors straight
//! out of relstore's version chains (same chunk bounds, same pinned
//! snapshot epoch), residual filters evaluate predicates into selection
//! vectors ([`crate::vexpr`]), hash-join and index probes hash join keys
//! over column slices, and the sinks aggregate/project over typed vectors.
//! Rows materialize only where they must: at pipeline breakers that store
//! rows (sort buffers, cross products, UDTF compositions) and at the client
//! boundary. A leading foreign scan is the source's one columnar batch, and
//! hash-join build sides stay columnar ([`crate::hashjoin`]).
//!
//! Parity contract with the row-at-a-time streaming path:
//!
//! * **Results**: identical rows in identical order. Shared scalar kernels
//!   plus the fallback rule below make this hold bit-for-bit, NaN and NULL
//!   included.
//! * **Charges**: identical virtual-time totals. Per-row charges are
//!   booked per batch (`amount × rows`), deferred charges reuse the row
//!   path's [`Op::finish`] formulas verbatim.
//! * **Spans**: identical probe names and tree shape; actuals count column
//!   -vector bytes (validity words included) where a columnar batch flowed.
//! * **Errors**: any vectorized kernel error demotes that batch to the
//!   row-at-a-time reference implementation, whose outcome — including
//!   *which* error surfaces first — is authoritative. Vectorized kernels
//!   evaluate eagerly and must never surface an error the lazy row path
//!   would not raise.

use std::collections::hash_map::Entry;

use fedwf_relstore::{Predicate, RowId};
use fedwf_sim::{Component, CostModel, Meter};
use fedwf_types::{ColumnBatch, FedResult, Ident, ResultExt, Row, Table, TxnId, Value};

use crate::engine::Fdbs;
use crate::exec::{
    elapsed_ns, finish_pipeline, from_item_context, join_key_checked, join_op, new_sink,
    prepare_ops, prepare_step_op, probe_mark, scan_leads, sink_push, tally_rows, use_index_probe,
    Op, Sink, StreamProbes, STREAM_BATCH_ROWS,
};
use crate::expr::BoundExpr;
use crate::hashjoin::BuildSide;
use crate::plan::{Access, AggColumn, FromStep, Plan};
use crate::vexpr::{eval_filter_mask, eval_vcol, VCol};

/// A streaming batch: columnar while it can be, rows once an operator
/// had to materialize (join output, UDTF composition, fallback).
///
/// A columnar batch optionally carries a *selection vector*: sorted row
/// indices that survived a filter. The filter itself never copies column
/// data — downstream consumers either read through the selection (the
/// project sink) or gather once on entry (joins, aggregates, fallbacks).
pub(crate) enum VBatch {
    Cols(ColumnBatch, Option<Vec<u32>>),
    Rows(Vec<Row>),
}

impl VBatch {
    fn len(&self) -> usize {
        match self {
            VBatch::Cols(b, sel) => sel.as_ref().map_or(b.len(), Vec::len),
            VBatch::Rows(r) => r.len(),
        }
    }

    /// Bytes for the observability counters: column-vector bytes
    /// (validity included) for columnar batches — the selected subset
    /// when a selection vector is attached — boxed-row bytes once rows
    /// exist.
    fn approx_bytes(&self) -> u64 {
        match self {
            VBatch::Cols(b, None) => b.approx_bytes() as u64,
            VBatch::Cols(b, Some(sel)) => b.approx_bytes_selected(sel) as u64,
            VBatch::Rows(r) => r.iter().map(Row::approx_bytes).sum::<usize>() as u64,
        }
    }
}

/// Collapse a selection vector into a dense batch (a real gather); a
/// batch without one passes through untouched.
fn materialize(b: ColumnBatch, sel: Option<Vec<u32>>) -> ColumnBatch {
    match sel {
        Some(sel) => b.gather(&sel),
        None => b,
    }
}

/// Boxed rows for the selected subset — the row-path handoff used by
/// fallbacks and pipeline breakers that store rows.
fn selected_rows(b: &ColumnBatch, sel: Option<&[u32]>) -> Vec<Row> {
    match sel {
        Some(sel) => sel.iter().map(|&i| b.row(i as usize)).collect(),
        None => b.to_rows(),
    }
}

/// Record a columnar batch on the meter's materialization counters —
/// the columnar counterpart of [`tally_rows`].
pub(crate) fn tally_batch(meter: &mut Meter, batch: &ColumnBatch) {
    meter.tally_materialized(batch.len() as u64, batch.approx_bytes() as u64);
}

/// The columnar batch source — mirrors `exec::Source` including the
/// deferred scan charge and the snapshot epoch pinned at first pull. A
/// leading foreign scan is one columnar batch, the seed one row.
enum VSource<'p> {
    Batch(Option<VBatch>),
    Chunked {
        table: &'p Ident,
        pushdown: &'p Predicate,
        projection: Option<&'p [usize]>,
        next: Option<RowId>,
        started: bool,
        matched: u64,
        epoch: Option<TxnId>,
    },
}

impl VSource<'_> {
    fn next_batch(&mut self, fdbs: &Fdbs) -> FedResult<Option<VBatch>> {
        match self {
            VSource::Batch(batch) => Ok(batch.take()),
            VSource::Chunked {
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
                let (batch, cont) = local.scan_chunk_columnar(
                    table.as_str(),
                    pushdown,
                    *projection,
                    start,
                    STREAM_BATCH_ROWS,
                    pinned,
                )?;
                *started = true;
                *next = cont;
                *matched += batch.len() as u64;
                Ok(Some(VBatch::Cols(batch, None)))
            }
        }
    }

    fn finish(&self, cost: &CostModel, meter: &mut Meter) {
        if let VSource::Chunked { matched, .. } = self {
            meter.charge(
                Component::Fdbs,
                "Scan local table",
                cost.predicate_eval * matched,
            );
        }
    }
}

/// Scan one local or foreign step eagerly as a column batch: the columnar
/// counterpart of [`scan_step_rows`], same charge, tallied in column bytes.
fn scan_step_cols(
    fdbs: &Fdbs,
    step: &FromStep,
    proj: Option<&[usize]>,
    meter: &mut Meter,
) -> FedResult<ColumnBatch> {
    let cost = fdbs.cost();
    let batch = match step {
        FromStep::ScanLocal {
            table, pushdown, ..
        } => {
            let batch =
                fdbs.catalog()
                    .local()
                    .scan_project_columnar(table.as_str(), pushdown, proj)?;
            meter.charge(
                Component::Fdbs,
                "Scan local table",
                cost.predicate_eval * batch.len() as u64,
            );
            batch
        }
        FromStep::ScanForeign {
            server,
            remote_name,
            pushdown,
            ..
        } => {
            // The SQL/MED boundary ships columns: one typed batch comes
            // back from the wrapper, not boxed rows.
            let batch = server.scan_project_columnar(remote_name, pushdown, proj)?;
            meter.charge(
                Component::Fdbs,
                format!("Subquery to SQL source {}", server.name()),
                cost.rmi_call + cost.rmi_return,
            );
            batch
        }
        FromStep::TableFunc { .. } => unreachable!("only scan steps are scanned"),
    };
    tally_batch(meter, &batch);
    Ok(batch)
}

/// Build the streaming operator for one lateral step with columnar eager
/// work: local and foreign scans cross the storage / SQL-MED boundary as
/// column batches, and a hash join keeps its build side in columns. Steps
/// with no columnar advantage (index probes, table functions) delegate to
/// the row path's [`prepare_step_op`].
#[allow(clippy::too_many_arguments)]
fn prepare_step_op_vectorized<'p>(
    fdbs: &Fdbs,
    step: &'p FromStep,
    position: usize,
    jk: Option<&'p crate::plan::JoinKey>,
    proj: Option<&'p [usize]>,
    access: Access,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Op<'p>> {
    let columnar = match (step, jk) {
        (FromStep::ScanLocal { table, schema, .. }, Some(jk)) => {
            !use_index_probe(fdbs, table, schema, jk, access)?
        }
        (FromStep::ScanLocal { .. } | FromStep::ScanForeign { .. }, _) => true,
        (FromStep::TableFunc { .. }, _) => false,
    };
    if !columnar {
        return prepare_step_op(fdbs, step, position, jk, proj, access, params, meter);
    }
    let batch = scan_step_cols(fdbs, step, proj, meter)?;
    join_op(BuildSide::Cols(batch), jk, proj)
}

/// What a vectorized operator arm decided for a columnar batch.
enum Planned {
    Done(VBatch),
    /// The kernel could not handle the batch (expression error, operator
    /// with no columnar form): re-run it through the row path.
    Fallback,
}

/// Push one batch through one operator. Columnar batches take the
/// vectorized arms; row batches and fallbacks use [`Op::push`] verbatim.
fn vop_push(
    fdbs: &Fdbs,
    op: &mut Op<'_>,
    batch: VBatch,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<VBatch> {
    let b = match batch {
        VBatch::Rows(rows) => return op.push(fdbs, rows, params, meter).map(VBatch::Rows),
        // Operators consume dense batches: a selection left over from an
        // upstream filter is gathered once here (rare — only stacked
        // filters or a filter feeding a join see one).
        VBatch::Cols(b, sel) => materialize(b, sel),
    };
    let planned = match op {
        Op::Filter { filter } => match eval_filter_mask(filter, &b, params) {
            Ok(sel) => {
                // One record for the whole batch: same total as the row
                // path's per-row "Evaluate predicates" charges.
                meter.charge(
                    Component::Fdbs,
                    "Evaluate predicates",
                    fdbs.cost().predicate_eval * b.len() as u64,
                );
                // No gather: the surviving rows ride along as a selection
                // vector for the consumer to read through.
                let sel = (sel.len() != b.len()).then_some(sel);
                Planned::Done(VBatch::Cols(b.clone(), sel))
            }
            // The row path re-evaluates from scratch: charges, partial
            // output, and the authoritative error all come from it.
            Err(_) => Planned::Fallback,
        },
        Op::HashJoin(join) => {
            if join.short_circuits(b.len()) {
                Planned::Done(VBatch::Rows(Vec::new()))
            } else {
                match join
                    .probe
                    .iter()
                    .map(|p| eval_vcol(p, &b, params))
                    .collect::<FedResult<Vec<VCol>>>()
                {
                    Err(_) => Planned::Fallback,
                    Ok(pcols) => {
                        let (left, right) = join.probe_cols(&pcols, b.len())?;
                        // A columnar build side gathers into a columnar
                        // output, so the operators after the join stay
                        // vectorized; a row build side composes rows.
                        Planned::Done(match &join.build {
                            BuildSide::Cols(build) => VBatch::Cols(
                                b.gather(&left).concat_columns(build.gather(&right)),
                                None,
                            ),
                            BuildSide::Rows(rows) => VBatch::Rows(
                                left.iter()
                                    .zip(&right)
                                    .map(|(&l, &r)| b.row(l as usize).concat(&rows[r as usize]))
                                    .collect(),
                            ),
                        })
                    }
                }
            }
        }
        Op::IndexProbe {
            table,
            pushdown,
            projection,
            build_col,
            probe,
            cache,
            scanned_total,
            out_count,
        } => match eval_vcol(probe, &b, params) {
            Err(_) => Planned::Fallback,
            Ok(pc) => {
                let local = fdbs.catalog().local();
                let mut out = Vec::new();
                for i in 0..b.len() {
                    let v = pc.value_at(i);
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
                    if !matches.is_empty() {
                        let left = b.row(i);
                        for r in matches.iter() {
                            out.push(left.concat(r));
                        }
                    }
                }
                *out_count += out.len();
                Planned::Done(VBatch::Rows(out))
            }
        },
        // Cross products and dependent UDTFs compose whole rows by
        // nature; materialize and reuse the row operator.
        Op::Cross { .. } | Op::DependentUdtf { .. } => Planned::Fallback,
    };
    match planned {
        Planned::Done(v) => Ok(v),
        Planned::Fallback => op.push(fdbs, b.to_rows(), params, meter).map(VBatch::Rows),
    }
}

/// Feed one batch to the sink. Returns `true` when LIMIT is satisfied.
fn vsink_push(
    sink: &mut Sink<'_>,
    plan: &Plan,
    batch: VBatch,
    params: &[Value],
    meter: &mut Meter,
    cost: &CostModel,
) -> FedResult<bool> {
    let (b, sel) = match batch {
        VBatch::Rows(rows) => return sink_push(sink, plan, rows, params, meter, cost),
        VBatch::Cols(b, sel) => (b, sel),
    };
    // DISTINCT interleaves dedup with the LIMIT early-exit per row; the
    // row sink is the reference for that ordering.
    if matches!(sink, Sink::Project { seen: Some(_), .. }) {
        return sink_push(
            sink,
            plan,
            selected_rows(&b, sel.as_deref()),
            params,
            meter,
            cost,
        );
    }
    match sink {
        Sink::Sort(rows) => {
            // The sort buffer is a materialization point; what crossed
            // into it was a column batch, so count column bytes (of the
            // selected subset, if a filter left a selection attached).
            meter.tally_materialized(
                sel.as_ref().map_or(b.len(), Vec::len) as u64,
                match &sel {
                    Some(s) => b.approx_bytes_selected(s) as u64,
                    None => b.approx_bytes() as u64,
                },
            );
            rows.extend(selected_rows(&b, sel.as_deref()));
            Ok(false)
        }
        Sink::Aggregate(agg) => {
            // Aggregation walks every selected row anyway; collapse the
            // selection once so key/argument kernels see a dense batch.
            let b = materialize(b, sel);
            let ap = agg.agg_plan();
            let keys = ap
                .keys
                .iter()
                .map(|k| eval_vcol(k, &b, params))
                .collect::<FedResult<Vec<VCol>>>();
            let args = ap
                .columns
                .iter()
                .map(|(col, _)| match col {
                    AggColumn::Agg { arg: Some(arg), .. } => eval_vcol(arg, &b, params).map(Some),
                    _ => Ok(None),
                })
                .collect::<FedResult<Vec<Option<VCol>>>>();
            match (keys, args) {
                (Ok(kc), Ok(ac)) => {
                    agg.charge_batch(meter, b.len() as u64);
                    agg.push_cols(&kc, &ac, b.len());
                    Ok(false)
                }
                // Key or argument evaluation failed somewhere in the
                // batch: the row path finds the first offending row and
                // charges/accumulates up to it.
                _ => {
                    for row in &b.to_rows() {
                        agg.push(row, params, meter)?;
                    }
                    Ok(false)
                }
            }
        }
        Sink::Project { out, seen: None } => {
            if plan.limit.is_some_and(|l| out.row_count() as u64 >= l) {
                return Ok(true);
            }
            // Bare-column projections read *through* the selection vector:
            // the filter's survivors are never gathered at all. Computed
            // projections collapse the selection first so expressions are
            // only evaluated on surviving rows — exactly the rows the
            // row-at-a-time path would see.
            let bare = plan
                .projection
                .iter()
                .all(|(e, _)| matches!(e, BoundExpr::Column { .. }));
            let (b, sel) = if bare {
                (b, sel)
            } else {
                (materialize(b, sel), None)
            };
            // LIMIT early-exit at batch granularity: only the rows that
            // can still be emitted are projected at all.
            let avail = sel.as_ref().map_or(b.len(), Vec::len);
            let take = match plan.limit {
                Some(l) => avail.min((l - out.row_count() as u64) as usize),
                None => avail,
            };
            let eb = if bare { b.clone() } else { b.head(take) };
            match plan
                .projection
                .iter()
                .map(|(e, _)| eval_vcol(e, &eb, params))
                .collect::<FedResult<Vec<VCol>>>()
            {
                Ok(pcols) => {
                    meter.charge(
                        Component::Fdbs,
                        "Produce result rows",
                        cost.row_output * take as u64,
                    );
                    // Box each projected column for the selected rows in
                    // one typed pass, then zip the columns into rows —
                    // the per-value type/validity dispatch happens once
                    // per column instead of once per cell.
                    let sel_slice = sel.as_deref();
                    let mut emitted: Vec<std::vec::IntoIter<Value>> = pcols
                        .iter()
                        .map(|c| match c {
                            VCol::Const(v) => vec![v.clone(); take],
                            VCol::Col(c) => c.values_selected(eb.len(), sel_slice, take),
                        })
                        .map(Vec::into_iter)
                        .collect();
                    for _ in 0..take {
                        out.push_unchecked(Row::new(
                            emitted
                                .iter_mut()
                                .map(|it| it.next().expect("take values per column"))
                                .collect(),
                        ));
                    }
                    Ok(plan.limit.is_some_and(|l| out.row_count() as u64 >= l))
                }
                Err(_) => {
                    // Row-path reference: evaluate, charge, emit and stop
                    // at LIMIT row by row until the authoritative error.
                    for row in &selected_rows(&b, sel.as_deref()) {
                        let values: Vec<Value> = plan
                            .projection
                            .iter()
                            .map(|(e, _)| e.eval(row.values(), params))
                            .collect::<FedResult<_>>()?;
                        meter.charge(Component::Fdbs, "Produce result rows", cost.row_output);
                        out.push_unchecked(Row::new(values));
                        if plan.limit.is_some_and(|l| out.row_count() as u64 >= l) {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                }
            }
        }
        Sink::Project { seen: Some(_), .. } => unreachable!("handled above"),
    }
}

/// The [`ExecMode::Columnar`](fedwf_sim::ExecMode) executor of
/// [`crate::exec::execute_plan`]. Mirrors `execute_streaming` stage for stage — same
/// probe names, same deferred charges, same LIMIT-driven early stop.
pub(crate) fn execute_streaming_vectorized(
    fdbs: &Fdbs,
    plan: &Plan,
    params: &[Value],
    meter: &mut Meter,
) -> FedResult<Table> {
    let cost = fdbs.cost();

    let leads = scan_leads(plan);
    let mut source = match plan.steps.first() {
        Some(FromStep::ScanLocal {
            table, pushdown, ..
        }) if leads => VSource::Chunked {
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
            let batch =
                scan_step_cols(fdbs, step, proj, meter).context(from_item_context(0, step))?;
            VSource::Batch(Some(VBatch::Cols(batch, None)))
        }
        _ => VSource::Batch(Some(VBatch::Rows(vec![Row::empty()]))),
    };

    let mut ops = prepare_ops(fdbs, plan, params, meter, leads, prepare_step_op_vectorized)?;
    let mut sink = new_sink(plan, cost);

    let mut probes = meter
        .tracing()
        .then(|| StreamProbes::new(plan, leads, &ops, &sink, meter));
    let tracing = probes.is_some();
    let wall = tracing && meter.wall_sampling();

    loop {
        let (w0, v0) = probe_mark(wall, meter);
        let Some(mut batch) = source.next_batch(fdbs)? else {
            break;
        };
        if let Some(p) = probes.as_mut() {
            p.source.record_counts(
                meter.now_us() - v0,
                elapsed_ns(w0),
                batch.len() as u64,
                batch.approx_bytes(),
            );
        }
        for (i, op) in ops.iter_mut().enumerate() {
            let (w0, v0) = probe_mark(wall, meter);
            batch = vop_push(fdbs, op, batch, params, meter)
                .context(format!("evaluating streaming operator {}", i + 1))?;
            if let Some(p) = probes.as_mut() {
                p.ops[i].record_counts(
                    meter.now_us() - v0,
                    elapsed_ns(w0),
                    batch.len() as u64,
                    batch.approx_bytes(),
                );
            }
        }
        let (w0, v0) = probe_mark(wall, meter);
        let in_counts = tracing.then(|| (batch.len() as u64, batch.approx_bytes()));
        let done = vsink_push(&mut sink, plan, batch, params, meter, cost)?;
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
