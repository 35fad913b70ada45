//! The traced run: per-layer metrics, measured from outside the program.
//!
//! Three phases share one setup:
//!
//! 1. a single-client probe, first, on the fresh server: each generated
//!    read goes through every public entry point in turn — `TcpClient`
//!    (when the workload uses the network), `ServerFront::execute`,
//!    `IntegrationServer::execute`, the direct `DeployedFunction::call` /
//!    `Fdbs::execute_with_params`, and the direct call again under a
//!    wall-sampled tracing `Meter` — and the `wire` codec and
//!    `parse_statement` are timed on the same request. Per-read
//!    differences between adjacent entry points give the network, front
//!    and server stages; the span tree splits the direct call into layers;
//! 2. an untraced closed loop (the workload's clients) — the baseline for
//!    the tracing overhead, the drift windows, the write latencies and the
//!    group-commit counters;
//! 3. the same loop with `Request::traced(true)` — the production tracing
//!    cost.

use std::time::{Duration, Instant};

use fedwf_core::{wire, Outcome, Request, Target};
use fedwf_sim::{Meter, TraceNode};
use fedwf_types::{FedError, FedResult, Table};

use crate::drive::{self, Checked, LoopResult};
use crate::report::{median, percentile_us, Report};
use crate::rig::{self, Rig, ORDERS_TABLE};
use crate::workload::{Inputs, Op, Purchase, Workload};
use crate::{check, setup};

/// Largest share by which the summed stages may miss the single-client
/// mean latency. The spans add their own cost (two clock reads and a node
/// per span), so the sum runs above the untraced latency by the tracing
/// overhead of the direct call.
pub const STAGE_TOLERANCE: f64 = 0.25;

/// Generator stream of the probe (client streams are `0..clients`).
const PROBE_STREAM: u64 = 1_000;

/// Wall time of one traced direct call, split by layer with no time
/// counted twice.
#[derive(Debug, Default, Clone, Copy)]
struct LayerTimes {
    fdbs_ns: u64,
    wrapper_ns: u64,
    wfms_ns: u64,
    appsys_ns: u64,
    other_ns: u64,
    udtf_calls: u64,
    activities: u64,
    locals: u64,
}

/// A streaming operator's span is attached after its pipeline drained and
/// carries the operator's accumulated active time, which overlaps sibling
/// spans it caused (`dependent-udtf X` contains the `udtf X` invocations
/// next to it). Such leaves carry a `batches` counter.
fn is_operator_leaf(node: &TraceNode) -> bool {
    node.children.is_empty() && node.counter("batches").is_some()
}

/// Self time of every span: its wall time minus the wall time of its
/// nested (non-operator) children. Operator leaves are never subtracted
/// and never counted on their own; their time stays in the enclosing
/// FDBS span, so each nanosecond lands in exactly one layer.
fn attribute(node: &TraceNode, acc: &mut LayerTimes) {
    let nested: u64 = node
        .children
        .iter()
        .filter(|c| !is_operator_leaf(c))
        .map(|c| c.wall_ns)
        .sum();
    let own = node.wall_ns.saturating_sub(nested);
    let name: &str = &node.name;
    if name.starts_with("udtf ") {
        acc.udtf_calls += 1;
    } else if name.starts_with("activity ") {
        acc.activities += 1;
    } else if name.starts_with("local ") {
        acc.locals += 1;
    }
    if !is_operator_leaf(node) {
        let slot = if name.starts_with("fdbs.") || name.starts_with("udtf ") {
            &mut acc.fdbs_ns
        } else if name.starts_with("wrapper ") || name.starts_with("controller.") {
            &mut acc.wrapper_ns
        } else if name.starts_with("wfms.") || name.starts_with("activity ") {
            &mut acc.wfms_ns
        } else if name.starts_with("local ") {
            &mut acc.appsys_ns
        } else {
            &mut acc.other_ns
        };
        *slot += own;
    }
    for child in &node.children {
        attribute(child, acc);
    }
}

/// Everything measured for one probed read.
#[derive(Debug, Default, Clone, Copy)]
struct Probed {
    class: usize,
    tcp_ns: u64,
    front_ns: u64,
    server_ns: u64,
    direct_ns: u64,
    layers: LayerTimes,
    codec_ns: u64,
    request_bytes: u64,
    reply_bytes: u64,
    parse_ns: u64,
    rows_materialized: u64,
    compiled: bool,
    template_loaded: bool,
}

impl Probed {
    /// The single-client latency at the workload's own entry point.
    fn top_ns(&self, net: bool) -> u64 {
        if net {
            self.tcp_ns
        } else {
            self.front_ns
        }
    }

    fn wire_ns(&self, net: bool) -> i64 {
        if net {
            self.tcp_ns as i64 - self.front_ns as i64
        } else {
            0
        }
    }

    fn handoff_ns(&self) -> i64 {
        self.front_ns as i64 - self.server_ns as i64
    }

    fn overhead_ns(&self) -> i64 {
        self.server_ns as i64 - self.direct_ns as i64
    }
}

fn timed<T>(f: impl FnOnce() -> FedResult<T>) -> FedResult<(u64, T)> {
    let t0 = Instant::now();
    let out = f()?;
    Ok((t0.elapsed().as_nanos() as u64, out))
}

/// Call the layer beneath `IntegrationServer::execute` directly.
fn direct(rig: &Rig, request: &Request, meter: &mut Meter) -> FedResult<Table> {
    match request.target() {
        Target::Function(name) => rig
            .server
            .deployed_function(name)?
            .call(request.params_ref().positional(), meter),
        Target::Sql(sql) => {
            rig.server
                .fdbs()
                .execute_with_params(sql, &request.params_ref().named_pairs(), meter)
        }
    }
}

/// The statement the FDBS parses for `request`.
fn statement_of(rig: &Rig, request: &Request) -> FedResult<String> {
    Ok(match request.target() {
        Target::Function(name) => rig.server.deployed_function(name)?.call_sql.clone(),
        Target::Sql(sql) => sql.clone(),
    })
}

/// The ways one probed read is executed.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Tcp,
    Front,
    Server,
    Direct,
    TracedDirect,
}

/// Execute `request` through every entry point. The order rotates with
/// `turn`, so each entry point runs first (on the coldest caches) equally
/// often and the differences between them carry no ordering bias.
fn probe_one(rig: &Rig, request: &Request, turn: usize) -> FedResult<(Probed, Outcome)> {
    let net = rig.workload.uses_net();
    let mut entries = vec![
        Entry::Front,
        Entry::Server,
        Entry::Direct,
        Entry::TracedDirect,
    ];
    if net {
        entries.push(Entry::Tcp);
    }
    let k = entries.len();
    entries.rotate_left(turn % k);
    let mut p = Probed::default();
    let mut front_outcome = None;
    for entry in entries {
        match entry {
            Entry::Tcp => p.tcp_ns = timed(|| rig.submit(request.clone()))?.0,
            Entry::Front => {
                let (ns, outcome) = timed(|| rig.front.execute(request.clone()))?;
                p.front_ns = ns;
                front_outcome = Some(outcome);
            }
            Entry::Server => p.server_ns = timed(|| rig.server.execute(request))?.0,
            Entry::Direct => {
                let mut meter = Meter::new();
                p.direct_ns = timed(|| direct(rig, request, &mut meter))?.0;
                p.rows_materialized = meter.rows_materialized();
                p.compiled = meter
                    .charges()
                    .iter()
                    .any(|c| c.step == "Compile statement");
                p.template_loaded = meter
                    .charges()
                    .iter()
                    .any(|c| c.step.starts_with("Load workflow template"));
            }
            Entry::TracedDirect => {
                let mut traced = Meter::new();
                traced.set_tracing(true);
                traced.set_wall_sampling(true);
                direct(rig, request, &mut traced)?;
                let tree = traced
                    .finish_trace()
                    .ok_or_else(|| FedError::execution("tracing meter returned no span tree"))?;
                attribute(&tree, &mut p.layers);
            }
        }
    }
    let outcome = front_outcome.expect("every probe runs the front entry point");
    if net {
        let t0 = Instant::now();
        let req_bytes = wire::encode_request(request, Some(Duration::from_secs(60)));
        wire::decode_request(&req_bytes)?;
        let reply_bytes = wire::encode_outcome(&outcome);
        wire::decode_outcome(&reply_bytes)?;
        p.codec_ns = t0.elapsed().as_nanos() as u64;
        p.request_bytes = req_bytes.len() as u64;
        p.reply_bytes = reply_bytes.len() as u64;
    }
    let sql = statement_of(rig, request)?;
    p.parse_ns = timed(|| fedwf_sql::parse_statement(&sql))?.0;
    Ok((p, outcome))
}

#[derive(Debug, Default)]
struct ProbeResult {
    reads: Vec<Probed>,
    /// Parse time of the INSERT statements.
    write_parse_ns: Vec<u64>,
    checked: Vec<Checked>,
    acked: Vec<Purchase>,
    attempted: u64,
}

/// Single-client probe for `duration`. INSERTs go through the
/// workload's entry point once each (a row can be inserted only once);
/// reads go through every entry point.
fn probe(rig: &Rig, inputs: &Inputs, duration: Duration) -> FedResult<ProbeResult> {
    let mut generator = inputs.generator(rig.workload, PROBE_STREAM);
    let mut out = ProbeResult::default();
    let t0 = Instant::now();
    while t0.elapsed() < duration {
        let Op {
            class,
            request,
            check,
            write,
        } = generator.next_op();
        out.attempted += 1;
        if let Some(write) = write {
            let sql = statement_of(rig, &request)?;
            out.write_parse_ns
                .push(timed(|| fedwf_sql::parse_statement(&sql))?.0);
            rig.submit(request)?;
            out.acked.push(write);
            continue;
        }
        let (mut probed, outcome) = probe_one(rig, &request, out.reads.len())?;
        probed.class = class;
        out.reads.push(probed);
        if check {
            out.checked.push(Checked {
                class,
                request,
                elapsed_us: outcome.elapsed_us(),
                table: check::fingerprint(&outcome.table),
            });
        }
    }
    Ok(out)
}

fn mean_of(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

pub fn run(workload: Workload, seed: u64, duration: Duration) -> FedResult<Report> {
    let inputs = Inputs::new(seed);
    let (rig, _) = setup(workload, &inputs, 1)?;
    let local = rig.server.fdbs().catalog().local();
    let submit = |r: Request| rig.submit(r);

    let probed = probe(&rig, &inputs, duration.mul_f64(0.4))?;
    let commits_before = local.commit_stats().unwrap_or_default();
    let wal_before = rig.store_dir.as_deref().map_or(0, rig::wal_bytes);
    let untraced = drive::closed_loop(&submit, &inputs, workload, duration.mul_f64(0.4), false);
    let commits = local.commit_stats().unwrap_or_default();
    let wal_after = rig.store_dir.as_deref().map_or(0, rig::wal_bytes);
    let traced = drive::closed_loop(&submit, &inputs, workload, duration.mul_f64(0.2), true);

    let foreign_scan_us = match &rig.orders {
        Some(orders) => {
            let mut times = Vec::new();
            for _ in 0..15 {
                times.push(timed(|| orders.scan_all(ORDERS_TABLE))?.0 as f64 / 1e3);
            }
            median(&mut times)
        }
        None => 0.0,
    };
    let cached_plans = rig.server.fdbs().cached_plan_count();
    let front = rig.front.stats();
    let store_dir = rig.store_dir.clone();
    rig.shut_down();

    let mut report = Report::new(workload, seed, true);
    let net = workload.uses_net();
    let single_p50 = {
        let mut tops: Vec<u64> = probed.reads.iter().map(|p| p.top_ns(net)).collect();
        tops.sort_unstable();
        percentile_us(&tops, 0.5)
    };
    // Layer times are means over the probed reads, so they add up; the
    // slowest 1% (by entry-point latency) are dropped first, so a
    // preempted call does not swing them.
    let reads: Vec<&Probed> = {
        let mut tops: Vec<u64> = probed.reads.iter().map(|p| p.top_ns(net)).collect();
        tops.sort_unstable();
        let cut = (percentile_us(&tops, 0.99) * 1e3) as u64;
        probed
            .reads
            .iter()
            .filter(|p| p.top_ns(net) <= cut)
            .collect()
    };
    let stage_mean = |f: &dyn Fn(&Probed) -> f64| mean_of(reads.iter().map(|p| f(p))) / 1e3;
    let stages = [
        (
            "net.wire_overhead_us",
            stage_mean(&|p| p.wire_ns(net) as f64),
        ),
        ("front.handoff_us", stage_mean(&|p| p.handoff_ns() as f64)),
        (
            "server.overhead_us",
            stage_mean(&|p| p.overhead_ns() as f64),
        ),
        ("fdbs.self_us", stage_mean(&|p| p.layers.fdbs_ns as f64)),
        (
            "wrapper.self_us",
            stage_mean(&|p| p.layers.wrapper_ns as f64),
        ),
        ("wfms.self_us", stage_mean(&|p| p.layers.wfms_ns as f64)),
        (
            "appsys.local_us",
            stage_mean(&|p| p.layers.appsys_ns as f64),
        ),
    ];
    let other_us = stage_mean(&|p| p.layers.other_ns as f64);
    let stage_sum = stages.iter().map(|(_, v)| v).sum::<f64>() + other_us;
    // The stages are means, so they are checked against the mean
    // single-client latency of the same reads; a skewed mix (one heavy
    // function) puts the p50 well below the mean.
    let single_mean = stage_mean(&|p| p.top_ns(net) as f64);
    let gap_share = stage_sum / single_mean - 1.0;
    for (name, value) in stages {
        report.metric(name, value, "us");
    }
    report.metric("net.codec_us", stage_mean(&|p| p.codec_ns as f64), "us");
    report.metric(
        "net.request_bytes",
        mean_of(reads.iter().map(|p| p.request_bytes as f64)),
        "bytes",
    );
    report.metric(
        "net.reply_bytes",
        mean_of(reads.iter().map(|p| p.reply_bytes as f64)),
        "bytes",
    );
    report.metric("front.shed", front.shed as f64, "count");
    report.metric(
        "front.expired_in_queue",
        front.expired_in_queue as f64,
        "count",
    );
    report.metric(
        "fdbs.rows_materialized",
        mean_of(reads.iter().map(|p| p.rows_materialized as f64)),
        "rows",
    );
    report.metric(
        "fdbs.udtf_calls_per_query",
        mean_of(reads.iter().map(|p| p.layers.udtf_calls as f64)),
        "count",
    );
    report.metric(
        "fdbs.compile_share",
        mean_of(reads.iter().map(|p| f64::from(u8::from(p.compiled)))),
        "share",
    );
    report.metric("fdbs.cached_plans", cached_plans as f64, "count");
    let parse_us = if workload.writes() {
        mean_of(probed.write_parse_ns.iter().map(|&n| n as f64)) / 1e3
    } else {
        stage_mean(&|p| p.parse_ns as f64)
    };
    report.metric("sqlparse.parse_us", parse_us, "us");
    report.metric(
        "wrapper.template_load_share",
        mean_of(reads.iter().map(|p| f64::from(u8::from(p.template_loaded)))),
        "share",
    );
    report.metric(
        "wfms.activities_per_call",
        mean_of(reads.iter().map(|p| p.layers.activities as f64)),
        "count",
    );
    report.metric(
        "appsys.local_calls_per_op",
        mean_of(reads.iter().map(|p| p.layers.locals as f64)),
        "count",
    );

    let writes_acked = untraced.acked.len() as f64;
    let commit_delta =
        |f: fn(&fedwf_relstore::CommitStats) -> u64| (f(&commits) - f(&commits_before)) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.metric(
        "relstore.syncs_per_commit",
        ratio(commit_delta(|c| c.syncs), commit_delta(|c| c.commits)),
        "ratio",
    );
    report.metric(
        "relstore.commits_per_batch",
        ratio(commit_delta(|c| c.commits), commit_delta(|c| c.batches)),
        "ratio",
    );
    report.metric(
        "relstore.wal_bytes_per_write",
        ratio((wal_after - wal_before) as f64, writes_acked),
        "bytes",
    );
    report.metric("relstore.foreign_scan_us", foreign_scan_us, "us");
    let untraced_total = untraced.total();
    report.metric(
        "relstore.write_p50_us",
        untraced_total.writes.percentile_us(0.50),
        "us",
    );
    report.metric(
        "relstore.write_p99_us",
        untraced_total.writes.percentile_us(0.99),
        "us",
    );
    report.metric(
        "sim.trace_overhead_share",
        traced.total().reads.percentile_us(0.5) / untraced_total.reads.percentile_us(0.5) - 1.0,
        "share",
    );
    report.metric("stages.single_client_p50_us", single_p50, "us");
    report.metric("stages.single_client_mean_us", single_mean, "us");
    report.metric("stages.sum_us", stage_sum, "us");
    report.metric("stages.gap_share", gap_share, "share");
    let (first, last) = untraced.window_throughputs();
    report.metric("drift.last_over_first", ratio(last, first), "ratio");
    report.metric("drift.wal_bytes", wal_after as f64, "bytes");

    report.note(format!(
        "probe: {} reads through every entry point ({} kept); stage sum {stage_sum:.3} us (unattributed spans {other_us:.3} us) vs single-client mean {single_mean:.3} us (gap {gap_share:+.4}, tolerance {STAGE_TOLERANCE}); single-client p50 {single_p50:.3} us",
        probed.reads.len(),
        reads.len(),
    ));
    for (class, name) in workload.classes().iter().enumerate() {
        let of_class: Vec<&&Probed> = reads.iter().filter(|p| p.class == class).collect();
        if of_class.is_empty() {
            continue;
        }
        let mean = |f: &dyn Fn(&Probed) -> u64| mean_of(of_class.iter().map(|p| f(p) as f64)) / 1e3;
        report.note(format!(
            "probe {name}: {} reads, mean us: tcp {:.1} front {:.1} server {:.1} direct {:.1} traced layers fdbs {:.1} wrapper {:.1} wfms {:.1} appsys {:.1}",
            of_class.len(),
            mean(&|p| p.tcp_ns),
            mean(&|p| p.front_ns),
            mean(&|p| p.server_ns),
            mean(&|p| p.direct_ns),
            mean(&|p| p.layers.fdbs_ns),
            mean(&|p| p.layers.wrapper_ns),
            mean(&|p| p.layers.wfms_ns),
            mean(&|p| p.layers.appsys_ns),
        ));
    }
    report.note(format!(
        "untraced loop {} ops, traced loop {} ops, probe {} ops",
        untraced.attempted(),
        traced.attempted(),
        probed.attempted
    ));
    if gap_share.abs() > STAGE_TOLERANCE || reads.is_empty() {
        report.correct = false;
        report.note("stage sum outside its tolerance".into());
    }

    report.attempted = untraced.attempted() + traced.attempted() + probed.attempted;
    report.failed = untraced.failed + traced.failed;
    for phase in [&untraced, &traced] {
        if let Some(e) = &phase.first_error {
            report.note(format!("first failure: {e}"));
        }
    }
    let LoopResult { checked, acked, .. } = untraced;
    let mut sampled = checked;
    sampled.extend(traced.checked);
    sampled.extend(probed.checked);
    let result = check::against_reference(workload, &inputs, &sampled)?;
    report.absorb_check("reference", &result);
    if let Some(dir) = store_dir {
        let mut all_acked = acked;
        all_acked.extend(traced.acked);
        all_acked.extend(probed.acked);
        let result = check::acked_writes(&dir, &inputs, &all_acked)?;
        report.absorb_check("acked writes", &result);
        rig::remove_store(&dir)?;
    }
    Ok(report)
}
