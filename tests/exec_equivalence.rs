//! Every executor *and* every planner must be observationally equivalent
//! to the naive (Cartesian-product, syntactic-order) reference path: the
//! same row multiset for every query, and — with dependent-UDTF
//! memoization off — the same multiset of non-FDBS ("architecture")
//! charges, since composition strategy and join order are FDBS-internal
//! concerns that must never leak into what the paper measures about the
//! architectures. Part A drives generated join/filter/DISTINCT/aggregate
//! queries (including 3-way joins over skewed-NDV columns) straight into
//! an [`fedwf::fdbs::Fdbs`], crossing executor × planner mode, and hold the
//! naive executor to the same result over a bound plan with and without
//! projection pruning; Part B replays the paper's Fig. 5 workload on all four
//! integration architectures under both executors. The two streaming
//! executors (row batches and column batches) are held to the stricter
//! parity contract of `crates/fdbs/src/vexec.rs`: identical rows in
//! identical order, identical virtual time, identical probe names.

use std::sync::Arc;

use fedwf::core::{
    paper_functions, ArchitectureKind, IntegrationConfig, IntegrationServer, Request,
};
use fedwf::fdbs::exec::execute_plan;
use fedwf::fdbs::optimizer::optimize;
use fedwf::fdbs::{
    ChargeItem, ChargeSpec, ExecMode, ExecOptions, Fdbs, Plan, PlanBuilder, PlannerMode,
    RelstoreServer, Udtf,
};
use fedwf::relstore::Database;
use fedwf::sim::{Charge, Component, CostModel, Meter};
use fedwf::sql::{parse_statement, Statement};
use fedwf::types::check;
use fedwf::types::rng::Rng;
use fedwf::types::{DataType, Ident, Row, Schema, Table, Value};
use fedwf_bench::args_for;

// ---------------------------------------------------------------------------
// Part A: generated queries against one FDBS instance
// ---------------------------------------------------------------------------

/// A join key in 0..10 (guaranteed collisions), sometimes NULL — NULL keys
/// must be dropped identically by the residual filter and the hash join.
/// `null_p` is the NULL probability; NULL-heavy federations push it up so
/// the validity bitmaps in the columnar path carry real weight.
fn gen_key(rng: &mut Rng, null_p: f64) -> Value {
    if rng.gen_bool(null_p) {
        Value::Null
    } else {
        Value::Int(rng.range_i32(0, 9))
    }
}

fn insert_rows(fdbs: &Fdbs, table: &str, rows: &[String]) {
    if rows.is_empty() {
        return;
    }
    let mut meter = Meter::new();
    fdbs.execute(
        &format!("INSERT INTO {table} VALUES {}", rows.join(", ")),
        &mut meter,
    )
    .unwrap();
}

fn render_lit(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        other => other.render(),
    }
}

/// A DOUBLE for F.D: mostly small integral values (so it joins against
/// INT keys), plus `-0.0` (equal to `0.0` and to INT 0), non-integral
/// values, values near f64 overflow (their sums overflow to infinity),
/// NULL, and — only when `nan` — NaN.
fn gen_double(rng: &mut Rng, nan: bool) -> Value {
    match rng.range_usize(0, 10) {
        0 => Value::Double(-0.0),
        1 => Value::Double(if rng.gen_bool(0.5) { 1.7e308 } else { -1.7e308 }),
        2 if nan => Value::Double(f64::NAN),
        3 => Value::Null,
        4 => Value::Double(f64::from(rng.range_i32(0, 9)) + 0.5),
        _ => Value::Double(f64::from(rng.range_i32(0, 9))),
    }
}

/// One randomized federation: local T1(K, V, S), local-or-foreign
/// T2(K, W) (local sometimes carries a unique index on K, the
/// index-probe-join path), an always-foreign F(K, D, W) with a DOUBLE
/// column, and a deterministic dependent UDTF with an architecture charge
/// spec. A quarter of the federations are NULL-heavy (60% NULL keys,
/// NULLable V) and mix empty strings into S, so the columnar validity
/// bitmaps and varchar offset pairs get exercised on degenerate shapes,
/// not just the happy path. The returned flag says whether F.D holds a
/// NaN.
fn gen_federation(rng: &mut Rng) -> (Fdbs, bool) {
    let fdbs = Fdbs::new(CostModel::default());
    let mut meter = Meter::new();
    fdbs.execute("CREATE TABLE T1 (K INT, V INT, S VARCHAR)", &mut meter)
        .unwrap();

    let null_p = if rng.gen_bool(0.25) { 0.6 } else { 0.15 };
    let n1 = rng.range_usize(0, 30);
    let rows: Vec<String> = (0..n1)
        .map(|_| {
            let v = if rng.gen_bool(null_p / 4.0) {
                "NULL".to_string()
            } else {
                rng.range_i32(-50, 50).to_string()
            };
            // Empty strings are the varchar-offset edge case: two equal
            // adjacent offsets, zero bytes appended.
            let s = if rng.gen_bool(0.2) {
                String::new()
            } else {
                rng.ascii_string(b"abcdefgh", 4)
            };
            format!("({}, {v}, '{s}')", render_lit(&gen_key(rng, null_p)))
        })
        .collect();
    insert_rows(&fdbs, "T1", &rows);

    let n2 = rng.range_usize(0, 30);
    let foreign = rng.gen_bool(0.3);
    let indexed = !foreign && rng.gen_bool(0.4);
    if foreign {
        let remote = Database::new("remote");
        remote
            .create_table(
                "T2R",
                Arc::new(Schema::of(&[("K", DataType::Int), ("W", DataType::Int)])),
            )
            .unwrap();
        for _ in 0..n2 {
            remote
                .insert(
                    "T2R",
                    Row::new(vec![
                        gen_key(rng, null_p),
                        Value::Int(rng.range_i32(-50, 50)),
                    ]),
                )
                .unwrap();
        }
        fdbs.catalog()
            .register_foreign_table(
                "T2",
                Arc::new(RelstoreServer::new("erp", Arc::new(remote))),
                "T2R",
            )
            .unwrap();
    } else {
        fdbs.execute("CREATE TABLE T2 (K INT, W INT)", &mut meter)
            .unwrap();
        if indexed {
            // A unique index demands distinct keys; cover the
            // index-probe-join path with keys 0..n2.
            fdbs.execute("CREATE UNIQUE INDEX t2_k ON T2 (K)", &mut meter)
                .unwrap();
            let rows: Vec<String> = (0..n2.min(10))
                .map(|k| format!("({k}, {})", rng.range_i32(-50, 50)))
                .collect();
            insert_rows(&fdbs, "T2", &rows);
        } else {
            let rows: Vec<String> = (0..n2)
                .map(|_| {
                    format!(
                        "({}, {})",
                        render_lit(&gen_key(rng, null_p)),
                        rng.range_i32(-50, 50)
                    )
                })
                .collect();
            insert_rows(&fdbs, "T2", &rows);
        }
    }

    // T3 gives the planner a genuine 3-way reorder decision with *skewed*
    // NDV: most keys collapse onto one hot value, so equality selectivity
    // estimated from NDV is badly wrong in a way the equivalence contract
    // must absorb (a bad plan may be slow, never incorrect).
    fdbs.execute("CREATE TABLE T3 (K INT, Z INT)", &mut meter)
        .unwrap();
    let n3 = rng.range_usize(0, 40);
    let hot = rng.range_i32(0, 9);
    let rows: Vec<String> = (0..n3)
        .map(|_| {
            let k = if rng.gen_bool(0.85) {
                Value::Int(hot)
            } else {
                gen_key(rng, null_p)
            };
            format!("({}, {})", render_lit(&k), rng.range_i32(-50, 50))
        })
        .collect();
    insert_rows(&fdbs, "T3", &rows);

    // F leads the queries that open with a foreign table, so the wrapper's
    // column batch is the pipeline source. NaN reaches F.D in a third of
    // the federations.
    let nan = rng.gen_bool(0.3);
    let rows: Vec<Row> = (0..rng.range_usize(0, 40))
        .map(|_| {
            Row::new(vec![
                gen_key(rng, null_p),
                gen_double(rng, nan),
                Value::Int(rng.range_i32(-50, 50)),
            ])
        })
        .collect();
    register_f(&fdbs, "F", rows);

    // Deterministic dependent UDTF with an A-UDTF-style charge spec, so a
    // divergence in invocation counts shows up in the charge multiset.
    fdbs.register_udtf(
        Udtf::native(
            "Dep",
            vec![(Ident::new("K"), DataType::Int)],
            Arc::new(Schema::of(&[("M", DataType::Int)])),
            |args, _m| {
                let mut t = Table::new(Arc::new(Schema::of(&[("M", DataType::Int)])));
                if let Some(k) = args[0].as_i64() {
                    for i in 0..k.rem_euclid(3) {
                        t.push(Row::new(vec![Value::Int((k * 10 + i) as i32)]))?;
                    }
                }
                Ok(t)
            },
        )
        .with_charges(ChargeSpec {
            on_start: vec![
                ChargeItem::new(Component::Udtf, "Start A-UDTF", 7),
                ChargeItem::new(Component::Rmi, "RMI call", 5),
            ],
            on_finish: vec![ChargeItem::new(Component::Udtf, "Finish A-UDTF", 3)],
        }),
    )
    .unwrap();

    // Half the federations carry fresh statistics, half plan on defaults —
    // the cost-based planner must be equivalent either way.
    if rng.gen_bool(0.5) {
        fdbs.analyze().unwrap();
    }
    (fdbs, nan)
}

/// One generated statement and its host-variable binds.
struct Query {
    sql: String,
    params: Vec<(&'static str, Value)>,
}

impl From<String> for Query {
    fn from(sql: String) -> Query {
        Query {
            sql,
            params: Vec::new(),
        }
    }
}

impl From<&str> for Query {
    fn from(sql: &str) -> Query {
        Query::from(sql.to_string())
    }
}

impl Query {
    fn bind(mut self, name: &'static str, v: i32) -> Query {
        self.params.push((name, Value::Int(v)));
        self
    }

    fn run(&self, fdbs: &Fdbs, meter: &mut Meter) -> Result<Table, String> {
        let params: Vec<(&str, Value)> = self.params.iter().map(|(n, v)| (*n, v.clone())).collect();
        fdbs.execute_with_params(&self.sql, &params, meter)
            .map_err(|e| e.to_string())
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {:?}", self.sql, self.params)
    }
}

/// A generated query, and whether it joins on the DOUBLE column `F.D` —
/// the only generated join key a NaN can reach.
fn gen_query(rng: &mut Rng) -> (Query, bool) {
    let pick = rng.range_usize(0, 14);
    let q = match pick {
        0 => "SELECT A.V, B.W FROM T1 AS A, T2 AS B WHERE B.K = A.K".into(),
        1 => format!(
            "SELECT A.S, B.W FROM T1 AS A, T2 AS B WHERE B.K = A.K AND B.W > {}",
            rng.range_i32(-50, 50)
        )
        .into(),
        2 => "SELECT DISTINCT A.K FROM T1 AS A".into(),
        3 => "SELECT A.K, COUNT(*) AS c FROM T1 AS A, T2 AS B \
              WHERE B.K = A.K GROUP BY A.K ORDER BY 2 DESC"
            .into(),
        4 => "SELECT A.V, D.M FROM T1 AS A, TABLE (Dep(A.K)) AS D".into(),
        5 => "SELECT COUNT(*) AS n, SUM(A.V) AS s FROM T1 AS A, T2 AS B WHERE B.K = A.K".into(),
        // Single-table LIMIT: every executor scans T1 in slot order, so
        // the first-N prefix (and its early exit) must agree everywhere.
        6 => format!(
            "SELECT A.K, A.S FROM T1 AS A WHERE A.V > {} LIMIT {}",
            rng.range_i32(-50, 50),
            rng.range_usize(1, 8)
        )
        .into(),
        // Empty-string equality: the varchar kernel must treat a
        // zero-length offset pair exactly like the row comparator does.
        7 => "SELECT A.K, A.V FROM T1 AS A WHERE A.S = ''".into(),
        // 3-way joins over the skewed-NDV table: real reorder decisions
        // for the cost-based planner, with conjuncts that bind across
        // different table pairs depending on the chosen order.
        8 => "SELECT A.V, B.W, C.Z FROM T1 AS A, T2 AS B, T3 AS C \
              WHERE B.K = A.K AND C.K = A.K"
            .into(),
        9 => format!(
            "SELECT COUNT(*) AS n, SUM(C.Z) AS z FROM T1 AS A, T2 AS B, T3 AS C \
             WHERE B.K = A.K AND C.K = B.K AND A.V > {}",
            rng.range_i32(-50, 50)
        )
        .into(),
        // The foreign table leads: its column batch is the source, the
        // filter and every aggregate run over it — DOUBLE sums that
        // overflow to infinity or turn NaN, MIN/MAX over -0.0 and 0.0.
        10 => Query::from(
            "SELECT F.K, COUNT(*) AS n, COUNT(F.D) AS nd, SUM(F.D) AS s, AVG(F.D) AS a, \
             MIN(F.D) AS lo, MAX(F.D) AS hi, SUM(F.W) AS w \
             FROM F WHERE F.W >= MinW GROUP BY F.K",
        )
        .bind("MinW", rng.range_i32(-50, 50)),
        // The DOUBLE column as the group key: -0.0 and 0.0 share a group,
        // NaN groups with NaN.
        11 => Query::from(
            "SELECT F.D, COUNT(*) AS n, MIN(F.W) AS lo, MAX(F.W) AS hi \
             FROM F WHERE F.W <= MaxW GROUP BY F.D",
        )
        .bind("MaxW", rng.range_i32(-50, 50)),
        // The DOUBLE column as a join key, the foreign side first in
        // syntactic order: 3.0 joins INT 3, -0.0 joins 0, NaN is an error.
        12 => Query::from("SELECT F.D, F.W, A.V, A.S FROM F, T1 AS A WHERE A.K = F.D AND F.W > Lo")
            .bind("Lo", rng.range_i32(-50, 50)),
        // Aggregates over a foreign-first join: the columnar join output
        // feeds the columnar aggregate.
        _ => Query::from(
            "SELECT A.K, COUNT(*) AS n, SUM(A.V) AS v, MIN(A.S) AS s, MAX(F.W) AS w \
             FROM F, T1 AS A WHERE A.K = F.K AND F.W > Lo GROUP BY A.K",
        )
        .bind("Lo", rng.range_i32(-50, 50)),
    };
    (q, pick == 12)
}

/// The row multiset, as sorted rendered rows.
fn row_multiset(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = t
        .rows()
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(Value::render)
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

/// The architecture charge multiset: everything except FDBS-internal
/// composition work, keyed without virtual start times (the two executors
/// legitimately book different FDBS durations in between).
/// Positional call through the unified [`Request`] surface.
fn call_fn(
    s: &IntegrationServer,
    name: &str,
    args: &[Value],
    options: ExecOptions,
) -> fedwf::core::Outcome {
    s.execute(&Request::function(name).params(args).exec_options(options))
        .unwrap()
}

fn arch_charges(charges: &[Charge]) -> Vec<(Component, String, u64)> {
    let mut keys: Vec<_> = charges
        .iter()
        .filter(|c| c.component != Component::Fdbs)
        .map(|c| (c.component, c.step.clone(), c.duration_us))
        .collect();
    keys.sort();
    keys
}

fn udtf_invocation_charges(charges: &[Charge]) -> usize {
    charges
        .iter()
        .filter(|c| c.component == Component::Udtf)
        .count()
}

/// Every row of a result rendered in order — bit-level distinctions like
/// `-0` vs `0` included, which structural `Value` equality folds together.
fn rendered_in_order(t: &Table) -> Vec<String> {
    t.rows()
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(Value::render)
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect()
}

/// What the parity contract compares between the two streaming
/// executors: the result (rows in order, or the error), the virtual time,
/// and the names of every span in the trace.
#[derive(Debug, PartialEq)]
struct StreamRun {
    result: Result<Vec<String>, String>,
    elapsed_us: u64,
    spans: Vec<String>,
}

fn stream_run(fdbs: &Fdbs, q: &Query, options: ExecOptions) -> StreamRun {
    let mut meter = Meter::with_exec_options(options);
    meter.set_tracing(true);
    let result = q.run(fdbs, &mut meter).map(|t| rendered_in_order(&t));
    let spans = meter
        .finish_trace()
        .map(|t| t.flatten().iter().map(|n| n.name.to_string()).collect())
        .unwrap_or_default();
    StreamRun {
        result,
        elapsed_us: meter.elapsed_us(),
        spans,
    }
}

#[test]
fn generated_queries_agree_between_executors() {
    check::cases(48, |rng| {
        let (fdbs, nan) = gen_federation(rng);
        for _ in 0..rng.range_usize(1, 4) {
            let (q, joins_on_d) = gen_query(rng);
            check_query(&fdbs, &q, nan && joins_on_d);
        }
    });
}

/// The executor × planner matrix every generated query runs through.
const MODES: [ExecMode; 3] = [ExecMode::Naive, ExecMode::Rows, ExecMode::Columnar];
const PLANNERS: [PlannerMode; 2] = [PlannerMode::Syntactic, PlannerMode::CostBased];

/// Run `q` on every executor configuration and hold each to the naive
/// reference (row multiset, architecture charges) and the two streaming
/// executors to their exact parity contract. `nan` says a NaN in the data
/// may reach one of `q`'s join keys: then a run may fail, but only with the
/// NaN comparison error, and results are compared wherever both succeed.
/// Otherwise every run must succeed.
fn check_query(fdbs: &Fdbs, q: &Query, nan: bool) {
    let ok_or_nan_error = |r: &Result<Table, String>| {
        r.as_ref()
            .err()
            .is_none_or(|e| nan && e.contains("cannot compare") && e.contains("NaN"))
    };
    // Reference: the naive cross-product path in syntactic FROM order.
    let naive_options = ExecOptions::default()
        .mode(ExecMode::Naive)
        .udtf_memo(false)
        .planner(PlannerMode::Syntactic);
    let mut naive_meter = Meter::with_exec_options(naive_options);
    let naive = q.run(fdbs, &mut naive_meter);
    // A NaN join key is an error on the hash-join paths even where
    // the naive path never compares it (every pairing is with a
    // NULL, or it is filtered first), so any run may fail on one.
    assert!(
        ok_or_nan_error(&naive),
        "naive path failed for {q}: {naive:?}"
    );
    let naive_rows = naive.as_ref().map(row_multiset);
    let naive_arch = arch_charges(naive_meter.charges());

    // Projection pruning is invisible: the naive executor over the same
    // bound plan, unpruned and pruned, gives the same rows and the same
    // architecture charges.
    check_pruning(fdbs, q, naive_options, &ok_or_nan_error);

    // Every (executor, planner) combination must reproduce the reference
    // row multiset and architecture charge multiset — join reordering may
    // change FDBS-internal composition work, never the rows and never the
    // charges the paper attributes to the architectures.
    for mode in MODES {
        for planner in PLANNERS {
            let options = ExecOptions::default()
                .mode(mode)
                .planner(planner)
                .udtf_memo(false);
            let mut meter = Meter::with_exec_options(options);
            let got = q.run(fdbs, &mut meter);
            assert!(
                ok_or_nan_error(&got),
                "{q} failed ({mode:?}, {planner}): {got:?}"
            );
            let (Ok(want), Ok(got)) = (&naive_rows, &got) else {
                continue;
            };
            assert_eq!(
                want,
                &row_multiset(got),
                "row multisets diverge for {q} ({mode:?}, {planner})"
            );
            assert_eq!(
                naive_arch,
                arch_charges(meter.charges()),
                "architecture charges diverge for {q} ({mode:?}, {planner})"
            );
        }
    }

    // The parity contract between the two streaming executors is
    // exact: same rows in the same order (or the same error), the
    // same virtual time, the same probe names.
    for planner in PLANNERS {
        let options = ExecOptions::default().planner(planner).udtf_memo(false);
        let rows = stream_run(fdbs, q, options.mode(ExecMode::Rows));
        let cols = stream_run(fdbs, q, options.mode(ExecMode::Columnar));
        assert_eq!(
            rows, cols,
            "row and columnar streaming diverge for {q} ({planner})"
        );
    }

    // Memoization may only *remove* dependent-UDTF invocations —
    // never change the rows. (The default configuration: columnar
    // streaming, cost-based, memo on.)
    let mut memo_meter = Meter::new();
    let memoed = q.run(fdbs, &mut memo_meter);
    if let (Ok(want), Ok(memoed)) = (&naive_rows, &memoed) {
        assert_eq!(
            want,
            &row_multiset(memoed),
            "memoized row multisets diverge for {q}"
        );
        assert!(
            udtf_invocation_charges(memo_meter.charges())
                <= udtf_invocation_charges(naive_meter.charges()),
            "memoization increased UDTF charges for {q}"
        );
    } else {
        assert!(
            ok_or_nan_error(&memoed),
            "{q} failed with memoization: {memoed:?}"
        );
    }
}

/// Bind `q` once, then run the naive executor over the unpruned plan and
/// over its pruned projection: rows and architecture charges must agree.
fn check_pruning(
    fdbs: &Fdbs,
    q: &Query,
    options: ExecOptions,
    ok_or_nan_error: &dyn Fn(&Result<Table, String>) -> bool,
) {
    let Ok(Statement::Select(select)) = parse_statement(&q.sql) else {
        panic!("generated query is not a SELECT: {q}");
    };
    let host = q
        .params
        .iter()
        .map(|(n, v)| (Ident::new(*n), v.data_type().expect("binds are typed")))
        .collect();
    let values: Vec<Value> = q.params.iter().map(|(_, v)| v.clone()).collect();
    let logical = PlanBuilder::new(fdbs.catalog())
        .with_host_params(host)
        .bind_logical(&select)
        .unwrap();
    let unpruned = optimize(fdbs.catalog(), logical, options.planner).unwrap();
    let pruned = unpruned.clone().prune_projections();
    let run = |plan: &Plan| {
        let mut meter = Meter::with_exec_options(options);
        let result = execute_plan(fdbs, plan, &values, &mut meter).map_err(|e| e.to_string());
        assert!(ok_or_nan_error(&result), "{q} failed: {result:?}");
        (
            result.map(|t| row_multiset(&t)),
            arch_charges(meter.charges()),
        )
    };
    assert_eq!(
        run(&unpruned),
        run(&pruned),
        "pruning changed the rows or architecture charges of {q}"
    );
}

/// Register `rows` of F(K INT, D DOUBLE, W INT) as the foreign table
/// `name`.
fn register_f(fdbs: &Fdbs, name: &str, rows: Vec<Row>) {
    let remote = Database::new("remote-f");
    remote
        .create_table(
            "FR",
            Arc::new(Schema::of(&[
                ("K", DataType::Int),
                ("D", DataType::Double),
                ("W", DataType::Int),
            ])),
        )
        .unwrap();
    remote.insert_all("FR", rows).unwrap();
    fdbs.catalog()
        .register_foreign_table(
            name,
            Arc::new(RelstoreServer::new("mes", Arc::new(remote))),
            "FR",
        )
        .unwrap();
}

/// The DOUBLE edge cases of foreign-first plans, deterministically:
/// `-0.0` joins INT 0 and groups with `0.0`, integral doubles join INT
/// keys, sums past f64 range reach infinity, MIN/MAX keep the first of
/// equal values. A NaN join key fails every hash-join path with the same
/// error, while aggregating NaN is fine.
#[test]
fn double_join_keys_and_aggregates_at_the_edges() {
    let fdbs = Fdbs::new(CostModel::default());
    let mut meter = Meter::new();
    fdbs.execute_script(
        "CREATE TABLE T1 (K INT, V INT, S VARCHAR); \
         INSERT INTO T1 VALUES (0, 1, 'a'), (3, 2, 'b'), (NULL, 3, 'c'), (9, 4, ''), (0, 5, 'e');",
        &mut meter,
    )
    .unwrap();
    let edge = [
        (1, Some(-0.0), 5),
        (1, Some(0.0), 6),
        (2, Some(3.0), 7),
        (2, Some(1.7e308), 8),
        (3, Some(1.7e308), 9),
        (3, Some(-1.7e308), 1),
        (4, None, 2),
        (4, Some(3.5), 3),
        (0, Some(9.0), 4),
        (0, Some(-0.0), 0),
    ];
    let rows = |edge: &[(i32, Option<f64>, i32)]| -> Vec<Row> {
        edge.iter()
            .map(|&(k, d, w)| {
                Row::new(vec![
                    Value::Int(k),
                    d.map_or(Value::Null, Value::Double),
                    Value::Int(w),
                ])
            })
            .collect()
    };
    register_f(&fdbs, "F", rows(&edge));
    let mut with_nan = edge.to_vec();
    with_nan.insert(3, (2, Some(f64::NAN), 10));
    register_f(&fdbs, "FN", rows(&with_nan));

    let queries = [
        Query::from(
            "SELECT F.K, COUNT(*) AS n, COUNT(F.D) AS nd, SUM(F.D) AS s, AVG(F.D) AS a, \
             MIN(F.D) AS lo, MAX(F.D) AS hi, SUM(F.W) AS w \
             FROM F WHERE F.W >= MinW GROUP BY F.K",
        )
        .bind("MinW", 0),
        Query::from(
            "SELECT F.D, COUNT(*) AS n, MIN(F.W) AS lo, MAX(F.W) AS hi \
             FROM F WHERE F.W <= MaxW GROUP BY F.D",
        )
        .bind("MaxW", 50),
        Query::from("SELECT F.D, F.W, A.V, A.S FROM F, T1 AS A WHERE A.K = F.D AND F.W > Lo")
            .bind("Lo", -1),
        Query::from(
            "SELECT A.K, COUNT(*) AS n, SUM(A.V) AS v, MIN(A.S) AS s, MAX(F.W) AS w \
             FROM F, T1 AS A WHERE A.K = F.K AND F.W > Lo GROUP BY A.K",
        )
        .bind("Lo", -1),
        // NaN as an aggregate argument and a group key: no error anywhere.
        Query::from(
            "SELECT FN.D, COUNT(*) AS n, SUM(FN.D) AS s, MIN(FN.D) AS lo, MAX(FN.D) AS hi \
             FROM FN WHERE FN.W >= MinW GROUP BY FN.D",
        )
        .bind("MinW", 0),
    ];
    for q in &queries {
        check_query(&fdbs, q, false);
    }

    // -0.0 really joined 0: two F rows (-0.0 and 0.0) times two T1 rows.
    let joined = queries[2].run(&fdbs, &mut meter).unwrap();
    let zeros = joined
        .rows()
        .iter()
        .filter(|r| r.values()[0] == Value::Double(0.0))
        .count();
    assert_eq!(zeros, 6, "{:?}", rendered_in_order(&joined));

    // A NaN join key fails every hash-join path: both streaming executors
    // under both planners, with the very same error.
    let nan_join = Query::from("SELECT FN.D, A.V FROM FN, T1 AS A WHERE A.K = FN.D AND FN.W > Lo")
        .bind("Lo", -1);
    let mut errors = Vec::new();
    for mode in [ExecMode::Rows, ExecMode::Columnar] {
        for planner in PLANNERS {
            let options = ExecOptions::default().mode(mode).planner(planner);
            let err = nan_join
                .run(&fdbs, &mut Meter::with_exec_options(options))
                .unwrap_err();
            assert!(err.contains("cannot compare NaN in a join key"), "{err}");
            errors.push(err);
        }
    }
    errors.dedup();
    assert_eq!(errors.len(), 1, "{errors:?}");
}

/// ORDER BY may reference a column the SELECT list never mentions; the
/// pruner must keep it in the step projection for the sort, on every
/// executor.
#[test]
fn order_by_on_non_projected_column_survives_pruning() {
    let fdbs = Fdbs::new(CostModel::zero());
    let mut meter = Meter::new();
    fdbs.execute_script(
        "CREATE TABLE T (K INT, V INT, S VARCHAR); \
         INSERT INTO T VALUES (3, 30, 'c'), (1, 10, 'a'), (2, 20, 'b');",
        &mut meter,
    )
    .unwrap();
    for mode in MODES {
        let mut meter = Meter::with_exec_options(ExecOptions::default().mode(mode));
        let t = fdbs
            .execute("SELECT S FROM T ORDER BY V DESC", &mut meter)
            .unwrap();
        let got: Vec<String> = t.rows().iter().map(|r| r.values()[0].render()).collect();
        assert_eq!(got, ["c", "b", "a"], "{mode:?}");
    }
}

/// An index-probe join whose probed table contributes only non-key columns
/// to the output: `scan_eq` keeps the table's original key numbering while
/// the returned rows arrive in the pruned layout.
#[test]
fn index_probe_join_with_pruned_projection() {
    let fdbs = Fdbs::new(CostModel::zero());
    let mut meter = Meter::new();
    fdbs.execute_script(
        "CREATE TABLE L (K INT, V INT); \
         CREATE TABLE R (A VARCHAR, K INT, W INT); \
         CREATE UNIQUE INDEX r_k ON R (K); \
         INSERT INTO L VALUES (1, 10), (2, 20), (2, 21), (9, 90); \
         INSERT INTO R VALUES ('x', 1, 100), ('y', 2, 200), ('z', 3, 300);",
        &mut meter,
    )
    .unwrap();
    // Only R.W is referenced downstream, so the pruned projection drops
    // both R.A and the key column R.K (the probe happens in storage).
    let sql = "SELECT L.V, B.W FROM L, R AS B WHERE B.K = L.K ORDER BY L.V";
    let mut expect: Option<Vec<String>> = None;
    for mode in MODES {
        let mut meter = Meter::with_exec_options(ExecOptions::default().mode(mode));
        let t = fdbs.execute(sql, &mut meter).unwrap();
        let rows = row_multiset(&t);
        match &expect {
            None => {
                assert_eq!(rows, ["10|100", "20|200", "21|200"].map(String::from));
                expect = Some(rows);
            }
            Some(e) => assert_eq!(e, &rows, "{mode:?}"),
        }
    }
}

/// Column batches hold 1024 rows, so a 2,600-row table spans three of
/// them. The VARCHAR column cycles empty strings, real strings, and NULLs
/// (the offset-pair edge cases), V carries a NULL stripe, and the LIMITs
/// land mid-batch — one inside the first batch's successor, one deep in
/// the third. The vectorized executor must match row-batch streaming
/// *row-for-row in order* (the parity contract), and both must match the
/// naive executor as multisets.
#[test]
fn batch_boundary_limit_and_varchar_edges() {
    let fdbs = Fdbs::new(CostModel::zero());
    let mut meter = Meter::new();
    fdbs.execute("CREATE TABLE T (K INT, V INT, S VARCHAR)", &mut meter)
        .unwrap();
    let rows: Vec<String> = (0..2_600)
        .map(|i: i32| {
            let s = match i % 3 {
                0 => "''".to_string(),
                1 => format!("'s{i}'"),
                _ => "NULL".to_string(),
            };
            let v = if i % 7 == 0 {
                "NULL".to_string()
            } else {
                (i % 100).to_string()
            };
            format!("({i}, {v}, {s})")
        })
        .collect();
    for chunk in rows.chunks(500) {
        insert_rows(&fdbs, "T", chunk);
    }

    let queries = [
        // LIMIT crosses the first 1024-row batch boundary mid-batch.
        "SELECT T.K, T.S FROM T LIMIT 1500",
        // Filter + LIMIT: the early exit lands in the third batch.
        "SELECT T.K FROM T WHERE T.V > 10 LIMIT 2200",
        // Zero-length offset pairs must compare equal to ''.
        "SELECT T.K FROM T WHERE T.S = ''",
        // NULL stripes across batches: validity bits drive the count.
        "SELECT COUNT(*) AS n FROM T WHERE T.V > 50",
        "SELECT T.V, COUNT(*) AS c FROM T GROUP BY T.V ORDER BY 1",
    ];
    let run = |sql: &str, mode| {
        let mut meter = Meter::with_exec_options(ExecOptions::default().mode(mode));
        fdbs.execute(sql, &mut meter).unwrap()
    };
    for sql in queries {
        let reference = run(sql, ExecMode::Rows);
        assert_eq!(
            reference,
            run(sql, ExecMode::Columnar),
            "ordered results diverge between row-batch and columnar \
             streaming for {sql}"
        );
        assert_eq!(
            row_multiset(&reference),
            row_multiset(&run(sql, ExecMode::Naive)),
            "row multisets diverge for {sql} (naive)"
        );
    }
}

// ---------------------------------------------------------------------------
// Part B: the paper's workload on all four architectures
// ---------------------------------------------------------------------------

#[test]
fn architectures_agree_between_executors() {
    for kind in [
        ArchitectureKind::Wfms,
        ArchitectureKind::SqlUdtf,
        ArchitectureKind::JavaUdtf,
        ArchitectureKind::SimpleUdtf,
    ] {
        let make = || {
            let s = IntegrationServer::new(IntegrationConfig::default().with_architecture(kind))
                .unwrap();
            s.boot();
            s
        };
        let naive = make();
        let streaming = make();
        let naive_options = ExecOptions::default().mode(ExecMode::Naive);
        let streaming_options = ExecOptions::default().udtf_memo(false);

        for (spec, _) in paper_functions::fig5_workload() {
            // The cyclic case is undeployable on the UDTF architectures
            // (the paper's Section 3 complexity result) — but the two
            // executors must agree on deployability too.
            let d = naive.deploy(&spec);
            assert_eq!(d.is_ok(), streaming.deploy(&spec).is_ok(), "{}", spec.name);
            if d.is_err() {
                continue;
            }
            let args = args_for(&naive, &spec);
            // First (cold) and repeated (warm) calls must both agree.
            for tier in ["first call", "repeated call"] {
                let a = call_fn(&naive, spec.name.as_str(), &args, naive_options);
                let b = call_fn(&streaming, spec.name.as_str(), &args, streaming_options);
                assert_eq!(
                    a.table,
                    b.table,
                    "{} on {} ({tier}): result tables diverge",
                    spec.name,
                    kind.name()
                );
                assert_eq!(
                    arch_charges(a.meter.charges()),
                    arch_charges(b.meter.charges()),
                    "{} on {} ({tier}): architecture charges diverge",
                    spec.name,
                    kind.name()
                );
            }
        }
    }
}

/// With memoization left on (the default), the four architectures must
/// still produce the same result tables as the naive reference.
#[test]
fn memoized_executor_preserves_results_on_all_architectures() {
    for kind in [
        ArchitectureKind::Wfms,
        ArchitectureKind::SqlUdtf,
        ArchitectureKind::JavaUdtf,
        ArchitectureKind::SimpleUdtf,
    ] {
        let make = || {
            let s = IntegrationServer::new(IntegrationConfig::default().with_architecture(kind))
                .unwrap();
            s.boot();
            s
        };
        let naive = make();
        let memoed = make();

        for (spec, _) in paper_functions::fig5_workload() {
            if naive.deploy(&spec).is_err() {
                continue; // undeployable on this architecture (cyclic case)
            }
            memoed.deploy(&spec).unwrap();
            let args = args_for(&naive, &spec);
            let naive_options = ExecOptions::default().mode(ExecMode::Naive);
            let a = call_fn(&naive, spec.name.as_str(), &args, naive_options);
            let b = call_fn(&memoed, spec.name.as_str(), &args, ExecOptions::default());
            assert_eq!(
                a.table,
                b.table,
                "{} on {}: memoized result diverges",
                spec.name,
                kind.name()
            );
        }
    }
}
