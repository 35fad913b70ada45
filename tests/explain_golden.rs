//! Golden-output tests for the EXPLAIN grammar documented in DESIGN.md §13.
//!
//! The grammar is a public, stable surface: one line per operator, output
//! stages first (`Limit` / `Distinct` / `Sort` / `Aggregate` | `Project`),
//! then the FROM steps innermost-last, each step line being
//!
//! ```text
//! <Operator> <operand> [pushdown: <predicate>] [project: <cols>]
//!            [access: hash|index-probe] est=<rows>
//! ```
//!
//! with every bracketed note optional and ` est=N` always the final note.
//! `EXPLAIN ANALYZE` appends an `Actuals:` line, the indented span tree,
//! per-operator `q-error <name>: est=<e> act=<a> q=<q>` lines, and a
//! closing `q-error median: <q>` line. These tests pin the exact text on a
//! deterministic federation so any grammar drift is a conscious decision.

use fedwf::fdbs::{ExecOptions, Fdbs, PlannerMode};
use fedwf::sim::{CostModel, Meter};
use fedwf::types::Value;

/// Big (200 rows, unique indexed A), Wide (100 rows), Tiny (5 rows) — the
/// shape where the cost-based planner visibly reorders (Tiny first) and
/// picks an index probe into Big, while the syntactic planner keeps the
/// FROM order and `Auto` access.
fn federation() -> Fdbs {
    let f = Fdbs::new(CostModel::zero());
    let mut m = Meter::new();
    f.execute("CREATE TABLE Big (A INT, P INT)", &mut m)
        .unwrap();
    f.execute("CREATE UNIQUE INDEX big_a ON Big (A)", &mut m)
        .unwrap();
    f.execute("CREATE TABLE Wide (B INT)", &mut m).unwrap();
    f.execute("CREATE TABLE Tiny (A INT, B INT)", &mut m)
        .unwrap();
    for chunk in (0..200).collect::<Vec<i32>>().chunks(50) {
        let rows: Vec<String> = chunk.iter().map(|i| format!("({i}, {})", i % 7)).collect();
        f.execute(
            &format!("INSERT INTO Big VALUES {}", rows.join(", ")),
            &mut m,
        )
        .unwrap();
    }
    for chunk in (0..100).collect::<Vec<i32>>().chunks(50) {
        let rows: Vec<String> = chunk.iter().map(|i| format!("({i})")).collect();
        f.execute(
            &format!("INSERT INTO Wide VALUES {}", rows.join(", ")),
            &mut m,
        )
        .unwrap();
    }
    let tiny: Vec<String> = (0..5).map(|i| format!("({}, {})", i * 3, i * 2)).collect();
    f.execute(
        &format!("INSERT INTO Tiny VALUES {}", tiny.join(", ")),
        &mut m,
    )
    .unwrap();
    f.analyze().unwrap();
    f
}

fn explain(f: &Fdbs, sql: &str, planner: PlannerMode) -> String {
    let mut m = Meter::with_exec_options(ExecOptions::default().planner(planner));
    let t = f.execute(sql, &mut m).unwrap();
    (0..t.row_count())
        .map(|i| match t.value(i, "plan") {
            Some(Value::Varchar(s)) => s.to_string(),
            other => panic!("plan row {i} is not text: {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

const THREE_WAY: &str = "EXPLAIN SELECT T.A FROM Big AS H, Wide AS W, Tiny AS T \
                         WHERE H.A = T.A AND W.B = T.B";

#[test]
fn golden_syntactic_plan() {
    let f = federation();
    assert_eq!(
        explain(&f, THREE_WAY, PlannerMode::Syntactic),
        "Project [A]\n\
         \x20 HashJoin [2 key(s): Binary { left: Binary { left: Column { index: 0, data_type: Int }, op: Eq, right: Column { index: 2, data_type: Int } }, op: And, right: Binary { left: Column { index: 1, data_type: Int }, op: Eq, right: Column { index: 3, data_type: Int } } }] est=5\n\
         \x20 ScanLocal Tiny AS T est=5\n\
         \x20   ScanLocal Wide AS W est=100\n\
         \x20     ScanLocal Big AS H [project: A] est=200",
        "the syntactic EXPLAIN grammar drifted — update DESIGN.md §13 if intentional"
    );
}

#[test]
fn golden_cost_based_plan() {
    let f = federation();
    assert_eq!(
        explain(&f, THREE_WAY, PlannerMode::CostBased),
        "Project [A]\n\
         \x20 HashJoin [1 key(s): Binary { left: Column { index: 3, data_type: Int }, op: Eq, right: Column { index: 1, data_type: Int } }] est=5\n\
         \x20 ScanLocal Wide AS W est=100\n\
         \x20   HashJoin [1 key(s): Binary { left: Column { index: 2, data_type: Int }, op: Eq, right: Column { index: 0, data_type: Int } }] est=5\n\
         \x20   ScanLocal Big AS H [project: A] [access: index-probe] est=200\n\
         \x20     ScanLocal Tiny AS T est=5",
        "the cost-based EXPLAIN grammar drifted — update DESIGN.md §13 if intentional"
    );
}

#[test]
fn golden_pushdown_projection_and_limit_notes() {
    let f = federation();
    assert_eq!(
        explain(
            &f,
            "EXPLAIN SELECT H.P FROM Big AS H WHERE H.A < 20 ORDER BY H.P LIMIT 3",
            PlannerMode::CostBased,
        ),
        "Limit 3\n\
         Sort [Column { index: 0, data_type: Int } ASC]\n\
         Project [P]\n\
         \x20 ScanLocal Big AS H [pushdown: And(True, Compare { column: 0, op: Lt, value: Int(20) })] [project: P] est=20",
        "the single-table EXPLAIN grammar drifted — update DESIGN.md §13 if intentional"
    );
}

/// `EXPLAIN ANALYZE` carries virtual-time actuals, so the golden part is
/// the *shape*: static plan with `est=`, an `Actuals:` line, the span
/// tree, per-operator q-error lines and the median.
#[test]
fn explain_analyze_reports_estimates_beside_actuals() {
    let f = federation();
    let text = explain(
        &f,
        &format!("EXPLAIN ANALYZE {}", &THREE_WAY["EXPLAIN ".len()..]),
        PlannerMode::CostBased,
    );
    let lines: Vec<&str> = text.lines().collect();

    assert!(
        lines
            .iter()
            .any(|l| l.contains(" est=") && l.contains("ScanLocal")),
        "static plan must carry estimates:\n{text}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("Actuals: elapsed=")),
        "missing Actuals line:\n{text}"
    );
    let q_errors: Vec<&&str> = lines
        .iter()
        .filter(|l| l.trim_start().starts_with("q-error ") && !l.contains("median"))
        .collect();
    assert!(
        !q_errors.is_empty(),
        "missing per-operator q-error lines:\n{text}"
    );
    for q in &q_errors {
        assert!(
            q.contains("est=") && q.contains("act=") && q.contains("q="),
            "malformed q-error line {q:?}"
        );
    }
    assert!(
        lines
            .iter()
            .any(|l| l.trim_start().starts_with("q-error median: ")),
        "missing q-error median:\n{text}"
    );

    // Fresh statistics on this tiny federation keep the estimates honest.
    let median = lines
        .iter()
        .find_map(|l| l.trim_start().strip_prefix("q-error median: "))
        .unwrap()
        .parse::<f64>()
        .unwrap();
    assert!(
        median <= 4.0,
        "median q-error {median} above the documented gate of 4"
    );
}
