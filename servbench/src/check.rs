//! Output checks: sampled operations against a single-threaded reference
//! server, and every acknowledged INSERT against the reopened WAL.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::path::Path;

use fedwf_relstore::Database;
use fedwf_types::{FedResult, Table, Value};

use crate::drive::Checked;
use crate::rig::{self, PURCHASES_TABLE};
use crate::workload::{Inputs, Purchase, Workload, LOCAL_JOIN_CLASS};

/// Outcome of one family of checks.
#[derive(Debug, Default)]
pub struct CheckResult {
    pub checked: u64,
    pub mismatched: u64,
    pub first_mismatch: Option<String>,
}

impl CheckResult {
    fn mismatch(&mut self, what: impl FnOnce() -> String) {
        self.mismatched += 1;
        if self.first_mismatch.is_none() {
            self.first_mismatch = Some(what());
        }
    }
}

/// A fingerprint of a result table: schema and rows in order.
pub fn fingerprint(table: &Table) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{:?}|{:?}", table.schema(), table.rows()).hash(&mut h);
    h.finish()
}

/// Re-execute every sampled request on a fresh reference server and
/// compare the result table and the virtual elapsed time. The local join
/// is compared by table only: its virtual scan cost grows with the rows
/// the run inserted, which the reference does not have.
pub fn against_reference(
    workload: Workload,
    inputs: &Inputs,
    sampled: &[Checked],
) -> FedResult<CheckResult> {
    let reference = rig::reference_server(workload, inputs)?;
    let mut result = CheckResult::default();
    for c in sampled {
        result.checked += 1;
        match reference.execute(&c.request) {
            Ok(expected) => {
                let timing_checked = !(workload.writes() && c.class == LOCAL_JOIN_CLASS);
                if fingerprint(&expected.table) != c.table {
                    result.mismatch(|| format!("{}: result table differs", c.request.label()));
                } else if timing_checked && expected.elapsed_us() != c.elapsed_us {
                    result.mismatch(|| {
                        format!(
                            "{}: virtual elapsed {} us, reference {} us",
                            c.request.label(),
                            c.elapsed_us,
                            expected.elapsed_us()
                        )
                    });
                }
            }
            Err(e) => result.mismatch(|| format!("{}: reference failed: {e}", c.request.label())),
        }
    }
    Ok(result)
}

/// Reopen the durable local store (the server that wrote it must be shut
/// down) and check that it holds exactly the preloaded purchases plus
/// every acknowledged INSERT.
pub fn acked_writes(dir: &Path, inputs: &Inputs, acked: &[Purchase]) -> FedResult<CheckResult> {
    let db = Database::open(dir)?;
    let table = db.scan_all(PURCHASES_TABLE)?;
    let stored: BTreeSet<Purchase> = table
        .rows()
        .iter()
        .map(|row| {
            let int = |i: usize| match row.values()[i] {
                Value::Int(v) => v,
                _ => i32::MIN,
            };
            Purchase {
                id: int(0),
                order_no: int(1),
                supplier_no: int(2),
                quantity: int(3),
            }
        })
        .collect();
    let expected: BTreeSet<Purchase> = inputs.preloaded.iter().chain(acked).copied().collect();
    let mut result = CheckResult {
        checked: acked.len() as u64,
        ..CheckResult::default()
    };
    for row in stored.difference(&expected) {
        result.mismatch(|| format!("stored row not acknowledged: {row:?}"));
    }
    for row in expected.difference(&stored) {
        result.mismatch(|| format!("acknowledged row missing: {row:?}"));
    }
    Ok(result)
}
