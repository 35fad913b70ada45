//! Golden virtual time for the three federated-SQL read shapes of the
//! serving benchmark's `fedquery_rw` workload, each over a foreign
//! `OpenOrders` table behind a relstore SQL/MED wrapper:
//!
//! * a filtered GROUP BY over the foreign table;
//! * a join with the dependent UDTF `GetSuppQualRelia` (WfMS architecture);
//! * a join of the foreign table with the local `Purchases`, grouped and
//!   ordered.
//!
//! How the FDBS composes a foreign result is its own business, but what it
//! costs in virtual time, and every charge it books to another component,
//! is part of the paper reproduction. Both streaming executors (row and
//! column batches) must reproduce the pinned figures exactly: the elapsed
//! virtual time, and the count, total and FNV-1a digest of the ordered
//! non-FDBS charges.

use std::sync::Arc;

use fedwf::appsys::datagen::{self, DataGenConfig};
use fedwf::core::{
    paper_functions, ArchitectureKind, IntegrationConfig, IntegrationServer, Request,
};
use fedwf::fdbs::{ExecMode, ExecOptions, RelstoreServer};
use fedwf::relstore::Database;
use fedwf::sim::{Charge, Component};
use fedwf::types::rng::Rng;
use fedwf::types::{DataType, Row, Schema, Value};

const GROUP_BY_SQL: &str = "SELECT O.SupplierNo, COUNT(*) AS Orders, SUM(O.Quantity) AS Qty \
     FROM OpenOrders AS O WHERE O.Quantity >= MinQty GROUP BY O.SupplierNo";
const UDTF_JOIN_SQL: &str = "SELECT O.OrderNo, Q.Qual, Q.Relia \
     FROM OpenOrders AS O, TABLE (GetSuppQualRelia(O.SupplierNo)) AS Q WHERE O.CompNo = Comp";
const LOCAL_JOIN_SQL: &str = "SELECT P.SupplierNo, COUNT(*) AS Purchases, SUM(P.Quantity) AS Qty \
     FROM OpenOrders AS O, Purchases AS P \
     WHERE O.OrderNo = P.OrderNo AND P.PurchaseId <= Loaded AND O.CompNo <= MaxComp \
     GROUP BY P.SupplierNo ORDER BY P.SupplierNo";

const ORDERS: usize = 600;
const PURCHASES: usize = 300;

/// A WfMS-architecture server with `GetSuppQualRelia` deployed, a seeded
/// foreign `OpenOrders` and a seeded local `Purchases` over the default
/// scenario's suppliers and components. Returns one component number
/// that several orders name.
fn fixture() -> (IntegrationServer, i32) {
    let server = IntegrationServer::new(
        IntegrationConfig::default().with_architecture(ArchitectureKind::Wfms),
    )
    .unwrap();
    server.boot();
    server
        .deploy(&paper_functions::get_supp_qual_relia())
        .unwrap();

    let data = datagen::generate(&DataGenConfig::default());
    let mut rng = Rng::seed_from_u64(0x601D_E17E);
    // A few hot components, so the UDTF join matches several orders.
    let hot: Vec<i32> = (0..4)
        .map(|_| data.components[rng.range_usize(0, data.components.len())].comp_no)
        .collect();
    let orders: Vec<[i32; 4]> = (0..ORDERS)
        .map(|i| {
            let comp = if rng.gen_bool(0.2) {
                hot[rng.range_usize(0, hot.len())]
            } else {
                data.components[rng.range_usize(0, data.components.len())].comp_no
            };
            [
                i as i32 + 1,
                data.suppliers[rng.range_usize(0, data.suppliers.len())].supplier_no,
                comp,
                rng.range_i32(1, 100),
            ]
        })
        .collect();

    let remote = Database::new("orders-erp");
    remote
        .create_table(
            "OpenOrders",
            Arc::new(Schema::of(&[
                ("OrderNo", DataType::Int),
                ("SupplierNo", DataType::Int),
                ("CompNo", DataType::Int),
                ("Quantity", DataType::Int),
            ])),
        )
        .unwrap();
    remote
        .insert_all(
            "OpenOrders",
            orders
                .iter()
                .map(|o| Row::new(o.iter().map(|&v| Value::Int(v)).collect()))
                .collect(),
        )
        .unwrap();
    let catalog = server.fdbs().catalog();
    catalog
        .register_foreign_table(
            "OpenOrders",
            Arc::new(RelstoreServer::new("orders-erp", Arc::new(remote))),
            "OpenOrders",
        )
        .unwrap();

    let local = catalog.local();
    local
        .create_table(
            "Purchases",
            Arc::new(Schema::of(&[
                ("PurchaseId", DataType::Int),
                ("OrderNo", DataType::Int),
                ("SupplierNo", DataType::Int),
                ("Quantity", DataType::Int),
            ])),
        )
        .unwrap();
    local
        .insert_all(
            "Purchases",
            (0..PURCHASES)
                .map(|i| {
                    let o = orders[rng.range_usize(0, orders.len())];
                    Row::new(vec![
                        Value::Int(i as i32 + 1),
                        Value::Int(o[0]),
                        Value::Int(o[1]),
                        Value::Int(rng.range_i32(1, 50)),
                    ])
                })
                .collect(),
        )
        .unwrap();
    (server, hot[0])
}

/// What one execution pins: elapsed virtual time, then the number, total
/// duration and FNV-1a digest of the non-FDBS charges in booking order.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    elapsed_us: u64,
    arch_charges: usize,
    arch_us: u64,
    arch_digest: u64,
}

fn pin(charges: &[Charge], elapsed_us: u64) -> Pinned {
    let arch: Vec<&Charge> = charges
        .iter()
        .filter(|c| c.component != Component::Fdbs)
        .collect();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for c in &arch {
        let line = format!("{:?}|{}|{}\n", c.component, c.step, c.duration_us);
        for b in line.bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Pinned {
        elapsed_us,
        arch_charges: arch.len(),
        arch_us: arch.iter().map(|c| c.duration_us).sum(),
        arch_digest: digest,
    }
}

/// The three read shapes with their binds, warm (plans compiled and the
/// workflow template loaded by a first call), under `options`.
fn run_shapes(options: ExecOptions) -> Vec<Pinned> {
    let (server, comp) = fixture();
    let requests = [
        Request::sql(GROUP_BY_SQL).bind("MinQty", 40),
        Request::sql(UDTF_JOIN_SQL).bind("Comp", comp),
        Request::sql(LOCAL_JOIN_SQL)
            .bind("Loaded", 250)
            .bind("MaxComp", 300),
    ];
    requests
        .into_iter()
        .map(|r| {
            let r = r.exec_options(options);
            server.execute(&r).expect("warm-up");
            let out = server.execute(&r).expect("pinned call");
            assert!(out.table.row_count() > 0, "{}: empty result", r.label());
            pin(out.meter.charges(), out.elapsed_us())
        })
        .collect()
}

/// The figures the executor produced before foreign scans became pipeline
/// sources (row and columnar streaming agreed on them then, too).
fn golden() -> Vec<Pinned> {
    const NO_ARCH_CHARGES: u64 = 0xcbf2_9ce4_8422_2325;
    vec![
        Pinned {
            elapsed_us: 12_587,
            arch_charges: 0,
            arch_us: 0,
            arch_digest: NO_ARCH_CHARGES,
        },
        Pinned {
            elapsed_us: 6_540_502,
            arch_charges: 540,
            arch_us: 8_677_080,
            arch_digest: 10_078_613_708_597_783_521,
        },
        Pinned {
            elapsed_us: 31_317,
            arch_charges: 0,
            arch_us: 0,
            arch_digest: NO_ARCH_CHARGES,
        },
    ]
}

#[test]
fn fedquery_read_shapes_keep_their_virtual_time() {
    for mode in [ExecMode::Columnar, ExecMode::Rows] {
        let got = run_shapes(ExecOptions::default().mode(mode));
        assert_eq!(got, golden(), "{mode:?}");
    }
}
