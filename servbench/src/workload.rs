//! The three workloads and the seeded generators of their inputs.
//!
//! The population (suppliers, components, stock pairs) is the one
//! `fedwf_appsys::datagen::generate` builds for the default scenario, so
//! every drawn argument names an entity the application systems know and
//! no call fails for want of a row. The seed chooses which entities are
//! drawn (through a seeded Zipf rank permutation), the foreign
//! `OpenOrders` rows, the preloaded purchases and every written value.

use std::collections::HashSet;
use std::sync::atomic::{AtomicI64, Ordering};

use fedwf_appsys::datagen::{self, DataGenConfig, GeneratedData};
use fedwf_core::{paper_functions, ArchitectureKind, MappingSpec, Request};
use fedwf_types::rng::Rng;
use fedwf_types::Value;

/// Zipf exponent of every argument draw.
pub const ZIPF_S: f64 = 1.0;
/// Rows of the foreign `OpenOrders` table (`fedquery_rw`).
pub const ORDERS: usize = 5_000;
/// Purchases loaded into the local table before the run (`fedquery_rw`).
pub const PRELOADED_PURCHASES: usize = 2_000;
/// Share of `fedquery_rw` operations that are INSERTs.
pub const WRITE_SHARE: f64 = 0.4;
/// One operation in this many is checked against the reference server.
pub const CHECK_ONE_IN: u64 = 32;

pub const GROUP_BY_SQL: &str = "SELECT O.SupplierNo, COUNT(*) AS Orders, SUM(O.Quantity) AS Qty \
     FROM OpenOrders AS O WHERE O.Quantity >= MinQty GROUP BY O.SupplierNo";
pub const UDTF_JOIN_SQL: &str = "SELECT O.OrderNo, Q.Qual, Q.Relia \
     FROM OpenOrders AS O, TABLE (GetSuppQualRelia(O.SupplierNo)) AS Q WHERE O.CompNo = Comp";
/// Reads only the preloaded purchases (`PurchaseId <= Loaded`) so its
/// result is independent of the concurrent INSERTs, while still scanning
/// the whole, growing local table.
pub const LOCAL_JOIN_SQL: &str =
    "SELECT P.SupplierNo, COUNT(*) AS Purchases, SUM(P.Quantity) AS Qty \
     FROM OpenOrders AS O, Purchases AS P \
     WHERE O.OrderNo = P.OrderNo AND P.PurchaseId <= Loaded AND O.CompNo <= MaxComp \
     GROUP BY P.SupplierNo ORDER BY P.SupplierNo";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FedfnTcp,
    FedfnUdtfInproc,
    FedqueryRw,
}

/// The static shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub architecture: ArchitectureKind,
    /// Closed-loop clients (over TCP: connections).
    pub clients: usize,
    /// Workers of the `ServerFront`.
    pub workers: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        kind: Kind::FedfnTcp,
        name: "fedfn_tcp",
        architecture: ArchitectureKind::Wfms,
        clients: 1,
        workers: 2,
    },
    Workload {
        kind: Kind::FedfnUdtfInproc,
        name: "fedfn_udtf_inproc",
        architecture: ArchitectureKind::SqlUdtf,
        clients: 2,
        workers: 2,
    },
    Workload {
        kind: Kind::FedqueryRw,
        name: "fedquery_rw",
        architecture: ArchitectureKind::Wfms,
        clients: 1,
        workers: 2,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn uses_net(&self) -> bool {
        self.kind == Kind::FedfnTcp
    }

    pub fn writes(&self) -> bool {
        self.kind == Kind::FedqueryRw
    }

    /// The federated functions this workload deploys.
    pub fn functions(&self) -> Vec<MappingSpec> {
        match self.kind {
            Kind::FedfnTcp => fig5().collect(),
            // The SQL-UDTF architecture cannot express the cyclic case.
            Kind::FedfnUdtfInproc => fig5()
                .filter(|s| s.name.as_str() != "AllCompNames")
                .collect(),
            Kind::FedqueryRw => vec![paper_functions::get_supp_qual_relia()],
        }
    }

    /// Names of the operation classes, indexed by [`Op::class`].
    pub fn classes(&self) -> Vec<String> {
        match self.kind {
            Kind::FedqueryRw => ["group_by", "udtf_join", "local_join", "insert"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            _ => self
                .functions()
                .iter()
                .map(|s| s.name.to_string())
                .collect(),
        }
    }

    /// Whether class `class` counts toward `latency_*` (everything except
    /// the INSERTs of `fedquery_rw`, which have their own figures).
    pub fn is_read(&self, class: usize) -> bool {
        !(self.kind == Kind::FedqueryRw && class == WRITE_CLASS)
    }
}

pub const GROUP_BY_CLASS: usize = 0;
pub const UDTF_JOIN_CLASS: usize = 1;
pub const LOCAL_JOIN_CLASS: usize = 2;
pub const WRITE_CLASS: usize = 3;

fn fig5() -> impl Iterator<Item = MappingSpec> {
    paper_functions::fig5_workload()
        .into_iter()
        .map(|(spec, _)| spec)
}

/// One purchase row of the local `Purchases` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Purchase {
    pub id: i32,
    pub order_no: i32,
    pub supplier_no: i32,
    pub quantity: i32,
}

impl Purchase {
    /// The INSERT a client sends for this row. Values travel as literals:
    /// the engine binds host variables in queries, not in `VALUES` lists.
    pub fn insert_sql(&self) -> String {
        format!(
            "INSERT INTO Purchases VALUES ({}, {}, {}, {})",
            self.id, self.order_no, self.supplier_no, self.quantity
        )
    }

    pub fn values(&self) -> Vec<Value> {
        vec![
            Value::Int(self.id),
            Value::Int(self.order_no),
            Value::Int(self.supplier_no),
            Value::Int(self.quantity),
        ]
    }
}

/// One foreign order.
#[derive(Debug, Clone, Copy)]
pub struct Order {
    pub order_no: i32,
    pub supplier_no: i32,
    pub comp_no: i32,
    pub quantity: i32,
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub class: usize,
    pub request: Request,
    /// Sampled for the reference check.
    pub check: bool,
    /// The row an INSERT writes.
    pub write: Option<Purchase>,
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank+1)^s`
/// and maps them through a seeded permutation, so which entities are hot
/// depends on the seed.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.range_usize(0, i + 1));
        }
        Zipf { cdf, perm }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

/// Everything the seed determines, shared by all clients of a run.
#[derive(Debug)]
pub struct Inputs {
    pub seed: u64,
    pub data: GeneratedData,
    /// `(supplier index, component index)` pairs with a stock number.
    stock_pairs: Vec<(usize, usize)>,
    /// Components stocked by supplier 1234 (`GetNumberSupp1234`).
    supp1234_comps: Vec<i32>,
    supplier_zipf: Zipf,
    component_zipf: Zipf,
    pair_zipf: Zipf,
    supp1234_zipf: Zipf,
    pub orders: Vec<Order>,
    pub preloaded: Vec<Purchase>,
    next_purchase_id: AtomicI64,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let data = datagen::generate(&DataGenConfig::default());
        let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_BE7C_0000_0001);
        let supplier_idx = |no: i32| data.suppliers.iter().position(|s| s.supplier_no == no);
        let comp_idx = |no: i32| data.components.iter().position(|c| c.comp_no == no);
        let mut stock_pairs: Vec<(usize, usize)> = data
            .stock_numbers
            .iter()
            .filter_map(|s| Some((supplier_idx(s.supplier_no)?, comp_idx(s.comp_no)?)))
            .collect();
        stock_pairs.sort_unstable();
        stock_pairs.dedup();
        let mut supp1234_comps: Vec<i32> = data
            .stock_numbers
            .iter()
            .filter(|s| s.supplier_no == datagen::WELL_KNOWN_SUPPLIER_NO)
            .map(|s| s.comp_no)
            .collect();
        supp1234_comps.sort_unstable();
        supp1234_comps.dedup();
        let supplier_zipf = Zipf::new(data.suppliers.len(), ZIPF_S, &mut rng);
        let component_zipf = Zipf::new(data.components.len(), ZIPF_S, &mut rng);
        let pair_zipf = Zipf::new(stock_pairs.len(), ZIPF_S, &mut rng);
        let supp1234_zipf = Zipf::new(supp1234_comps.len(), ZIPF_S, &mut rng);
        let orders: Vec<Order> = (0..ORDERS)
            .map(|i| Order {
                order_no: i as i32 + 1,
                supplier_no: data.suppliers[rng.range_usize(0, data.suppliers.len())].supplier_no,
                comp_no: data.components[rng.range_usize(0, data.components.len())].comp_no,
                quantity: rng.range_i32(1, 100),
            })
            .collect();
        let preloaded: Vec<Purchase> = (0..PRELOADED_PURCHASES)
            .map(|i| {
                let order = orders[rng.range_usize(0, orders.len())];
                Purchase {
                    id: i as i32 + 1,
                    order_no: order.order_no,
                    supplier_no: order.supplier_no,
                    quantity: rng.range_i32(1, 50),
                }
            })
            .collect();
        Inputs {
            seed,
            data,
            stock_pairs,
            supp1234_comps,
            supplier_zipf,
            component_zipf,
            pair_zipf,
            supp1234_zipf,
            orders,
            preloaded,
            next_purchase_id: AtomicI64::new(PRELOADED_PURCHASES as i64 + 1),
        }
    }

    /// A fresh generator for stream `stream` (one per client, plus the
    /// warm-up and probe streams).
    pub fn generator(&self, workload: Workload, stream: u64) -> OpGen<'_> {
        OpGen {
            inputs: self,
            workload,
            functions: workload.functions(),
            rng: Rng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (stream + 1)),
        }
    }

    fn next_purchase_id(&self) -> i32 {
        let id = self.next_purchase_id.fetch_add(1, Ordering::Relaxed);
        i32::try_from(id).expect("purchase ids stay far below i32::MAX")
    }
}

/// A seeded stream of operations for one client.
pub struct OpGen<'a> {
    inputs: &'a Inputs,
    workload: Workload,
    functions: Vec<MappingSpec>,
    rng: Rng,
}

impl OpGen<'_> {
    /// The next operation, with a uniformly drawn class.
    pub fn next_op(&mut self) -> Op {
        let class = match self.workload.kind {
            Kind::FedqueryRw => {
                if self.rng.gen_bool(WRITE_SHARE) {
                    WRITE_CLASS
                } else {
                    self.rng.range_usize(0, 3)
                }
            }
            _ => self.rng.range_usize(0, self.functions.len()),
        };
        self.op_of(class)
    }

    /// The next operation of class `class`.
    pub fn op_of(&mut self, class: usize) -> Op {
        let check = self.rng.next_below(CHECK_ONE_IN) == 0;
        let (request, write) = match self.workload.kind {
            Kind::FedqueryRw => self.query(class),
            _ => {
                let name = self.functions[class].name.to_string();
                let args = self.function_args(&name);
                (Request::function(name).params(args), None)
            }
        };
        Op {
            class,
            request,
            check,
            write,
        }
    }

    fn supplier(&mut self) -> (i32, String) {
        let s = &self.inputs.data.suppliers[self.inputs.supplier_zipf.sample(&mut self.rng)];
        (s.supplier_no, s.name.clone())
    }

    fn component(&mut self) -> (i32, String) {
        let c = &self.inputs.data.components[self.inputs.component_zipf.sample(&mut self.rng)];
        (c.comp_no, c.name.clone())
    }

    fn function_args(&mut self, name: &str) -> Vec<Value> {
        let inputs = self.inputs;
        match name {
            "GibKompNr" => vec![Value::str(self.component().1)],
            "GetNumberSupp1234" => {
                let i = inputs.supp1234_zipf.sample(&mut self.rng);
                vec![Value::Int(inputs.supp1234_comps[i])]
            }
            "GetSubCompDiscounts" => {
                let comp = self.component().0;
                vec![Value::Int(comp), Value::Int(self.rng.range_i32(5, 30))]
            }
            "GetSuppQualRelia" => vec![Value::Int(self.supplier().0)],
            "GetSuppQual" | "GetSuppScores" => vec![Value::str(self.supplier().1)],
            "GetNoSuppComp" => {
                let (s, c) = inputs.stock_pairs[inputs.pair_zipf.sample(&mut self.rng)];
                vec![
                    Value::str(inputs.data.suppliers[s].name.as_str()),
                    Value::str(inputs.data.components[c].name.as_str()),
                ]
            }
            "BuySuppComp" => {
                let supplier = self.supplier().0;
                vec![Value::Int(supplier), Value::str(self.component().1)]
            }
            "AllCompNames" => vec![Value::Int(
                1 + self.inputs.component_zipf.sample(&mut self.rng) as i32 % 8,
            )],
            other => panic!("no argument recipe for {other}"),
        }
    }

    fn query(&mut self, class: usize) -> (Request, Option<Purchase>) {
        match class {
            GROUP_BY_CLASS => (
                Request::sql(GROUP_BY_SQL).bind("MinQty", self.rng.range_i32(1, 60)),
                None,
            ),
            UDTF_JOIN_CLASS => (
                Request::sql(UDTF_JOIN_SQL).bind("Comp", self.component().0),
                None,
            ),
            LOCAL_JOIN_CLASS => (
                Request::sql(LOCAL_JOIN_SQL)
                    .bind("Loaded", PRELOADED_PURCHASES as i32)
                    .bind("MaxComp", self.rng.range_i32(100, 500)),
                None,
            ),
            _ => {
                let order = self.inputs.orders[self.rng.range_usize(0, self.inputs.orders.len())];
                let purchase = Purchase {
                    id: self.inputs.next_purchase_id(),
                    order_no: order.order_no,
                    supplier_no: order.supplier_no,
                    quantity: self.rng.range_i32(1, 50),
                };
                (Request::sql(purchase.insert_sql()), Some(purchase))
            }
        }
    }
}

/// Share of the first `counts[c]` operations of each client stream `c`
/// whose request (target and arguments) already occurred earlier in the
/// run. Regenerates the streams, so the measured loop pays nothing for it.
pub fn repeated_share(inputs: &Inputs, workload: Workload, counts: &[u64]) -> f64 {
    let mut seen = HashSet::new();
    let (mut total, mut repeated) = (0u64, 0u64);
    for (client, &n) in counts.iter().enumerate() {
        let mut generator = inputs.generator(workload, client as u64);
        for _ in 0..n {
            let op = generator.next_op();
            if op.write.is_some() {
                total += 1;
                continue;
            }
            let key = format!("{:?}|{:?}", op.request.target(), op.request.params_ref());
            total += 1;
            if !seen.insert(key) {
                repeated += 1;
            }
        }
    }
    repeated as f64 / total.max(1) as f64
}
