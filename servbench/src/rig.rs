//! Building the system under test: scenario, server boot, deployment,
//! data load, serving layers and warm-up — everything `setup_s` times.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use fedwf_core::{
    FrontConfig, IntegrationConfig, IntegrationServer, LocalStoreConfig, Request, ServerFront,
    Submit,
};
use fedwf_fdbs::RelstoreServer;
use fedwf_net::{NetServer, TcpClient};
use fedwf_relstore::Database;
use fedwf_types::{CommitMode, DataType, FedError, FedResult, Row, Schema, Value};

use crate::workload::{Inputs, Kind, Workload};

pub const ORDERS_TABLE: &str = "OpenOrders";
pub const PURCHASES_TABLE: &str = "Purchases";

/// One booted, deployed, loaded and warmed instance of the system.
pub struct Rig {
    pub workload: Workload,
    pub server: Arc<IntegrationServer>,
    pub front: Arc<ServerFront>,
    /// Loopback listener and its client (`fedfn_tcp` only).
    pub net: Option<(NetServer, TcpClient)>,
    /// The database behind the foreign `OpenOrders` table.
    pub orders: Option<Arc<Database>>,
    /// Directory of the local store's WAL (`fedquery_rw` only).
    pub store_dir: Option<PathBuf>,
}

impl Rig {
    /// Build a rig; see [`build_server`] for `store_dir`.
    pub fn build(workload: Workload, inputs: &Inputs, store_dir: Option<&Path>) -> FedResult<Rig> {
        let (server, orders) = build_server(workload, inputs, store_dir)?;
        let front = Arc::new(ServerFront::start(
            Arc::clone(&server),
            FrontConfig::default()
                .with_workers(workload.workers)
                .with_queue_depth(64)
                .with_default_deadline(Duration::from_secs(60)),
        ));
        let net = if workload.uses_net() {
            let net = NetServer::start("127.0.0.1:0", Arc::clone(&front))?;
            let client = TcpClient::connect(net.local_addr())?;
            Some((net, client))
        } else {
            None
        };
        let rig = Rig {
            workload,
            server,
            front,
            net,
            orders,
            store_dir: store_dir.map(Path::to_path_buf),
        };
        warm_up(workload, inputs, |r| rig.submit(r))?;
        Ok(rig)
    }

    /// The public entry point clients of this workload use.
    pub fn submit(&self, request: Request) -> FedResult<fedwf_core::Outcome> {
        match &self.net {
            Some((_, client)) => client.submit(request),
            None => self.front.submit(request),
        }
    }

    /// Stop the serving layers and the server, waiting for every thread
    /// (listener, connections, front workers, log writer) to end.
    pub fn shut_down(self) {
        let Rig {
            server,
            front,
            net,
            orders,
            ..
        } = self;
        if let Some((net, client)) = net {
            drop(client);
            net.shutdown();
        }
        drop(front);
        drop(orders);
        drop(server);
    }
}

/// A booted server with the workload's functions deployed and its tables
/// loaded. `store_dir`, when given, makes the local store durable there
/// (group commit).
fn build_server(
    workload: Workload,
    inputs: &Inputs,
    store_dir: Option<&Path>,
) -> FedResult<(Arc<IntegrationServer>, Option<Arc<Database>>)> {
    let mut config = IntegrationConfig::default().with_architecture(workload.architecture);
    if let Some(dir) = store_dir {
        config = config
            .with_local_store(LocalStoreConfig::at(dir).with_commit_mode(CommitMode::group()));
    }
    let server = Arc::new(IntegrationServer::new(config)?);
    server.boot();
    for spec in workload.functions() {
        server.deploy(&spec)?;
    }
    let orders = if workload.kind == Kind::FedqueryRw {
        Some(load_tables(&server, inputs)?)
    } else {
        None
    };
    Ok((server, orders))
}

/// The single-threaded reference the output checks compare against: the
/// same server, data and warm-up, called directly through
/// `IntegrationServer::execute`, with an in-memory local store.
pub fn reference_server(workload: Workload, inputs: &Inputs) -> FedResult<Arc<IntegrationServer>> {
    let (server, _orders) = build_server(workload, inputs, None)?;
    warm_up(workload, inputs, |r| server.execute(&r))?;
    Ok(server)
}

/// One read of every class through `submit`, so plans, templates and
/// pooled connections exist before any clock starts. INSERTs are not
/// warmed: a warm-up write would be a row the read-back check has to know
/// about.
fn warm_up(
    workload: Workload,
    inputs: &Inputs,
    submit: impl Fn(Request) -> FedResult<fedwf_core::Outcome>,
) -> FedResult<()> {
    let mut generator = inputs.generator(workload, u64::MAX);
    for class in 0..workload.classes().len() {
        if workload.is_read(class) {
            submit(generator.op_of(class).request)?;
        }
    }
    Ok(())
}

/// Create the foreign `OpenOrders` table behind a relstore SQL/MED server
/// and the local, WAL-backed `Purchases` table with its preloaded rows.
fn load_tables(server: &IntegrationServer, inputs: &Inputs) -> FedResult<Arc<Database>> {
    let orders = Database::new("orders-erp");
    orders.create_table(
        ORDERS_TABLE,
        Arc::new(Schema::of(&[
            ("OrderNo", DataType::Int),
            ("SupplierNo", DataType::Int),
            ("CompNo", DataType::Int),
            ("Quantity", DataType::Int),
        ])),
    )?;
    orders.insert_all(
        ORDERS_TABLE,
        inputs
            .orders
            .iter()
            .map(|o| {
                Row::new(vec![
                    Value::Int(o.order_no),
                    Value::Int(o.supplier_no),
                    Value::Int(o.comp_no),
                    Value::Int(o.quantity),
                ])
            })
            .collect(),
    )?;
    let orders = Arc::new(orders);
    let remote = Arc::new(RelstoreServer::new("orders-erp", Arc::clone(&orders)));
    let catalog = server.fdbs().catalog();
    catalog.register_foreign_table(ORDERS_TABLE, remote, ORDERS_TABLE)?;
    let local = catalog.local();
    local.create_table(
        PURCHASES_TABLE,
        Arc::new(Schema::of(&[
            ("PurchaseId", DataType::Int),
            ("OrderNo", DataType::Int),
            ("SupplierNo", DataType::Int),
            ("Quantity", DataType::Int),
        ])),
    )?;
    local.insert_all(
        PURCHASES_TABLE,
        inputs
            .preloaded
            .iter()
            .map(|p| Row::new(p.values()))
            .collect(),
    )?;
    Ok(orders)
}

/// Where the durable local store of setup round `round` lives: under the
/// working directory, so the benchmark writes only inside its checkout.
pub fn store_dir(round: usize) -> PathBuf {
    PathBuf::from(".servbench_state").join(format!("{}-{round}", std::process::id()))
}

/// Remove a store directory and, once empty, the state directory.
pub fn remove_store(dir: &Path) -> FedResult<()> {
    std::fs::remove_dir_all(dir)
        .map_err(|e| FedError::execution(format!("removing {}: {e}", dir.display())))?;
    if let Some(parent) = dir.parent() {
        // Fails harmlessly while another run still has a store there.
        let _ = std::fs::remove_dir(parent);
    }
    Ok(())
}

/// Size of the local store's WAL file, in bytes.
pub fn wal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len())
}

/// The filesystem type holding `path` (longest matching mount point in
/// `/proc/self/mountinfo`), for the report.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fs) = fields.get(dash + 1) else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
