//! The experiments of Section 3 and Section 4, one function per artifact.

use fedwf_core::{
    paper_functions, ArchitectureKind, ComplexityCase, IntegrationConfig, IntegrationServer,
    MappingSpec, Outcome, Request,
};
use fedwf_sim::{Breakdown, CostModel, ExecOptions};
use fedwf_types::{FedResult, Value};

/// Build a booted server for an architecture with the default calibration.
pub fn make_server(kind: ArchitectureKind) -> IntegrationServer {
    make_server_with_cost(kind, CostModel::default())
}

/// Build a booted server with a custom cost model (ablations).
pub fn make_server_with_cost(kind: ArchitectureKind, cost: CostModel) -> IntegrationServer {
    let server = IntegrationServer::new(
        IntegrationConfig::default()
            .with_architecture(kind)
            .with_cost(cost),
    )
    .expect("scenario construction is infallible with default config");
    server.boot();
    server
}

/// The call arguments for each paper function.
pub fn args_for(server: &IntegrationServer, spec: &MappingSpec) -> Vec<Value> {
    let s = server.scenario();
    match spec.name.normalized() {
        "gibkompnr" => vec![Value::str(s.well_known_component_name())],
        "getnumbersupp1234" => vec![Value::Int(s.well_known_component_no())],
        "getsubcompdiscounts" => vec![Value::Int(s.well_known_component_no()), Value::Int(10)],
        "getsuppqualrelia" => vec![Value::Int(s.well_known_supplier_no())],
        "getsuppqual" => vec![Value::str(s.well_known_supplier_name())],
        "getsuppscores" => vec![Value::str(s.well_known_supplier_name())],
        "getnosuppcomp" => vec![
            Value::str(s.well_known_supplier_name()),
            Value::str(s.well_known_component_name()),
        ],
        "buysuppcomp" => vec![
            Value::Int(s.well_known_supplier_no()),
            Value::str(s.well_known_component_name()),
        ],
        "allcompnames" => vec![Value::Int(10)],
        "allcompnamesauto" => vec![],
        other => panic!("no argument recipe for {other}"),
    }
}

/// Call a deployed federated function through the [`Request`] surface —
/// the positional-args convenience every bench shares.
pub fn call_fn(server: &IntegrationServer, name: &str, args: &[Value]) -> FedResult<Outcome> {
    server.execute(&Request::function(name).params(args))
}

/// Warm (repeated) call: one throwaway invocation to fill every cache,
/// then the measured one.
pub fn warm_call(server: &IntegrationServer, name: &str, args: &[Value]) -> FedResult<Outcome> {
    warm_call_with(server, name, args, ExecOptions::default())
}

/// [`warm_call`] with both calls running under `options`.
pub fn warm_call_with(
    server: &IntegrationServer,
    name: &str,
    args: &[Value],
    options: ExecOptions,
) -> FedResult<Outcome> {
    let request = Request::function(name).params(args).exec_options(options);
    server.execute(&request)?;
    server.execute(&request)
}

/// The default options with the dependent-UDTF memo off: every identical
/// call is booked, as the paper's per-invocation costs require (E5, E6).
fn no_memo() -> ExecOptions {
    ExecOptions::default().udtf_memo(false)
}

// ===========================================================================
// E1 — Section 3 capability table
// ===========================================================================

/// One row of the Section 3 summary table.
#[derive(Debug, Clone)]
pub struct CapabilityRow {
    pub case: ComplexityCase,
    /// Mechanism per architecture, `None` = not supported.
    pub mechanisms: Vec<(ArchitectureKind, Option<&'static str>)>,
}

/// Regenerate the Section 3 capability matrix from the architecture
/// implementations themselves.
pub fn capability_matrix(kinds: &[ArchitectureKind]) -> Vec<CapabilityRow> {
    let server_by_kind: Vec<(ArchitectureKind, IntegrationServer)> = kinds
        .iter()
        .map(|k| {
            (
                *k,
                IntegrationServer::with_architecture(*k).expect("server"),
            )
        })
        .collect();
    ComplexityCase::ALL
        .iter()
        .map(|case| CapabilityRow {
            case: *case,
            mechanisms: server_by_kind
                .iter()
                .map(|(k, s)| (*k, s.architecture().mechanism(*case)))
                .collect(),
        })
        .collect()
}

/// Render the capability matrix the way the paper prints it (two columns:
/// UDTF approach, WfMS approach).
pub fn render_capability_table() -> String {
    let rows = capability_matrix(&[ArchitectureKind::SqlUdtf, ArchitectureKind::Wfms]);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} | {:<55} | {:<45}\n",
        "Case", "UDTF approach", "WfMS approach"
    ));
    out.push_str(&format!("{}\n", "-".repeat(125)));
    for row in rows {
        let cell = |m: Option<&'static str>| m.unwrap_or("not supported").to_string();
        out.push_str(&format!(
            "{:<20} | {:<55} | {:<45}\n",
            row.case.name(),
            cell(row.mechanisms[0].1),
            cell(row.mechanisms[1].1),
        ));
    }
    out
}

// ===========================================================================
// E2 — Fig. 5: elapsed time per federated function, both architectures
// ===========================================================================

/// One bar pair of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    pub function: String,
    pub case: ComplexityCase,
    pub local_functions: usize,
    pub wfms_us: Option<u64>,
    pub udtf_us: Option<u64>,
}

impl Fig5Row {
    pub fn ratio(&self) -> Option<f64> {
        match (self.wfms_us, self.udtf_us) {
            (Some(w), Some(u)) if u > 0 => Some(w as f64 / u as f64),
            _ => None,
        }
    }
}

/// Run the Fig. 5 workload (warm calls) on both reference architectures.
pub fn fig5_elapsed() -> Vec<Fig5Row> {
    let wfms = make_server(ArchitectureKind::Wfms);
    let udtf = make_server(ArchitectureKind::SqlUdtf);
    let mut rows = Vec::new();
    for (spec, case) in paper_functions::fig5_workload() {
        wfms.deploy(&spec).expect("WfMS deploys everything");
        let args = args_for(&wfms, &spec);
        let wfms_us = Some(
            warm_call(&wfms, spec.name.as_str(), &args)
                .expect("wfms call")
                .elapsed_us(),
        );
        let mut udtf_us = None;
        if udtf.architecture().supports(&spec) {
            udtf.deploy(&spec).expect("supported spec deploys");
            let args = args_for(&udtf, &spec);
            udtf_us = Some(
                warm_call(&udtf, spec.name.as_str(), &args)
                    .expect("udtf call")
                    .elapsed_us(),
            );
        }
        rows.push(Fig5Row {
            function: spec.name.as_str().to_string(),
            case,
            local_functions: spec.local_call_count(10),
            wfms_us,
            udtf_us,
        });
    }
    rows
}

/// Render Fig. 5 as an aligned table with the WfMS/UDTF ratio.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<20} {:>7} {:>12} {:>12} {:>7}\n",
        "Federated function", "Case", "locals", "WfMS (us)", "UDTF (us)", "ratio"
    ));
    out.push_str(&format!("{}\n", "-".repeat(85)));
    for r in rows {
        let fmt_opt = |v: Option<u64>| match v {
            Some(v) => v.to_string(),
            None => "n/a".to_string(),
        };
        let ratio = match r.ratio() {
            Some(x) => format!("{x:.2}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<22} {:<20} {:>7} {:>12} {:>12} {:>7}\n",
            r.function,
            r.case.name(),
            r.local_functions,
            fmt_opt(r.wfms_us),
            fmt_opt(r.udtf_us),
            ratio
        ));
    }
    out
}

// ===========================================================================
// E3 — Fig. 6: step breakdown of GetNoSuppComp on both architectures
// ===========================================================================

/// The two breakdown tables of Fig. 6 (warm call of `GetNoSuppComp`).
pub fn fig6_breakdowns() -> (Breakdown, Breakdown) {
    let spec = paper_functions::get_no_supp_comp();

    let wfms = make_server(ArchitectureKind::Wfms);
    wfms.deploy(&spec).unwrap();
    let args = args_for(&wfms, &spec);
    let wf_outcome = warm_call(&wfms, "GetNoSuppComp", &args).unwrap();

    let udtf = make_server(ArchitectureKind::SqlUdtf);
    udtf.deploy(&spec).unwrap();
    let args = args_for(&udtf, &spec);
    let udtf_outcome = warm_call(&udtf, "GetNoSuppComp", &args).unwrap();

    (
        wf_outcome.breakdown_by_step("Workflow approach (GetNoSuppComp)"),
        udtf_outcome.breakdown_by_step("UDTF approach (GetNoSuppComp)"),
    )
}

// ===========================================================================
// E4 — warm-up tiers: cold / after-other-function / repeated
// ===========================================================================

#[derive(Debug, Clone)]
pub struct WarmupRow {
    pub architecture: ArchitectureKind,
    pub function: String,
    pub cold_us: u64,
    pub after_other_us: u64,
    pub repeated_us: u64,
}

/// Measure the three call situations of Section 4 for a set of functions.
pub fn warmup_tiers(kind: ArchitectureKind) -> Vec<WarmupRow> {
    let mut rows = Vec::new();
    for (spec, _) in paper_functions::fig5_workload() {
        let server =
            IntegrationServer::new(IntegrationConfig::default().with_architecture(kind)).unwrap();
        if !server.architecture().supports(&spec) {
            continue;
        }
        server.deploy(&spec).unwrap();
        let args = args_for(&server, &spec);
        // Cold: nothing booted, caches empty.
        let cold_us = call_fn(&server, spec.name.as_str(), &args)
            .unwrap()
            .elapsed_us();
        // After some other function: processes up, this function's plan and
        // template evicted.
        server.clear_caches();
        let after_other_us = call_fn(&server, spec.name.as_str(), &args)
            .unwrap()
            .elapsed_us();
        // Repeated.
        let repeated_us = call_fn(&server, spec.name.as_str(), &args)
            .unwrap()
            .elapsed_us();
        rows.push(WarmupRow {
            architecture: kind,
            function: spec.name.as_str().to_string(),
            cold_us,
            after_other_us,
            repeated_us,
        });
    }
    rows
}

pub fn render_warmup(rows: &[WarmupRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:<22} {:>12} {:>14} {:>12}\n",
        "Architecture", "Function", "cold (us)", "after-other", "repeated"
    ));
    out.push_str(&format!("{}\n", "-".repeat(95)));
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:<22} {:>12} {:>14} {:>12}\n",
            r.architecture.name(),
            r.function,
            r.cold_us,
            r.after_other_us,
            r.repeated_us
        ));
    }
    out
}

// ===========================================================================
// E5 — AllCompNames loop scaling (linear in the number of calls)
// ===========================================================================

#[derive(Debug, Clone)]
pub struct LoopScalingPoint {
    pub iterations: usize,
    pub elapsed_us: u64,
}

/// Elapsed time of `AllCompNames(n)` on the WfMS architecture for each `n`.
pub fn loop_scaling(ns: &[usize]) -> Vec<LoopScalingPoint> {
    let server = make_server(ArchitectureKind::Wfms);
    server.deploy(&paper_functions::all_comp_names()).unwrap();
    ns.iter()
        .map(|&n| {
            let args = vec![Value::Int(n as i32)];
            // The paper's loop cost is per invocation: keep the
            // dependent-UDTF memo off so repeated identical calls are never
            // collapsed.
            let outcome = warm_call_with(&server, "AllCompNames", &args, no_memo()).unwrap();
            LoopScalingPoint {
                iterations: n,
                elapsed_us: outcome.elapsed_us(),
            }
        })
        .collect()
}

/// Least-squares linear fit `us ≈ a * n + b`; returns `(a, b, r²)`.
pub fn linear_fit(points: &[LoopScalingPoint]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.iterations as f64).sum();
    let sy: f64 = points.iter().map(|p| p.elapsed_us as f64).sum();
    let sxx: f64 = points.iter().map(|p| (p.iterations as f64).powi(2)).sum();
    let sxy: f64 = points
        .iter()
        .map(|p| p.iterations as f64 * p.elapsed_us as f64)
        .sum();
    let a = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let b = (sy - a * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points
        .iter()
        .map(|p| (p.elapsed_us as f64 - mean_y).powi(2))
        .sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| {
            let pred = a * p.iterations as f64 + b;
            (p.elapsed_us as f64 - pred).powi(2)
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (a, b, r2)
}

// ===========================================================================
// E6 — controller ablation (ratio 3 → 3.7)
// ===========================================================================

#[derive(Debug, Clone)]
pub struct AblationResult {
    pub with_controller: (u64, u64, f64),
    pub without_controller: (u64, u64, f64),
    /// Fraction of each architecture's time the controller accounted for.
    pub controller_share_udtf: f64,
    pub controller_share_wfms: f64,
}

/// Re-run `GetNoSuppComp` with and without the controller.
pub fn controller_ablation() -> AblationResult {
    let spec = paper_functions::get_no_supp_comp();
    let measure = |cost: CostModel| -> (u64, u64) {
        // Ablation compares per-invocation controller shares; the
        // dependent-UDTF memo would skew them, so it stays off.
        let call = |kind, cost| {
            let server = make_server_with_cost(kind, cost);
            server.deploy(&spec).unwrap();
            let args = args_for(&server, &spec);
            warm_call_with(&server, "GetNoSuppComp", &args, no_memo())
                .unwrap()
                .elapsed_us()
        };
        let w = call(ArchitectureKind::Wfms, cost.clone());
        let u = call(ArchitectureKind::SqlUdtf, cost);
        (u, w)
    };
    let (u1, w1) = measure(CostModel::default());
    let (u0, w0) = measure(CostModel::default().without_controller());
    AblationResult {
        with_controller: (u1, w1, w1 as f64 / u1 as f64),
        without_controller: (u0, w0, w0 as f64 / u0 as f64),
        controller_share_udtf: (u1 - u0) as f64 / u1 as f64,
        controller_share_wfms: (w1 - w0) as f64 / w1 as f64,
    }
}

// ===========================================================================
// E7 — parallel vs sequential contrast
// ===========================================================================

#[derive(Debug, Clone)]
pub struct ParallelContrast {
    pub architecture: ArchitectureKind,
    /// GetSuppQualRelia: two independent (parallelizable) local functions.
    pub parallel_us: u64,
    /// GetSuppQual: two sequentially dependent local functions.
    pub sequential_us: u64,
}

/// Measure the paper's contrast: the WfMS runs the parallel function
/// *faster* than the sequential one; the UDTF approach shows the opposite.
pub fn parallel_vs_sequential() -> Vec<ParallelContrast> {
    [ArchitectureKind::Wfms, ArchitectureKind::SqlUdtf]
        .iter()
        .map(|&kind| {
            let server = make_server(kind);
            server
                .deploy(&paper_functions::get_supp_qual_relia())
                .unwrap();
            server.deploy(&paper_functions::get_supp_qual()).unwrap();
            let s = server.scenario();
            let parallel_args = vec![Value::Int(s.well_known_supplier_no())];
            let sequential_args = vec![Value::str(s.well_known_supplier_name())];
            let parallel_us = warm_call(&server, "GetSuppQualRelia", &parallel_args)
                .unwrap()
                .elapsed_us();
            let sequential_us = warm_call(&server, "GetSuppQual", &sequential_args)
                .unwrap()
                .elapsed_us();
            ParallelContrast {
                architecture: kind,
                parallel_us,
                sequential_us,
            }
        })
        .collect()
}

// ===========================================================================
// E8 — the architecture spectrum on BuySuppComp
// ===========================================================================

#[derive(Debug, Clone)]
pub struct SpectrumRow {
    pub architecture: ArchitectureKind,
    pub elapsed_us: u64,
    pub decision: String,
}

/// Deploy and run `BuySuppComp` on all four architectures.
pub fn architecture_spectrum() -> Vec<SpectrumRow> {
    ArchitectureKind::ALL
        .iter()
        .map(|&kind| {
            let server = make_server(kind);
            server.deploy(&paper_functions::buy_supp_comp()).unwrap();
            let args = args_for(&server, &paper_functions::buy_supp_comp());
            let outcome = warm_call(&server, "BuySuppComp", &args).unwrap();
            SpectrumRow {
                architecture: kind,
                elapsed_us: outcome.elapsed_us(),
                decision: outcome
                    .table
                    .value(0, "Decision")
                    .map(|v| v.render())
                    .unwrap_or_default(),
            }
        })
        .collect()
}

// ===========================================================================
// E9 — error handling: retries on the WfMS vs first-error-fatal UDTFs
// ===========================================================================

#[derive(Debug, Clone)]
pub struct ErrorHandlingResult {
    pub architecture: ArchitectureKind,
    pub attempts: usize,
    pub successes: usize,
}

/// Inject one transient fault into `GetQuality` before each of `attempts`
/// calls of a retry-enabled linear federated function and count successes.
/// The workflow engine's per-activity retry absorbs the fault; the UDTF
/// architectures have no retry machinery.
pub fn error_handling(attempts: usize) -> Vec<ErrorHandlingResult> {
    use fedwf_core::{ArgSource, MappingSpec};
    use fedwf_types::DataType;
    let spec = MappingSpec::new("RobustQual", &[("SupplierName", DataType::Varchar)])
        .call(
            "GSN",
            "GetSupplierNo",
            vec![ArgSource::param("SupplierName")],
        )
        .call(
            "GQ",
            "GetQuality",
            vec![ArgSource::output("GSN", "SupplierNo")],
        )
        .retry(3)
        .output_from_call("GQ")
        .expect("static spec");
    [ArchitectureKind::Wfms, ArchitectureKind::SqlUdtf]
        .iter()
        .map(|&kind| {
            let server = make_server(kind);
            server.deploy(&spec).unwrap();
            let args = vec![Value::str(server.scenario().well_known_supplier_name())];
            let stock = server.scenario().registry.system("stock").unwrap().clone();
            let mut successes = 0;
            for _ in 0..attempts {
                stock.inject_faults("GetQuality", 1);
                if call_fn(&server, "RobustQual", &args).is_ok() {
                    successes += 1;
                }
            }
            ErrorHandlingResult {
                architecture: kind,
                attempts,
                successes,
            }
        })
        .collect()
}

// ===========================================================================
// E10 — scalability: elapsed time vs. data volume
// ===========================================================================

#[derive(Debug, Clone)]
pub struct ScalabilityRow {
    pub components: usize,
    pub function: String,
    pub wfms_us: u64,
    pub udtf_us: u64,
}

/// Warm-call cost of a scalar-result function (`BuySuppComp`) and a
/// set-returning one (`GetSubCompDiscounts`) as the synthetic enterprise
/// grows. The scalar path should stay flat; the set-returning path grows
/// with the data it moves.
pub fn scalability(component_counts: &[usize]) -> Vec<ScalabilityRow> {
    let mut rows = Vec::new();
    for &components in component_counts {
        let data = fedwf_appsys::DataGenConfig {
            components,
            suppliers: components / 2,
            ..fedwf_appsys::DataGenConfig::default()
        };
        let mut per_arch = Vec::new();
        for kind in [ArchitectureKind::Wfms, ArchitectureKind::SqlUdtf] {
            let server = IntegrationServer::new(
                IntegrationConfig::default()
                    .with_architecture(kind)
                    .with_data(data.clone()),
            )
            .unwrap();
            server.boot();
            let mut us = Vec::new();
            for spec in [
                paper_functions::buy_supp_comp(),
                paper_functions::get_sub_comp_discounts(),
            ] {
                server.deploy(&spec).unwrap();
                let args = args_for(&server, &spec);
                us.push(
                    warm_call(&server, spec.name.as_str(), &args)
                        .unwrap()
                        .elapsed_us(),
                );
            }
            per_arch.push(us);
        }
        for (i, function) in ["BuySuppComp", "GetSubCompDiscounts"].iter().enumerate() {
            rows.push(ScalabilityRow {
                components,
                function: function.to_string(),
                wfms_us: per_arch[0][i],
                udtf_us: per_arch[1][i],
            });
        }
    }
    rows
}

// ===========================================================================
// E11 — wrapper result-cache ablation (future-work "query optimization")
// ===========================================================================

#[derive(Debug, Clone)]
pub struct ResultCacheAblation {
    pub uncached_us: u64,
    pub cached_us: u64,
}

/// Repeated identical `GetSuppQual` calls with and without the wrapper's
/// result cache.
pub fn result_cache_ablation() -> ResultCacheAblation {
    let measure = |cache: bool| -> u64 {
        let server = IntegrationServer::new(IntegrationConfig {
            result_cache: cache,
            ..IntegrationConfig::default()
        })
        .unwrap();
        server.boot();
        server.deploy(&paper_functions::get_supp_qual()).unwrap();
        let args = vec![Value::str(server.scenario().well_known_supplier_name())];
        warm_call(&server, "GetSuppQual", &args)
            .unwrap()
            .elapsed_us()
    };
    ResultCacheAblation {
        uncached_us: measure(false),
        cached_us: measure(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_matrix_reproduces_section3() {
        let rows = capability_matrix(&[ArchitectureKind::SqlUdtf, ArchitectureKind::Wfms]);
        // The WfMS column supports everything.
        for row in &rows {
            assert!(
                row.mechanisms[1].1.is_some(),
                "WfMS must support {}",
                row.case
            );
        }
        // The UDTF column fails exactly the cyclic case.
        let cyclic = rows
            .iter()
            .find(|r| r.case == ComplexityCase::Cyclic)
            .unwrap();
        assert!(cyclic.mechanisms[0].1.is_none());
        let unsupported: usize = rows.iter().filter(|r| r.mechanisms[0].1.is_none()).count();
        assert_eq!(unsupported, 1);
    }

    #[test]
    fn fig5_wfms_is_slower_by_about_three() {
        let rows = fig5_elapsed();
        for r in &rows {
            if let Some(ratio) = r.ratio() {
                // Tiny functions pay the WfMS's fixed invocation overhead
                // on a small base, so their ratio exceeds the factor 3
                // observed at realistic sizes; see EXPERIMENTS.md.
                assert!(
                    (1.5..=5.0).contains(&ratio),
                    "{}: ratio {ratio} out of the paper's band",
                    r.function
                );
                assert!(
                    r.wfms_us.unwrap() > r.udtf_us.unwrap(),
                    "{}: WfMS must be slower",
                    r.function
                );
            }
        }
        // GetNoSuppComp (the Fig. 6 function) lands close to the factor 3.
        let gnsc = rows.iter().find(|r| r.function == "GetNoSuppComp").unwrap();
        let ratio = gnsc.ratio().unwrap();
        assert!((2.5..=3.5).contains(&ratio), "GetNoSuppComp ratio {ratio}");
        // AllCompNames exists only on the WfMS side.
        let acn = rows.iter().find(|r| r.function == "AllCompNames").unwrap();
        assert!(acn.wfms_us.is_some());
        assert!(acn.udtf_us.is_none());
    }

    #[test]
    fn fig5_udtf_grows_less_steeply() {
        let rows = fig5_elapsed();
        // Absolute growth from the trivial (1 local) to BuySuppComp
        // (5 locals) is larger on the WfMS side.
        let trivial = rows.iter().find(|r| r.function == "GibKompNr").unwrap();
        let buy = rows.iter().find(|r| r.function == "BuySuppComp").unwrap();
        let wf_growth = buy.wfms_us.unwrap() - trivial.wfms_us.unwrap();
        let udtf_growth = buy.udtf_us.unwrap() - trivial.udtf_us.unwrap();
        assert!(
            wf_growth > udtf_growth,
            "WfMS grows {wf_growth}, UDTF grows {udtf_growth}"
        );
    }

    #[test]
    fn fig6_activities_dominate_the_wfms_side() {
        let (wf, udtf) = fig6_breakdowns();
        let activities = wf.share_where(|l| l == "Process activities");
        assert!(
            (40.0..=62.0).contains(&activities),
            "activities share {activities}%, paper says 51%"
        );
        // The WfMS side's RMI share is small.
        let rmi = wf.share_where(|l| l.starts_with("RMI"));
        assert!(rmi < 8.0, "rmi share {rmi}%");
        // On the UDTF side the local functions are a small slice and the
        // per-A-UDTF machinery dominates.
        let local = udtf.share_where(|l| l == "Process local function");
        assert!(
            (2.0..=12.0).contains(&local),
            "local function share {local}%, paper says 6%"
        );
        let prepare = udtf.share_where(|l| l.contains("Prepare A-UDTF"));
        assert!(
            (15.0..=35.0).contains(&prepare),
            "prepare share {prepare}%, paper says 28%"
        );
    }

    #[test]
    fn warmup_tiers_are_strictly_ordered() {
        for kind in [ArchitectureKind::Wfms, ArchitectureKind::SqlUdtf] {
            for row in warmup_tiers(kind) {
                assert!(
                    row.cold_us > row.after_other_us,
                    "{} {}: cold {} !> after-other {}",
                    row.architecture.name(),
                    row.function,
                    row.cold_us,
                    row.after_other_us
                );
                assert!(
                    row.after_other_us > row.repeated_us,
                    "{} {}: after-other {} !> repeated {}",
                    row.architecture.name(),
                    row.function,
                    row.after_other_us,
                    row.repeated_us
                );
            }
        }
    }

    #[test]
    fn loop_scaling_is_linear() {
        let points = loop_scaling(&[1, 2, 4, 8, 16, 32]);
        let (a, _b, r2) = linear_fit(&points);
        assert!(a > 0.0, "positive per-iteration cost");
        assert!(r2 > 0.999, "r² = {r2}, the paper reports linear scaling");
    }

    #[test]
    fn controller_ablation_matches_paper() {
        let r = controller_ablation();
        assert!(
            (2.5..=3.5).contains(&r.with_controller.2),
            "with controller: ratio {}",
            r.with_controller.2
        );
        assert!(
            (3.4..=4.2).contains(&r.without_controller.2),
            "without controller: ratio {} (paper: 3.7)",
            r.without_controller.2
        );
        assert!(
            (0.18..=0.32).contains(&r.controller_share_udtf),
            "controller UDTF share {} (paper: 25%)",
            r.controller_share_udtf
        );
        assert!(
            (0.03..=0.12).contains(&r.controller_share_wfms),
            "controller WfMS share {} (paper: 8%)",
            r.controller_share_wfms
        );
    }

    #[test]
    fn parallel_contrast_flips_between_architectures() {
        let rows = parallel_vs_sequential();
        let wf = rows
            .iter()
            .find(|r| r.architecture == ArchitectureKind::Wfms)
            .unwrap();
        let udtf = rows
            .iter()
            .find(|r| r.architecture == ArchitectureKind::SqlUdtf)
            .unwrap();
        assert!(
            wf.parallel_us < wf.sequential_us,
            "WfMS: parallel {} must beat sequential {}",
            wf.parallel_us,
            wf.sequential_us
        );
        assert!(
            udtf.parallel_us > udtf.sequential_us,
            "UDTF: parallel {} must cost more than sequential {}",
            udtf.parallel_us,
            udtf.sequential_us
        );
    }

    #[test]
    fn error_handling_favors_the_wfms() {
        let rows = error_handling(4);
        let wf = rows
            .iter()
            .find(|r| r.architecture == ArchitectureKind::Wfms)
            .unwrap();
        let udtf = rows
            .iter()
            .find(|r| r.architecture == ArchitectureKind::SqlUdtf)
            .unwrap();
        assert_eq!(wf.successes, wf.attempts, "retries absorb every fault");
        assert_eq!(udtf.successes, 0, "first error is fatal without retries");
    }

    #[test]
    fn scalar_functions_scale_flat_set_returning_grow() {
        let rows = scalability(&[200, 800]);
        let find = |f: &str, n: usize| {
            rows.iter()
                .find(|r| r.function == f && r.components == n)
                .unwrap()
        };
        // BuySuppComp (scalar results): flat in data volume.
        let b_small = find("BuySuppComp", 200);
        let b_large = find("BuySuppComp", 800);
        assert!(
            b_large.udtf_us < b_small.udtf_us + b_small.udtf_us / 10,
            "scalar UDTF path must stay flat: {} -> {}",
            b_small.udtf_us,
            b_large.udtf_us
        );
        // GetSubCompDiscounts (set returning): grows with the data.
        let s_small = find("GetSubCompDiscounts", 200);
        let s_large = find("GetSubCompDiscounts", 800);
        assert!(
            s_large.udtf_us > s_small.udtf_us,
            "set-returning UDTF path must grow: {} -> {}",
            s_small.udtf_us,
            s_large.udtf_us
        );
        assert!(s_large.wfms_us > s_small.wfms_us);
    }

    #[test]
    fn result_cache_pays_off() {
        let r = result_cache_ablation();
        // The cache removes the workflow execution; the connecting-UDTF
        // machinery (start/process/finish, ~66k us) remains on the path.
        assert!(
            r.cached_us * 3 < r.uncached_us,
            "cached {} vs uncached {}",
            r.cached_us,
            r.uncached_us
        );
    }

    #[test]
    fn spectrum_agrees_on_the_decision() {
        let rows = architecture_spectrum();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.decision, "YES", "{}", r.architecture.name());
        }
        // The WfMS approach is the slowest of the spectrum.
        let wf = rows
            .iter()
            .find(|r| r.architecture == ArchitectureKind::Wfms)
            .unwrap();
        for r in &rows {
            assert!(wf.elapsed_us >= r.elapsed_us);
        }
    }
}
