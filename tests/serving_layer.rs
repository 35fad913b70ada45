//! Concurrency tests for the serving layer: the read-mostly
//! `IntegrationServer`, the atomicity of cache-clear transitions, and the
//! `ServerFront` admission/deadline behaviour under load.
//!
//! All calls go through the unified [`Request`] → [`Outcome`] API (the
//! `call`-style shims stay covered by the crate-level unit tests).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use fedwf::core::{
    paper_functions, ArchitectureKind, FrontConfig, IntegrationServer, Outcome, Request,
    ServerFront,
};
use fedwf::fdbs::{ExecMode, ExecOptions};
use fedwf::sim::Component;
use fedwf::types::Value;

fn warm_wfms_server() -> Arc<IntegrationServer> {
    let s = Arc::new(IntegrationServer::with_architecture(ArchitectureKind::Wfms).unwrap());
    s.boot();
    s.deploy(&paper_functions::get_supp_qual()).unwrap();
    s
}

fn qual_args(s: &IntegrationServer) -> Vec<Value> {
    vec![Value::str(s.scenario().well_known_supplier_name())]
}

/// Regression test for the cache/boot race: `clear_caches` used to clear
/// the plan cache, template cache and environment caches one by one with
/// no exclusion against in-flight calls, so a concurrent call could
/// observe a half-cleared world — e.g. recompile the plan but still find
/// the workflow template warm. Now `clear_caches` takes the exclusive side
/// of the server's phase lock, so every call sees either the fully-warm or
/// the fully-cold state: a call that pays the plan-compile charge must
/// also pay the template-load charge, and vice versa.
#[test]
fn cache_clear_is_atomic_with_respect_to_inflight_calls() {
    let s = warm_wfms_server();
    let args = qual_args(&s);
    let warm = Request::function("GetSuppQual").params(args.clone());
    s.execute(&warm).unwrap(); // fully warm once

    let stop = Arc::new(AtomicBool::new(false));
    let mut callers = Vec::new();
    for _ in 0..4 {
        let s = Arc::clone(&s);
        let args = args.clone();
        let stop = Arc::clone(&stop);
        callers.push(std::thread::spawn(move || {
            let request = Request::function("GetSuppQual").params(args);
            let mut inconsistencies = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let outcome = s.execute(&request).expect("call during clear");
                assert_eq!(outcome.table.value(0, "Qual"), Some(&Value::Int(93)));
                let compiled = outcome
                    .meter
                    .charges()
                    .iter()
                    .any(|c| c.step == "Compile statement");
                let loaded = outcome
                    .meter
                    .charges()
                    .iter()
                    .any(|c| c.step.starts_with("Load workflow template"));
                if compiled != loaded {
                    inconsistencies.push((compiled, loaded));
                }
            }
            inconsistencies
        }));
    }
    for _ in 0..50 {
        s.clear_caches();
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for c in callers {
        let inconsistencies = c.join().expect("caller panicked");
        assert!(
            inconsistencies.is_empty(),
            "calls observed half-cleared caches (compiled, template-loaded): {inconsistencies:?}"
        );
    }
}

/// Run `request` on eight threads released together; every call must
/// succeed.
fn storm(s: &Arc<IntegrationServer>, request: &Request) -> Vec<Outcome> {
    let barrier = Arc::new(Barrier::new(8));
    let callers: Vec<_> = (0..8)
        .map(|_| {
            let (s, barrier, request) = (Arc::clone(s), Arc::clone(&barrier), request.clone());
            std::thread::spawn(move || {
                barrier.wait();
                s.execute(&request).expect("storm call")
            })
        })
        .collect();
    callers
        .into_iter()
        .map(|c| c.join().expect("caller panicked"))
        .collect()
}

/// Charges across `outcomes` whose step starts with `prefix`.
fn count_steps(outcomes: &[Outcome], prefix: &str) -> usize {
    outcomes
        .iter()
        .flat_map(|o| o.meter.charges())
        .filter(|c| c.step.starts_with(prefix))
        .count()
}

/// The cold-charge rule under a storm: eight callers racing a cleared
/// server book exactly one statement compile and one template load per
/// cache generation between them, both on the same caller, and eight
/// racing executions of a cold SQL statement book its compile once.
#[test]
fn cold_storm_books_each_cold_cost_once_per_generation() {
    let s = warm_wfms_server();
    let args = qual_args(&s);
    let call = Request::function("GetSuppQual").params(args.clone());
    let query = Request::sql("SELECT T.Qual FROM TABLE (GetSuppQual(Name)) AS T")
        .bind("Name", args[0].clone());
    for generation in 0..20 {
        s.clear_caches();
        let calls = storm(&s, &call);
        assert!(calls
            .iter()
            .all(|o| o.table.value(0, "Qual") == Some(&Value::Int(93))));
        assert_eq!(
            (
                count_steps(&calls, "Compile statement"),
                count_steps(&calls, "Load workflow template")
            ),
            (1, 1),
            "generation {generation}: (compiles, template loads)"
        );
        // ... and both land on the caller that claimed the warm-up.
        for outcome in &calls {
            let one = std::slice::from_ref(outcome);
            assert_eq!(
                count_steps(one, "Compile statement"),
                count_steps(one, "Load workflow template"),
                "generation {generation}: the cold costs split across callers"
            );
        }
        let queries = storm(&s, &query);
        assert_eq!(
            count_steps(&queries, "Compile statement"),
            1,
            "generation {generation}: a cold statement compiled more than once"
        );
    }
}

/// Options belong to one request: threads alternating the dependent-UDTF
/// memo and the naive/columnar executor on a dependent-UDTF query each
/// book exactly the charges of a sequential run under their own options.
#[test]
fn concurrent_requests_run_under_their_own_options() {
    let s = Arc::new(IntegrationServer::with_architecture(ArchitectureKind::SqlUdtf).unwrap());
    s.boot();
    s.deploy(&paper_functions::get_supp_qual_relia()).unwrap();
    let no = s.scenario().well_known_supplier_no();
    s.execute(&Request::sql("CREATE TABLE K (N INT)")).unwrap();
    s.execute(&Request::sql(format!(
        "INSERT INTO K VALUES ({no}), ({no}), ({no})"
    )))
    .unwrap();
    const SQL: &str = "SELECT T.Qual, T.Relia FROM K, TABLE (GetSuppQualRelia(K.N)) AS T";
    let naive = ExecOptions::default().mode(ExecMode::Naive);
    let configs = [
        ExecOptions::default(),
        ExecOptions::default().udtf_memo(false),
        naive,
        naive.udtf_memo(false),
    ];
    let request = |options| Request::sql(SQL).exec_options(options);
    // Sequential reference: the warm charge log of each configuration.
    let expected: Vec<_> = configs
        .iter()
        .map(|&options| {
            s.execute(&request(options)).unwrap();
            s.execute(&request(options)).unwrap().meter.into_charges()
        })
        .collect();
    assert_ne!(expected[0], expected[1], "the memo changes the charges");
    assert_ne!(expected[1], expected[2], "the executor changes the charges");

    let workers: Vec<_> = (0..4)
        .map(|t| {
            let (s, expected) = (Arc::clone(&s), expected.clone());
            std::thread::spawn(move || {
                for i in 0..25 {
                    let k = (t + i) % configs.len();
                    let outcome = s.execute(&request(configs[k])).unwrap();
                    assert_eq!(outcome.table.row_count(), 3);
                    assert_eq!(
                        outcome.meter.charges(),
                        expected[k].as_slice(),
                        "{:?} booked another configuration's charges",
                        configs[k]
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
}

/// Boot accounting must also be atomic: two cold servers raced through
/// many threads must book each process boot exactly once in total.
#[test]
fn concurrent_first_calls_boot_each_process_once() {
    let s = Arc::new(IntegrationServer::with_architecture(ArchitectureKind::Wfms).unwrap());
    s.deploy(&paper_functions::get_supp_qual()).unwrap();
    let args = qual_args(&s);
    let mut handles = Vec::new();
    for _ in 0..8 {
        let s = Arc::clone(&s);
        let args = args.clone();
        handles.push(std::thread::spawn(move || {
            // Bind by declared parameter name (case-insensitively) instead
            // of by position — same resolved call either way.
            let outcome = s
                .execute(&Request::function("GetSuppQual").bind("suppliername", args[0].clone()))
                .unwrap();
            outcome
                .meter
                .charges()
                .iter()
                .filter(|c| c.component == Component::Boot)
                .map(|c| c.step.clone())
                .collect::<Vec<_>>()
        }));
    }
    let mut all_boots: Vec<String> = Vec::new();
    for h in handles {
        all_boots.extend(h.join().unwrap());
    }
    all_boots.sort();
    let before = all_boots.len();
    all_boots.dedup();
    assert_eq!(
        before,
        all_boots.len(),
        "a process was boot-charged more than once across racing first calls"
    );
}

/// The acceptance soak: 16 clients against a deliberately tiny front
/// (2 workers, depth-2 queue). Every call must end in a result, a typed
/// overload, or a typed timeout — no panics, no deadlocks, no other error.
#[test]
fn sixteen_client_soak_degrades_gracefully() {
    let s = warm_wfms_server();
    let front = Arc::new(ServerFront::start(
        Arc::clone(&s),
        FrontConfig::default()
            .with_workers(2)
            .with_queue_depth(2)
            .with_default_deadline(Duration::from_secs(30)),
    ));
    let args = qual_args(&s);
    let mut clients = Vec::new();
    for _ in 0..16 {
        let front = Arc::clone(&front);
        let args = args.clone();
        clients.push(std::thread::spawn(move || {
            let (mut ok, mut degraded) = (0u32, 0u32);
            for _ in 0..10 {
                match front.execute(Request::function("GetSuppQual").params(args.clone())) {
                    Ok(outcome) => {
                        assert_eq!(outcome.table.value(0, "Qual"), Some(&Value::Int(93)));
                        ok += 1;
                    }
                    Err(e) if e.is_overloaded() || e.is_timeout() => degraded += 1,
                    Err(e) => panic!("soak produced a hard failure: {e}"),
                }
            }
            (ok, degraded)
        }));
    }
    let (mut total_ok, mut total_degraded) = (0, 0);
    for c in clients {
        let (ok, degraded) = c.join().expect("soak client panicked");
        total_ok += ok;
        total_degraded += degraded;
    }
    assert_eq!(total_ok + total_degraded, 160);
    assert!(total_ok > 0, "soak must complete at least some calls");
    let stats = front.stats();
    assert_eq!(stats.accepted, u64::from(total_ok) + stats.expired_in_queue);
}

/// Shedding is typed and immediate, and the front recovers once load
/// drops: after the burst, a fresh call succeeds.
#[test]
fn front_recovers_after_shedding_burst() {
    let s = warm_wfms_server();
    let front = Arc::new(ServerFront::start(
        Arc::clone(&s),
        FrontConfig::default().with_workers(1).with_queue_depth(1),
    ));
    let args = qual_args(&s);
    let mut clients = Vec::new();
    for _ in 0..12 {
        let front = Arc::clone(&front);
        let args = args.clone();
        clients.push(std::thread::spawn(move || {
            front.execute(Request::function("GetSuppQual").params(args))
        }));
    }
    for c in clients {
        let result = c.join().unwrap();
        if let Err(e) = result {
            assert!(e.is_overloaded() || e.is_timeout(), "unexpected error: {e}");
        }
    }
    let outcome = front
        .execute(Request::function("GetSuppQual").params(args))
        .expect("front must recover");
    assert_eq!(outcome.table.value(0, "Qual"), Some(&Value::Int(93)));
}

/// Wall-clock scaling of the warm-result-cache read path: with 8 closed-
/// loop clients the front should clear 4x the single-client QPS. That is
/// only physically possible with enough hardware threads, so the check is
/// gated on `available_parallelism` — on a 1-core CI box it degrades to
/// asserting the run completes without degradation.
#[test]
fn warm_result_cache_scales_with_clients_when_cores_allow() {
    use fedwf_bench::throughput::{run_throughput, ThroughputConfig};
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let calls = 100;
    let one = run_throughput(
        &ThroughputConfig::closed_loop(ArchitectureKind::Wfms, 1)
            .with_calls_per_client(calls)
            .with_result_cache(true),
    );
    let eight = run_throughput(
        &ThroughputConfig::closed_loop(ArchitectureKind::Wfms, 8)
            .with_calls_per_client(calls)
            .with_result_cache(true),
    );
    assert_eq!(one.ok, calls);
    assert_eq!(eight.ok, 8 * calls);
    assert_eq!(one.failed + eight.failed, 0);
    if cores >= 8 {
        assert!(
            eight.qps >= 4.0 * one.qps,
            "8-client QPS {:.0} must be >= 4x 1-client QPS {:.0} on {cores} cores",
            eight.qps,
            one.qps
        );
    } else {
        eprintln!(
            "note: only {cores} hardware thread(s); skipping the 4x scaling \
             assertion ({:.0} vs {:.0} qps measured)",
            eight.qps, one.qps
        );
    }
}
