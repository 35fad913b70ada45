//! Serving benchmark of the fedwf integration server.
//!
//! ```text
//! servbench --workload <fedfn_tcp|fedfn_udtf_inproc|fedquery_rw|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it measures the per-layer metrics (see
//! `servbench/README.md`). Human-readable lines come first; the last line
//! of standard output is one JSON object. `--workload all` runs every
//! workload at both trace settings, each in its own process.

mod check;
mod drive;
mod layers;
mod pin;
mod report;
mod rig;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use fedwf_types::{FedError, FedResult};

use crate::report::{median, Report};
use crate::workload::{Inputs, Workload, WORKLOADS};

/// Fewest reads a measurement window may hold (its p99 then has at least
/// 20 samples beyond it).
const WINDOW_MIN_READS: usize = 2_000;

/// Setups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 21;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = workload::find(&args.workload) else {
        eprintln!(
            "servbench: unknown workload {:?} (expected one of {}, or all)",
            args.workload,
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    // One closed-loop client keeps one request outstanding, so one CPU
    // serves it without loss (see `pin`).
    if workload.clients == 1 {
        match pin::to_one_cpu() {
            Ok(cpu) => println!("  pinned to CPU {cpu}"),
            Err(e) => {
                eprintln!("servbench: cannot pin to one CPU: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let result = if args.trace {
        layers::run(workload, args.seed, Duration::from_secs(args.seconds))
    } else {
        end_to_end(workload, args.seed, Duration::from_secs(args.seconds))
    };
    match result {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servbench: {}: {e}", workload.name);
            ExitCode::FAILURE
        }
    }
}

/// Every workload at both trace settings, each in a child process of its
/// own so `peak_rss_mib` is per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("servbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            println!("## {} --seed {} --trace {trace}", w.name, args.seed);
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            match status {
                Ok(s) if s.success() => {}
                other => {
                    eprintln!("servbench: {} --trace {trace} failed: {other:?}", w.name);
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Build the system `SETUP_ROUNDS` times (keeping the last), returning the
/// median setup time.
pub fn setup(workload: Workload, inputs: &Inputs, rounds: usize) -> FedResult<(rig::Rig, f64)> {
    let mut times = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let dir = workload.writes().then(|| rig::store_dir(round));
        let t0 = Instant::now();
        let built = rig::Rig::build(workload, inputs, dir.as_deref())?;
        times.push(t0.elapsed().as_secs_f64());
        if round + 1 == rounds {
            return Ok((built, median(&mut times)));
        }
        built.shut_down();
        if let Some(dir) = dir {
            rig::remove_store(&dir)?;
        }
    }
    Err(FedError::execution("no setup rounds"))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The untraced run: setup, one closed loop through the workload's public
/// entry point, then the output checks.
fn end_to_end(workload: Workload, seed: u64, duration: Duration) -> FedResult<Report> {
    let inputs = Inputs::new(seed);
    let (rig, setup_s) = setup(workload, &inputs, SETUP_ROUNDS)?;
    let wal_before = rig.store_dir.as_deref().map_or(0, rig::wal_bytes);
    let run = drive::closed_loop(&|r| rig.submit(r), &inputs, workload, duration, false);
    let peak_rss = peak_rss_mib();
    let cached_plans = rig.server.fdbs().cached_plan_count();
    let front = rig.front.stats();
    let store_dir = rig.store_dir.clone();
    let wal_after = store_dir.as_deref().map_or(0, rig::wal_bytes);
    let filesystem = store_dir.as_deref().map(rig::filesystem_of);
    rig.shut_down();

    let mut report = Report::new(workload, seed, false);
    let total = run.total();
    let secs = run.elapsed.as_secs_f64();
    // Throughput is pooled over the run. The percentiles are medians over
    // equal windows, each holding at least WINDOW_MIN_READS reads: the
    // shared host lends the benchmark more or less speed in regimes that
    // last seconds. A pooled rate blends the regimes in proportion to their
    // length, while one slow spell would decide a pooled percentile, so
    // the percentiles take the median over windows instead.
    let reads_per_second = total.reads.count() as f64 / run.seconds.len() as f64;
    let window_len = ((WINDOW_MIN_READS as f64 / reads_per_second.max(1.0)).ceil() as usize)
        .min(run.seconds.len());
    let windows = run.windows(window_len);
    let over_windows = |q: f64| {
        median(
            &mut windows
                .iter()
                .map(|w| w.reads.percentile_us(q))
                .collect::<Vec<_>>(),
        )
    };
    report.metric("throughput_ops_s", run.completed() as f64 / secs, "1/s");
    report.metric("latency_p50_us", over_windows(0.50), "us");
    report.metric("latency_p99_us", over_windows(0.99), "us");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mib", peak_rss, "MiB");
    report.note(format!(
        "{} windows of {window_len} s; pooled over the run: p50 {:.3} us, p99 {:.3} us over {} reads ({} beyond p99)",
        windows.len(),
        total.reads.percentile_us(0.50),
        total.reads.percentile_us(0.99),
        total.reads.count(),
        total.reads.count() / 100,
    ));
    report.note(format!(
        "{} ops attempted in {secs:.3} s by {} closed-loop client(s)",
        run.attempted(),
        workload.clients
    ));
    if workload.writes() {
        report.note(format!(
            "write_p50_us {:.3} write_p99_us {:.3} over {} acknowledged INSERTs",
            total.writes.percentile_us(0.50),
            total.writes.percentile_us(0.99),
            total.writes.count()
        ));
    }
    let (first, last) = run.window_throughputs();
    report.note(format!(
        "drift: first-fifth {first:.1} ops/s, last-fifth {last:.1} ops/s (last/first {:.4}); fdbs.cached_plans {cached_plans}; WAL {wal_before} -> {wal_after} bytes",
        last / first
    ));
    report.note(format!("ops per second: {:?}", run.ops_per_second()));
    if let Some(fs) = filesystem {
        report.note(format!("WAL filesystem: {fs}"));
    }
    report.note(format!(
        "front: accepted {} completed {} shed {} expired_in_queue {}",
        front.accepted, front.completed, front.shed, front.expired_in_queue
    ));
    report.note(format!(
        "repeated-argument share {:.4} (Zipf s={})",
        workload::repeated_share(&inputs, workload, &run.per_client_ops),
        workload::ZIPF_S
    ));

    report.attempted = run.attempted();
    report.failed = run.failed;
    if let Some(e) = &run.first_error {
        report.note(format!("first failure: {e}"));
    }
    let sampled = check::against_reference(workload, &inputs, &run.checked)?;
    report.absorb_check("reference", &sampled);
    if let Some(dir) = store_dir {
        let writes = check::acked_writes(&dir, &inputs, &run.acked)?;
        report.absorb_check("acked writes", &writes);
        rig::remove_store(&dir)?;
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.note(format!("failed_share {failed_share}"));
    Ok(report)
}
