//! The closed-loop load generator: each client thread sends its next request only
//! after the previous reply arrived, for a fixed wall-clock duration.
//!
//! Memory the load generator keeps does not grow with the number of operations
//! (latencies go into per-second histograms, checked operations into a
//! fixed-size reservoir), so `peak_rss_mib` measures the system, not the
//! benchmark's bookkeeping.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use fedwf_core::{Outcome, Request};
use fedwf_types::rng::Rng;
use fedwf_types::sync::Mutex;
use fedwf_types::FedResult;

use crate::check::fingerprint;
use crate::workload::{Inputs, Purchase, Workload};

/// Relative width of a histogram bucket.
const BUCKET_GROWTH: f64 = 1.01;
/// Lower edge of the first bucket, in nanoseconds.
const BUCKET_FLOOR_NS: f64 = 100.0;
/// Buckets up to about one minute.
const BUCKETS: usize = 2_040;
/// Checked operations kept per client (reservoir-sampled over the run).
const CHECK_RESERVOIR: usize = 500;

/// Latency histogram with 1% buckets; percentiles interpolate within a
/// bucket by rank.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        let x = (ns as f64).max(BUCKET_FLOOR_NS) / BUCKET_FLOOR_NS;
        ((x.ln() / BUCKET_GROWTH.ln()) as usize).min(BUCKETS - 1)
    }

    fn lower_ns(bucket: usize) -> f64 {
        BUCKET_FLOOR_NS * BUCKET_GROWTH.powi(bucket as i32)
    }

    pub fn record(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile in microseconds (0 when empty).
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            let n = u64::from(n);
            if below + n >= rank {
                let lo = Self::lower_ns(bucket);
                let hi = Self::lower_ns(bucket + 1);
                let within = (rank - below) as f64 / n as f64;
                return (lo + (hi - lo) * within) / 1e3;
            }
            below += n;
        }
        Self::lower_ns(BUCKETS) / 1e3
    }
}

/// What completed in one second of the run.
#[derive(Debug, Clone, Default)]
pub struct Second {
    pub reads: Histogram,
    pub writes: Histogram,
}

impl Second {
    fn merge(&mut self, other: &Second) {
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
    }

    pub fn ops(&self) -> u64 {
        self.reads.count() + self.writes.count()
    }
}

/// A sampled operation's request and a fingerprint of what the system
/// answered.
#[derive(Debug)]
pub struct Checked {
    pub class: usize,
    pub request: Request,
    pub table: u64,
    pub elapsed_us: u64,
}

#[derive(Debug, Default)]
pub struct LoopResult {
    /// Completed operations by the second (from the loop start) they
    /// completed in; completions after the deadline count in the last.
    pub seconds: Vec<Second>,
    /// Operations each client attempted, in stream order.
    pub per_client_ops: Vec<u64>,
    pub failed: u64,
    pub first_error: Option<String>,
    pub checked: Vec<Checked>,
    pub acked: Vec<Purchase>,
    pub elapsed: Duration,
}

impl LoopResult {
    pub fn attempted(&self) -> u64 {
        self.per_client_ops.iter().sum()
    }

    pub fn completed(&self) -> u64 {
        self.seconds.iter().map(Second::ops).sum()
    }

    pub fn total(&self) -> Second {
        let mut all = Second::default();
        for s in &self.seconds {
            all.merge(s);
        }
        all
    }

    pub fn ops_per_second(&self) -> Vec<u64> {
        self.seconds.iter().map(Second::ops).collect()
    }

    /// Consecutive windows of `len` whole seconds (a shorter tail is
    /// dropped), each with its seconds merged.
    pub fn windows(&self, len: usize) -> Vec<Second> {
        self.seconds
            .chunks_exact(len.max(1))
            .map(|chunk| {
                let mut merged = Second::default();
                for s in chunk {
                    merged.merge(s);
                }
                merged
            })
            .collect()
    }

    /// Operations completed per second in the first and the last fifth of
    /// the run.
    pub fn window_throughputs(&self) -> (f64, f64) {
        let n = self.seconds.len();
        let fifth = (n / 5).max(1).min(n);
        let rate = |s: &[Second]| s.iter().map(Second::ops).sum::<u64>() as f64 / fifth as f64;
        (
            rate(&self.seconds[..fifth]),
            rate(&self.seconds[n - fifth..]),
        )
    }
}

/// Run `workload.clients` closed-loop clients against `submit` for
/// `duration`. Client `c` draws its operations from generator stream `c`.
/// With `traced`, every request asks the server for its span tree.
pub fn closed_loop(
    submit: &(impl Fn(Request) -> FedResult<Outcome> + Sync),
    inputs: &Inputs,
    workload: Workload,
    duration: Duration,
    traced: bool,
) -> LoopResult {
    let n_seconds = (duration.as_secs() as usize).max(1);
    let merged = Mutex::new(LoopResult {
        seconds: vec![Second::default(); n_seconds],
        per_client_ops: vec![0; workload.clients],
        ..LoopResult::default()
    });
    let barrier = Barrier::new(workload.clients);
    let start = Mutex::new(None::<Instant>);
    std::thread::scope(|scope| {
        for client in 0..workload.clients {
            let (merged, barrier, start) = (&merged, &barrier, &start);
            scope.spawn(move || {
                let mut generator = inputs.generator(workload, client as u64);
                let mut reservoir =
                    Rng::seed_from_u64(inputs.seed ^ (0xC4EC << 32) ^ client as u64);
                let mut seconds = vec![Second::default(); n_seconds];
                let mut checked: Vec<Checked> = Vec::with_capacity(CHECK_RESERVOIR);
                let mut eligible = 0u64;
                let mut acked = Vec::new();
                let (mut attempted, mut failed) = (0u64, 0u64);
                let mut first_error = None;
                barrier.wait();
                let t0 = *start.lock().get_or_insert_with(Instant::now);
                while t0.elapsed() < duration {
                    let op = generator.next_op();
                    let kept = op.check.then(|| op.request.clone());
                    let request = op.request.traced(traced);
                    attempted += 1;
                    let sent = Instant::now();
                    let result = submit(request);
                    let done = Instant::now();
                    let outcome = match result {
                        Ok(outcome) => outcome,
                        Err(e) => {
                            failed += 1;
                            first_error.get_or_insert_with(|| e.to_string());
                            continue;
                        }
                    };
                    let second = ((done - t0).as_secs() as usize).min(n_seconds - 1);
                    let latency = (done - sent).as_nanos() as u64;
                    if workload.is_read(op.class) {
                        seconds[second].reads.record(latency);
                    } else {
                        seconds[second].writes.record(latency);
                    }
                    if let Some(write) = op.write {
                        acked.push(write);
                    }
                    let Some(request) = kept else { continue };
                    eligible += 1;
                    let slot = if checked.len() < CHECK_RESERVOIR {
                        checked.len()
                    } else {
                        reservoir.next_below(eligible) as usize
                    };
                    if slot <= checked.len().min(CHECK_RESERVOIR - 1) {
                        let entry = Checked {
                            class: op.class,
                            request,
                            table: fingerprint(&outcome.table),
                            elapsed_us: outcome.elapsed_us(),
                        };
                        if slot == checked.len() {
                            checked.push(entry);
                        } else {
                            checked[slot] = entry;
                        }
                    }
                }
                let elapsed = t0.elapsed();
                let mut m = merged.lock();
                m.per_client_ops[client] = attempted;
                for (total, mine) in m.seconds.iter_mut().zip(&seconds) {
                    total.merge(mine);
                }
                m.failed += failed;
                if m.first_error.is_none() {
                    m.first_error = first_error;
                }
                m.checked.extend(checked);
                m.acked.extend(acked);
                m.elapsed = m.elapsed.max(elapsed);
            });
        }
    });
    merged.into_inner()
}
