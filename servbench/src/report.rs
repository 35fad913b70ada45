//! Percentiles and the report a run prints: human-readable lines, then one
//! JSON object as the last line of standard output.

use crate::check::CheckResult;
use crate::workload::Workload;

/// Nearest-rank percentile of `sorted` nanosecond values, in microseconds.
pub fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// Median of `values` (sorts them).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[derive(Debug)]
pub struct Report {
    header: String,
    notes: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(workload: Workload, seed: u64, traced: bool) -> Report {
        Report {
            header: format!(
                "servbench {} seed {seed} trace {} ({}, {} client(s), {} front workers, available_parallelism {})",
                workload.name,
                u8::from(traced),
                workload.architecture,
                workload.clients,
                workload.workers,
                std::thread::available_parallelism().map_or(0, |n| n.get())
            ),
            notes: Vec::new(),
            metrics: Vec::new(),
            correct: true,
            attempted: 0,
            failed: 0,
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count a check family's mismatches as failed operations.
    pub fn absorb_check(&mut self, family: &str, check: &CheckResult) {
        self.failed += check.mismatched;
        self.note(format!(
            "check {family}: {} compared, {} mismatched{}",
            check.checked,
            check.mismatched,
            check
                .first_mismatch
                .as_ref()
                .map_or(String::new(), |m| format!(" (first: {m})"))
        ));
    }

    pub fn print(&self) {
        let correct = self.correct && self.failed == 0 && self.attempted > 0;
        println!("{}", self.header);
        for note in &self.notes {
            println!("  {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>14.3} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
