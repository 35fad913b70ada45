//! E17 — columnar vectorized execution vs row-batch streaming.
//!
//! ```text
//! cargo bench -p fedwf-bench --bench vectorized            # full run
//! cargo bench -p fedwf-bench --bench vectorized -- --quick # CI-sized run
//! ```
//!
//! Runs the E14 wide-table workloads through the streaming executor twice
//! — row batches (`ExecMode::Rows`, the parity reference) and typed column
//! batches (`ExecMode::Columnar`) — and reports wall clock plus the meter's
//! materialization counters per leg. Result equality and the columnar
//! bytes bound are asserted on every run; the ≥2x headline speedup is
//! asserted in the full run only (quick CI windows are too short to be
//! stable), matching the other experiment binaries.

use fedwf_bench::vectorized::{all, wide_scan_best_of, VectorizedRow};

fn main() {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("FEDWF_BENCH_QUICK").is_some();

    println!(
        "columnar vectorized execution (E17){}\n",
        if quick { "  [--quick]" } else { "" }
    );
    let n = if quick { 600 } else { 20_000 };
    println!("{}", VectorizedRow::render_header());
    for row in all(n) {
        println!("{}", row.render_row());
    }

    let headline = wide_scan_best_of(if quick { 600 } else { 20_000 }, 3);
    println!(
        "\nheadline wide scan best-of-3: {:.2}x ({} us rows vs {} us cols)",
        headline.speedup(),
        headline.rows_leg.elapsed_us,
        headline.cols_leg.elapsed_us
    );
    if !quick {
        assert!(
            headline.speedup() >= 2.0,
            "E17 acceptance: expected >=2x columnar speedup on the wide scan, got {:.2}x",
            headline.speedup()
        );
        println!("asserted: columnar streaming >=2x row-batch streaming on the wide scan");
    }
}
