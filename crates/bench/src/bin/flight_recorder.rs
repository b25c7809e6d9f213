//! Flight-recorder baseline: per-stage measured initiation intervals on
//! both paper test cases, plus the cost of recording them.
//!
//! Two questions, answered with committed numbers:
//!
//! 1. **What does each stage actually run at?** The [`DriftReport`] per
//!    core: Eq. 4 predicted stage interval vs the measured steady-state
//!    interval (every stage of a converged pipeline measures the
//!    bottleneck's period — §IV-C). `check()` is asserted, so this bin is
//!    also a regression tripwire.
//! 2. **What does observing cost?** The same batch is simulated with the
//!    flight recorder off and on; the overhead ratio is recorded. The
//!    recorder must stay cheap enough to leave on in every perf
//!    experiment (EXPERIMENTS.md pins the budget on the `sched` bench).
//!
//! Writes the committed `BENCH_flight_recorder.json` provenance record.
//!
//! ```text
//! cargo run -p dfcnn-bench --release --bin flight_recorder
//! ```

use dfcnn_bench::{quick_test_case_1, quick_test_case_2, write_bench_record, TestCase};
use dfcnn_core::observe::{CoreDrift, DriftReport};
use serde::Serialize;

/// Loose in-bin bound on trace-on overhead: the committed target is <5%
/// wall-clock on the `sched` bench (see EXPERIMENTS.md); this assert only
/// catches a recorder that became wildly expensive, with headroom for
/// noisy shared runners.
const MAX_OVERHEAD: f64 = 0.50;

#[derive(Serialize)]
struct Row {
    case: String,
    batch: usize,
    cycles: u64,
    bottleneck: String,
    predicted_pipeline_interval: u64,
    bottleneck_fill: u64,
    stages: Vec<CoreDrift>,
    trace_off_wall_s: f64,
    trace_on_wall_s: f64,
    trace_overhead: f64,
}

fn measure(tc: &TestCase, batch: usize) -> Row {
    let images: Vec<_> = (0..batch)
        .map(|i| tc.images[i % tc.images.len()].clone())
        .collect();

    // warm-up, then time the untraced and traced event-driven runs
    let _ = tc.design.instantiate(&images).run();
    let t0 = std::time::Instant::now();
    let (plain, _) = tc.design.instantiate(&images).run();
    let trace_off_wall_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let (res, trace) = tc.design.instantiate(&images).with_trace().run();
    let trace_on_wall_s = t1.elapsed().as_secs_f64();
    assert_eq!(plain.cycles, res.cycles, "tracing must not change timing");

    let drift = DriftReport::new(&tc.design, &res, &trace);
    if let Err(e) = drift.check() {
        panic!("{}: drift check failed: {e}", tc.name);
    }

    Row {
        case: tc.name.to_string(),
        batch,
        cycles: res.cycles,
        bottleneck: drift.bottleneck_name.clone(),
        predicted_pipeline_interval: drift.predicted_pipeline_interval,
        bottleneck_fill: drift.bottleneck_fill,
        stages: drift.cores,
        trace_off_wall_s,
        trace_on_wall_s,
        trace_overhead: trace_on_wall_s / trace_off_wall_s - 1.0,
    }
}

fn main() {
    println!("== flight recorder baseline: measured II + recording cost ==\n");
    let mut rows = Vec::new();
    for (tc, batch) in [(quick_test_case_1(), 16), (quick_test_case_2(), 6)] {
        let row = measure(&tc, batch);
        println!(
            "{}: batch {} in {} cycles — bottleneck {} at {} cycles/image (+{} fill)",
            row.case,
            row.batch,
            row.cycles,
            row.bottleneck,
            row.predicted_pipeline_interval,
            row.bottleneck_fill
        );
        println!("  stage      predicted  measured");
        for s in &row.stages {
            println!(
                "  {:<10} {:>9} {:>9.1}",
                s.name, s.predicted_stage_interval, s.measured_interval
            );
        }
        println!(
            "  wall-clock: trace off {:.4} s, on {:.4} s ({:+.1}%)\n",
            row.trace_off_wall_s,
            row.trace_on_wall_s,
            100.0 * row.trace_overhead
        );
        rows.push(row);
    }

    write_bench_record("flight_recorder", &rows);

    for row in &rows {
        assert!(
            row.trace_overhead < MAX_OVERHEAD,
            "{}: flight recorder overhead {:.1}% exceeds the loose {:.0}% bound",
            row.case,
            100.0 * row.trace_overhead,
            100.0 * MAX_OVERHEAD
        );
    }
    println!(
        "overhead bound: all cases under {:.0}%",
        100.0 * MAX_OVERHEAD
    );
}
