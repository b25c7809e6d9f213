//! Host-pipeline throughput: does the threaded engine converge to the
//! balanced-stage bound?
//!
//! §IV-C's claim, restated for the host: a pipelined batch costs the
//! *slowest stage's* interval per image, not the sum of stages — and the
//! paper's knob for shrinking that interval is port scaling (Eq. 4). The
//! threaded engine's analogue is stage replication
//! ([`dfcnn_core::exec::ReplicationPlan`]). This bin measures, per test
//! case:
//!
//! * the sequential baseline (one image at a time through all stages),
//! * the plain pipeline (one worker per stage),
//! * the replicated pipeline ([`dfcnn_core::exec::Schedule::Balanced`]:
//!   profiling pre-pass + balanced plan; the sequential path on a
//!   single-thread host),
//!
//! prints the per-stage [`dfcnn_core::exec::PipelineProfile`], checks all
//! three paths are bit-identical, and writes `BENCH_host_pipeline.json`
//! (the CI artifact). On hosts with ≥ 2 hardware threads it asserts the best
//! pipelined run reaches ≥ 1.5× sequential throughput on Test Case 2 at a
//! batch ≥ 2× the pipeline depth.
//!
//! ```text
//! cargo run -p dfcnn-bench --release --bin host_pipeline
//! ```

use dfcnn_bench::{quick_test_case_1, quick_test_case_2, write_bench_record, TestCase};
use dfcnn_core::exec::{PipelineProfile, ReplicationPlan, Schedule, ThreadedEngine};
use dfcnn_tensor::Tensor3;
use serde::Serialize;

/// CI contract: pipelined ≥ 1.5× sequential on TC-2 (multi-core hosts).
const TARGET_SPEEDUP: f64 = 1.5;

#[derive(Serialize)]
struct Row {
    case: String,
    batch: usize,
    stage_count: usize,
    host_threads: usize,
    cpu: String,
    plan: Vec<usize>,
    sequential_s: f64,
    pipelined_s: f64,
    replicated_s: f64,
    pipelined_speedup: f64,
    replicated_speedup: f64,
    profile: PipelineProfile,
}

fn batch(tc: &TestCase, n: usize) -> Vec<Tensor3<f32>> {
    (0..n)
        .map(|i| tc.images[i % tc.images.len()].clone())
        .collect()
}

/// The host CPU model, so a committed record carries its own provenance:
/// wall-clock numbers are meaningless without knowing what ran them.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn measure(tc: &TestCase, host_threads: usize) -> Row {
    let engine = ThreadedEngine::new(&tc.design);
    let depth = engine.stage_count();
    // CI contract asks for batch >= 2x pipeline depth; go well past it so
    // fill/drain cost is amortised
    let n = (4 * depth).max(20);
    let images = batch(tc, n);

    let plain = Schedule::Fixed(ReplicationPlan::uniform(depth));
    // warm the page cache / thread machinery outside the timed region
    let _ = engine.run(&images[..depth.min(images.len())], &plain);

    let seq = engine.run_sequential(&images);
    let (pipe, _) = engine.run(&images, &plain);
    let (repl, profile) = engine.run(
        &images,
        &Schedule::Balanced {
            threads: host_threads,
        },
    );

    assert_eq!(
        pipe.outputs, seq.outputs,
        "{}: pipelined outputs must be bit-identical to sequential",
        tc.name
    );
    assert_eq!(
        repl.outputs, seq.outputs,
        "{}: replicated outputs must be bit-identical to sequential",
        tc.name
    );

    let sequential_s = seq.total.as_secs_f64();
    let pipelined_s = pipe.total.as_secs_f64();
    let replicated_s = repl.total.as_secs_f64();
    Row {
        case: tc.name.to_string(),
        batch: n,
        stage_count: depth,
        host_threads,
        cpu: cpu_model(),
        plan: profile.stages.iter().map(|s| s.replication).collect(),
        sequential_s,
        pipelined_s,
        replicated_s,
        pipelined_speedup: sequential_s / pipelined_s,
        replicated_speedup: sequential_s / replicated_s,
        profile,
    }
}

fn main() {
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("== host pipeline: sequential vs pipelined vs replicated ==");
    println!("   host threads: {host_threads}\n");

    let mut rows = Vec::new();
    for tc in [quick_test_case_1(), quick_test_case_2()] {
        let row = measure(&tc, host_threads);
        println!(
            "{}: batch {} over {} stages (plan {:?})",
            row.case, row.batch, row.stage_count, row.plan
        );
        println!(
            "  sequential {:>8.4} s | pipelined {:>8.4} s ({:.2}x) | replicated {:>8.4} s ({:.2}x)",
            row.sequential_s,
            row.pipelined_s,
            row.pipelined_speedup,
            row.replicated_s,
            row.replicated_speedup
        );
        println!(
            "  balanced-stage bound: {:.1} us/image (bottleneck: {})",
            row.profile.balanced_bound_ns() as f64 / 1e3,
            row.profile.stages[row.profile.bottleneck()].name
        );
        print!("{}", row.profile.render_table());
        println!();
        rows.push(row);
    }

    // the CI artifact lives in the working directory and is committed as
    // the provenance record (exempted from the BENCH_* .gitignore
    // pattern); host_threads/cpu say what machine produced the numbers
    write_bench_record("host_pipeline", &rows);

    let tc2 = rows.last().expect("TC-2 row");
    let best = tc2.pipelined_speedup.max(tc2.replicated_speedup);
    if host_threads >= 2 {
        println!("\nTC-2 best pipelined speedup: {best:.2}x (target: >= {TARGET_SPEEDUP:.1}x)");
        assert!(
            best >= TARGET_SPEEDUP,
            "pipelined throughput regressed: {best:.2}x < {TARGET_SPEEDUP:.1}x sequential on {}",
            tc2.case
        );
    } else {
        println!(
            "\n[skip] single-core host: pipelining cannot win — every stage shares the one \
             hardware thread, so the pipelined run pays thread hand-off costs on top of the \
             same serial compute (measured {best:.2}x; the >= {TARGET_SPEEDUP:.1}x assertion \
             needs real parallelism)"
        );
    }
}
