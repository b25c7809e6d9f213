//! Ablation: **high-level pipelining on vs off** (§IV-C).
//!
//! The paper's claim: "At steady state, all the different layers of the
//! network will be concurrently active and computing. This effect becomes
//! especially beneficial when batches of multiple images feed the
//! network." This ablation makes the benefit explicit by comparing
//!
//! - *pipelined*: one simulation streaming the whole batch back-to-back
//!   (the paper's mode), against
//! - *flushed*: the same batch as independent single-image runs, i.e. the
//!   pipeline drains between images (what a layer-at-a-time accelerator
//!   with host round-trips effectively does — the related-work §I
//!   criticism of non-dataflow designs).
//!
//! It also runs the threaded engine against its sequential twin to show
//! the same effect as real wall-clock speedup on the host CPU.
//!
//! ```text
//! cargo run -p dfcnn-bench --release --bin ablation_pipeline
//! ```

use dfcnn_bench::{quick_test_case_1, quick_test_case_2, write_json, TestCase};
use dfcnn_core::exec::{ReplicationPlan, Schedule, ThreadedEngine};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    case: String,
    batch: usize,
    pipelined_us_per_image: f64,
    flushed_us_per_image: f64,
    speedup: f64,
}

fn simulate(tc: &TestCase, batch: usize) -> Row {
    let clock = tc.design.config().clock_hz;
    let images: Vec<_> = (0..batch)
        .map(|i| tc.images[i % tc.images.len()].clone())
        .collect();
    let (piped, _) = tc.design.instantiate(&images).run();
    let pipelined = piped.measurement(clock).mean_time_per_image_us();
    // flushed: each image is its own run; total = sum of per-image runs
    let mut total_cycles = 0u64;
    for img in &images {
        let (r, _) = tc.design.instantiate(std::slice::from_ref(img)).run();
        total_cycles += r.cycles;
    }
    let flushed = total_cycles as f64 / clock as f64 / batch as f64 * 1e6;
    Row {
        case: tc.name.to_string(),
        batch,
        pipelined_us_per_image: pipelined,
        flushed_us_per_image: flushed,
        speedup: flushed / pipelined,
    }
}

fn main() {
    println!("== Ablation: high-level pipeline vs per-image flush ==\n");
    let mut rows = Vec::new();
    for tc in [quick_test_case_1(), quick_test_case_2()] {
        for batch in [4usize, 16] {
            let r = simulate(&tc, batch);
            println!(
                "{:<13} batch {:>3}: pipelined {:>9.3} µs/img, flushed {:>9.3} µs/img -> {:.2}x",
                r.case, r.batch, r.pipelined_us_per_image, r.flushed_us_per_image, r.speedup
            );
            rows.push(r);
        }
    }
    // Pipelining gain is bounded by latency / bottleneck-interval: Test
    // Case 1 has balanced stages (big win); Test Case 2's conv1 dominates
    // its single-image latency, so overlap can only shave the small
    // fill/drain fraction — visible in the paper's Fig. 6 as TC2's much
    // flatter curve.
    assert!(
        rows.iter().all(|r| r.speedup > 1.0),
        "pipelining must never hurt"
    );
    assert!(
        rows.iter()
            .any(|r| r.case.ends_with('1') && r.batch == 16 && r.speedup > 1.5),
        "balanced-stage TC1 must show a substantial pipelining win"
    );

    println!("\n== Threaded engine: real wall-clock pipelining on the host CPU ==\n");
    // Test Case 1 has the balanced stages; its host-CPU stage costs are
    // dominated by the two convolutions, so the threaded pipeline overlaps
    // them across consecutive images.
    let tc = quick_test_case_1();
    let engine = ThreadedEngine::new(&tc.design);
    let images: Vec<_> = (0..32)
        .map(|i| tc.images[i % tc.images.len()].clone())
        .collect();
    let plain = Schedule::Fixed(ReplicationPlan::uniform(engine.stage_count()));
    // warm up thread spawn paths once
    let _ = engine.run(&images[..2], &plain);
    let (par, _) = engine.run(&images, &plain);
    let seq = engine.run_sequential(&images);
    assert_eq!(par.outputs, seq.outputs, "engines must agree bit-for-bit");
    let speedup = seq.total.as_secs_f64() / par.total.as_secs_f64();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "TC1 batch 32: threaded {:?} vs sequential {:?} -> {:.2}x wall-clock speedup \
         ({} pipeline stages on {} CPU core(s))",
        par.total,
        seq.total,
        speedup,
        engine.stage_count(),
        cores
    );
    if cores < 2 {
        println!(
            "note: a single CPU core cannot overlap pipeline stages — expect ~1.0x here; \
             the cycle-level comparison above is the hardware-pipelining result"
        );
    } else {
        assert!(
            speedup > 1.1,
            "with {cores} cores the threaded pipeline should overlap stages"
        );
    }
    write_json("ablation_pipeline", &rows);
}
