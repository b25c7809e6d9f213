//! Criterion benchmarks of the execution engines: cycle-simulator
//! throughput (simulated cycles per wall-second), the threaded pipeline
//! against its sequential twin, and reference network inference.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dfcnn_bench::{quick_test_case_1, TestCase};
use dfcnn_core::exec::{ReplicationPlan, Schedule, ThreadedEngine};
use dfcnn_tensor::Tensor3;

fn batch(tc: &TestCase, n: usize) -> Vec<Tensor3<f32>> {
    (0..n)
        .map(|i| tc.images[i % tc.images.len()].clone())
        .collect()
}

fn bench_simulator(c: &mut Criterion) {
    let tc = quick_test_case_1();
    let images = batch(&tc, 4);
    let mut g = c.benchmark_group("cycle_simulator_tc1");
    g.sample_size(10);
    g.bench_function("batch4", |b| {
        b.iter(|| {
            let (r, _) = tc.design.instantiate(black_box(&images)).run();
            black_box(r.cycles)
        })
    });
    g.finish();
}

fn bench_threaded(c: &mut Criterion) {
    let tc = quick_test_case_1();
    let images = batch(&tc, 8);
    let engine = ThreadedEngine::new(&tc.design);
    let plain = Schedule::Fixed(ReplicationPlan::uniform(engine.stage_count()));
    let mut g = c.benchmark_group("threaded_engine_tc1");
    g.sample_size(10);
    g.bench_function("pipelined_batch8", |b| {
        b.iter(|| black_box(engine.run(black_box(&images), &plain).0.outputs.len()))
    });
    g.bench_function("sequential_batch8", |b| {
        b.iter(|| black_box(engine.run_sequential(black_box(&images)).outputs.len()))
    });
    g.finish();
}

fn bench_replicated(c: &mut Criterion) {
    let tc = quick_test_case_1();
    let images = batch(&tc, 16);
    let engine = ThreadedEngine::new(&tc.design);
    // double up the conv stages (the TC1 bottlenecks; see host_pipeline)
    let factors: Vec<usize> = engine
        .stage_names()
        .iter()
        .map(|n| if n.starts_with("conv") { 2 } else { 1 })
        .collect();
    let schedule = Schedule::Fixed(ReplicationPlan { factors });
    let mut g = c.benchmark_group("replicated_engine_tc1");
    g.sample_size(10);
    g.bench_function("conv_x2_batch16", |b| {
        b.iter(|| black_box(engine.run(black_box(&images), &schedule).0.outputs.len()))
    });
    g.finish();
}

fn bench_reference(c: &mut Criterion) {
    let tc = quick_test_case_1();
    let img = tc.images[0].clone();
    let mut g = c.benchmark_group("reference_network_tc1");
    g.bench_function("forward", |b| {
        b.iter(|| black_box(tc.network.forward(black_box(&img))))
    });
    g.bench_function("predict", |b| {
        b.iter(|| black_box(tc.network.predict(black_box(&img))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_simulator,
    bench_threaded,
    bench_replicated,
    bench_reference
);
criterion_main!(benches);
