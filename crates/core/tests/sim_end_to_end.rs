//! End-to-end cycle-simulation tests of the paper's two test-case designs.

use dfcnn_core::exec::{ReplicationPlan, Schedule, ThreadedEngine};
use dfcnn_core::graph::{DesignConfig, NetworkDesign, PortConfig};
use dfcnn_core::verify::{compare_outputs, verify_simulated};
use dfcnn_datasets::{Generator, SyntheticCifar, SyntheticUsps};
use dfcnn_nn::topology::NetworkSpec;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tc1_design() -> NetworkDesign {
    let mut rng = ChaCha8Rng::seed_from_u64(100);
    let net = NetworkSpec::test_case_1().build(&mut rng);
    NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap()
}

fn tc2_design() -> NetworkDesign {
    let mut rng = ChaCha8Rng::seed_from_u64(200);
    let net = NetworkSpec::test_case_2().build(&mut rng);
    NetworkDesign::new(
        &net,
        PortConfig::paper_test_case_2(),
        DesignConfig::default(),
    )
    .unwrap()
}

#[test]
fn tc1_simulation_matches_reference_and_hw_kernel() {
    let design = tc1_design();
    let mut gen = SyntheticUsps::new(7);
    let images: Vec<_> = gen.generate(4).into_iter().map(|(x, _)| x).collect();
    let (result, _) = design.instantiate(&images).run();
    assert_eq!(result.outputs.len(), 4);
    // bit-exact vs the shared hardware kernel
    for (img, out) in images.iter().zip(result.outputs.iter()) {
        let hw = design.hw_forward(img);
        assert_eq!(
            out.as_slice(),
            hw.as_slice(),
            "sim must match hw kernel exactly"
        );
    }
    // tolerance vs the software reference
    let report = compare_outputs(&design, &images, &result.outputs);
    assert!(report.passes(1e-3), "verification failed: {report:?}");
}

#[test]
fn tc2_simulation_matches_reference() {
    let design = tc2_design();
    let mut gen = SyntheticCifar::new(9);
    let images: Vec<_> = gen.generate(2).into_iter().map(|(x, _)| x).collect();
    let report = verify_simulated(&design, &images);
    assert!(report.passes(1e-2), "verification failed: {report:?}");
}

#[test]
fn tc1_batching_reduces_mean_time_per_image() {
    let design = tc1_design();
    let mut gen = SyntheticUsps::new(3);
    let pool: Vec<_> = gen.generate(10).into_iter().map(|(x, _)| x).collect();

    let measure = |n: usize| {
        let batch: Vec<_> = (0..n).map(|i| pool[i % pool.len()].clone()).collect();
        let (result, _) = design.instantiate(&batch).run();
        result
            .measurement(design.config().clock_hz)
            .mean_time_per_image_us()
    };
    let t1 = measure(1);
    let t8 = measure(8);
    let t16 = measure(16);
    // Fig. 6 shape: monotone non-increasing, converged past the layer count
    assert!(t8 < t1, "batching must amortise latency: t1={t1} t8={t8}");
    assert!(t16 <= t8 + 0.05, "t16={t16} t8={t8}");
    // convergence point ≈ batch > #layers (4): t8 and t16 nearly equal
    let rel = (t8 - t16).abs() / t16;
    assert!(rel < 0.15, "should have converged: t8={t8} t16={t16}");
    // TC1 steady-state magnitude: input-bound at 256 cycles = 2.56 µs;
    // allow generous headroom for fill effects
    assert!(t16 > 2.0 && t16 < 6.0, "t16={t16} µs out of expected range");
}

#[test]
fn tc2_steady_interval_matches_analytical_bottleneck() {
    let design = tc2_design();
    let mut gen = SyntheticCifar::new(5);
    let images: Vec<_> = gen.generate(8).into_iter().map(|(x, _)| x).collect();
    let (result, _) = design.instantiate(&images).run();
    let m = result.measurement(design.config().clock_hz);
    let steady = m.steady_interval_cycles();
    let (name, est) = design.estimated_bottleneck();
    assert_eq!(name, "conv1");
    // simulated steady interval within 15% of the analytical estimate
    let rel = (steady as f64 - est as f64).abs() / est as f64;
    assert!(
        rel < 0.15,
        "steady {steady} vs estimate {est} ({name}), rel err {rel:.3}"
    );
}

#[test]
fn completions_are_strictly_increasing() {
    let design = tc1_design();
    let mut gen = SyntheticUsps::new(11);
    let images: Vec<_> = gen.generate(6).into_iter().map(|(x, _)| x).collect();
    let (result, _) = design.instantiate(&images).run();
    assert!(result.completions.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn threaded_engine_bit_identical_to_simulator() {
    let design = tc1_design();
    let mut gen = SyntheticUsps::new(13);
    let images: Vec<_> = gen.generate(3).into_iter().map(|(x, _)| x).collect();
    let (sim, _) = design.instantiate(&images).run();
    let engine = ThreadedEngine::new(&design);
    let plain = Schedule::Fixed(ReplicationPlan::uniform(engine.stage_count()));
    let (exec, _) = engine.run(&images, &plain);
    for (s, e) in sim.outputs.iter().zip(exec.outputs.iter()) {
        assert_eq!(s.as_slice(), e.as_slice(), "engines disagree");
    }
}
