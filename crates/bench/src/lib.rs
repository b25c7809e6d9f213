//! # dfcnn-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! evaluation (Table I, Table II, Fig. 6, the Fig. 4/5 block designs) and
//! the ablations DESIGN.md calls out, from a cold start, deterministically.
//!
//! Binaries (`cargo run -p dfcnn-bench --release --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I — FPGA resource usage of both test cases |
//! | `table2` | Table II — GFLOPS, GFLOPS/W, latency, images/s + the \[28\] row |
//! | `fig6` | Fig. 6 — mean time per image vs batch size |
//! | `blockdesign` | Figs. 4/5 — block diagrams of both designs |
//! | `ablation_accum` | §IV-B — FC accumulator-interleaving sweep |
//! | `ablation_ports` | §IV-A/C — port scaling + DSE (paper future work) |
//! | `ablation_bandwidth` | §V-C — DMA bandwidth sensitivity |
//! | `ablation_pipeline` | §IV-C — pipelined batch vs per-image flush |
//! | `ablation_fifo` | FIFO sizing vs full-buffering minimum |
//! | `scaling` | §VI — bigger networks, fixed point, multi-FPGA partitioning |
//! | `pipeline_trace` | stage-occupancy timelines (the §IV-C concurrency claim) |
//! | `calibration` | fitting the DMA-overhead knob to the paper's absolute numbers |
//! | `host_pipeline` | §IV-C on the host — sequential vs pipelined vs replicated stages, per-stage profile |
//! | `numeric_kernels` | numeric datapath — SIMD vs scalar dot kernels, fixed vs f32 forward, accuracy-vs-FRAC sweep |
//! | `telemetry_bench` | live-telemetry overhead (≤ 5% release gate) + adaptive vs static replication |
//!
//! All binaries print human-readable tables and write JSON records under
//! `results/`; the benchmark records CI uploads go to one committed
//! `BENCH_<name>.json` each instead ([`write_bench_record`]).

use dfcnn_core::graph::{DesignConfig, NetworkDesign, PortConfig};
use dfcnn_datasets::{Dataset, Generator, SyntheticCifar, SyntheticUsps};
use dfcnn_nn::topology::NetworkSpec;
use dfcnn_nn::train::{TrainConfig, Trainer};
use dfcnn_nn::Network;
use dfcnn_tensor::Tensor3;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Deterministic master seed for all experiments.
pub const SEED: u64 = 20170529; // IPDPSW 2017

/// A trained test case: network, design, held-out accuracy, and a pool of
/// test images for streaming.
pub struct TestCase {
    /// Experiment name ("Test Case 1" / "Test Case 2").
    pub name: &'static str,
    /// The topology specification.
    pub spec: NetworkSpec,
    /// The trained reference network.
    pub network: Network,
    /// The accelerator design with the paper's port configuration.
    pub design: NetworkDesign,
    /// Held-out test accuracy of the trained network.
    pub test_accuracy: f64,
    /// Test images for streaming through the accelerator.
    pub images: Vec<Tensor3<f32>>,
}

/// Train the USPS network and build the paper's Test Case 1 design
/// (`train_samples` controls effort; 200 is plenty for the synthetic set).
pub fn build_test_case_1(train_samples: usize) -> TestCase {
    let spec = NetworkSpec::test_case_1();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut network = spec.build(&mut rng);
    let mut gen = SyntheticUsps::new(SEED ^ 1);
    let mut data = Dataset::new(gen.generate(train_samples + 50));
    data.shuffle(SEED ^ 2);
    let split = data.split(train_samples as f64 / (train_samples + 50) as f64);
    let mut trainer = Trainer::new(TrainConfig {
        lr: 0.05,
        momentum: 0.9,
        batch_size: 16,
        epochs: 6,
    });
    trainer.fit(&mut network, split.train.samples());
    let test_accuracy =
        dfcnn_nn::metrics::accuracy_of(|x| network.predict(x), split.test.samples());
    let design = NetworkDesign::new(
        &network,
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .expect("TC1 design must build");
    let images = split.test.image_batch(50);
    TestCase {
        name: "Test Case 1",
        spec,
        network,
        design,
        test_accuracy,
        images,
    }
}

/// Train the CIFAR-10 network and build the paper's Test Case 2 design.
pub fn build_test_case_2(train_samples: usize) -> TestCase {
    let spec = NetworkSpec::test_case_2();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 10);
    let mut network = spec.build(&mut rng);
    let mut gen = SyntheticCifar::new(SEED ^ 11);
    let mut data = Dataset::new(gen.generate(train_samples + 50));
    data.shuffle(SEED ^ 12);
    let split = data.split(train_samples as f64 / (train_samples + 50) as f64);
    let mut trainer = Trainer::new(TrainConfig {
        lr: 0.02,
        momentum: 0.9,
        batch_size: 16,
        epochs: 4,
    });
    trainer.fit(&mut network, split.train.samples());
    let test_accuracy =
        dfcnn_nn::metrics::accuracy_of(|x| network.predict(x), split.test.samples());
    let design = NetworkDesign::new(
        &network,
        PortConfig::paper_test_case_2(),
        DesignConfig::default(),
    )
    .expect("TC2 design must build");
    let images = split.test.image_batch(50);
    TestCase {
        name: "Test Case 2",
        spec,
        network,
        design,
        test_accuracy,
        images,
    }
}

/// Untrained (random-weight) variants for timing-only experiments —
/// timings are weight-independent, so these skip the training step.
pub fn quick_test_case_1() -> TestCase {
    let spec = NetworkSpec::test_case_1();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let network = spec.build(&mut rng);
    let design = NetworkDesign::new(
        &network,
        PortConfig::paper_test_case_1(),
        DesignConfig::default(),
    )
    .unwrap();
    let mut gen = SyntheticUsps::new(SEED ^ 1);
    let images = Dataset::new(gen.generate(50)).image_batch(50);
    TestCase {
        name: "Test Case 1",
        spec,
        network,
        design,
        test_accuracy: f64::NAN,
        images,
    }
}

/// Untrained Test Case 2 (see [`quick_test_case_1`]).
pub fn quick_test_case_2() -> TestCase {
    let spec = NetworkSpec::test_case_2();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 10);
    let network = spec.build(&mut rng);
    let design = NetworkDesign::new(
        &network,
        PortConfig::paper_test_case_2(),
        DesignConfig::default(),
    )
    .unwrap();
    let mut gen = SyntheticCifar::new(SEED ^ 11);
    let images = Dataset::new(gen.generate(50)).image_batch(50);
    TestCase {
        name: "Test Case 2",
        spec,
        network,
        design,
        test_accuracy: f64::NAN,
        images,
    }
}

/// Simulate one batch size and return the mean time per image in µs.
pub fn mean_time_per_image_us(tc: &TestCase, batch: usize) -> f64 {
    let images: Vec<_> = (0..batch)
        .map(|i| tc.images[i % tc.images.len()].clone())
        .collect();
    let (result, _) = tc.design.instantiate(&images).run();
    result
        .measurement(tc.design.config().clock_hz)
        .mean_time_per_image_us()
}

/// Wall-clock comparison of the two simulator schedulers on one batch.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SchedComparison {
    /// Batch size simulated.
    pub batch: usize,
    /// Simulated cycles (identical between schedulers by construction).
    pub cycles: u64,
    /// Wall-clock seconds of the event-driven scheduler.
    pub event_wall_s: f64,
    /// Wall-clock seconds of the dense reference sweep.
    pub reference_wall_s: f64,
    /// `reference_wall_s / event_wall_s`.
    pub speedup: f64,
}

/// Run one batch under both the event-driven scheduler and the dense
/// reference sweep, assert the results are identical, and report the
/// wall-clock times.
pub fn scheduler_comparison(tc: &TestCase, batch: usize) -> SchedComparison {
    let images: Vec<_> = (0..batch)
        .map(|i| tc.images[i % tc.images.len()].clone())
        .collect();
    let t0 = std::time::Instant::now();
    let (event, _) = tc.design.instantiate(&images).run();
    let event_wall_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let (reference, _) = tc.design.instantiate(&images).reference_mode().run();
    let reference_wall_s = t1.elapsed().as_secs_f64();
    assert_eq!(event, reference, "schedulers diverged — conformance bug");
    SchedComparison {
        batch,
        cycles: event.cycles,
        event_wall_s,
        reference_wall_s,
        speedup: reference_wall_s / event_wall_s,
    }
}

/// A Fig. 6 sweep: `(batch, mean µs/image)` pairs.
pub fn fig6_sweep(tc: &TestCase, batches: &[usize]) -> Vec<(usize, f64)> {
    batches
        .iter()
        .map(|&b| (b, mean_time_per_image_us(tc, b)))
        .collect()
}

/// Write a serialisable record under `results/<name>.json` (best effort;
/// failures are printed, not fatal — the console table is the primary
/// output).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    // a failure here surfaces as the write's warning below
    let _ = std::fs::create_dir_all("results");
    write_pretty(&format!("results/{name}.json"), value);
}

/// Write a committed benchmark record to `BENCH_<name>.json` in the
/// working directory — the one copy CI uploads and the repository keeps
/// (whitelisted in `.gitignore`). Best effort, like [`write_json`].
pub fn write_bench_record<T: Serialize>(name: &str, value: &T) {
    write_pretty(&format!("BENCH_{name}.json"), value);
}

fn write_pretty<T: Serialize>(path: &str, value: &T) {
    match std::fs::write(path, serde_json::to_string_pretty(value).unwrap()) {
        Ok(()) => println!("[written {path}]"),
        Err(e) => eprintln!("[warn] could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_test_cases_build() {
        let t1 = quick_test_case_1();
        assert_eq!(t1.design.paper_depth(), 4);
        assert_eq!(t1.images.len(), 50);
        let t2 = quick_test_case_2();
        assert_eq!(t2.design.paper_depth(), 6);
    }

    #[test]
    fn fig6_sweep_is_nonincreasing_for_tc1() {
        let tc = quick_test_case_1();
        let sweep = fig6_sweep(&tc, &[1, 4, 8]);
        assert!(sweep[0].1 >= sweep[1].1);
        assert!(sweep[1].1 >= sweep[2].1 - 0.1);
    }

    #[test]
    fn trained_tc1_beats_chance() {
        let tc = build_test_case_1(120);
        assert!(
            tc.test_accuracy > 0.5,
            "synthetic USPS should be learnable: acc = {}",
            tc.test_accuracy
        );
    }
}
