//! Golden-file test for the trace CSV dump: the rendered CSV of a small
//! fixed design must stay byte-identical across runs, schedulers and code
//! changes. The trace is the repo's waveform substitute — downstream
//! plotting (`pipeline_trace`) and any diffing workflow rely on the dump
//! being stable, so an unintentional change to event ordering, cycle
//! numbering or formatting shows up here as a one-line diff.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! cargo test --test golden_trace -- --ignored bless_golden_trace
//! ```

mod common;

use common::residual_design;
use dfcnn::core::graph::{DesignConfig, LayerPorts, NetworkDesign, PortConfig};
use dfcnn::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/small_design_trace.csv"
);

const RESIDUAL_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/residual_trace.csv"
);

const RESNET8_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/resnet8_trace.csv"
);

const WINDOW_REDUCE_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/window_reduce_trace.csv"
);

/// The fixed fixture: a minimal conv → flatten → linear network, one
/// deterministic image, single-port everywhere.
fn fixture() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let spec = NetworkSpec {
        name: "golden-small".into(),
        input: Shape3::new(6, 6, 1),
        layers: vec![
            LayerSpec::Conv {
                kh: 3,
                kw: 3,
                out_maps: 2,
                stride: 1,
                pad: 0,
                activation: Activation::Tanh,
            },
            LayerSpec::Flatten,
            LayerSpec::Linear {
                outputs: 3,
                activation: Activation::Identity,
            },
            LayerSpec::LogSoftmax,
        ],
    };
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let network = spec.build(&mut rng);
    let design = NetworkDesign::new(
        &network,
        PortConfig::single_port(spec.paper_depth()),
        DesignConfig::default(),
    )
    .unwrap();
    let image = dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0);
    (design, vec![image])
}

fn rendered_csv() -> String {
    let (design, images) = fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    trace.to_csv()
}

#[test]
fn trace_csv_matches_golden_file() {
    let csv = rendered_csv();
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the ignored bless_golden_trace test");
    assert!(
        csv == golden,
        "trace CSV diverged from {GOLDEN_PATH}\n\
         first differing line: {:?}\n\
         re-bless only if the format change is intentional",
        csv.lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: got {a:?}, want {b:?}", i + 1))
            .unwrap_or_else(|| "line count differs".into())
    );
}

/// Attaching the live-telemetry plane (cells + a periodic sampler) must
/// not perturb the recorded trace by a single byte: the golden CSV is the
/// proof that observation is free at the event level.
#[test]
fn trace_csv_is_byte_stable_with_telemetry_attached() {
    use dfcnn::core::observe::live::Sampler;
    use std::cell::RefCell;
    use std::rc::Rc;
    let (design, images) = fixture();
    let sim = design.instantiate(&images).with_trace();
    let live = sim.live_metrics();
    let sampler = Rc::new(RefCell::new(Sampler::new(live.clone())));
    let (_, trace) = sim.with_sampler(sampler, 32).run();
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the ignored bless_golden_trace test");
    assert!(
        trace.to_csv() == golden,
        "telemetry-on trace CSV diverged from the golden file"
    );
}

/// Both schedulers must render the same bytes (a corollary of engine
/// conformance, pinned here at the CSV level where consumers sit).
#[test]
fn trace_csv_identical_across_schedulers() {
    let (design, images) = fixture();
    let (_, reference) = design
        .instantiate(&images)
        .with_trace()
        .reference_mode()
        .run();
    assert_eq!(rendered_csv(), reference.to_csv());
}

/// The fork/join fixture: the canonical residual block with one
/// deterministic image — pins the trace format through the tee and
/// eltwise-add actors.
fn residual_fixture() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let design = residual_design(DesignConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(78);
    let image =
        dfcnn::tensor::init::random_volume(&mut rng, design.network().input_shape(), 0.0, 1.0);
    (design, vec![image])
}

fn residual_rendered_csv() -> String {
    let (design, images) = residual_fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    trace.to_csv()
}

#[test]
fn residual_trace_csv_matches_golden_file() {
    let csv = residual_rendered_csv();
    let golden = std::fs::read_to_string(RESIDUAL_GOLDEN_PATH)
        .expect("golden file missing — run the ignored bless_residual_golden_trace test");
    assert!(
        csv == golden,
        "residual trace CSV diverged from {RESIDUAL_GOLDEN_PATH}\n\
         first differing line: {:?}\n\
         re-bless only if the format change is intentional",
        csv.lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: got {a:?}, want {b:?}", i + 1))
            .unwrap_or_else(|| "line count differs".into())
    );
}

/// Scheduler independence holds through the fork/join too.
#[test]
fn residual_trace_csv_identical_across_schedulers() {
    let (design, images) = residual_fixture();
    let (_, reference) = design
        .instantiate(&images)
        .with_trace()
        .reference_mode()
        .run();
    assert_eq!(residual_rendered_csv(), reference.to_csv());
}

/// The Perfetto/Chrome export must render the fork/join actors: the tee
/// and the eltwise-add appear as named tracks alongside the convs, so a
/// residual pipeline is inspectable in the trace viewer.
#[test]
fn residual_chrome_export_names_fork_and_join_actors() {
    let (design, images) = residual_fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    let json = trace.to_chrome_json(design.config().clock_hz);
    for actor in ["fork1", "add4", "scaleshift1", "conv1", "conv2"] {
        assert!(
            json.contains(&format!("\"{actor}\"")),
            "chrome export must name actor {actor}"
        );
    }
}

/// The graph-native ResNet-8 fixture: the parametric preset at miniature
/// scale (8×8×3 input, widths 2/4/4, four classes) so the golden CSV
/// stays reviewable, one deterministic image — pins the trace format
/// through a *spec-lowered* fork/join pipeline (three forks, three adds,
/// two 1×1 skip projections).
fn resnet8_fixture() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    use dfcnn::core::graph::build_graph_design;
    use dfcnn::nn::topology::GraphSpec;
    let spec = GraphSpec::resnet8(Shape3::new(8, 8, 3), [2, 4, 4], 4);
    let mut rng = ChaCha8Rng::seed_from_u64(79);
    let layers = spec.build_layers(&mut rng);
    let ports = PortConfig::single_port(spec.paper_depth());
    let design = build_graph_design(&spec, &layers, &ports, DesignConfig::default()).unwrap();
    let image = dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0);
    (design, vec![image])
}

fn resnet8_rendered_csv() -> String {
    let (design, images) = resnet8_fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    trace.to_csv()
}

#[test]
fn resnet8_trace_csv_matches_golden_file() {
    let csv = resnet8_rendered_csv();
    let golden = std::fs::read_to_string(RESNET8_GOLDEN_PATH)
        .expect("golden file missing — run the ignored bless_golden_trace test");
    assert!(
        csv == golden,
        "resnet8 trace CSV diverged from {RESNET8_GOLDEN_PATH}\n\
         first differing line: {:?}\n\
         re-bless only if the format change is intentional",
        csv.lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: got {a:?}, want {b:?}", i + 1))
            .unwrap_or_else(|| "line count differs".into())
    );
}

/// The ResNet-8 Perfetto/Chrome export names every join actor: all three
/// residual adds and the forks feeding them are inspectable tracks.
#[test]
fn resnet8_chrome_export_names_join_actors() {
    let (design, images) = resnet8_fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    let json = trace.to_chrome_json(design.config().clock_hz);
    let forks = design
        .cores()
        .iter()
        .filter(|c| c.name.starts_with("fork"))
        .count();
    let adds = design
        .cores()
        .iter()
        .filter(|c| c.name.starts_with("add"))
        .count();
    assert_eq!((forks, adds), (3, 3));
    for core in design.cores() {
        if core.name.starts_with("fork") || core.name.starts_with("add") {
            assert!(
                json.contains(&format!("\"{}\"", core.name)),
                "chrome export must name actor {}",
                core.name
            );
        }
    }
}

/// The Inception-cell Perfetto/Chrome export names the concat actors: the
/// pairwise-folded concat joins appear as tracks next to the branch convs.
#[test]
fn inception_chrome_export_names_concat_actors() {
    use dfcnn::core::graph::build_graph_design;
    use dfcnn::nn::topology::GraphSpec;
    let spec = GraphSpec::inception_cell();
    let mut rng = ChaCha8Rng::seed_from_u64(80);
    let layers = spec.build_layers(&mut rng);
    let ports = PortConfig::single_port(spec.paper_depth());
    let design = build_graph_design(&spec, &layers, &ports, DesignConfig::default()).unwrap();
    let image = dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0);
    let (_, trace) = design.instantiate(&[image]).with_trace().run();
    let json = trace.to_chrome_json(design.config().clock_hz);
    let concats: Vec<&str> = design
        .cores()
        .iter()
        .filter(|c| c.name.starts_with("concat"))
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(concats.len(), 3, "pairwise fold of the 4-way concat");
    for name in concats {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "chrome export must name actor {name}"
        );
    }
}

/// The compute-core fixture: conv → 2×2 max-pool bank on two ports →
/// flatten → FC → on-fabric log-softmax, two deterministic images — pins
/// the windowed cores (conv, a multi-port max-pool) and the
/// accumulate-and-drain cores (FC, log-softmax) cycle for cycle,
/// including the second image's restart of both drain phases.
fn window_reduce_fixture() -> (NetworkDesign, Vec<Tensor3<f32>>) {
    let spec = NetworkSpec {
        name: "golden-window-reduce".into(),
        input: Shape3::new(6, 6, 1),
        layers: vec![
            LayerSpec::Conv {
                kh: 3,
                kw: 3,
                out_maps: 4,
                stride: 1,
                pad: 0,
                activation: Activation::Tanh,
            },
            LayerSpec::Pool {
                kh: 2,
                kw: 2,
                stride: 2,
                kind: PoolKind::Max,
            },
            LayerSpec::Flatten,
            LayerSpec::Linear {
                outputs: 3,
                activation: Activation::Identity,
            },
            LayerSpec::LogSoftmax,
        ],
    };
    let mut rng = ChaCha8Rng::seed_from_u64(81);
    let network = spec.build(&mut rng);
    let ports = PortConfig {
        layers: vec![
            LayerPorts {
                in_ports: 1,
                out_ports: 2,
            },
            LayerPorts {
                in_ports: 2,
                out_ports: 2,
            },
            LayerPorts::SINGLE,
        ],
    };
    let config = DesignConfig {
        fabric_normalization: true,
        ..DesignConfig::default()
    };
    let design = NetworkDesign::new(&network, ports, config).unwrap();
    let images = (0..2)
        .map(|_| dfcnn::tensor::init::random_volume(&mut rng, spec.input, 0.0, 1.0))
        .collect();
    (design, images)
}

fn window_reduce_rendered_csv() -> String {
    let (design, images) = window_reduce_fixture();
    let (_, trace) = design.instantiate(&images).with_trace().run();
    trace.to_csv()
}

#[test]
fn window_reduce_trace_csv_matches_golden_file() {
    let csv = window_reduce_rendered_csv();
    let golden = std::fs::read_to_string(WINDOW_REDUCE_GOLDEN_PATH)
        .expect("golden file missing — run the ignored bless_golden_trace test");
    assert!(
        csv == golden,
        "window/reduce trace CSV diverged from {WINDOW_REDUCE_GOLDEN_PATH}\n\
         first differing line: {:?}\n\
         re-bless only if the format change is intentional",
        csv.lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: got {a:?}, want {b:?}", i + 1))
            .unwrap_or_else(|| "line count differs".into())
    );
}

/// Scheduler independence holds through every compute-core shape.
#[test]
fn window_reduce_trace_csv_identical_across_schedulers() {
    let (design, images) = window_reduce_fixture();
    let (_, reference) = design
        .instantiate(&images)
        .with_trace()
        .reference_mode()
        .run();
    assert_eq!(window_reduce_rendered_csv(), reference.to_csv());
}

/// Regenerate the golden files (ignored; run explicitly after intentional
/// trace-format changes).
#[test]
#[ignore]
fn bless_golden_trace() {
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
    std::fs::write(GOLDEN_PATH, rendered_csv()).unwrap();
    std::fs::write(RESIDUAL_GOLDEN_PATH, residual_rendered_csv()).unwrap();
    std::fs::write(RESNET8_GOLDEN_PATH, resnet8_rendered_csv()).unwrap();
    std::fs::write(WINDOW_REDUCE_GOLDEN_PATH, window_reduce_rendered_csv()).unwrap();
}
