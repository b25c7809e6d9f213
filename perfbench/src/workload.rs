//! The workloads and the inputs each one builds from its seed.
//!
//! A workload drives every layer of the system through its public entry
//! points: a design streamed through the threaded host engine, the same
//! design through the cycle simulator, and a design-space exploration.
//! The two workloads differ in the network and the numeric format, which
//! decides which layers do the work (see `README.md`).

use dfcnn_core::dse::{explore_graph_serial, DseDiscards, DseReport};
use dfcnn_core::exec::ThreadedEngine;
use dfcnn_core::graph::{build_graph_design, DesignConfig, NetworkDesign, PortConfig};
use dfcnn_datasets::{Generator, SyntheticCifar};
use dfcnn_fpga::device::Device;
use dfcnn_fpga::resources::CostModel;
use dfcnn_nn::layer::Layer;
use dfcnn_nn::topology::{GraphSpec, NetworkSpec};
use dfcnn_tensor::{NumericSpec, Shape3, Tensor3};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The seed used when none is given: the one the repository's
/// `quick_test_case_2` builds Test Case 2 from.
pub const DEFAULT_SEED: u64 = 20170529;

/// Images per host-engine batch, well past both pipelines' depth so fill
/// and drain are amortised.
const STREAM_BATCH: usize = 48;

/// The fixed-point format of the quantised workload.
const Q16F8: NumericSpec = NumericSpec::Fixed16 { frac: 8 };

/// Port-count cap of the design-space exploration.
pub const DSE_MAX_PORTS: usize = 2;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Test Case 2 (CIFAR, 7 host stages) at f32; f32 DSE candidates.
    Tc2F32,
    /// The ResNet-8 CIFAR preset (21 host stages) at q16f8; q16f8 DSE
    /// candidates.
    Resnet8Q16,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Tc2F32, Workload::Resnet8Q16];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tc2F32 => "tc2_f32",
            Workload::Resnet8Q16 => "resnet8_q16",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The numeric format every design of this workload executes in.
    pub fn numeric(self) -> NumericSpec {
        match self {
            Workload::Tc2F32 => NumericSpec::F32,
            Workload::Resnet8Q16 => Q16F8,
        }
    }

    /// Images per simulated batch: enough for several images in flight,
    /// few enough for many repetitions in a run.
    pub fn sim_batch(self) -> usize {
        match self {
            Workload::Tc2F32 => 8,
            Workload::Resnet8Q16 => 4,
        }
    }
}

/// A design ready to stream, with the reference outputs every engine's
/// results are compared against bit for bit.
pub struct Stream {
    /// The accelerator design (also what the simulator instantiates).
    pub design: NetworkDesign,
    /// The network's layers in declaration order (MAC counting).
    pub layers: Vec<Layer>,
    /// The threaded host engine over `design`.
    pub engine: ThreadedEngine,
    /// The generated input batch.
    pub images: Vec<Tensor3<f32>>,
    /// `design.hw_forward` of every image, computed one image at a time.
    pub reference: Vec<Tensor3<f32>>,
}

/// A design-space exploration problem and its serial reference report.
pub struct Explore {
    /// The topology explored.
    pub spec: GraphSpec,
    /// Its layers (weights drawn from the default seed).
    pub layers: Vec<Layer>,
    /// Base configuration; `numeric` is the format explored.
    pub config: DesignConfig,
    /// Resource cost model.
    pub cost: CostModel,
    /// Target device.
    pub device: Device,
    /// `explore_graph_serial`'s report over the same space.
    pub reference: DseSummary,
}

/// The parts of a [`DseReport`] a correct exploration must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DseSummary {
    /// Candidates evaluated (points plus discards).
    pub candidates: usize,
    /// Feasible points.
    pub feasible: usize,
    /// Discard tallies.
    pub discards: DseDiscards,
    /// The best point, rendered (`None` when nothing is feasible).
    pub best: Option<String>,
}

impl DseSummary {
    /// Summarise a report.
    pub fn of(report: &DseReport) -> Self {
        DseSummary {
            candidates: report.points.len() + report.discards.total(),
            feasible: report.feasible().count(),
            discards: report.discards,
            best: report.best_point().map(|p| format!("{p:?}")),
        }
    }
}

/// Everything a run measures, built from the seed.
pub struct Inputs {
    /// The streamed (and simulated) design.
    pub stream: Stream,
    /// The exploration problem.
    pub explore: Explore,
}

/// Build a workload's inputs from `seed`: the streamed network's weights
/// and the images. The same seed gives the same inputs.
pub fn setup(workload: Workload, seed: u64) -> Inputs {
    let numeric = workload.numeric();
    let config = DesignConfig {
        numeric,
        ..DesignConfig::default()
    };
    let (design, layers) = match workload {
        Workload::Tc2F32 => {
            // the `quick_test_case_2` construction, seeded
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 10);
            let network = NetworkSpec::test_case_2().build(&mut rng);
            let design = NetworkDesign::new(&network, PortConfig::paper_test_case_2(), config)
                .expect("Test Case 2 builds under the paper's ports");
            (design, network.layers().to_vec())
        }
        Workload::Resnet8Q16 => {
            let spec = GraphSpec::resnet8_cifar();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 8);
            let layers = spec.build_layers(&mut rng);
            let ports = PortConfig::single_port(spec.paper_depth());
            let design = build_graph_design(&spec, &layers, &ports, config)
                .expect("the ResNet-8 preset builds single-port");
            (design, layers)
        }
    };
    let images: Vec<Tensor3<f32>> = SyntheticCifar::new(seed ^ 11)
        .generate(STREAM_BATCH)
        .into_iter()
        .map(|(x, _)| x)
        .collect();
    let reference = images.iter().map(|x| design.hw_forward(x)).collect();
    let engine = ThreadedEngine::new(&design);
    let stream = Stream {
        design,
        layers,
        engine,
        images,
        reference,
    };
    Inputs {
        stream,
        explore: explore_problem(numeric),
    }
}

/// The mini ResNet-8 exploration (`max_ports` 2, fixed-point cost model)
/// in one numeric format. Widths `[1, 2, 4]` give 512 port
/// configurations, so a q16f8 sweep (range proofs on every candidate)
/// takes a fraction of a second and a run holds many sweeps.
///
/// The weights are drawn from [`DEFAULT_SEED`], not the run's seed: the
/// q16f8 checker reruns its range proof for every core it finds
/// saturating, so its cost moves by a quarter between weight draws, and
/// one fixed design space keeps runs with different seeds comparable.
fn explore_problem(numeric: NumericSpec) -> Explore {
    let spec = GraphSpec::resnet8(Shape3::new(8, 8, 3), [1, 2, 4], 4);
    let mut rng = ChaCha8Rng::seed_from_u64(DEFAULT_SEED ^ 42);
    let layers = spec.build_layers(&mut rng);
    let config = DesignConfig {
        numeric,
        ..DesignConfig::default()
    };
    let (cost, device) = (CostModel::fixed_point(), Device::xc7vx485t());
    let serial = explore_graph_serial(&spec, &layers, &config, &cost, &device, DSE_MAX_PORTS);
    Explore {
        reference: DseSummary::of(&serial),
        spec,
        layers,
        config,
        cost,
        device,
    }
}

/// Multiply-accumulates per image of a conv or linear layer (`None` for
/// the other kinds): every output value is one dot product over a
/// `kh × kw × IN_FM` window, or over all inputs of a linear layer.
pub fn layer_macs(layer: &Layer) -> Option<u64> {
    let macs = match layer {
        Layer::Conv(c) => {
            let window = c.filters().kh() * c.filters().kw() * layer.input_shape().c;
            layer.output_shape().len() * window
        }
        Layer::Linear(l) => l.inputs() * l.outputs(),
        _ => return None,
    };
    Some(macs as u64)
}

/// A host stage's kind: its name without the instance number (`conv`,
/// `pool`, `fc`, `scaleshift`, `add`, `flatten`, …).
pub fn stage_kind(name: &str) -> &str {
    name.trim_end_matches(|c: char| c.is_ascii_digit())
}

/// MACs per image of each host stage, in stage order. The `k`-th conv
/// (fc) stage is the `k`-th conv (linear) layer, both numbered in
/// declaration order.
///
/// # Panics
/// If a matched stage and layer disagree on the output shape.
pub fn stage_macs(stages: &[(&str, Shape3)], layers: &[Layer]) -> Vec<u64> {
    let convs: Vec<&Layer> = layers
        .iter()
        .filter(|l| matches!(l, Layer::Conv(_)))
        .collect();
    let fcs: Vec<&Layer> = layers
        .iter()
        .filter(|l| matches!(l, Layer::Linear(_)))
        .collect();
    stages
        .iter()
        .map(|&(name, out_shape)| {
            let pool = match stage_kind(name) {
                "conv" => &convs,
                "fc" => &fcs,
                _ => return 0,
            };
            let k: usize = name[stage_kind(name).len()..]
                .parse()
                .expect("numbered stage");
            let layer = pool[k - 1];
            assert_eq!(
                layer.output_shape(),
                out_shape,
                "stage {name} does not match its layer"
            );
            layer_macs(layer).expect("conv and linear layers have MACs")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_case_2_macs_match_hand_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let network = NetworkSpec::test_case_2().build(&mut rng);
        let macs: Vec<u64> = network.layers().iter().filter_map(layer_macs).collect();
        // conv1: 28·28·12 outputs × 5·5·3 = 705 600
        // conv2: 10·10·36 outputs × 5·5·12 = 1 080 000
        // fc1:   900 inputs × 72 outputs = 64 800
        // fc2:   72 inputs × 10 outputs = 720
        assert_eq!(macs, vec![705_600, 1_080_000, 64_800, 720]);
        assert_eq!(macs.iter().sum::<u64>(), 1_851_120);

        let design = NetworkDesign::new(
            &network,
            PortConfig::paper_test_case_2(),
            DesignConfig::default(),
        )
        .unwrap();
        let engine = ThreadedEngine::new(&design);
        let names = engine.stage_names();
        let shapes: Vec<(&str, Shape3)> = names
            .iter()
            .zip(dfcnn_core::model::host_pipeline(&design))
            .map(|(n, s)| (*n, s.spec.out_shape))
            .collect();
        assert_eq!(
            stage_macs(&shapes, network.layers()),
            vec![705_600, 0, 1_080_000, 0, 0, 64_800, 720]
        );
    }

    #[test]
    fn resnet8_stages_map_onto_their_layers() {
        let inputs = setup(Workload::Resnet8Q16, 3);
        let stages = dfcnn_core::model::host_pipeline(&inputs.stream.design);
        let shapes: Vec<(&str, Shape3)> = stages
            .iter()
            .map(|s| (s.spec.name.as_str(), s.spec.out_shape))
            .collect();
        let macs = stage_macs(&shapes, &inputs.stream.layers);
        let layer_total: u64 = inputs.stream.layers.iter().filter_map(layer_macs).sum();
        assert_eq!(macs.iter().sum::<u64>(), layer_total);
        assert_eq!(stages.len(), 21);
    }

    #[test]
    fn stage_kinds_drop_instance_numbers() {
        assert_eq!(stage_kind("conv12"), "conv");
        assert_eq!(stage_kind("scaleshift3"), "scaleshift");
        assert_eq!(stage_kind("flatten"), "flatten");
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = setup(Workload::Tc2F32, 5);
        let b = setup(Workload::Tc2F32, 5);
        let c = setup(Workload::Tc2F32, 6);
        assert_eq!(a.stream.images, b.stream.images);
        assert_eq!(a.stream.reference, b.stream.reference);
        assert_ne!(a.stream.images, c.stream.images);
        assert_eq!(a.explore.reference, b.explore.reference);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
