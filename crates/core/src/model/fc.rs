//! The fully-connected layer kind (§IV-B): a single-input-port /
//! single-output-port 1×1 convolution with interleaved accumulators.
//!
//! "We decided to implement a FCN layer as a single-input-port/
//! single-output-port convolutional layer. In this way, the number of
//! parallel multiplications is reduced, while the execution time remains
//! linearly related to the number of input and output values." For each
//! input value all `OUT_FM` 1×1 convolutions happen in the same cycle; the
//! floating-point accumulation latency is hidden by interleaved
//! accumulator banks (see [`dfcnn_hls::accum`]). After the last input the
//! core drains (pipeline flush + merge tree + bias + activation) and sends
//! the outputs sequentially on its single output port.

use super::reduce::{ReduceCompute, ReduceCore};
use super::{validate_ports, CoreModel, CorePlan, StageSpec, StageWorker, StaticProfile};
use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign};
use crate::kernel::{fc_forward_hw_into, fc_forward_into, FcArena};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_hls::latency::OpLatency;
use dfcnn_hls::reduce::TreeAdder;
use dfcnn_nn::act::Activation;
use dfcnn_nn::layer::{Layer, Linear};
use dfcnn_tensor::{with_numeric, Numeric, Shape3, Tensor3};
use std::fmt::Write as _;

/// The FC [`CoreModel`].
pub struct FcModel;

fn fc_layer(layer: &Layer) -> &Linear {
    match layer {
        Layer::Linear(l) => l,
        _ => unreachable!("fc model handed a non-linear layer"),
    }
}

/// Input-loop initiation interval with `banks` interleaved accumulators:
/// `ceil(add_latency / banks)`, at least 1 (one value per cycle at most).
fn input_ii(banks: usize, ops: &OpLatency) -> u64 {
    (ops.add as u64).div_ceil(banks as u64).max(1)
}

/// Drain latency after the last input: the add pipeline flush, the merge
/// tree over the banks, the bias add and the activation.
fn drain_latency(banks: usize, ops: &OpLatency) -> u64 {
    ops.add as u64
        + TreeAdder::new(banks).latency(ops) as u64
        + ops.add as u64
        + ops.activation as u64
}

/// The FC whole-vector compute: the arena holds the quantised weights and
/// bias; inputs are quantised and outputs dequantised inside
/// [`fc_forward_into`] (identities for `E = f32`).
struct FcReduce<E: Numeric> {
    arena: FcArena<E>,
    activation: Activation,
}

impl<E: Numeric> ReduceCompute for FcReduce<E> {
    fn shape(&self) -> (usize, usize) {
        (self.arena.inputs(), self.arena.outputs())
    }

    fn compute(&mut self, inputs: &[f32], out: &mut [f32]) {
        fc_forward_into(out, &mut self.arena, self.activation, inputs);
    }
}

/// The FC cycle actor: the shared accumulate-and-drain core running
/// [`FcReduce`] with `banks` interleaved accumulators (the paper's choice
/// is "a higher number of accumulators than the single addition latency",
/// e.g. ≥ 11 for f32).
fn fc_core<E: Numeric>(
    name: String,
    linear: &Linear,
    in_ch: ChannelId,
    out_ch: ChannelId,
    banks: usize,
    ops: &OpLatency,
) -> ReduceCore<FcReduce<E>> {
    let kernel = FcReduce {
        arena: FcArena::new(linear.weights(), linear.bias(), banks),
        activation: linear.activation(),
    };
    ReduceCore::new(
        name,
        in_ch,
        out_ch,
        input_ii(banks, ops),
        drain_latency(banks, ops),
        kernel,
    )
}

struct FcWorker<E: Numeric> {
    layer: Linear,
    arena: Box<FcArena<E>>,
}

impl<E: Numeric> StageWorker for FcWorker<E> {
    fn apply_into(&mut self, input: &Tensor3<f32>, out: &mut Tensor3<f32>) {
        fc_forward_hw_into(&self.layer, input, out, &mut self.arena);
    }
}

impl CoreModel for FcModel {
    fn kind(&self) -> CoreKind {
        CoreKind::Fc
    }

    fn label(&self) -> &'static str {
        "fc"
    }

    fn feature_maps(&self, layer: &Layer) -> (usize, usize) {
        let f = fc_layer(layer);
        (f.inputs(), f.outputs())
    }

    fn forces_single_port(&self) -> bool {
        true
    }

    fn classifier_outputs(&self, layer: &Layer) -> Option<usize> {
        Some(fc_layer(layer).outputs())
    }

    fn validate(&self, name: &str, layer: &Layer, lp: LayerPorts) -> Result<(), String> {
        if lp != LayerPorts::SINGLE {
            return Err(format!(
                "{name}: FC layers are always single-input-port/single-output-port (§IV-B)"
            ));
        }
        let (in_fm, out_fm) = self.feature_maps(layer);
        validate_ports(name, in_fm, out_fm, lp)
    }

    fn plan(&self, layer: &Layer, lp: LayerPorts, config: &DesignConfig) -> CorePlan {
        let f = fc_layer(layer);
        let (in_fm, out_fm) = (f.inputs(), f.outputs());
        CorePlan {
            params: CoreParams {
                kind: CoreKind::Fc,
                in_fm,
                out_fm,
                in_ports: lp.in_ports,
                out_ports: lp.out_ports,
                kh: 1,
                kw: 1,
                image_w: 1,
                ii: pipeline_ii(in_fm, lp.in_ports, out_fm, lp.out_ports),
                weights: f.weights().len(),
                accumulators: config.fc_banks,
            },
            in_values_per_image: in_fm as u64,
            positions: 0,
        }
    }

    fn estimate_interval(&self, core: &CoreInfo, config: &DesignConfig) -> u64 {
        let p = &core.params;
        p.in_fm as u64 * input_ii(p.accumulators, &config.ops) + p.out_fm as u64
    }

    fn range_transfer(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        spec: dfcnn_tensor::NumericSpec,
        inputs: &[crate::range::Interval],
    ) -> crate::range::Transfer {
        let idx = core.layer_index.expect("fc core has a layer");
        let f = fc_layer(&design.network().layers()[idx]);
        let w = f.weights();
        let bias = f.bias().as_slice();
        let channels = (0..f.outputs()).map(|j| {
            let row = (0..f.inputs()).map(move |i| f64::from(w.get(j, 0, 0, i)));
            (row, f64::from(bias[j]))
        });
        crate::range::mac_transfer(
            spec,
            crate::range::Interval::union_all(inputs),
            channels,
            f.activation(),
        )
    }

    fn static_profile(&self, design: &NetworkDesign, core: &CoreInfo) -> StaticProfile {
        let idx = core.layer_index.expect("fc core has a layer");
        let layer = &design.network().layers()[idx];
        let f = fc_layer(layer);
        let lp = LayerPorts {
            in_ports: core.params.in_ports,
            out_ports: core.params.out_ports,
        };
        StaticProfile {
            out_values_per_image: f.outputs() as u64,
            expected_ii: self.plan(layer, lp, design.config()).params.ii,
            line_buffer: None,
        }
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        let p = &core.params;
        format!(
            "[{} {}->{} 1x1conv acc={}]",
            core.name, p.in_fm, p.out_fm, p.accumulators
        )
    }

    fn make_actor(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        let idx = core.layer_index.expect("fc core has a layer");
        let l = fc_layer(&design.network().layers()[idx]);
        with_numeric!(design.config().numeric, E => Box::new(fc_core::<E>(
            core.name.clone(),
            l,
            in_chs[0],
            out_chs[0],
            core.params.accumulators,
            &design.config().ops,
        )))
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        use crate::codegen::{header, weight_array};
        let info = &design.cores()[idx];
        let p = &info.params;
        let layer = fc_layer(&design.network().layers()[info.layer_index.unwrap()]);
        let mut s = header();
        s.push_str(&weight_array(
            &format!("{}_weights", info.name),
            layer.weights().as_slice(),
        ));
        s.push_str(&weight_array(
            &format!("{}_bias", info.name),
            layer.bias().as_slice(),
        ));
        let _ = write!(
            s,
            "\n// fully-connected layer as a 1x1 convolution (SIV-B):\n\
             // single-input-port/single-output-port, {i} inputs -> {j} outputs,\n\
             // {banks} interleaved accumulators hide the 11-cycle f32 add latency\n\
             void {name}(hls::stream<float> &in0, hls::stream<float> &out0) {{\n\
             #pragma HLS INTERFACE axis port=in0\n\
             #pragma HLS INTERFACE axis port=out0\n\
             \x20   float acc[{j}][{banks}];\n\
             #pragma HLS ARRAY_PARTITION variable=acc complete dim=0\n\
             \x20   accumulate: for (int i = 0; i < {i}; ++i) {{\n\
             #pragma HLS PIPELINE II=1\n\
             #pragma HLS UNROLL factor={banks}\n\
             \x20       float x = in0.read();\n\
             \x20       // all OUT_FM 1x1 convolutions in the same clock cycle\n\
             \x20       for (int jj = 0; jj < {j}; ++jj)\n\
             \x20           acc[jj][i % {banks}] += {name}_weights[jj * {i} + i] * x;\n\
             \x20   }}\n\
             \x20   drain: for (int jj = 0; jj < {j}; ++jj) {{\n\
             #pragma HLS PIPELINE II=1\n\
             \x20       out0.write(activation(merge_tree_{banks}(acc[jj]) + {name}_bias[jj]));\n\
             \x20   }}\n\
             }}\n",
            i = p.in_fm,
            j = p.out_fm,
            banks = p.accumulators,
            name = info.name,
        );
        s
    }

    fn stage(
        &self,
        name: String,
        layer: &Layer,
        _lp: LayerPorts,
        config: &DesignConfig,
    ) -> Option<StageSpec> {
        let f = fc_layer(layer).clone();
        let banks = config.fc_banks;
        let out_shape = Shape3::new(1, 1, f.outputs());
        Some(with_numeric!(config.numeric, E => StageSpec::new(
            name,
            out_shape,
            move || {
                Box::new(FcWorker::<E> {
                    arena: Box::new(FcArena::new(f.weights(), f.bias(), banks)),
                    layer: f.clone(),
                })
            },
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::super::reduce::harness::run_reduce;
    use super::*;
    use dfcnn_tensor::Fixed16;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_fc() -> Layer {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let net = dfcnn_nn::topology::NetworkSpec::test_case_1().build(&mut rng);
        net.layers()
            .iter()
            .find(|l| matches!(l, Layer::Linear(_)))
            .unwrap()
            .clone()
    }

    #[test]
    fn validate_rejects_multi_port_before_anything_else() {
        let m = FcModel;
        let layer = small_fc();
        let err = m
            .validate(
                "fc1",
                &layer,
                LayerPorts {
                    in_ports: 1,
                    out_ports: 2,
                },
            )
            .unwrap_err();
        assert!(err.contains("single-input-port"), "{err}");
        // even a non-divisor multi-port choice reports the §IV-B rule first
        let err = m
            .validate(
                "fc1",
                &layer,
                LayerPorts {
                    in_ports: 7,
                    out_ports: 3,
                },
            )
            .unwrap_err();
        assert!(err.contains("single-input-port"), "{err}");
        assert!(m.validate("fc1", &layer, LayerPorts::SINGLE).is_ok());
    }

    #[test]
    fn dse_options_are_pinned_single_port() {
        let m = FcModel;
        let layer = small_fc();
        assert!(m.forces_single_port());
        assert_eq!(m.out_port_options(&layer, 16), vec![1]);
        assert_eq!(m.classifier_outputs(&layer), Some(10));
    }

    fn random_fc(seed: u64, inputs: usize, outputs: usize) -> (Linear, Vec<f32>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w = dfcnn_tensor::init::linear_weights(&mut rng, inputs, outputs);
        let b = dfcnn_tensor::init::random_vector(&mut rng, outputs, -0.1, 0.1);
        let fc = Linear::new(w, b, Activation::Tanh);
        let x = dfcnn_tensor::init::random_volume(&mut rng, Shape3::new(1, 1, inputs), -1.0, 1.0);
        (fc, x.as_slice().to_vec())
    }

    /// Stream `images` copies of `x` through an isolated FC actor at
    /// element type `E` with `banks` accumulators.
    fn run_fc<E: Numeric>(
        fc: &Linear,
        banks: usize,
        x: &[f32],
        images: usize,
    ) -> (Vec<Vec<f32>>, u64) {
        let ops = OpLatency::f32_virtex7();
        run_reduce(
            |i, o| fc_core::<E>("fc".into(), fc, i, o, banks, &ops),
            x,
            images,
        )
    }

    /// The actor's output at `E` is bit-identical to the kernel the host
    /// stage worker runs, with an arena of the same element type.
    fn assert_actor_matches_kernel<E: Numeric>(fc: &Linear, banks: usize, x: &[f32]) {
        let (res, _) = run_fc::<E>(fc, banks, x, 1);
        let mut expect = vec![0.0; fc.outputs()];
        let mut arena = FcArena::<E>::new(fc.weights(), fc.bias(), banks);
        fc_forward_into(&mut expect, &mut arena, fc.activation(), x);
        assert_eq!(res[0], expect, "cycle core must be bit-identical to kernel");
    }

    #[test]
    fn outputs_match_hw_kernel_exactly() {
        let (fc, x) = random_fc(1, 64, 10);
        assert_actor_matches_kernel::<f32>(&fc, 11, &x);
        assert_actor_matches_kernel::<Fixed16<8>>(&fc, 11, &x);
    }

    #[test]
    fn bank_count_controls_input_rate() {
        let (fc, x) = random_fc(2, 100, 4);
        let (_, fast) = run_fc::<f32>(&fc, 11, &x, 1);
        let (_, slow) = run_fc::<f32>(&fc, 1, &x, 1);
        // 1 bank -> II = 11 per input: ~11x slower feed
        assert!(
            slow > fast * 5,
            "1-bank run ({slow}) should be much slower than 11-bank ({fast})"
        );
    }

    #[test]
    fn back_to_back_images_are_processed() {
        let (fc, x) = random_fc(3, 20, 5);
        for res in [
            run_fc::<f32>(&fc, 11, &x, 3).0,
            run_fc::<Fixed16<8>>(&fc, 11, &x, 3).0,
        ] {
            assert_eq!(res.len(), 3);
            assert_eq!(res[0], res[1]);
            assert_eq!(res[1], res[2]);
        }
    }

    #[test]
    fn stage_interval_formula() {
        let (fc, x) = random_fc(4, 900, 72);
        let ops = OpLatency::f32_virtex7();
        assert_eq!(input_ii(11, &ops), 1);
        // I·II + drain + J, plus the one cycle the first input spends
        // crossing the input FIFO
        let (_, cycles) = run_fc::<f32>(&fc, 11, &x, 1);
        assert_eq!(cycles, 900 + drain_latency(11, &ops) + 72 + 1);
    }

    #[test]
    fn single_output_layer_works() {
        let (fc, x) = random_fc(5, 8, 1);
        let (res, _) = run_fc::<f32>(&fc, 11, &x, 2);
        assert_eq!(res[0].len(), 1);
        assert_eq!(res[0], res[1]);
    }
}
