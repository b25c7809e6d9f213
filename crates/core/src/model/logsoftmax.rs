//! The on-fabric log-softmax normalisation core.
//!
//! The paper keeps normalisation on the host ("the final LogSoftMax is
//! computed on the CPU"); this kind moves it onto the fabric so the chain
//! classifies end-to-end without a host post-pass. It is opt-in via
//! [`DesignConfig::fabric_normalization`] and is *not* a paper layer: it
//! carries no [`crate::graph::PortConfig`] entry and is always
//! single-input-port / single-output-port, like the FC core it follows.
//!
//! Dataflow per image: buffer the `K` class scores, then run the
//! numerically-stable pipeline `max -> exp -> tree-sum -> ln -> subtract`
//! and drain the `K` normalised log-probabilities one per cycle. The
//! compute goes through [`crate::kernel::logsoftmax_forward_into`] — the
//! same kernel used by the host pipeline stage and `hw_forward` — so all
//! three engines stay bit-identical.

use super::reduce::{ReduceCompute, ReduceCore};
use super::{CoreModel, CorePlan, StageSpec, StageWorker};
use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign};
use crate::kernel::{logsoftmax_forward_into, LogSoftmaxArena};
use crate::sim::Actor;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_hls::latency::OpLatency;
use dfcnn_hls::reduce::TreeAdder;
use dfcnn_nn::layer::Layer;
use dfcnn_tensor::{with_numeric, Numeric, Shape3, Tensor3};
use std::fmt::Write as _;

/// The normalisation [`CoreModel`].
pub struct LogSoftmaxModel;

fn classes_of(layer: &Layer) -> usize {
    match layer {
        Layer::LogSoftmax(l) => l.classes(),
        _ => unreachable!("logsoftmax model handed a non-normalisation layer"),
    }
}

/// Drain latency after the last score: exponentiation, the adder-tree
/// reduction of the exponentials, the logarithm, and the final subtract.
fn drain_latency(classes: usize, ops: &OpLatency) -> u64 {
    ops.activation as u64
        + TreeAdder::new(classes).latency(ops) as u64
        + ops.activation as u64
        + ops.add as u64
}

struct LogSoftmaxWorker<E: Numeric> {
    arena: LogSoftmaxArena<E>,
}

impl<E: Numeric> StageWorker for LogSoftmaxWorker<E> {
    fn apply_into(&mut self, input: &Tensor3<f32>, out: &mut Tensor3<f32>) {
        logsoftmax_forward_into(out.as_mut_slice(), input.as_slice(), &mut self.arena);
    }
}

impl<E: Numeric> ReduceCompute for LogSoftmaxArena<E> {
    fn shape(&self) -> (usize, usize) {
        (self.classes(), self.classes())
    }

    fn compute(&mut self, inputs: &[f32], out: &mut [f32]) {
        logsoftmax_forward_into(out, inputs, self);
    }
}

/// The log-softmax cycle actor: the shared accumulate-and-drain core
/// reading one score per cycle. Weight-free; scores are quantised on
/// ingest and the normalised scores re-quantised on emission, while the
/// exp/ln pipeline stays f32 (see [`logsoftmax_forward_into`]).
fn logsoftmax_core<E: Numeric>(
    name: String,
    classes: usize,
    in_ch: ChannelId,
    out_ch: ChannelId,
    ops: &OpLatency,
) -> ReduceCore<LogSoftmaxArena<E>> {
    ReduceCore::new(
        name,
        in_ch,
        out_ch,
        1,
        drain_latency(classes, ops),
        LogSoftmaxArena::new(classes),
    )
}

impl CoreModel for LogSoftmaxModel {
    fn kind(&self) -> CoreKind {
        CoreKind::LogSoftmax
    }

    fn label(&self) -> &'static str {
        "logsoftmax"
    }

    fn feature_maps(&self, layer: &Layer) -> (usize, usize) {
        let k = classes_of(layer);
        (k, k)
    }

    fn forces_single_port(&self) -> bool {
        true
    }

    fn plan(&self, layer: &Layer, lp: LayerPorts, _config: &DesignConfig) -> CorePlan {
        let k = classes_of(layer);
        CorePlan {
            params: CoreParams {
                kind: CoreKind::LogSoftmax,
                in_fm: k,
                out_fm: k,
                in_ports: lp.in_ports,
                out_ports: lp.out_ports,
                kh: 1,
                kw: 1,
                image_w: 1,
                ii: pipeline_ii(k, lp.in_ports, k, lp.out_ports),
                weights: 0,
                accumulators: 1,
            },
            in_values_per_image: k as u64,
            positions: 0,
        }
    }

    fn estimate_interval(&self, core: &CoreInfo, config: &DesignConfig) -> u64 {
        // K reads + the max/exp/sum/ln drain + K writes, no image overlap
        let k = core.params.in_fm as u64;
        k + drain_latency(core.params.in_fm, &config.ops) + k
    }

    fn range_transfer(
        &self,
        _design: &NetworkDesign,
        core: &CoreInfo,
        spec: dfcnn_tensor::NumericSpec,
        inputs: &[crate::range::Interval],
    ) -> crate::range::Transfer {
        crate::range::logsoftmax_transfer(
            spec,
            crate::range::Interval::union_all(inputs),
            core.params.in_fm,
        )
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        format!("[{} logsoftmax K={}]", core.name, core.params.in_fm)
    }

    fn make_actor(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        with_numeric!(design.config().numeric, E => Box::new(logsoftmax_core::<E>(
            core.name.clone(),
            core.params.in_fm,
            in_chs[0],
            out_chs[0],
            &design.config().ops,
        )))
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        use crate::codegen::header;
        let info = &design.cores()[idx];
        let k = info.params.in_fm;
        let mut s = header();
        let _ = write!(
            s,
            "// log-softmax normalisation core: weight-free, single-input-port/\n\
             // single-output-port. Numerically stable form: max-shift, exp,\n\
             // adder-tree sum, ln, subtract.\n\
             void {name}(hls::stream<float> &in0, hls::stream<float> &out0) {{\n\
             #pragma HLS INTERFACE axis port=in0\n\
             #pragma HLS INTERFACE axis port=out0\n\
             \x20   float scores[{k}];\n\
             #pragma HLS ARRAY_PARTITION variable=scores complete\n\
             \x20   float m = -INFINITY;\n\
             \x20   read_max: for (int i = 0; i < {k}; ++i) {{\n\
             #pragma HLS PIPELINE II=1\n\
             \x20       scores[i] = in0.read();\n\
             \x20       m = fmaxf(m, scores[i]);\n\
             \x20   }}\n\
             \x20   float exps[{k}];\n\
             #pragma HLS ARRAY_PARTITION variable=exps complete\n\
             \x20   exponentiate: for (int i = 0; i < {k}; ++i) {{\n\
             #pragma HLS PIPELINE II=1\n\
             \x20       exps[i] = expf(scores[i] - m);\n\
             \x20   }}\n\
             \x20   float lse = logf(merge_tree_{k}(exps));\n\
             \x20   drain: for (int i = 0; i < {k}; ++i) {{\n\
             #pragma HLS PIPELINE II=1\n\
             \x20       out0.write(scores[i] - m - lse);\n\
             \x20   }}\n\
             }}\n",
            name = info.name,
            k = k,
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
        let k = classes_of(layer);
        Some(with_numeric!(config.numeric, E => StageSpec::new(
            name,
            Shape3::new(1, 1, k),
            move || {
                Box::new(LogSoftmaxWorker::<E> {
                    arena: LogSoftmaxArena::new(k),
                })
            },
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::super::reduce::harness::run_reduce;
    use super::*;
    use dfcnn_nn::layer::LogSoftmax;
    use dfcnn_tensor::Fixed16;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Stream `images` copies of `scores` through an isolated log-softmax
    /// actor at element type `E`.
    fn run_logsoftmax<E: Numeric>(scores: &[f32], images: usize) -> (Vec<Vec<f32>>, u64) {
        let ops = OpLatency::f32_virtex7();
        run_reduce(
            |i, o| logsoftmax_core::<E>("logsoftmax".into(), scores.len(), i, o, &ops),
            scores,
            images,
        )
    }

    /// The actor's output at `E` is bit-identical to the kernel the host
    /// stage worker runs, with an arena of the same element type.
    fn assert_actor_matches_kernel<E: Numeric>(scores: &[f32]) {
        let (res, _) = run_logsoftmax::<E>(scores, 1);
        let mut expect = vec![0.0; scores.len()];
        let mut arena = LogSoftmaxArena::<E>::new(scores.len());
        logsoftmax_forward_into(&mut expect, scores, &mut arena);
        assert_eq!(res[0], expect, "cycle core must be bit-identical to kernel");
    }

    fn random_scores(seed: u64, k: usize) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        dfcnn_tensor::init::random_vector(&mut rng, k, -4.0, 4.0)
            .as_slice()
            .to_vec()
    }

    #[test]
    fn actor_matches_hw_kernel_exactly() {
        let scores = random_scores(1, 10);
        assert_actor_matches_kernel::<f32>(&scores);
        assert_actor_matches_kernel::<Fixed16<8>>(&scores);
    }

    #[test]
    fn close_to_reference_layer_and_normalised() {
        let scores = random_scores(2, 10);
        let (res, _) = run_logsoftmax::<f32>(&scores, 1);
        let x = Tensor3::from_vec(Shape3::new(1, 1, 10), scores.clone());
        let reference = LogSoftmax::new(10).forward(&x);
        for (a, b) in res[0].iter().zip(reference.as_slice()) {
            // hw sums the exponentials with an adder tree, the reference
            // left-to-right: identical up to rounding
            assert!((a - b).abs() < 1e-5, "hw {a} vs reference {b}");
        }
        let prob_sum: f32 = res[0].iter().map(|v| v.exp()).sum();
        assert!(
            (prob_sum - 1.0).abs() < 1e-5,
            "probabilities sum to {prob_sum}"
        );
    }

    #[test]
    fn back_to_back_images_and_drain_gap() {
        let scores = random_scores(3, 6);
        let (res, cycles) = run_logsoftmax::<f32>(&scores, 3);
        assert_eq!(res.len(), 3);
        assert_eq!(res[0], res[1]);
        assert_eq!(res[1], res[2]);
        let ops = OpLatency::f32_virtex7();
        // each image pays at least reads + drain + writes
        assert!(cycles >= 3 * (6 + drain_latency(6, &ops) + 6) - 8);
        let (fixed, _) = run_logsoftmax::<Fixed16<8>>(&scores, 3);
        assert_eq!(fixed[0], fixed[2]);
    }

    #[test]
    fn plan_is_single_port_and_weight_free() {
        let m = LogSoftmaxModel;
        let layer = Layer::LogSoftmax(LogSoftmax::new(10));
        assert!(m.forces_single_port());
        let plan = m.plan(&layer, LayerPorts::SINGLE, &DesignConfig::default());
        assert_eq!(plan.params.kind, CoreKind::LogSoftmax);
        assert_eq!(plan.params.weights, 0);
        assert_eq!(plan.params.in_fm, 10);
        assert_eq!(plan.in_values_per_image, 10);
        assert_eq!(plan.positions, 0);
    }
}
