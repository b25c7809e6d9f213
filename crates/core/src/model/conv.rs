//! The convolutional layer kind (§IV-A, Algorithm 1).

use super::window::{WindowCompute, WindowCore};
use super::{CoreModel, CorePlan, LineBufferSpec, StageSpec, StageWorker, StaticProfile};
use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign};
use crate::kernel::{conv_forward_hw_into, ConvArena};
use crate::sim::Actor;
use crate::sst::full_buffer_bound_per_port;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_hls::latency::OpLatency;
use dfcnn_hls::pipeline::LoopNest;
use dfcnn_nn::act::Activation;
use dfcnn_nn::layer::{Conv2d, Layer};
use dfcnn_tensor::{with_numeric, Numeric, Tensor3};
use std::fmt::Write as _;

/// The conv [`CoreModel`].
pub struct ConvModel;

fn conv_layer(layer: &Layer) -> &Conv2d {
    match layer {
        Layer::Conv(c) => c,
        _ => unreachable!("conv model handed a non-conv layer"),
    }
}

/// Steady-state interval of a windowed (conv/pool) core: the max of
/// per-port input serialisation, the Eq. 4 initiation schedule, and
/// per-port output serialisation.
pub(crate) fn windowed_interval(core: &CoreInfo) -> u64 {
    let p = &core.params;
    let per_port_in = core.in_values_per_image / p.in_ports as u64;
    let initiations = core.positions * p.ii as u64;
    let out_serial = core.positions * (p.out_fm / p.out_ports) as u64;
    per_port_in.max(initiations).max(out_serial)
}

/// The conv per-window compute (Algorithm 1's body): the host stage's
/// [`ConvArena`] quantises the window, runs the packed hardware-order
/// kernel and dequantises (every conversion is the identity for
/// `E = f32`).
struct ConvWindow<E: Numeric> {
    arena: ConvArena<E>,
    activation: Activation,
    in_ports: usize,
}

impl<E: Numeric> WindowCompute for ConvWindow<E> {
    fn outputs(&self) -> usize {
        self.arena.outputs()
    }

    fn compute(&mut self, window: &[f32], out: &mut [f32]) {
        self.arena
            .window_into(window, self.activation, self.in_ports, out);
    }
}

/// The conv cycle actor: the shared windowed core running [`ConvWindow`]
/// at the Eq. 4 interval `ii`, with the conv body's pipeline depth.
fn conv_core<E: Numeric>(
    name: String,
    conv: &Conv2d,
    in_chs: Vec<ChannelId>,
    out_chs: Vec<ChannelId>,
    ii: usize,
    ops: &OpLatency,
) -> WindowCore<ConvWindow<E>> {
    let geo = *conv.geometry();
    let in_ports = in_chs.len();
    let kernel = ConvWindow {
        arena: ConvArena::new(conv, in_ports),
        activation: conv.activation(),
        in_ports,
    };
    let depth = LoopNest::conv_body_depth(in_ports * geo.kh * geo.kw, ops) as u64;
    WindowCore::new(name, geo, in_chs, out_chs, ii, depth, kernel)
}

struct ConvWorker<E: Numeric> {
    layer: Conv2d,
    in_ports: usize,
    arena: Box<ConvArena<E>>,
}

impl<E: Numeric> StageWorker for ConvWorker<E> {
    fn apply_into(&mut self, input: &Tensor3<f32>, out: &mut Tensor3<f32>) {
        conv_forward_hw_into(&self.layer, self.in_ports, input, out, &mut self.arena);
    }
}

impl CoreModel for ConvModel {
    fn kind(&self) -> CoreKind {
        CoreKind::Conv
    }

    fn label(&self) -> &'static str {
        "conv"
    }

    fn feature_maps(&self, layer: &Layer) -> (usize, usize) {
        let c = conv_layer(layer);
        (c.geometry().input.c, c.out_maps())
    }

    fn plan(&self, layer: &Layer, lp: LayerPorts, _config: &DesignConfig) -> CorePlan {
        let c = conv_layer(layer);
        let g = c.geometry();
        let (in_fm, out_fm) = (g.input.c, c.out_maps());
        CorePlan {
            params: CoreParams {
                kind: CoreKind::Conv,
                in_fm,
                out_fm,
                in_ports: lp.in_ports,
                out_ports: lp.out_ports,
                kh: g.kh,
                kw: g.kw,
                image_w: g.input.w,
                ii: pipeline_ii(in_fm, lp.in_ports, out_fm, lp.out_ports),
                weights: c.filters().len(),
                accumulators: 1,
            },
            in_values_per_image: (g.input.h * g.input.w) as u64 * in_fm as u64,
            positions: g.positions() as u64,
        }
    }

    fn estimate_interval(&self, core: &CoreInfo, _config: &DesignConfig) -> u64 {
        windowed_interval(core)
    }

    fn range_transfer(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        spec: dfcnn_tensor::NumericSpec,
        inputs: &[crate::range::Interval],
    ) -> crate::range::Transfer {
        let idx = core.layer_index.expect("conv core has a layer");
        let c = conv_layer(&design.network().layers()[idx]);
        let mut input = crate::range::Interval::union_all(inputs);
        if c.geometry().pad > 0 {
            // zero padding injects exact zeros into the window
            input = input.include_zero();
        }
        let f = c.filters();
        let bias = c.bias().as_slice();
        let channels = (0..f.k()).map(|k| {
            let weights = (0..f.kh()).flat_map(move |dy| {
                (0..f.kw())
                    .flat_map(move |dx| (0..f.c()).map(move |ch| f64::from(f.get(k, dy, dx, ch))))
            });
            (weights, f64::from(bias[k]))
        });
        crate::range::mac_transfer(spec, input, channels, c.activation())
    }

    fn static_profile(&self, design: &NetworkDesign, core: &CoreInfo) -> StaticProfile {
        let idx = core.layer_index.expect("conv core has a layer");
        let layer = &design.network().layers()[idx];
        let g = *conv_layer(layer).geometry();
        let lp = LayerPorts {
            in_ports: core.params.in_ports,
            out_ports: core.params.out_ports,
        };
        let required = full_buffer_bound_per_port(&g, core.params.in_ports);
        StaticProfile {
            out_values_per_image: g.positions() as u64 * conv_layer(layer).out_maps() as u64,
            expected_ii: self.plan(layer, lp, design.config()).params.ii,
            line_buffer: Some(LineBufferSpec {
                capacity_per_port: design.config().line_buffer_cap.unwrap_or(required),
                required_per_port: required,
            }),
        }
    }

    fn block_label(&self, core: &CoreInfo) -> String {
        let p = &core.params;
        format!(
            "[{} {}x{} {}->{}FM in:{} out:{} II={}]",
            core.name, p.kh, p.kw, p.in_fm, p.out_fm, p.in_ports, p.out_ports, p.ii
        )
    }

    fn make_actor(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        let idx = core.layer_index.expect("conv core has a layer");
        let l = conv_layer(&design.network().layers()[idx]);
        with_numeric!(design.config().numeric, E => Box::new(
            conv_core::<E>(
                core.name.clone(),
                l,
                in_chs,
                out_chs,
                core.params.ii,
                &design.config().ops,
            )
            .with_line_buffer_cap(design.config().line_buffer_cap),
        ))
    }

    fn emit_cpp(&self, design: &NetworkDesign, idx: usize) -> String {
        use crate::codegen::{header, interface_pragmas, stream_args, weight_array};
        let info = &design.cores()[idx];
        let p = &info.params;
        let layer = conv_layer(&design.network().layers()[info.layer_index.unwrap()]);
        let geo = layer.geometry();
        let mut s = header();
        s.push_str(&weight_array(
            &format!("{}_weights", info.name),
            layer.filters().as_slice(),
        ));
        s.push_str(&weight_array(
            &format!("{}_bias", info.name),
            layer.bias().as_slice(),
        ));
        let _ = write!(
            s,
            "\n// convolutional layer: {in_fm} -> {out_fm} FMs, {kh}x{kw} window, stride {st},\n\
             // IN_PORTS={ip}, OUT_PORTS={op}, Eq.4 II={ii}\n\
             void {name}({ins}, {outs}) {{\n{ipr}{opr}",
            in_fm = p.in_fm,
            out_fm = p.out_fm,
            kh = p.kh,
            kw = p.kw,
            st = geo.stride,
            ip = p.in_ports,
            op = p.out_ports,
            ii = p.ii,
            name = info.name,
            ins = stream_args("in", p.in_ports),
            outs = stream_args("out", p.out_ports),
            ipr = interface_pragmas("in", p.in_ports),
            opr = interface_pragmas("out", p.out_ports),
        );
        let chpp = p.in_fm / p.in_ports;
        let line_words = (p.kh - 1) * p.image_w * chpp + p.kw * chpp;
        let _ = write!(
            s,
            "\n    // SST memory structure: full-buffering line buffer per port\n\
             \x20   static float line[{ip}][{lw}];\n\
             \x20   float window[{ip}][{win}];\n\
             #pragma HLS ARRAY_PARTITION variable=window complete dim=0\n\
             \x20   float outputs[{of}];\n\
             #pragma HLS ARRAY_PARTITION variable=outputs complete\n\n\
             \x20   for (int y = 0; y < {oh}; ++y) {{\n\
             \x20       for (int x = 0; x < {ow}; ++x) {{\n\
             #pragma HLS PIPELINE II={ii}\n\
             \x20           // Algorithm 1: outputs <- biases\n\
             \x20           for (int k = 0; k < {of}; ++k) outputs[k] = {name}_bias[k];\n\
             \x20           // shift the window registers from the line buffers\n\
             \x20           read_window: for (int p = 0; p < {ip}; ++p)\n\
             #pragma HLS PIPELINE II=1\n\
             \x20               shift_window(in0 /* filters chain */, line[p], window[p]);\n\
             \x20           // for i = 0 to IN_FM step IN_PORTS\n\
             \x20           for (int g = 0; g < {groups}; ++g) {{\n\
             \x20               float buf[{grouplen}];\n\
             #pragma HLS ARRAY_PARTITION variable=buf complete\n\
             \x20               for (int k = 0; k < {of}; ++k) {{\n\
             \x20                   // buf <- buf * weights; outputs += reduce(buf)\n\
             \x20                   outputs[k] += reduce_tree_{grouplen}(buf, &{name}_weights[k * {fweights}]);\n\
             \x20               }}\n\
             \x20           }}\n\
             \x20           // send outputs on OUT_PORTS ports, interleaved\n\
             \x20           for (int k = 0; k < {of}; ++k) write_out(k % {op}, activation(outputs[k]));\n\
             \x20       }}\n\
             \x20   }}\n\
             }}\n",
            ip = p.in_ports,
            lw = line_words,
            win = p.kh * p.kw * chpp,
            of = p.out_fm,
            oh = geo.out_h(),
            ow = geo.out_w(),
            ii = p.ii,
            name = info.name,
            groups = p.in_fm / p.in_ports,
            grouplen = p.in_ports * p.kh * p.kw,
            fweights = p.kh * p.kw * p.in_fm,
            op = p.out_ports,
        );
        s
    }

    fn stage(
        &self,
        name: String,
        layer: &Layer,
        lp: LayerPorts,
        config: &DesignConfig,
    ) -> Option<StageSpec> {
        let c = conv_layer(layer).clone();
        let in_ports = lp.in_ports;
        Some(with_numeric!(config.numeric, E => StageSpec::new(
            name,
            c.output_shape(),
            move || {
                Box::new(ConvWorker::<E> {
                    arena: Box::new(ConvArena::new(&c, in_ports)),
                    layer: c.clone(),
                    in_ports,
                })
            },
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::super::window::harness::run_window;
    use super::*;
    use dfcnn_tensor::{ConvGeometry, Fixed16, Shape3, Tensor1, Tensor4};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_conv() -> Layer {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = dfcnn_nn::topology::NetworkSpec::test_case_1().build(&mut rng);
        net.layers()[0].clone()
    }

    #[test]
    fn validate_rejects_non_divisor_ports_with_layer_name() {
        let m = ConvModel;
        let layer = small_conv();
        let err = m
            .validate(
                "conv1",
                &layer,
                LayerPorts {
                    in_ports: 1,
                    out_ports: 4,
                },
            )
            .unwrap_err();
        assert!(err.starts_with("conv1:"), "{err}");
        assert!(err.contains("does not divide"), "{err}");
        assert!(m.validate("conv1", &layer, LayerPorts::SINGLE).is_ok());
    }

    #[test]
    fn emitted_cpp_hardcodes_the_trained_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = dfcnn_nn::topology::NetworkSpec::test_case_1().build(&mut rng);
        let design = crate::graph::NetworkDesign::new(
            &net,
            crate::graph::PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap();
        let src = ConvModel.emit_cpp(&design, 0);
        let layer = conv_layer(&design.network().layers()[0]);
        let w = layer.filters().get(0, 0, 0, 0);
        assert!(
            src.contains(&crate::codegen::lit(w)),
            "first weight must be in the source"
        );
    }

    #[test]
    fn plan_carries_eq4_ii() {
        let m = ConvModel;
        let layer = small_conv();
        // TC1 conv1 fully parallel: 1 in-FM on 1 port, 6 out-FMs on 6 ports
        let plan = m.plan(
            &layer,
            LayerPorts {
                in_ports: 1,
                out_ports: 6,
            },
            &DesignConfig::default(),
        );
        assert_eq!(plan.params.ii, 1);
        assert_eq!(plan.params.weights, 150);
        assert_eq!(plan.in_values_per_image, 16 * 16);
        // 5x5 window over a 16x16 input, stride 1 -> 12x12 positions
        assert_eq!(plan.positions, 12 * 12);
    }

    /// Stream one image through an isolated conv actor at element type `E`
    /// and the Eq. 4 II of its port choice.
    fn run_conv<E: Numeric>(
        conv: &Conv2d,
        in_ports: usize,
        out_ports: usize,
        img: &Tensor3<f32>,
    ) -> (Tensor3<f32>, u64) {
        let ii = pipeline_ii(
            conv.geometry().input.c,
            in_ports,
            conv.out_maps(),
            out_ports,
        );
        let ops = OpLatency::f32_virtex7();
        run_window(
            in_ports,
            out_ports,
            |ins, outs| conv_core::<E>("conv".into(), conv, ins, outs, ii, &ops),
            img,
            conv.output_shape(),
        )
    }

    /// The actor's output at `E` is bit-identical to the kernel the host
    /// stage worker runs, with an arena of the same element type.
    fn assert_actor_matches_kernel<E: Numeric>(
        conv: &Conv2d,
        in_ports: usize,
        out_ports: usize,
        img: &Tensor3<f32>,
    ) -> Tensor3<f32> {
        let (out, _) = run_conv::<E>(conv, in_ports, out_ports, img);
        let mut expect = Tensor3::zeros(conv.output_shape());
        let mut arena = ConvArena::<E>::new(conv, in_ports);
        conv_forward_hw_into(conv, in_ports, img, &mut expect, &mut arena);
        assert_eq!(out, expect, "cycle core must be bit-identical to kernel");
        out
    }

    /// [`assert_actor_matches_kernel`] at f32 and at q16f8.
    fn assert_matches_at_both_numerics(
        conv: &Conv2d,
        in_ports: usize,
        out_ports: usize,
        img: &Tensor3<f32>,
    ) {
        assert_actor_matches_kernel::<f32>(conv, in_ports, out_ports, img);
        assert_actor_matches_kernel::<Fixed16<8>>(conv, in_ports, out_ports, img);
    }

    fn random_conv(
        seed: u64,
        shape: Shape3,
        k: usize,
        khw: usize,
        stride: usize,
    ) -> (Conv2d, Tensor3<f32>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let geo = ConvGeometry::new(shape, khw, khw, stride, 0);
        let f = dfcnn_tensor::init::conv_filters(&mut rng, k, khw, khw, shape.c);
        let b = dfcnn_tensor::init::random_vector(&mut rng, k, -0.1, 0.1);
        let conv = Conv2d::new(geo, f, b, Activation::Tanh);
        let img = dfcnn_tensor::init::random_volume(&mut rng, shape, -1.0, 1.0);
        (conv, img)
    }

    #[test]
    fn single_port_core_matches_hw_kernel_exactly() {
        let (conv, img) = random_conv(1, Shape3::new(8, 8, 3), 4, 3, 1);
        assert_matches_at_both_numerics(&conv, 1, 1, &img);
    }

    #[test]
    fn fully_parallel_core_matches() {
        let (conv, img) = random_conv(2, Shape3::new(6, 6, 2), 4, 3, 1);
        assert_eq!(pipeline_ii(2, 2, 4, 4), 1);
        assert_matches_at_both_numerics(&conv, 2, 4, &img);
    }

    #[test]
    fn mixed_ports_match() {
        let (conv, img) = random_conv(3, Shape3::new(7, 7, 4), 6, 3, 1);
        assert_matches_at_both_numerics(&conv, 2, 2, &img);
    }

    #[test]
    fn higher_ii_takes_proportionally_longer() {
        let (conv, img) = random_conv(4, Shape3::new(10, 10, 1), 4, 3, 1);
        // 1 -> 4 ports runs at II = 1, 1 -> 1 port at II = 4
        let (_, fast) = run_conv::<f32>(&conv, 1, 4, &img);
        let (_, slow) = run_conv::<f32>(&conv, 1, 1, &img);
        // 64 windows: II=4 adds ~3*63 cycles over II=1
        assert!(
            slow > fast + 150,
            "II=4 run ({slow}) should be much slower than II=1 ({fast})"
        );
    }

    #[test]
    fn strided_core_matches() {
        let (conv, img) = random_conv(5, Shape3::new(8, 8, 2), 2, 2, 2);
        assert_matches_at_both_numerics(&conv, 1, 1, &img);
    }

    #[test]
    fn identity_1x1_core_passes_values() {
        let geo = ConvGeometry::new(Shape3::new(3, 3, 1), 1, 1, 1, 0);
        let mut f = Tensor4::zeros(1, 1, 1, 1);
        f.set(0, 0, 0, 0, 1.0);
        let conv = Conv2d::new(geo, f, Tensor1::zeros(1), Activation::Identity);
        // small integers are exact in both numerics
        let img = Tensor3::from_fn(Shape3::new(3, 3, 1), |y, x, _| (y * 3 + x) as f32);
        assert_eq!(assert_actor_matches_kernel::<f32>(&conv, 1, 1, &img), img);
        assert_eq!(
            assert_actor_matches_kernel::<Fixed16<8>>(&conv, 1, 1, &img),
            img
        );
    }
}
