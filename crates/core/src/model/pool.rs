//! The sub-sampling (pooling) layer kind (§IV-A).

use super::conv::windowed_interval;
use super::window::{WindowCompute, WindowCore};
use super::{CoreModel, CorePlan, LineBufferSpec, StageSpec, StageWorker, StaticProfile};
use crate::graph::{CoreInfo, DesignConfig, LayerPorts, NetworkDesign};
use crate::kernel::{pool_forward_hw_into, pool_window, PoolArena};
use crate::sim::Actor;
use crate::sst::full_buffer_bound_per_port;
use crate::stream::ChannelId;
use dfcnn_fpga::resources::{CoreKind, CoreParams};
use dfcnn_hls::ii::pipeline_ii;
use dfcnn_hls::latency::OpLatency;
use dfcnn_hls::reduce::TreeAdder;
use dfcnn_nn::layer::{Layer, Pool2d, PoolKind};
use dfcnn_tensor::{with_numeric, Numeric, Tensor3};
use std::fmt::Write as _;

/// The pooling [`CoreModel`].
pub struct PoolModel;

fn pool_layer(layer: &Layer) -> &Pool2d {
    match layer {
        Layer::Pool(p) => p,
        _ => unreachable!("pool model handed a non-pool layer"),
    }
}

/// The pooling per-window compute. §IV-C: "as there is no combination
/// between FM and rather just a sub-sampling of each FM, it is possible to
/// insert parallel sub-sampling layer cores, one for each previous layer
/// output port". The whole bank of parallel cores pools each channel's
/// `KH·KW` slice of the window independently, quantised on the way in and
/// dequantised on the way out (identities for `E = f32`).
struct PoolWindow<E> {
    kind: PoolKind,
    channels: usize,
    qvals: Vec<E>,
}

impl<E: Numeric> WindowCompute for PoolWindow<E> {
    fn outputs(&self) -> usize {
        self.channels
    }

    fn compute(&mut self, window: &[f32], out: &mut [f32]) {
        for (o, chan) in out.iter_mut().zip(window.chunks_exact(self.qvals.len())) {
            for (q, &v) in self.qvals.iter_mut().zip(chan) {
                *q = E::from_f32(v);
            }
            *o = pool_window(self.kind, &self.qvals).to_f32();
        }
    }
}

/// The pooling cycle actor: the shared windowed core running
/// [`PoolWindow`] at the Eq. 4 interval `ii`, behind a comparator tree
/// (max) or an adder tree plus the `1/(KH·KW)` scale (mean).
fn pool_core<E: Numeric>(
    name: String,
    pool: &Pool2d,
    in_chs: Vec<ChannelId>,
    out_chs: Vec<ChannelId>,
    ii: usize,
    ops: &OpLatency,
) -> WindowCore<PoolWindow<E>> {
    let geo = *pool.geometry();
    let win = geo.kh * geo.kw;
    let depth = match pool.kind() {
        PoolKind::Max => TreeAdder::new(win).depth() as u64 * ops.cmp as u64,
        PoolKind::Mean => TreeAdder::new(win).latency(ops) as u64 + ops.mul as u64,
    }
    .max(1);
    let kernel = PoolWindow {
        kind: pool.kind(),
        channels: geo.input.c,
        qvals: vec![E::zero(); win],
    };
    WindowCore::new(name, geo, in_chs, out_chs, ii, depth, kernel)
}

struct PoolWorker<E: Numeric> {
    layer: Pool2d,
    arena: PoolArena<E>,
}

impl<E: Numeric> StageWorker for PoolWorker<E> {
    fn apply_into(&mut self, input: &Tensor3<f32>, out: &mut Tensor3<f32>) {
        pool_forward_hw_into(&self.layer, input, out, &mut self.arena);
    }
}

impl CoreModel for PoolModel {
    fn kind(&self) -> CoreKind {
        CoreKind::Pool
    }

    fn label(&self) -> &'static str {
        "pool"
    }

    fn feature_maps(&self, layer: &Layer) -> (usize, usize) {
        let c = pool_layer(layer).geometry().input.c;
        (c, c)
    }

    fn plan(&self, layer: &Layer, lp: LayerPorts, _config: &DesignConfig) -> CorePlan {
        let p = pool_layer(layer);
        let g = p.geometry();
        let fm = g.input.c;
        CorePlan {
            params: CoreParams {
                kind: CoreKind::Pool,
                in_fm: fm,
                out_fm: fm,
                in_ports: lp.in_ports,
                out_ports: lp.out_ports,
                kh: g.kh,
                kw: g.kw,
                image_w: g.input.w,
                ii: pipeline_ii(fm, lp.in_ports, fm, lp.out_ports),
                weights: 0,
                accumulators: 1,
            },
            in_values_per_image: (g.input.h * g.input.w) as u64 * fm as u64,
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
        let idx = core.layer_index.expect("pool core has a layer");
        let p = pool_layer(&design.network().layers()[idx]);
        let g = p.geometry();
        let mut input = crate::range::Interval::union_all(inputs);
        if g.pad > 0 {
            input = input.include_zero();
        }
        match p.kind() {
            PoolKind::Max => crate::range::pool_max_transfer(spec, input),
            PoolKind::Mean => crate::range::pool_mean_transfer(spec, input, g.kh * g.kw),
        }
    }

    fn static_profile(&self, design: &NetworkDesign, core: &CoreInfo) -> StaticProfile {
        let idx = core.layer_index.expect("pool core has a layer");
        let layer = &design.network().layers()[idx];
        let g = *pool_layer(layer).geometry();
        let lp = LayerPorts {
            in_ports: core.params.in_ports,
            out_ports: core.params.out_ports,
        };
        let required = full_buffer_bound_per_port(&g, core.params.in_ports);
        StaticProfile {
            out_values_per_image: g.positions() as u64 * g.input.c as u64,
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
            "[{} {}x{} {}FM in:{} out:{}]",
            core.name, p.kh, p.kw, p.in_fm, p.in_ports, p.out_ports
        )
    }

    fn make_actor(
        &self,
        design: &NetworkDesign,
        core: &CoreInfo,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
    ) -> Box<dyn Actor> {
        let idx = core.layer_index.expect("pool core has a layer");
        let l = pool_layer(&design.network().layers()[idx]);
        with_numeric!(design.config().numeric, E => Box::new(
            pool_core::<E>(
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
        use crate::codegen::{header, interface_pragmas, stream_args};
        let info = &design.cores()[idx];
        let p = &info.params;
        let layer = pool_layer(&design.network().layers()[info.layer_index.unwrap()]);
        let op_name = match layer.kind() {
            PoolKind::Max => "fmaxf",
            PoolKind::Mean => "mean",
        };
        let mut s = header();
        let _ = write!(
            s,
            "// sub-sampling layer: {fm} FMs, {kh}x{kw} window, stride {st},\n\
             // one parallel pooling core per port (perfect pipelining, SIV-C)\n\
             void {name}({ins}, {outs}) {{\n{ipr}{opr}\
             \x20   for (int y = 0; y < {oh}; ++y)\n\
             \x20       for (int x = 0; x < {ow}; ++x)\n\
             #pragma HLS PIPELINE II={ii}\n\
             \x20           for (int c = 0; c < {chpp}; ++c)\n\
             \x20               emit(window_{op_name}(/* per-channel {kh}x{kw} window */));\n\
             }}\n",
            fm = p.in_fm,
            kh = p.kh,
            kw = p.kw,
            st = layer.geometry().stride,
            name = info.name,
            ins = stream_args("in", p.in_ports),
            outs = stream_args("out", p.out_ports),
            ipr = interface_pragmas("in", p.in_ports),
            opr = interface_pragmas("out", p.out_ports),
            oh = layer.geometry().out_h(),
            ow = layer.geometry().out_w(),
            ii = p.ii,
            chpp = p.in_fm / p.in_ports,
            op_name = op_name,
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
        let p = pool_layer(layer).clone();
        Some(with_numeric!(config.numeric, E => StageSpec::new(
            name,
            p.output_shape(),
            move || {
                Box::new(PoolWorker::<E> {
                    arena: PoolArena::new(&p),
                    layer: p.clone(),
                })
            },
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::super::window::harness::run_window;
    use super::*;
    use dfcnn_tensor::{ConvGeometry, Fixed16, Shape3};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_pool() -> Layer {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let net = dfcnn_nn::topology::NetworkSpec::test_case_1().build(&mut rng);
        net.layers()[1].clone()
    }

    #[test]
    fn validate_enforces_divisibility_per_side() {
        let m = PoolModel;
        let layer = small_pool();
        // TC1 pool has 6 FMs
        assert!(m
            .validate(
                "pool1",
                &layer,
                LayerPorts {
                    in_ports: 6,
                    out_ports: 6,
                },
            )
            .is_ok());
        let err = m
            .validate(
                "pool1",
                &layer,
                LayerPorts {
                    in_ports: 5,
                    out_ports: 1,
                },
            )
            .unwrap_err();
        assert!(err.contains("does not divide IN_FM"), "{err}");
        let err = m
            .validate(
                "pool1",
                &layer,
                LayerPorts {
                    in_ports: 1,
                    out_ports: 0,
                },
            )
            .unwrap_err();
        assert!(err.contains("port counts must be non-zero"), "{err}");
    }

    #[test]
    fn plan_is_weight_free_and_symmetric() {
        let m = PoolModel;
        let plan = m.plan(&small_pool(), LayerPorts::SINGLE, &DesignConfig::default());
        assert_eq!(plan.params.weights, 0);
        assert_eq!(plan.params.in_fm, plan.params.out_fm);
        assert_eq!(plan.params.ii, 6, "single-port 6-FM pool: II = 6");
    }

    /// Stream one image through an isolated pooling actor at element type
    /// `E` and assert it is bit-identical to the kernel the host stage
    /// worker runs, with an arena of the same element type.
    fn assert_actor_matches_kernel<E: Numeric>(
        pool: &Pool2d,
        in_ports: usize,
        out_ports: usize,
        img: &Tensor3<f32>,
    ) {
        let fm = pool.geometry().input.c;
        let ii = pipeline_ii(fm, in_ports, fm, out_ports);
        let ops = OpLatency::f32_virtex7();
        let (out, _) = run_window(
            in_ports,
            out_ports,
            |ins, outs| pool_core::<E>("pool".into(), pool, ins, outs, ii, &ops),
            img,
            pool.output_shape(),
        );
        let mut expect = Tensor3::zeros(pool.output_shape());
        pool_forward_hw_into(pool, img, &mut expect, &mut PoolArena::<E>::new(pool));
        assert_eq!(out, expect, "cycle core must be bit-identical to kernel");
    }

    /// [`assert_actor_matches_kernel`] at f32 and at q16f8 on a seeded
    /// random image.
    fn assert_matches_at_both_numerics(
        pool: &Pool2d,
        in_ports: usize,
        out_ports: usize,
        seed: u64,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let img = dfcnn_tensor::init::random_volume(&mut rng, pool.geometry().input, -1.0, 1.0);
        assert_actor_matches_kernel::<f32>(pool, in_ports, out_ports, &img);
        assert_actor_matches_kernel::<Fixed16<8>>(pool, in_ports, out_ports, &img);
    }

    #[test]
    fn maxpool_single_port_matches_kernel() {
        let geo = ConvGeometry::new(Shape3::new(6, 6, 3), 2, 2, 2, 0);
        assert_matches_at_both_numerics(&Pool2d::new(geo, PoolKind::Max), 1, 1, 1);
    }

    #[test]
    fn maxpool_parallel_ports_match() {
        // the paper's TC1 configuration: one pool core per port
        let geo = ConvGeometry::new(Shape3::new(12, 12, 6), 2, 2, 2, 0);
        assert_matches_at_both_numerics(&Pool2d::new(geo, PoolKind::Max), 6, 6, 2);
    }

    #[test]
    fn meanpool_matches() {
        let geo = ConvGeometry::new(Shape3::new(4, 4, 2), 2, 2, 2, 0);
        assert_matches_at_both_numerics(&Pool2d::new(geo, PoolKind::Mean), 2, 2, 3);
    }

    #[test]
    fn port_reduction_matches() {
        // 4 channels in on 4 ports, out on 2 ports
        let geo = ConvGeometry::new(Shape3::new(4, 4, 4), 2, 2, 2, 0);
        assert_matches_at_both_numerics(&Pool2d::new(geo, PoolKind::Max), 4, 2, 4);
    }

    #[test]
    fn fully_parallel_pool_ii_is_one() {
        let geo = ConvGeometry::new(Shape3::new(4, 4, 6), 2, 2, 2, 0);
        let layer = Layer::Pool(Pool2d::new(geo, PoolKind::Max));
        let lp = LayerPorts {
            in_ports: 6,
            out_ports: 6,
        };
        let plan = PoolModel.plan(&layer, lp, &DesignConfig::default());
        assert_eq!(plan.params.ii, 1);
    }
}
