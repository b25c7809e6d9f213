//! The timed part of a run: untraced for the end-to-end metrics, traced
//! for the per-layer ones.
//!
//! Both modes interleave their phases: each round makes one repetition of
//! every phase, and rounds repeat until the run's time is spent. The
//! host's speed drifts over seconds, and interleaving spreads every
//! metric's repetitions over the whole run instead of letting one slow
//! stretch land on one metric.

use crate::ledger::{traced_pass, StageLedger};
use crate::procfs::{process_cpu_ns, ThreadClock};
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{stage_kind, stage_macs, DseSummary, Explore, Inputs, Stream, DSE_MAX_PORTS};
use dfcnn_core::check::{check_design, RuleId};
use dfcnn_core::dse::{enumerate_graph_configs, explore_graph_numerics, DseDiscards};
use dfcnn_core::graph::build_graph_design;
use dfcnn_core::model::{host_pipeline, HostStage};
use dfcnn_core::sim::SimResult;
use dfcnn_tensor::{Shape3, Tensor3};
use std::io;
use std::time::{Duration, Instant};

/// Timed rounds every run makes at least, after its warm-up round.
const MIN_ROUNDS: usize = 3;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Operations attempted and operations whose result failed its check.
/// An operation is an image, a simulated image or a DSE candidate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose result failed its check.
    pub failed: u64,
}

impl Tally {
    /// Count one batch of host outputs against the reference, bit for bit.
    fn images(&mut self, got: &[Tensor3<f32>], want: &[Tensor3<f32>]) {
        self.attempted += want.len() as u64;
        let matching = got.iter().zip(want).filter(|(g, w)| g == w).count();
        self.failed += (want.len() - matching) as u64;
    }

    /// Count a simulated batch: the simulator's scores must equal the
    /// host engine's outputs bit for bit.
    fn simulated(&mut self, got: &Result<SimResult, String>, want: &[Tensor3<f32>]) {
        self.attempted += want.len() as u64;
        let matching = match got {
            Ok(r) => r
                .outputs
                .iter()
                .zip(want)
                .filter(|(g, w)| g.as_slice() == w.as_slice())
                .count(),
            Err(_) => 0,
        };
        self.failed += (want.len() - matching) as u64;
    }

    /// Count a sweep: its candidates all fail if the summary differs from
    /// the serial reference's.
    fn sweep(&mut self, got: &DseSummary, want: &DseSummary) {
        self.attempted += want.candidates as u64;
        if got != want {
            self.failed += want.candidates as u64;
        }
    }

    /// The failed share of attempted operations.
    pub fn failed_fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Run `round(false)` once as an unrecorded warm-up, then `round(true)`
/// until `budget` has passed and at least [`MIN_ROUNDS`] rounds were
/// recorded.
fn rounds(budget: Duration, mut round: impl FnMut(bool) -> io::Result<()>) -> io::Result<()> {
    round(false)?;
    let start = Instant::now();
    let mut done = 0;
    while done < MIN_ROUNDS || start.elapsed() < budget {
        round(true)?;
        done += 1;
    }
    Ok(())
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Call `f` under a span named `name` inside `parent`, adding the
/// seconds it took to `acc`.
fn timed<T>(
    spans: &mut Spans,
    name: u32,
    id: u64,
    parent: u32,
    acc: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let span = spans.open(name, id, Some(parent));
    let t = Instant::now();
    let out = f();
    *acc += secs(t);
    spans.close(span, None);
    out
}

fn run_sim(sim: dfcnn_core::sim::Simulator) -> Result<SimResult, String> {
    sim.try_run().map(|(r, _)| r).map_err(|e| e.to_string())
}

fn explore_parallel(x: &Explore) -> DseSummary {
    let report = explore_graph_numerics(
        &x.spec,
        &x.layers,
        &x.config,
        &x.cost,
        &x.device,
        DSE_MAX_PORTS,
        &[x.config.numeric],
    );
    DseSummary::of(&report)
}

/// Per-repetition rates of one end-to-end metric.
pub struct Samples {
    /// The metric the rates reduce to (their median).
    pub name: &'static str,
    /// One rate per timed repetition, in units per second.
    pub rates: Vec<f64>,
}

/// The end-to-end phases, one repetition each per round: the batch
/// through `run_pipelined` (plan profiling included) and through
/// `run_sequential`, a simulated batch (instantiation included), and a
/// parallel sweep. Each metric is the median rate of its repetitions.
pub fn end_to_end(
    inputs: &Inputs,
    sim_batch: usize,
    budget: Duration,
    tally: &mut Tally,
) -> io::Result<(Vec<Metric>, Vec<Samples>)> {
    let s = &inputs.stream;
    let x = &inputs.explore;
    let n = s.images.len() as f64;
    let (sim_images, sim_reference) = (&s.images[..sim_batch], &s.reference[..sim_batch]);
    let mut samples = [
        "images_per_s",
        "sequential_images_per_s",
        "sim_cycles_per_s",
        "candidates_per_s",
    ]
    .map(|name| Samples {
        name,
        rates: Vec::new(),
    });
    rounds(budget, |record| {
        let t = Instant::now();
        let (res, _) = s.engine.run_pipelined(&s.images);
        let pipelined = n / secs(t);
        tally.images(&res.outputs, &s.reference);

        let t = Instant::now();
        let res = s.engine.run_sequential(&s.images);
        let sequential = n / secs(t);
        tally.images(&res.outputs, &s.reference);

        let t = Instant::now();
        let res = run_sim(s.design.instantiate(sim_images));
        let wall = secs(t);
        tally.simulated(&res, sim_reference);
        let simulated = res.map(|r| r.cycles as f64 / wall);

        let t = Instant::now();
        let got = explore_parallel(x);
        let swept = got.candidates as f64 / secs(t);
        tally.sweep(&got, &x.reference);

        if record {
            samples[0].rates.push(pipelined);
            samples[1].rates.push(sequential);
            if let Ok(rate) = simulated {
                samples[2].rates.push(rate);
            }
            samples[3].rates.push(swept);
        }
        Ok(())
    })?;
    let metrics = samples
        .iter()
        .map(|s| metric(s.name, median_or_zero(&s.rates), "1/s"))
        .collect();
    Ok((metrics, samples.into()))
}

/// Per-stage results of the traced model phase, kept for the record.
pub struct StageRow {
    /// Stage name.
    pub name: String,
    /// CPU nanoseconds per image.
    pub cpu_ns: f64,
    /// MACs per image (0 for stages without MACs).
    pub macs: u64,
}

/// Giga-MACs per second of CPU time (MACs per ns); 0 when no CPU time
/// was measured.
pub fn gmac_per_s(macs: u64, cpu_ns: f64) -> f64 {
    if cpu_ns > 0.0 {
        macs as f64 / cpu_ns
    } else {
        0.0
    }
}

/// Everything the traced run produces.
pub struct Traced {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// The model phase's per-stage table.
    pub stages: Vec<StageRow>,
    /// The model phase's merged ledger.
    pub ledger: StageLedger,
}

/// The traced phases, one repetition each per round: a sequential pass
/// with per-stage CPU accounting (and the same batch untraced), a
/// pipelined run with process CPU accounting, an untraced and a traced
/// simulation, and a serial per-phase sweep beside a parallel one.
pub fn per_layer(
    inputs: &Inputs,
    sim_batch: usize,
    budget: Duration,
    tally: &mut Tally,
    spans: &mut Spans,
) -> io::Result<Traced> {
    let mut model = ModelPhase::new(&inputs.stream)?;
    let mut exec = ExecPhase::default();
    let mut sim = SimPhase::default();
    let mut dse = DsePhase::default();
    rounds(budget, |record| {
        model.rep(&inputs.stream, tally, spans, record)?;
        exec.rep(&inputs.stream, tally, spans, record)?;
        sim.rep(&inputs.stream, sim_batch, tally, spans, record);
        dse.rep(&inputs.explore, tally, spans, record);
        Ok(())
    })?;
    let (mut metrics, stages) = model.metrics();
    let stage_cpu_per_image = model.ledger.accounted_ns() as f64 / model.ledger.images as f64;
    metrics.extend(exec.metrics(inputs.stream.images.len(), stage_cpu_per_image));
    metrics.extend(sim.metrics());
    metrics.extend(dse.metrics(&inputs.explore.reference));
    Ok(Traced {
        metrics,
        stages,
        ledger: model.ledger,
    })
}

/// Stage kinds reported as per-layer metrics; every other kind (flatten,
/// scale-shift, add, …) is summed under `other`.
const KINDS: [&str; 3] = ["conv", "pool", "fc"];

/// Stages both workloads' pipelines have, reported one by one.
const NAMED_STAGES: [&str; 2] = ["conv1", "conv2"];

/// Sequential passes with per-stage CPU accounting.
struct ModelPhase {
    stages: Vec<HostStage>,
    macs: Vec<u64>,
    clock: ThreadClock,
    ledger: StageLedger,
    traced_walls: Vec<f64>,
    plain_walls: Vec<f64>,
}

impl ModelPhase {
    fn new(s: &Stream) -> io::Result<Self> {
        let stages = host_pipeline(&s.design);
        let shapes: Vec<(&str, Shape3)> = stages
            .iter()
            .map(|h| (h.spec.name.as_str(), h.spec.out_shape))
            .collect();
        let macs = stage_macs(&shapes, &s.layers);
        let ledger = StageLedger::new(stages.iter().map(|h| h.spec.name.clone()).collect());
        Ok(ModelPhase {
            stages,
            macs,
            clock: ThreadClock::open()?,
            ledger,
            traced_walls: Vec::new(),
            plain_walls: Vec::new(),
        })
    }

    fn rep(
        &mut self,
        s: &Stream,
        tally: &mut Tally,
        spans: &mut Spans,
        record: bool,
    ) -> io::Result<()> {
        let (pass, outputs) = traced_pass(&self.stages, &s.images, &mut self.clock, spans)?;
        tally.images(&outputs, &s.reference);
        // the same batch untraced, for the tracing overhead
        let t = Instant::now();
        let res = s.engine.run_sequential(&s.images);
        let plain_wall = elapsed_ns(t);
        tally.images(&res.outputs, &s.reference);
        if record {
            self.traced_walls.push(pass.pass_wall_ns as f64);
            self.plain_walls.push(plain_wall as f64);
            self.ledger.merge(&pass);
        }
        Ok(())
    }

    fn metrics(&self) -> (Vec<Metric>, Vec<StageRow>) {
        let images = self.ledger.images as f64;
        let rows: Vec<StageRow> = self
            .ledger
            .names
            .iter()
            .zip(&self.ledger.stage_cpu_ns)
            .zip(&self.macs)
            .map(|((name, &cpu), &macs)| StageRow {
                name: name.clone(),
                cpu_ns: cpu as f64 / images,
                macs,
            })
            .collect();
        let mut metrics = Vec::new();
        for name in NAMED_STAGES {
            let row = rows
                .iter()
                .find(|r| r.name == name)
                .expect("both pipelines have the stage");
            metrics.push(metric(format!("model.{name}.cpu_ns"), row.cpu_ns, "ns"));
            metrics.push(metric(
                format!("model.{name}.gmac_per_s"),
                gmac_per_s(row.macs, row.cpu_ns),
                "GMAC/s",
            ));
        }
        for kind in KINDS.into_iter().chain(["other"]) {
            let (cpu, macs) = rows
                .iter()
                .filter(|r| {
                    let k = stage_kind(&r.name);
                    k == kind || (kind == "other" && !KINDS.contains(&k))
                })
                .fold((0.0, 0), |(c, m), r| (c + r.cpu_ns, m + r.macs));
            metrics.push(metric(format!("model.{kind}.cpu_ns"), cpu, "ns"));
            if matches!(kind, "conv" | "fc") {
                metrics.push(metric(
                    format!("model.{kind}.gmac_per_s"),
                    gmac_per_s(macs, cpu),
                    "GMAC/s",
                ));
            }
        }
        metrics.push(metric(
            "model.unaccounted_share",
            self.ledger.unaccounted_ns() as f64 / self.ledger.pass_cpu_ns as f64,
            "ratio",
        ));
        metrics.push(metric(
            "model.trace_overhead",
            median(&self.traced_walls) / median(&self.plain_walls) - 1.0,
            "ratio",
        ));
        (metrics, rows)
    }
}

/// Pipelined runs with process CPU accounting.
#[derive(Default)]
struct ExecPhase {
    cpu_ns: u64,
    wall_ns: u64,
    reps: u64,
    workers: Vec<f64>,
    queue_wait_ns: Vec<f64>,
    send_wait_ns: Vec<f64>,
    service_ns: Vec<f64>,
    bound_ratio: Vec<f64>,
}

impl ExecPhase {
    fn rep(
        &mut self,
        s: &Stream,
        tally: &mut Tally,
        spans: &mut Spans,
        record: bool,
    ) -> io::Result<()> {
        let name = spans.intern("exec.run_pipelined");
        let span = spans.open(name, self.reps, None);
        let cpu0 = process_cpu_ns()?;
        let t = Instant::now();
        let (res, profile) = s.engine.run_pipelined(&s.images);
        let wall = elapsed_ns(t);
        let cpu = process_cpu_ns()? - cpu0;
        spans.close(span, Some(cpu));
        tally.images(&res.outputs, &s.reference);
        if !record {
            return Ok(());
        }
        self.cpu_ns += cpu;
        self.wall_ns += wall;
        self.reps += 1;
        let batch = s.images.len() as f64;
        let per_image = |total: u64| total as f64 / batch;
        let st = &profile.stages;
        self.workers
            .push(st.iter().map(|p| p.replication).sum::<usize>() as f64);
        self.queue_wait_ns
            .push(per_image(st.iter().map(|p| p.queue_wait_total_ns).sum()));
        self.send_wait_ns
            .push(per_image(st.iter().map(|p| p.send_wait_total_ns).sum()));
        self.service_ns
            .push(st[profile.bottleneck()].mean_interval_ns as f64);
        self.bound_ratio
            .push(per_image(wall) / profile.balanced_bound_ns().max(1) as f64);
        Ok(())
    }

    fn metrics(&self, batch: usize, stage_cpu_per_image: f64) -> Vec<Metric> {
        let nproc = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1) as f64;
        let cpu_per_image = self.cpu_ns as f64 / (self.reps as f64 * batch as f64);
        vec![
            metric("exec.workers", median(&self.workers), "count"),
            metric("exec.cpu_ns_per_image", cpu_per_image, "ns"),
            metric(
                "exec.cpu_utilisation",
                self.cpu_ns as f64 / (self.wall_ns as f64 * nproc),
                "ratio",
            ),
            metric(
                "exec.overhead_ratio",
                cpu_per_image / stage_cpu_per_image,
                "ratio",
            ),
            metric("exec.queue_wait_ns", median(&self.queue_wait_ns), "ns"),
            metric("exec.send_wait_ns", median(&self.send_wait_ns), "ns"),
            metric("exec.bottleneck_service_ns", median(&self.service_ns), "ns"),
            metric("exec.bound_ratio", median(&self.bound_ratio), "ratio"),
        ]
    }
}

/// Untraced and traced simulations of one batch.
#[derive(Default)]
struct SimPhase {
    reps: u64,
    instantiate_ms: Vec<f64>,
    ns_per_cycle: Vec<f64>,
    trace_overhead: Vec<f64>,
    /// Computing, starved, backpressured and idle actor-cycles.
    stalls: [u64; 4],
    /// Cycles and simulated µs per image of the first run; every later
    /// run must repeat them exactly.
    timing: Option<(u64, f64)>,
}

impl SimPhase {
    fn rep(
        &mut self,
        s: &Stream,
        batch: usize,
        tally: &mut Tally,
        spans: &mut Spans,
        record: bool,
    ) {
        let names = ["sim.instantiate", "sim.run", "sim.run_traced"].map(|n| spans.intern(n));
        let (images, reference) = (&s.images[..batch], &s.reference[..batch]);
        let id = self.reps;
        self.reps += 1;

        let span = spans.open(names[0], id, None);
        let t = Instant::now();
        let sim = s.design.instantiate(images);
        let instantiate = secs(t);
        spans.close(span, None);

        let span = spans.open(names[1], id, None);
        let t = Instant::now();
        let plain = run_sim(sim);
        let plain_wall = secs(t);
        spans.close(span, None);
        tally.simulated(&plain, reference);

        let sim = s.design.instantiate(images).with_trace();
        let span = spans.open(names[2], id, None);
        let t = Instant::now();
        let traced = run_sim(sim);
        let traced_wall = secs(t);
        spans.close(span, None);
        tally.simulated(&traced, reference);

        let (Ok(plain), Ok(traced)) = (plain, traced) else {
            return;
        };
        // tracing must not change what is simulated, and the simulated
        // timing must repeat exactly from run to run
        let clock_hz = s.design.config().clock_hz;
        let timing = (
            plain.cycles,
            plain.measurement(clock_hz).mean_time_per_image_us(),
        );
        if traced.cycles != plain.cycles || self.timing.is_some_and(|t| t != timing) {
            tally.failed += batch as u64;
        }
        self.timing.get_or_insert(timing);
        if !record {
            return;
        }
        self.instantiate_ms.push(instantiate * 1e3);
        self.ns_per_cycle
            .push(plain_wall * 1e9 / plain.cycles as f64);
        self.trace_overhead.push(traced_wall / plain_wall - 1.0);
        for a in &traced.stalls {
            self.stalls[0] += a.computing;
            self.stalls[1] += a.starved_total();
            self.stalls[2] += a.backpressured_total();
            self.stalls[3] += a.idle;
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let (cycles, us_per_image) = self.timing.unwrap_or((0, 0.0));
        let total = self.stalls.iter().sum::<u64>().max(1) as f64;
        let share = |i: usize| self.stalls[i] as f64 / total;
        vec![
            metric("sim.cycles", cycles as f64, "count"),
            metric("sim_us_per_image", us_per_image, "sim_us"),
            metric(
                "sim.instantiate_ms",
                median_or_zero(&self.instantiate_ms),
                "ms",
            ),
            metric("sim.ns_per_cycle", median_or_zero(&self.ns_per_cycle), "ns"),
            metric("sim.computing_share", share(0), "ratio"),
            metric("sim.starved_share", share(1), "ratio"),
            metric("sim.backpressured_share", share(2), "ratio"),
            metric("sim.idle_share", share(3), "ratio"),
            metric(
                "sim.trace_overhead",
                median_or_zero(&self.trace_overhead),
                "ratio",
            ),
        ]
    }
}

/// Serial per-phase sweeps beside parallel ones.
#[derive(Default)]
struct DsePhase {
    sweeps: u64,
    candidates: usize,
    build_s: f64,
    check_s: f64,
    analyze_s: f64,
    evaluate_s: f64,
    enumerate_ms: Vec<f64>,
    speedup: Vec<f64>,
}

impl DsePhase {
    fn rep(&mut self, x: &Explore, tally: &mut Tally, spans: &mut Spans, record: bool) {
        let id = self.sweeps;
        self.sweeps += 1;
        let serial = self.serial_sweep(x, id, spans, record);
        let name = spans.intern("dse.explore_parallel");
        let span = spans.open(name, id, None);
        let t = Instant::now();
        let got = explore_parallel(x);
        let parallel_wall = secs(t);
        spans.close(span, None);
        // the parallel report must reproduce the serial reference, and the
        // serial pass its tallies (the pass classifies but does not rank)
        tally.sweep(&got, &x.reference);
        let unranked = DseSummary {
            best: None,
            ..x.reference.clone()
        };
        tally.sweep(&serial.1, &unranked);
        if record {
            self.speedup.push(serial.0 / parallel_wall);
        }
    }

    /// One serial sweep over the explorer's candidates, timing each
    /// phase: enumeration, build, static check, range analysis and
    /// evaluation (resources, device fit, bottleneck estimate). Range
    /// analysis and evaluation are probes run on every built candidate:
    /// the checker already runs the analysis on fixed-point designs, and
    /// the explorer evaluates only checker-clean candidates. Returns the
    /// seconds the explorer's own phases took and the pass's tallies.
    fn serial_sweep(
        &mut self,
        x: &Explore,
        sweep: u64,
        spans: &mut Spans,
        record: bool,
    ) -> (f64, DseSummary) {
        let names = [
            "dse.candidate",
            "graph.build",
            "check.design",
            "range.analyze",
            "dse.evaluate",
        ]
        .map(|n| spans.intern(n));
        let mut secs_in = [0.0f64; 4];
        let mut explorer_evaluate = 0.0;
        let t = Instant::now();
        let configs = enumerate_graph_configs(&x.spec, &x.layers, DSE_MAX_PORTS);
        let enumerate = secs(t);
        let mut feasible = 0;
        let mut discards = DseDiscards::default();
        for (i, ports) in configs.iter().enumerate() {
            let id = sweep << 32 | i as u64;
            let cand = spans.open(names[0], id, None);

            let design = timed(spans, names[1], id, cand, &mut secs_in[0], || {
                build_graph_design(&x.spec, &x.layers, ports, x.config)
            });
            let Ok(design) = design else {
                discards.build_failed += 1;
                spans.close(cand, None);
                continue;
            };

            let report = timed(spans, names[2], id, cand, &mut secs_in[1], || {
                check_design(&design)
            });
            let ranges = timed(spans, names[3], id, cand, &mut secs_in[2], || {
                dfcnn_core::range::analyze(&design)
            });
            std::hint::black_box(ranges);
            let before = secs_in[3];
            let fits = timed(spans, names[4], id, cand, &mut secs_in[3], || {
                let fits = x.device.fits(&design.resources(&x.cost));
                std::hint::black_box(fits.then(|| design.estimated_bottleneck()));
                fits
            });

            if !report.is_clean() {
                // the explorer's rule: range errors alone make a numeric
                // rejection, anything else a checker rejection
                let numeric_only = report
                    .errors()
                    .iter()
                    .all(|d| matches!(d.rule, RuleId::ValueRange | RuleId::AccumulatorWidth));
                if numeric_only {
                    discards.numeric_rejected += 1;
                } else {
                    discards.checker_rejected += 1;
                }
                spans.close(cand, None);
                continue;
            }

            explorer_evaluate += secs_in[3] - before;
            if fits {
                feasible += 1;
            } else {
                discards.over_budget += 1;
            }
            spans.close(cand, None);
        }

        if record {
            self.candidates += configs.len();
            self.enumerate_ms.push(enumerate * 1e3);
            self.build_s += secs_in[0];
            self.check_s += secs_in[1];
            self.analyze_s += secs_in[2];
            self.evaluate_s += secs_in[3];
        }
        let explorer_s = enumerate + secs_in[0] + secs_in[1] + explorer_evaluate;
        let summary = DseSummary {
            candidates: configs.len(),
            feasible,
            discards,
            best: None,
        };
        (explorer_s, summary)
    }

    fn metrics(&self, reference: &DseSummary) -> Vec<Metric> {
        let per_candidate_us = |s: f64| s * 1e6 / self.candidates.max(1) as f64;
        vec![
            metric("graph.build_us", per_candidate_us(self.build_s), "us"),
            metric("check.design_us", per_candidate_us(self.check_s), "us"),
            metric("range.analyze_us", per_candidate_us(self.analyze_s), "us"),
            metric("dse.evaluate_us", per_candidate_us(self.evaluate_s), "us"),
            metric("dse.enumerate_ms", median_or_zero(&self.enumerate_ms), "ms"),
            metric(
                "dse.parallel_speedup",
                median_or_zero(&self.speedup),
                "ratio",
            ),
            metric("dse.feasible", reference.feasible as f64, "count"),
            metric(
                "dse.numeric_rejected",
                reference.discards.numeric_rejected as f64,
                "count",
            ),
            metric(
                "dse.checker_rejected",
                reference.discards.checker_rejected as f64,
                "count",
            ),
        ]
    }
}
