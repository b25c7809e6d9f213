//! The threaded streaming engine: the high-level pipeline as real threads.
//!
//! §IV-C: "the resulting network will exactly act like a high-level
//! pipeline. At steady state, all the different layers of the network will
//! be concurrently active and computing." This engine realises that
//! concurrency on the host CPU: **one or more OS threads per generated
//! core**, connected by bounded rendezvous channels carrying whole
//! feature-map volumes (the token granularity is an image rather than a
//! value — the same dataflow graph, coarser tokens).
//!
//! Three purposes:
//!
//! 1. *Functional cross-check*: each stage computes with the same
//!    [`crate::kernel`] hardware-order numerics as the cycle simulator, so
//!    outputs are **bit-identical** between the two engines.
//! 2. *Pipelining demonstration*: with batches larger than the pipeline
//!    depth, wall-clock time per image approaches the slowest stage — the
//!    same effect Fig. 6 measures in cycles, observable here as real
//!    speedup over a sequential forward pass (benchmarked in
//!    `dfcnn-bench`).
//! 3. *Stage balancing*: the paper balances stages by scaling ports
//!    (Eq. 4, `II = max(OUT_FM/OUT_PORTS, IN_FM/IN_PORTS)`). The host
//!    analogue is **stage replication** ([`ReplicationPlan`]): a profiling
//!    pre-pass times each stage, bottleneck stages get extra worker
//!    threads fed round-robin, and the batch interval converges toward the
//!    *balanced*-stage bound instead of the slowest single stage.
//!
//! # Order and buffers
//!
//! With replication factor `r` for a stage, image `j` is always handled by
//! worker `j mod r`; every producer deals to, and every consumer reads
//! from, the channel that deterministic rule names. Outputs therefore come
//! out in input order with no sequence numbers, and the value stream each
//! image sees is identical to [`ThreadedEngine::run_sequential`] — so
//! outputs are bit-identical, replicated or not.
//!
//! Steady state allocates nothing per image in the compute path: every
//! worker owns a per-stage scratch arena ([`crate::kernel::ConvArena`] and
//! friends), and output volumes are recycled — each message carries a
//! return channel, the consumer sends the spent buffer back, and the
//! producer reuses it for a later image (a ping-pong pool threaded through
//! the channel chain).
//!
//! # Fork/join designs
//!
//! A fork/join [`NetworkDesign`] still runs as a *linear* thread
//! pipeline: stages execute in topological order and each message
//! carries a **bundle** — the set of still-live stage outputs — instead
//! of a single volume. A [`StagePlan`] precomputed per stage says which
//! bundle slots feed the stage ([`StageWorker::apply_multi`]) and which
//! survive downstream (e.g. the skip operand of a residual block rides
//! the bundle past the branch stages until the eltwise-add consumes it).
//! On linear chains every bundle has exactly one slot and the engine
//! degenerates to the classic one-volume-per-message pipeline.

use crate::graph::{NetworkDesign, StageInput};
use crate::model::{self, HostStage, StageWorker};
use crate::observe::live::{LiveMetrics, MetricCell, MetricUnit, Sampler};
use crate::observe::StageRecord;
use dfcnn_tensor::Tensor3;
use serde::{Deserialize, Serialize};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of streaming a batch through the threaded engine.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Classifier scores per image (pre-normalisation), in input order.
    pub outputs: Vec<Tensor3<f32>>,
    /// Wall-clock completion time of each image, relative to engine start.
    pub completion_times: Vec<Duration>,
    /// Total wall-clock time for the whole batch.
    pub total: Duration,
}

impl ExecResult {
    /// Mean wall-clock time per image (total / batch), the threaded
    /// analogue of Fig. 6's y axis.
    pub fn mean_time_per_image(&self) -> Duration {
        self.total / self.outputs.len() as u32
    }
}

/// Largest replication factor the balanced planner gives one stage; the
/// static checker warns above it.
pub const MAX_REPLICATION: usize = 4;

/// Most extra workers (beyond one per stage) the balanced planner adds.
const MAX_EXTRA_WORKERS: usize = 8;

/// Per-stage replication factors: how many worker threads serve each
/// pipeline stage. The host analogue of the paper's Eq. 4 port scaling —
/// replicating a stage divides its effective interval the way adding ports
/// divides a core's II.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationPlan {
    /// One factor (≥ 1) per stage.
    pub factors: Vec<usize>,
}

impl ReplicationPlan {
    /// One worker per stage — the plain pipeline.
    pub fn uniform(stages: usize) -> Self {
        ReplicationPlan {
            factors: vec![1; stages],
        }
    }

    /// Allocate up to `min(host_threads - 1, 8)` additional workers
    /// greedily to the stage with the largest *effective* interval
    /// (`mean / factor`), capping each stage at [`MAX_REPLICATION`]. Stops
    /// early when the global bottleneck can no longer be replicated
    /// (further workers would not raise throughput). On a host with a
    /// single hardware thread (`host_threads <= 1`) replication cannot
    /// overlap anything — the documented lose-to-sequential case — so the
    /// plan stays uniform.
    pub fn balanced(measured_ns: &[u64], host_threads: usize) -> Self {
        let n = measured_ns.len();
        let mut factors = vec![1usize; n];
        let extra_workers = host_threads.saturating_sub(1).min(MAX_EXTRA_WORKERS);
        let eff = |i: usize, f: &[usize]| measured_ns[i] / f[i] as u64;
        for _ in 0..extra_workers {
            let bound = (0..n).map(|i| eff(i, &factors)).max().unwrap_or(0);
            let candidate = (0..n)
                .filter(|&i| factors[i] < MAX_REPLICATION)
                .max_by_key(|&i| eff(i, &factors));
            match candidate {
                Some(i) if eff(i, &factors) == bound && bound > 0 => factors[i] += 1,
                _ => break,
            }
        }
        ReplicationPlan { factors }
    }

    /// Total worker threads the plan spawns.
    pub fn workers(&self) -> usize {
        self.factors.iter().sum()
    }
}

/// How [`ThreadedEngine::run`] schedules a batch onto threads. The
/// computation is the same under every schedule — outputs are in input
/// order and bit-identical to [`Schedule::Sequential`] — only the
/// mapping of stages to workers changes.
#[derive(Clone, Debug)]
pub enum Schedule {
    /// One image at a time through every stage on the calling thread
    /// (what a non-pipelined accelerator would do). Nothing blocks on a
    /// channel, so the profile's queue and send waits are zero.
    Sequential,
    /// The thread pipeline with explicit per-stage replication.
    Fixed(ReplicationPlan),
    /// Time each stage sequentially on the first two images, derive a
    /// [`ReplicationPlan::balanced`] for `threads` hardware threads and run
    /// the batch with it. The planning pre-pass is excluded from
    /// [`ExecResult::total`]. Falls back to [`Schedule::Sequential`] when
    /// the pipeline cannot pay off (one thread or one stage): there the
    /// worker threads only time-slice one CPU, measured at ~0.65x of the
    /// sequential baseline.
    Balanced { threads: usize },
    /// Measurement-driven pipelining: warm up sequentially, read the
    /// measured per-stage service times from the live telemetry cells and
    /// run the rest of the batch under a balanced plan replanned from
    /// those measurements (with one mid-batch replan on long batches, so
    /// the plan tracks what the workers actually measure). Falls back to
    /// [`Schedule::Sequential`] where [`Schedule::Balanced`] does, and on
    /// batches no longer than the warmup. The profile reports the plan the
    /// run ended on.
    Adaptive { threads: usize },
}

/// Measured behaviour of one pipeline stage during a run: the run's delta
/// of the stage's live cell, plus the plan and the histogram maximum.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StageProfile {
    /// Stage name (`conv1`, `pool1`, `flatten`, `fc1`, …).
    pub name: String,
    /// Worker threads that served this stage.
    pub replication: usize,
    /// Images processed (summed over workers).
    pub images: u64,
    /// Mean per-image service time in nanoseconds — the host analogue of
    /// the stage interval Fig. 6 converges to.
    pub mean_interval_ns: u64,
    /// Worst single-image service time in nanoseconds, from the cell's
    /// interval histogram: a plane reused across runs reports the maximum
    /// since the plane was built.
    pub max_interval_ns: u64,
    /// Exact total service time across workers in nanoseconds.
    pub service_total_ns: u64,
    /// Exact total time workers spent blocked waiting for input.
    pub queue_wait_total_ns: u64,
    /// Exact total time workers spent blocked sending output downstream —
    /// the host analogue of fabric backpressure.
    pub send_wait_total_ns: u64,
}

impl StageProfile {
    /// A row from the run's delta of the stage's cell.
    fn new(rec: StageRecord, replication: usize, max_interval_ns: u64) -> Self {
        StageProfile {
            replication,
            images: rec.items,
            mean_interval_ns: rec.per_item(rec.service),
            max_interval_ns,
            service_total_ns: rec.service,
            queue_wait_total_ns: rec.queue_wait,
            send_wait_total_ns: rec.send_wait,
            name: rec.name,
        }
    }

    /// The row's additive counters, in nanoseconds (idle is 0 on the host).
    pub fn record(&self) -> StageRecord {
        StageRecord {
            name: self.name.clone(),
            items: self.images,
            service: self.service_total_ns,
            queue_wait: self.queue_wait_total_ns,
            send_wait: self.send_wait_total_ns,
            idle: 0,
        }
    }

    /// Effective interval the stage contributes to the pipeline bound:
    /// `mean / replication` (replicated workers overlap in time).
    pub fn effective_interval_ns(&self) -> u64 {
        self.mean_interval_ns / self.replication as u64
    }
}

/// Per-stage measurements of one pipelined run, consumed by `dfcnn-bench`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PipelineProfile {
    /// One entry per pipeline stage, in pipeline order.
    pub stages: Vec<StageProfile>,
    /// Batch size of the measured run.
    pub batch: usize,
    /// Total wall-clock of the run in nanoseconds.
    pub total_ns: u64,
}

impl PipelineProfile {
    /// Index of the stage with the largest effective interval — the stage
    /// the batch interval converges to (Fig. 6's plateau).
    pub fn bottleneck(&self) -> usize {
        (0..self.stages.len())
            .max_by_key(|&i| self.stages[i].effective_interval_ns())
            .expect("profile has no stages")
    }

    /// The balanced-stage bound in nanoseconds: the largest effective
    /// interval. At steady state the pipeline emits one image per this
    /// interval; replication lowers it the way Eq. 4's ports lower II.
    pub fn balanced_bound_ns(&self) -> u64 {
        self.stages[self.bottleneck()].effective_interval_ns()
    }

    /// Fixed-width text table (one row per stage) for console output.
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "stage      repl  images  mean_us    max_us     wait_us    send_us    eff_us\n",
        );
        for s in &self.stages {
            let r = s.record();
            out.push_str(&format!(
                "{:<10} {:>4} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}\n",
                s.name,
                s.replication,
                s.images,
                s.mean_interval_ns as f64 / 1e3,
                s.max_interval_ns as f64 / 1e3,
                r.per_item(r.queue_wait) as f64 / 1e3,
                r.per_item(r.send_wait) as f64 / 1e3,
                s.effective_interval_ns() as f64 / 1e3,
            ));
        }
        out
    }
}

/// A bundle of volumes travelling down the pipeline. Owned messages carry
/// the return channel of the worker whose buffer pool they came from, so
/// the consumer can recycle spent buffers once it has read them.
enum Msg<'a> {
    /// A borrowed input image (zero-copy feed of the first stage); the
    /// bundle is implicitly `[Image]`.
    Borrowed(&'a Tensor3<f32>),
    /// The live bundle after some stage, plus that worker's free-list.
    Owned(Vec<Tensor3<f32>>, Option<SyncSender<Tensor3<f32>>>),
}

/// How one stage reads and rewrites the bundle: which slots feed
/// [`StageWorker::apply_multi`], and which slots are still needed by a
/// later stage and therefore survive (the stage's own output is always
/// appended last). Precomputed once per engine by [`bundle_plans`].
struct StagePlan {
    /// Bundle slot index per stage input, in operand order.
    in_slots: Vec<usize>,
    /// Incoming-bundle slots that survive into the outgoing bundle,
    /// in order. Slots not kept are recycled to their last carrier.
    keep: Vec<usize>,
}

/// Walk the stage list once, tracking the live bundle, and derive each
/// stage's [`StagePlan`]. The bundle starts as `[Image]`; after stage `s`
/// it holds every earlier output some stage `> s` still reads, plus
/// `Stage(s)` itself. The builder guarantees only stage 0 reads the
/// image, so borrowed inputs never need to survive a hop.
fn bundle_plans(stages: &[HostStage]) -> Vec<StagePlan> {
    let n = stages.len();
    let mut bundle: Vec<StageInput> = vec![StageInput::Image];
    let mut plans = Vec::with_capacity(n);
    for s in 0..n {
        let in_slots = stages[s]
            .inputs
            .iter()
            .map(|inp| {
                bundle
                    .iter()
                    .position(|b| b == inp)
                    .expect("stage input must be live in the bundle (topological order)")
            })
            .collect();
        let needed = |x: &StageInput| stages[s + 1..].iter().any(|st| st.inputs.contains(x));
        let keep: Vec<usize> = (0..bundle.len())
            .filter(|&i| bundle[i] != StageInput::Image && needed(&bundle[i]))
            .collect();
        assert!(
            !needed(&StageInput::Image),
            "only the first stage may read the input image"
        );
        let mut next: Vec<StageInput> = keep.iter().map(|&i| bundle[i]).collect();
        next.push(StageInput::Stage(s));
        plans.push(StagePlan { in_slots, keep });
        bundle = next;
    }
    plans
}

/// Channel matrix for one stage boundary: `pc` producers × `cc` consumers.
/// Returns (per-producer sender rows, per-consumer receiver columns);
/// `rows[p][c]` feeds `cols[c][p]`.
type TxRows<'a> = Vec<Vec<SyncSender<Msg<'a>>>>;
type RxCols<'a> = Vec<Vec<Receiver<Msg<'a>>>>;

fn boundary<'a>(pc: usize, cc: usize, depth: usize) -> (TxRows<'a>, RxCols<'a>) {
    let mut rows: TxRows = (0..pc).map(|_| Vec::with_capacity(cc)).collect();
    let mut cols: RxCols = (0..cc).map(|_| Vec::with_capacity(pc)).collect();
    for row in rows.iter_mut() {
        for col in cols.iter_mut() {
            let (tx, rx) = sync_channel(depth);
            row.push(tx);
            col.push(rx);
        }
    }
    (rows, cols)
}

/// One worker of a (possibly replicated) stage. Worker `w` of a stage with
/// factor `r` serves exactly the images `j ≡ w (mod r)`, in increasing
/// order; image `j` arrives on the channel from producer `j mod r_prev`
/// and leaves on the channel to consumer `j mod r_next`. That fixed
/// dealing rule is what keeps outputs in input order with no tags. The
/// worker bills its measured times and images to the stage's `cell`.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    stage: &HostStage,
    plan: &StagePlan,
    w: usize,
    r_mine: usize,
    rx_col: Vec<Receiver<Msg<'_>>>,
    tx_row: Vec<SyncSender<Msg<'_>>>,
    channel_depth: usize,
    cell: &MetricCell,
) {
    let mut worker = stage.spec.make_worker();
    let (r_prev, r_next) = (rx_col.len(), tx_row.len());
    // buffers in flight from this worker: channel depth per consumer link
    // plus one being read at each consumer, plus bundle survivors
    let (free_tx, free_rx) = sync_channel::<Tensor3<f32>>(2 * r_next * (channel_depth + 1) + 2);
    let mut k = 0u64;
    loop {
        let j = w as u64 + k * r_mine as u64;
        let t0 = Instant::now();
        let msg = match rx_col[(j % r_prev as u64) as usize].recv() {
            Ok(m) => m,
            Err(_) => break, // upstream done
        };
        cell.add_queue_wait(t0.elapsed().as_nanos() as u64);
        // reuse a recycled buffer — but only one of our own shape: a
        // bundle survivor recycles to its *last carrier*, which may not
        // be its creator, so foreign-shaped buffers are simply dropped
        let mut out = loop {
            match free_rx.try_recv() {
                Ok(t) if t.shape() == stage.spec.out_shape => break t,
                Ok(_) => continue,
                Err(_) => break Tensor3::zeros(stage.spec.out_shape),
            }
        };
        let t1 = Instant::now();
        match &msg {
            Msg::Borrowed(t) => {
                let refs: Vec<&Tensor3<f32>> = plan.in_slots.iter().map(|_| *t).collect();
                worker.apply_multi(&refs, &mut out);
            }
            Msg::Owned(bundle, _) => {
                let refs: Vec<&Tensor3<f32>> = plan.in_slots.iter().map(|&i| &bundle[i]).collect();
                worker.apply_multi(&refs, &mut out);
            }
        }
        cell.add_image(t1.elapsed().as_nanos() as u64);
        // rebuild the bundle: survivors in plan order, own output last;
        // everything else goes back to the producer's pool (best effort:
        // a full or disconnected free-list just drops the buffer)
        let next = match msg {
            Msg::Borrowed(_) => vec![out],
            Msg::Owned(bundle, ret) => {
                let mut slots: Vec<Option<Tensor3<f32>>> = bundle.into_iter().map(Some).collect();
                let mut next: Vec<Tensor3<f32>> = plan
                    .keep
                    .iter()
                    .map(|&i| slots[i].take().expect("kept slot is live"))
                    .collect();
                if let Some(ret) = ret {
                    for t in slots.into_iter().flatten() {
                        let _ = ret.try_send(t);
                    }
                }
                next.push(out);
                next
            }
        };
        let t2 = Instant::now();
        let sent =
            tx_row[(j % r_next as u64) as usize].send(Msg::Owned(next, Some(free_tx.clone())));
        if sent.is_err() {
            break; // downstream done
        }
        cell.add_send_wait(t2.elapsed().as_nanos() as u64);
        k += 1;
    }
}

/// The engine itself; construct per design, run per batch.
pub struct ThreadedEngine {
    stages: Vec<HostStage>,
    plans: Vec<StagePlan>,
    channel_depth: usize,
    /// Live telemetry cells (one per stage) every run bills; without
    /// them each run bills a private plane.
    live: Option<Arc<LiveMetrics>>,
}

/// Images the adaptive runner executes sequentially before it reads the
/// live cells and replans: enough to absorb cold caches without delaying
/// the measurement-driven plan.
const ADAPTIVE_WARMUP: usize = 2;

impl ThreadedEngine {
    /// Build stages from a design via [`model::host_pipeline`] (one per
    /// layer incl. flatten; adapters are port plumbing with no image-level
    /// effect; LogSoftMax stays on the host unless
    /// [`crate::graph::DesignConfig::fabric_normalization`] is set).
    /// Fork/join designs yield the same linear stage list in topological
    /// order, with multi-input stages wired through [`bundle_plans`].
    pub fn new(design: &NetworkDesign) -> Self {
        let stages = model::host_pipeline(design);
        let plans = bundle_plans(&stages);
        ThreadedEngine {
            stages,
            plans,
            channel_depth: 2,
            live: None,
        }
    }

    /// A fresh live metrics plane matching this engine's stages (unit:
    /// wall-clock nanoseconds), for [`ThreadedEngine::with_live`] or a
    /// [`crate::observe::live::SpawnedSampler`].
    pub fn live_metrics(&self) -> Arc<LiveMetrics> {
        LiveMetrics::new(
            MetricUnit::Nanos,
            self.stages.iter().map(|s| s.spec.name.clone()).collect(),
        )
    }

    /// Bill every worker's measured service/wait times, image counts and
    /// per-image service histogram to `live` during runs, instead of to a
    /// private per-run plane. The cells must have been built for this
    /// engine's stage list.
    pub fn with_live(mut self, live: Arc<LiveMetrics>) -> Self {
        assert_eq!(
            live.len(),
            self.stages.len(),
            "live metrics must have one cell per stage"
        );
        self.live = Some(live);
        self
    }

    /// Number of pipeline stages (minimum threads spawned per run).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Stage names in pipeline order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.spec.name.as_str()).collect()
    }

    /// Stream a batch under `schedule`, returning the outputs and the
    /// per-stage profile. Outputs are in input order and bit-identical to
    /// [`Schedule::Sequential`] under every schedule. The run bills the
    /// cells attached with [`ThreadedEngine::with_live`] (or a private
    /// plane) once per image — the balanced planning pre-pass bills a
    /// plane of its own — and the profile is that plane's delta over the
    /// run.
    pub fn run(
        &self,
        images: &[Tensor3<f32>],
        schedule: &Schedule,
    ) -> (ExecResult, PipelineProfile) {
        assert!(!images.is_empty(), "empty batch");
        assert!(!self.stages.is_empty(), "design has no pipeline stages");
        let n = self.stages.len();
        let pipelines = |threads: usize| Self::should_pipeline(threads, n);
        let pass = match *schedule {
            Schedule::Fixed(ref plan) => Pass::Pipelined(plan.clone()),
            Schedule::Balanced { threads } if pipelines(threads) => {
                Pass::Pipelined(self.balanced_plan(images, threads))
            }
            // tiny batches never outrun their warmup
            Schedule::Adaptive { threads }
                if pipelines(threads) && images.len() > ADAPTIVE_WARMUP =>
            {
                Pass::Adaptive(threads)
            }
            _ => Pass::Sequential,
        };
        let live = self.live.clone().unwrap_or_else(|| self.live_metrics());
        let before = live.totals();
        let start = Instant::now();
        let (outputs, completion_times, plan) = match pass {
            Pass::Sequential => {
                let (outs, times) = self.sequential_pass(images, &live, start);
                (outs, times, ReplicationPlan::uniform(n))
            }
            Pass::Pipelined(plan) => {
                let (outs, times) = self.pipelined_pass(images, &plan, &live, start);
                (outs, times, plan)
            }
            Pass::Adaptive(threads) => self.adaptive_pass(images, threads, &live, start),
        };
        let total = start.elapsed();
        let stages = live
            .totals()
            .iter()
            .zip(&before)
            .zip(&plan.factors)
            .enumerate()
            .map(|(s, ((now, then), &replication))| {
                let max = live.cell(s).interval_stats().max_ns;
                StageProfile::new(now.delta_since(then), replication, max)
            })
            .collect();
        let profile = PipelineProfile {
            stages,
            batch: outputs.len(),
            total_ns: total.as_nanos() as u64,
        };
        let result = ExecResult {
            outputs,
            completion_times,
            total,
        };
        (result, profile)
    }

    /// [`Schedule::Balanced`] sized to the machine's parallelism.
    pub fn run_pipelined(&self, images: &[Tensor3<f32>]) -> (ExecResult, PipelineProfile) {
        self.run(
            images,
            &Schedule::Balanced {
                threads: host_threads(),
            },
        )
    }

    /// [`Schedule::Sequential`] without the profile.
    pub fn run_sequential(&self, images: &[Tensor3<f32>]) -> ExecResult {
        self.run(images, &Schedule::Sequential).0
    }

    /// Whether a thread-per-stage pipeline can beat the sequential loop:
    /// it needs at least two hardware threads *and* at least two stages to
    /// overlap. Otherwise the threads merely time-slice one CPU and the
    /// channel hops become pure overhead.
    fn should_pipeline(threads: usize, stages: usize) -> bool {
        threads > 1 && stages > 1
    }

    /// [`Schedule::Balanced`]'s planning pre-pass: time every stage
    /// sequentially on the first two images. It bills a private plane, so
    /// the run's plane counts each image of the batch exactly once.
    fn balanced_plan(&self, images: &[Tensor3<f32>], threads: usize) -> ReplicationPlan {
        let warm = self.live_metrics();
        self.sequential_pass(&images[..images.len().min(2)], &warm, Instant::now());
        let means: Vec<u64> = warm
            .totals()
            .iter()
            .map(|r| r.per_item(r.service))
            .collect();
        ReplicationPlan::balanced(&means, threads)
    }

    /// Stream `images` through the thread pipeline under `plan`, billing
    /// `live`; completion times count from `start`.
    fn pipelined_pass(
        &self,
        images: &[Tensor3<f32>],
        plan: &ReplicationPlan,
        live: &LiveMetrics,
        start: Instant,
    ) -> (Vec<Tensor3<f32>>, Vec<Duration>) {
        assert_eq!(
            plan.factors.len(),
            self.stages.len(),
            "plan length mismatch"
        );
        assert!(plan.factors.iter().all(|&f| f >= 1), "factors must be ≥ 1");
        let r = &plan.factors;
        let n = self.stages.len();
        let depth = self.channel_depth;
        std::thread::scope(|scope| {
            // boundary 0: the feeder (one producer) into stage 0's workers
            let (mut feed_rows, mut cur_cols) = boundary(1, r[0], depth);
            for s in 0..n {
                let next_cc = if s + 1 < n { r[s + 1] } else { 1 };
                let (next_rows, next_cols) = boundary(r[s], next_cc, depth);
                let in_cols = std::mem::replace(&mut cur_cols, next_cols);
                for (w, (rx_col, tx_row)) in in_cols.into_iter().zip(next_rows).enumerate() {
                    let stage = &self.stages[s];
                    let plan = &self.plans[s];
                    let r_mine = r[s];
                    // replicated workers of one stage share its cell;
                    // the counters are atomic, so concurrent adds merge
                    let cell = live.cell(s);
                    scope.spawn(move || {
                        worker_loop(stage, plan, w, r_mine, rx_col, tx_row, depth, cell)
                    });
                }
            }
            // collector: one consumer reading the last boundary round-robin
            let coll_col = cur_cols.pop().expect("collector column");
            let batch = images.len();
            let r_last = *r.last().unwrap();
            let collector = scope.spawn(move || {
                let mut outs = Vec::with_capacity(batch);
                let mut times = Vec::with_capacity(batch);
                for j in 0..batch {
                    match coll_col[j % r_last].recv() {
                        Ok(Msg::Owned(mut bundle, ret)) => {
                            outs.push(bundle.pop().expect("final bundle has the output"));
                            if let Some(ret) = ret {
                                for t in bundle {
                                    let _ = ret.try_send(t);
                                }
                            }
                        }
                        Ok(Msg::Borrowed(t)) => outs.push(t.clone()),
                        Err(_) => break, // a worker died; surface short batch
                    }
                    times.push(start.elapsed());
                }
                (outs, times)
            });
            // feed borrowed references — no per-image clone
            let feed_row = feed_rows.pop().expect("feeder row");
            for (j, img) in images.iter().enumerate() {
                if feed_row[j % r[0]].send(Msg::Borrowed(img)).is_err() {
                    break;
                }
            }
            drop(feed_row);
            collector.join().expect("collector panicked")
        })
    }

    /// One image at a time through every stage on the calling thread,
    /// billing `live`; completion times count from `start`. Uses the same
    /// arenas and staging buffers as the pipeline workers, so it is
    /// equally allocation-free per image apart from the owned output clone.
    fn sequential_pass(
        &self,
        images: &[Tensor3<f32>],
        live: &LiveMetrics,
        start: Instant,
    ) -> (Vec<Tensor3<f32>>, Vec<Duration>) {
        let mut workers: Vec<Box<dyn StageWorker>> =
            self.stages.iter().map(|s| s.spec.make_worker()).collect();
        let mut bufs: Vec<Tensor3<f32>> = self
            .stages
            .iter()
            .map(|s| Tensor3::zeros(s.spec.out_shape))
            .collect();
        let mut outputs = Vec::with_capacity(images.len());
        let mut completion_times = Vec::with_capacity(images.len());
        for img in images {
            for (s, worker) in workers.iter_mut().enumerate() {
                let (done, rest) = bufs.split_at_mut(s);
                let refs: Vec<&Tensor3<f32>> = self.stages[s]
                    .inputs
                    .iter()
                    .map(|inp| match inp {
                        StageInput::Image => img,
                        StageInput::Stage(t) => &done[*t],
                    })
                    .collect();
                let t = Instant::now();
                worker.apply_multi(&refs, &mut rest[0]);
                live.cell(s).add_image(t.elapsed().as_nanos() as u64);
            }
            outputs.push(bufs.last().expect("at least one stage").clone());
            completion_times.push(start.elapsed());
        }
        (outputs, completion_times)
    }

    /// [`Schedule::Adaptive`]: a sequential warmup, then the rest of the
    /// batch in one or two pipelined chunks, each under a plan derived
    /// from the live cells' deltas since the previous measurement point.
    /// Returns the plan the run ended on with the outputs.
    fn adaptive_pass(
        &self,
        images: &[Tensor3<f32>],
        threads: usize,
        live: &Arc<LiveMetrics>,
        start: Instant,
    ) -> (Vec<Tensor3<f32>>, Vec<Duration>, ReplicationPlan) {
        let n = self.stages.len();
        let mut sampler = Sampler::new(live.clone());
        let (mut outputs, mut completion_times) =
            self.sequential_pass(&images[..ADAPTIVE_WARMUP], live, start);
        let rest = &images[ADAPTIVE_WARMUP..];
        // long batches get a second measurement point: the first pipelined
        // chunk's deltas (true per-worker service under concurrency)
        // refine the plan for the remainder
        let split = if rest.len() >= 2 * n.max(4) {
            rest.len() / 2
        } else {
            rest.len()
        };
        let mut plan = ReplicationPlan::uniform(n);
        for chunk in [&rest[..split], &rest[split..]] {
            if chunk.is_empty() {
                continue;
            }
            plan = Self::replan(&mut sampler, start, threads);
            let (outs, times) = self.pipelined_pass(chunk, &plan, live, start);
            outputs.extend(outs);
            completion_times.extend(times);
        }
        (outputs, completion_times, plan)
    }

    /// Sample the live cells and derive a fresh balanced plan from the
    /// measured mean service time per stage since the last sample.
    fn replan(sampler: &mut Sampler, start: Instant, threads: usize) -> ReplicationPlan {
        let snap = sampler.sample(start.elapsed().as_nanos() as u64);
        let measured: Vec<u64> = snap.stages.iter().map(|r| r.per_item(r.service)).collect();
        ReplicationPlan::balanced(&measured, threads)
    }
}

/// How one [`ThreadedEngine::run`] executes once the schedule's fallbacks
/// and planning are resolved.
enum Pass {
    Sequential,
    Pipelined(ReplicationPlan),
    Adaptive(usize),
}

/// The host's hardware threads (1 when unknown).
fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DesignConfig, PortConfig};
    use dfcnn_nn::topology::NetworkSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tc1_design() -> NetworkDesign {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let net = NetworkSpec::test_case_1().build(&mut rng);
        NetworkDesign::new(
            &net,
            PortConfig::paper_test_case_1(),
            DesignConfig::default(),
        )
        .unwrap()
    }

    fn batch(design: &NetworkDesign, n: usize, seed: u64) -> Vec<Tensor3<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                dfcnn_tensor::init::random_volume(
                    &mut rng,
                    design.network().input_shape(),
                    0.0,
                    1.0,
                )
            })
            .collect()
    }

    fn uniform(engine: &ThreadedEngine) -> Schedule {
        Schedule::Fixed(ReplicationPlan::uniform(engine.stage_count()))
    }

    #[test]
    fn stage_count_includes_flatten() {
        let design = tc1_design();
        // conv, pool, conv, flatten, fc = 5 (logsoftmax host-side)
        let engine = ThreadedEngine::new(&design);
        assert_eq!(engine.stage_count(), 5);
        assert_eq!(
            engine.stage_names(),
            vec!["conv1", "pool1", "conv2", "flatten", "fc1"]
        );
    }

    #[test]
    fn fabric_normalization_adds_a_stage() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let net = NetworkSpec::test_case_1().build(&mut rng);
        let cfg = DesignConfig {
            fabric_normalization: true,
            ..DesignConfig::default()
        };
        let design = NetworkDesign::new(&net, PortConfig::paper_test_case_1(), cfg).unwrap();
        let engine = ThreadedEngine::new(&design);
        assert_eq!(
            engine.stage_names(),
            vec!["conv1", "pool1", "conv2", "flatten", "fc1", "logsoftmax1"]
        );
        let imgs = batch(&design, 3, 9);
        let (res, _) = engine.run(&imgs, &uniform(&engine));
        for (img, out) in imgs.iter().zip(res.outputs.iter()) {
            assert_eq!(out, &design.hw_forward(img), "engine must be bit-exact");
        }
    }

    #[test]
    fn replicated_runs_match_sequential_exactly() {
        let design = tc1_design();
        let imgs = batch(&design, 11, 4);
        let engine = ThreadedEngine::new(&design);
        let seq = engine.run_sequential(&imgs);
        for factors in [
            vec![1, 1, 1, 1, 1],
            vec![2, 1, 3, 1, 2],
            vec![4, 4, 4, 4, 4],
            vec![3, 1, 1, 1, 1],
        ] {
            let plan = ReplicationPlan { factors };
            let (res, profile) = engine.run(&imgs, &Schedule::Fixed(plan.clone()));
            assert_eq!(res.outputs, seq.outputs, "plan {:?}", plan.factors);
            // every image passed through every stage exactly once
            assert!(profile.stages.iter().all(|s| s.images == 11));
        }
    }

    #[test]
    fn batch_smaller_than_replication_works() {
        // more workers than images: surplus workers see an immediate
        // disconnect and must exit cleanly
        let design = tc1_design();
        let imgs = batch(&design, 2, 5);
        let engine = ThreadedEngine::new(&design);
        let plan = ReplicationPlan {
            factors: vec![4, 4, 4, 4, 4],
        };
        let (res, _) = engine.run(&imgs, &Schedule::Fixed(plan));
        assert_eq!(res.outputs, engine.run_sequential(&imgs).outputs);
    }

    #[test]
    fn profile_reports_all_stages() {
        let design = tc1_design();
        let imgs = batch(&design, 6, 6);
        let engine = ThreadedEngine::new(&design);
        let (_, profile) = engine.run(&imgs, &uniform(&engine));
        assert_eq!(profile.stages.len(), 5);
        assert_eq!(profile.batch, 6);
        assert!(profile.total_ns > 0);
        assert!(profile.stages.iter().all(|s| s.images == 6));
        assert!(profile.stages.iter().all(|s| s.mean_interval_ns > 0));
        let table = profile.render_table();
        assert!(table.contains("conv1") && table.contains("fc1"));
        let b = profile.bottleneck();
        assert!(profile.balanced_bound_ns() >= profile.stages[b].effective_interval_ns());
    }

    #[test]
    fn run_pipelined_is_bit_identical_too() {
        let design = tc1_design();
        let imgs = batch(&design, 10, 7);
        let engine = ThreadedEngine::new(&design);
        let (res, profile) = engine.run_pipelined(&imgs);
        assert_eq!(res.outputs, engine.run_sequential(&imgs).outputs);
        assert!(profile.stages.iter().all(|s| s.replication >= 1));
    }

    #[test]
    fn single_thread_host_degrades_to_sequential() {
        // the regression: a 1-CPU host ran the thread-per-stage pipeline
        // at ~0.65x the sequential baseline — the engine must not spawn
        // workers it cannot overlap
        assert!(!ThreadedEngine::should_pipeline(1, 5));
        assert!(!ThreadedEngine::should_pipeline(4, 1));
        assert!(ThreadedEngine::should_pipeline(2, 2));
        let design = tc1_design();
        let imgs = batch(&design, 6, 40);
        let engine = ThreadedEngine::new(&design);
        let seq = engine.run_sequential(&imgs);
        let (res, profile) = engine.run(&imgs, &Schedule::Balanced { threads: 1 });
        assert_eq!(res.outputs, seq.outputs, "fallback must stay bit-exact");
        // the sequential fallback's profile: one worker per stage, every
        // image through every stage, and no channel waits (nothing blocks)
        assert!(profile.stages.iter().all(|s| s.replication == 1));
        assert!(profile.stages.iter().all(|s| s.images == 6));
        assert!(profile
            .stages
            .iter()
            .all(|s| s.queue_wait_total_ns == 0 && s.send_wait_total_ns == 0));
        assert_eq!(profile.batch, 6);
        // with threads to spare the pipelined path still works
        let (multi, _) = engine.run(&imgs, &Schedule::Balanced { threads: 4 });
        assert_eq!(multi.outputs, seq.outputs);
    }

    #[test]
    fn balanced_plan_targets_bottleneck() {
        // stage 1 is 4x slower: extra workers (3 on 4 threads) go there
        let plan = ReplicationPlan::balanced(&[100, 400, 100], 4);
        assert_eq!(plan.factors, vec![1, 4, 1]);
        // cap respected even with surplus budget (8 extra on 16 threads)
        let capped = ReplicationPlan::balanced(&[100, 1000, 100], 16);
        assert_eq!(capped.factors, vec![1, MAX_REPLICATION, 1]);
        // equal stages: workers spread rather than stack
        let even = ReplicationPlan::balanced(&[100, 100], 3);
        assert_eq!(even.workers(), 4);
        // uniform is all ones
        assert_eq!(ReplicationPlan::uniform(3).factors, vec![1, 1, 1]);
    }

    #[test]
    fn balanced_plan_refuses_replication_on_one_thread() {
        // the documented lose-to-sequential case: a 1-thread host must
        // never get a plan that spawns overlapping workers
        let plan = ReplicationPlan::balanced(&[100, 400, 100], 1);
        assert_eq!(plan.factors, vec![1, 1, 1]);
        assert_eq!(ReplicationPlan::balanced(&[900], 0).factors, vec![1]);
    }

    #[test]
    fn adaptive_run_is_bit_identical_and_falls_back_on_one_thread() {
        let design = tc1_design();
        let imgs = batch(&design, 10, 41);
        let engine = ThreadedEngine::new(&design);
        let seq = engine.run_sequential(&imgs);
        let replication = |p: &PipelineProfile| -> Vec<usize> {
            p.stages.iter().map(|s| s.replication).collect()
        };
        // 1-thread host: sequential fallback, uniform plan, bit-identical
        let (res1, prof1) = engine.run(&imgs, &Schedule::Adaptive { threads: 1 });
        assert_eq!(res1.outputs, seq.outputs);
        assert_eq!(replication(&prof1), vec![1; engine.stage_count()]);
        assert!(prof1.stages.iter().all(|s| s.images == 10));
        // multi-thread host: warmup + replanned pipelined chunks, still
        // bit-identical and every image accounted for exactly once
        let (res4, prof4) = engine.run(&imgs, &Schedule::Adaptive { threads: 4 });
        assert_eq!(res4.outputs, seq.outputs);
        assert!(replication(&prof4)
            .iter()
            .all(|f| (1..=MAX_REPLICATION).contains(f)));
        assert!(prof4.stages.iter().all(|s| s.images == 10));
        assert!(res4.completion_times.windows(2).all(|w| w[0] <= w[1]));
        assert!(*res4.completion_times.last().unwrap() <= res4.total);
        // a tiny batch never outruns its warmup: sequential fallback
        let (res_tiny, prof_tiny) = engine.run(&imgs[..2], &Schedule::Adaptive { threads: 4 });
        assert_eq!(res_tiny.outputs, seq.outputs[..2]);
        assert_eq!(replication(&prof_tiny), vec![1; engine.stage_count()]);
    }

    #[test]
    fn profiles_are_each_runs_delta_of_a_reused_plane() {
        let design = tc1_design();
        let (first, second) = (batch(&design, 8, 42), batch(&design, 5, 43));
        let records = |p: &PipelineProfile| -> Vec<StageRecord> {
            p.stages.iter().map(|s| s.record()).collect()
        };
        let schedules = [
            Schedule::Sequential,
            uniform(&ThreadedEngine::new(&design)),
            Schedule::Balanced { threads: 4 },
            Schedule::Adaptive { threads: 4 },
        ];
        for schedule in schedules {
            let engine = ThreadedEngine::new(&design);
            let live = engine.live_metrics();
            let engine = engine.with_live(live.clone());
            // the balanced planning pre-pass bills a private plane, so the
            // attached one counts each image of the batch exactly once
            let (_, p1) = engine.run(&first, &schedule);
            assert_eq!(records(&p1), live.totals(), "{schedule:?}");
            assert!(p1.stages.iter().all(|s| s.images == 8));
            // a second run on the reused plane profiles only its own batch
            let (_, p2) = engine.run(&second, &schedule);
            assert!(p2.stages.iter().all(|s| s.images == 5), "{schedule:?}");
            let mut both = records(&p1);
            for (acc, d) in both.iter_mut().zip(&records(&p2)) {
                acc.accumulate(d);
            }
            assert_eq!(both, live.totals(), "{schedule:?}");
            // the histogram maximum spans the plane's life
            for (s, sp) in p2.stages.iter().enumerate() {
                assert_eq!(sp.max_interval_ns, live.cell(s).interval_stats().max_ns);
                assert!(sp.max_interval_ns >= p1.stages[s].max_interval_ns);
            }
        }
    }

    #[test]
    fn residual_graph_runs_bit_identical_to_hw_forward() {
        let design = crate::graph::fixtures::residual_graph(DesignConfig::default());
        let imgs = batch(&design, 6, 21);
        let engine = ThreadedEngine::new(&design);
        assert_eq!(
            engine.stage_names(),
            vec!["conv1", "conv2", "scaleshift1", "add4", "flatten", "fc1"]
        );
        let (res, _) = engine.run(&imgs, &uniform(&engine));
        for (img, out) in imgs.iter().zip(res.outputs.iter()) {
            assert_eq!(out, &design.hw_forward(img), "engine must be bit-exact");
        }
    }

    #[test]
    fn residual_graph_replication_preserves_order() {
        // the skip operand rides the bundle across three stages; dealing
        // must keep operand pairs together under any replication plan
        let design = crate::graph::fixtures::residual_graph(DesignConfig::default());
        let imgs = batch(&design, 9, 22);
        let engine = ThreadedEngine::new(&design);
        let seq = engine.run_sequential(&imgs);
        for factors in [vec![1, 1, 1, 1, 1, 1], vec![2, 3, 1, 2, 1, 2]] {
            let plan = ReplicationPlan { factors };
            let (res, profile) = engine.run(&imgs, &Schedule::Fixed(plan.clone()));
            assert_eq!(res.outputs, seq.outputs, "plan {:?}", plan.factors);
            assert!(profile.stages.iter().all(|s| s.images == 9));
        }
    }

    #[test]
    fn bundle_plans_keep_the_skip_operand_alive() {
        let design = crate::graph::fixtures::residual_graph(DesignConfig::default());
        let engine = ThreadedEngine::new(&design);
        // stage order: conv1, conv2, scaleshift1, add4, flatten, fc1.
        // conv1's output must survive conv2 and scaleshift1 (slot 0) so
        // add4 can read both operands from its bundle
        assert_eq!(engine.plans[1].keep, vec![0], "conv2 keeps the trunk");
        assert_eq!(engine.plans[2].keep, vec![0], "scaleshift keeps the trunk");
        assert_eq!(engine.plans[3].in_slots.len(), 2, "add reads two slots");
        assert!(engine.plans[3].keep.is_empty(), "add consumes both");
        // chains degenerate to single-slot bundles
        let chain = ThreadedEngine::new(&tc1_design());
        assert!(chain.plans.iter().all(|p| p.keep.is_empty()));
        assert!(chain.plans.iter().all(|p| p.in_slots == vec![0]));
    }
}
