//! Flight-recorder analysis: one per-stage record, unified run reports and
//! drift reports.
//!
//! The cycle simulator's stall taxonomy ([`crate::trace::ActorStallStats`])
//! and the threaded engine's wait timing ([`crate::exec::PipelineProfile`])
//! answer the same operational question — *where does the time of a
//! pipelined run go?* — in different units. Both answer it with the same
//! additive [`StageRecord`] (items, service, queue wait, send wait, idle),
//! which is also what the live cells ([`live`]) total and what their
//! snapshots carry as deltas. This module folds either engine's run into
//! one serialisable [`RunReport`] of those records, in the engine's native
//! unit, and checks a traced simulation against the paper's analytical
//! model with a [`DriftReport`]:
//!
//! - every core's **measured** steady-state interval (from the trace's
//!   initiation timestamps) must not exceed the Eq. 4 **predicted**
//!   pipeline interval — "the pipeline interval is its slowest stage time"
//!   (§IV-C) — plus the bottleneck's per-image SST fill allowance;
//! - every FIFO's occupancy high-water mark must respect its capacity;
//! - every window engine's line-buffer high-water mark must respect the
//!   SST full-buffering bound.
//!
//! [`DriftReport::check`] turns any violation into an error message, which
//! CI runs on the paper designs.

use crate::exec::PipelineProfile;
use crate::graph::NetworkDesign;
use crate::sim::SimResult;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

pub mod live;

pub use live::{MetricUnit, SCHEMA_VERSION};

/// Minimum initiations for a steady-state interval estimate: the quartile
/// span needs enough samples to exclude pipeline fill and drain.
const MIN_INITIATIONS: usize = 8;

/// Relative tolerance on measured vs predicted pipeline interval.
const DRIFT_TOLERANCE: f64 = 0.05;

/// Absolute slack in cycles, so short runs aren't judged on noise.
const DRIFT_SLACK_CYCLES: f64 = 16.0;

/// Steady-state interval per sample from a sorted timestamp sequence: the
/// mean gap over the middle half (quartile span), which excludes the
/// pipeline fill at the start and the drain at the end.
fn quartile_interval(cycles: &[u64]) -> Option<f64> {
    if cycles.len() < MIN_INITIATIONS {
        return None;
    }
    let lo = cycles.len() / 4;
    let hi = cycles.len() * 3 / 4;
    if hi <= lo || cycles[hi] < cycles[lo] {
        return None;
    }
    Some((cycles[hi] - cycles[lo]) as f64 / (hi - lo) as f64)
}

/// One core's measured-vs-predicted throughput comparison.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoreDrift {
    /// Core name.
    pub name: String,
    /// Eq. 4 analytical stage interval (cycles per image).
    pub predicted_stage_interval: u64,
    /// Measured steady-state interval (cycles per image): quartile-span
    /// initiation gap times initiations per image.
    pub measured_interval: f64,
    /// Total initiations observed.
    pub initiations: u64,
    /// Whether the measurement stays within tolerance of the predicted
    /// pipeline interval.
    pub within: bool,
}

/// One FIFO's occupancy high-water mark against its capacity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FifoDrift {
    /// Channel index in allocation order.
    pub channel: usize,
    /// Committed-occupancy high-water mark.
    pub hwm: usize,
    /// FIFO capacity.
    pub capacity: usize,
    /// `hwm <= capacity`.
    pub within: bool,
}

/// One window engine's line-buffer high-water mark against the SST
/// full-buffering bound (both per input port).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BufferDrift {
    /// Core name.
    pub name: String,
    /// Peak per-port line-buffer occupancy.
    pub hwm: usize,
    /// The full-buffering capacity bound.
    pub bound: usize,
    /// `hwm <= bound`.
    pub within: bool,
}

/// Measured run behaviour compared against the analytical model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DriftReport {
    /// Serialisation schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Predicted bottleneck stage name (Eq. 4 / DMA rate).
    pub bottleneck_name: String,
    /// Predicted steady-state pipeline interval in cycles per image.
    pub predicted_pipeline_interval: u64,
    /// Per-image fill allowance: the bottleneck's SST line buffer refills
    /// at every image boundary (its full-buffering bound, §IV-A), dead
    /// time Eq. 4's steady-streaming interval does not count.
    pub bottleneck_fill: u64,
    /// Batch size of the measured run.
    pub batch: usize,
    /// Per-core throughput drift (cores with enough initiations for a
    /// steady-state estimate).
    pub cores: Vec<CoreDrift>,
    /// Per-FIFO occupancy bounds.
    pub fifos: Vec<FifoDrift>,
    /// Per-window-engine line-buffer bounds.
    pub buffers: Vec<BufferDrift>,
}

impl DriftReport {
    /// Compare a traced simulation against the design's analytical model.
    pub fn new(design: &NetworkDesign, res: &SimResult, trace: &Trace) -> Self {
        let (bottleneck_name, predicted) = design.estimated_bottleneck();
        let stage_intervals = design.estimate_stage_intervals();
        let batch = res.completions.len().max(1);
        // The realized per-image period is the Eq. 4 bottleneck interval
        // plus the bottleneck's SST fill at each image boundary (the line
        // buffer drains after an image's last window and must refill to
        // its full-buffering bound before the next image's first); the
        // relative tolerance absorbs row-turnaround bubbles.
        let bottleneck_fill = res
            .actor_stats
            .iter()
            .find(|s| s.name == bottleneck_name)
            .and_then(|s| s.buffer_hwm)
            .map(|(_, bound)| bound as u64)
            .unwrap_or(0);
        let limit =
            (predicted + bottleneck_fill) as f64 * (1.0 + DRIFT_TOLERANCE) + DRIFT_SLACK_CYCLES;

        let mut cores = Vec::new();
        for stats in &res.actor_stats {
            let inits = trace.initiation_cycles(&stats.name);
            let gap = match quartile_interval(&inits) {
                Some(g) => g,
                // Move-only cores (forks, joins, scale-shifts) record one
                // `Emit` per value instead of compute initiations; for
                // those the emit stream is the steady-state signal. Only
                // design cores qualify — endpoints and port adapters also
                // emit but have no Eq. 4 stage interval to drift from.
                None => {
                    let is_core = stage_intervals.iter().any(|(n, _)| n == &stats.name);
                    match is_core
                        .then(|| quartile_interval(&trace.emit_cycles(&stats.name)))
                        .flatten()
                    {
                        Some(g) => g,
                        None => continue, // endpoints, adapters, cold cores
                    }
                }
            };
            let per_image = stats.initiations as f64 / batch as f64;
            let measured_interval = gap * per_image;
            let predicted_stage_interval = stage_intervals
                .iter()
                .find(|(n, _)| n == &stats.name)
                .map(|&(_, cyc)| cyc)
                .unwrap_or(0);
            cores.push(CoreDrift {
                name: stats.name.clone(),
                predicted_stage_interval,
                measured_interval,
                initiations: stats.initiations,
                within: measured_interval <= limit,
            });
        }

        let fifos = res
            .fifo_stats
            .iter()
            .enumerate()
            .map(|(channel, f)| FifoDrift {
                channel,
                hwm: f.max_occupancy,
                capacity: f.capacity,
                within: f.max_occupancy <= f.capacity,
            })
            .collect();

        let buffers = res
            .actor_stats
            .iter()
            .filter_map(|s| {
                s.buffer_hwm.map(|(hwm, bound)| BufferDrift {
                    name: s.name.clone(),
                    hwm,
                    bound,
                    within: hwm <= bound,
                })
            })
            .collect();

        DriftReport {
            schema_version: SCHEMA_VERSION,
            bottleneck_name,
            predicted_pipeline_interval: predicted,
            bottleneck_fill,
            batch,
            cores,
            fifos,
            buffers,
        }
    }

    /// `Ok(())` when every measurement respects its model bound; otherwise
    /// one message naming every violation.
    pub fn check(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        for c in &self.cores {
            if !c.within {
                problems.push(format!(
                    "core {}: measured interval {:.1} exceeds predicted pipeline \
                     interval {} + fill {} (bottleneck {})",
                    c.name,
                    c.measured_interval,
                    self.predicted_pipeline_interval,
                    self.bottleneck_fill,
                    self.bottleneck_name
                ));
            }
        }
        for f in &self.fifos {
            if !f.within {
                problems.push(format!(
                    "fifo {}: occupancy HWM {} exceeds capacity {}",
                    f.channel, f.hwm, f.capacity
                ));
            }
        }
        for b in &self.buffers {
            if !b.within {
                problems.push(format!(
                    "core {}: line-buffer HWM {} exceeds the full-buffering \
                     bound {}",
                    b.name, b.hwm, b.bound
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// Fixed-width text table for console output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "predicted bottleneck: {} at {} cycles/image + {} fill (batch {})\n\
             core       predicted  measured   init     ok\n",
            self.bottleneck_name,
            self.predicted_pipeline_interval,
            self.bottleneck_fill,
            self.batch
        );
        for c in &self.cores {
            out.push_str(&format!(
                "{:<10} {:>9} {:>9.1} {:>7} {:>5}\n",
                c.name,
                c.predicted_stage_interval,
                c.measured_interval,
                c.initiations,
                if c.within { "yes" } else { "NO" }
            ));
        }
        for b in &self.buffers {
            out.push_str(&format!(
                "buffer {:<10} hwm {:>5} / bound {:>5} {}\n",
                b.name,
                b.hwm,
                b.bound,
                if b.within { "ok" } else { "VIOLATION" }
            ));
        }
        out
    }
}

/// One stage's additive counters over some span of a run: a live delta,
/// a cell's cumulative total, a run report row or the source of a host
/// profile row. Every time counter is in the unit of the plane or report
/// that holds the record ([`MetricUnit`]), so records add, subtract and
/// compare exactly; any conversion happens only when rendering.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Stage / actor name.
    pub name: String,
    /// Work items completed: compute initiations in the simulator, whole
    /// images in the threaded host engine.
    pub items: u64,
    /// Time spent doing work (`Stall::Computing` cycles / worker busy ns).
    pub service: u64,
    /// Time blocked waiting for input (`Stall::Starved` / queue wait).
    pub queue_wait: u64,
    /// Time blocked pushing output downstream (`Stall::Backpressured` /
    /// send wait).
    pub send_wait: u64,
    /// Time with nothing to do (`Stall::Idle`). The threaded engine cannot
    /// tell idle from starved, so it reports 0 here and folds the pipeline
    /// fill/drain tails into `queue_wait`.
    pub idle: u64,
}

impl StageRecord {
    /// The mean of `total` per item counted (0 when none), e.g.
    /// `r.per_item(r.service)` for the mean service time.
    pub(crate) fn per_item(&self, total: u64) -> u64 {
        total.checked_div(self.items).unwrap_or(0)
    }

    /// What this stage counted since the `earlier` reading of the same
    /// monotone counters.
    pub(crate) fn delta_since(&self, earlier: &StageRecord) -> StageRecord {
        debug_assert_eq!(self.name, earlier.name);
        StageRecord {
            name: self.name.clone(),
            items: self.items - earlier.items,
            service: self.service - earlier.service,
            queue_wait: self.queue_wait - earlier.queue_wait,
            send_wait: self.send_wait - earlier.send_wait,
            idle: self.idle - earlier.idle,
        }
    }

    /// Add another span of the same stage.
    pub(crate) fn accumulate(&mut self, other: &StageRecord) {
        debug_assert_eq!(self.name, other.name);
        self.items += other.items;
        self.service += other.service;
        self.queue_wait += other.queue_wait;
        self.send_wait += other.send_wait;
        self.idle += other.idle;
    }
}

/// The common observability record both engines emit: where each stage's
/// time went over one batch. Counts stay in the engine's native unit
/// (simulated cycles or wall-clock nanoseconds), so a report equals the
/// live cells of the same run exactly; [`RunReport::render`] converts to
/// microseconds with `ns_per_unit`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Serialisation schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Which engine produced the report (`cycle-sim` or `threaded-host`).
    pub engine: String,
    /// Batch size.
    pub batch: usize,
    /// Unit of `total` and of every stage's time counters.
    pub unit: MetricUnit,
    /// Nanoseconds per `unit`: the clock period for cycles, 1 for ns.
    pub ns_per_unit: f64,
    /// Total run time.
    pub total: u64,
    /// Per-stage counters, in pipeline order.
    pub stages: Vec<StageRecord>,
}

impl RunReport {
    /// Build from a traced simulation at the given core clock.
    pub fn from_sim(res: &SimResult, clock_hz: u64) -> Self {
        RunReport {
            schema_version: SCHEMA_VERSION,
            engine: "cycle-sim".to_string(),
            batch: res.completions.len(),
            unit: MetricUnit::Cycles,
            ns_per_unit: 1e9 / clock_hz as f64,
            total: res.cycles,
            stages: res
                .stalls
                .iter()
                .zip(&res.actor_stats)
                .map(|(s, a)| StageRecord {
                    name: s.name.clone(),
                    items: a.initiations,
                    service: s.computing,
                    queue_wait: s.starved_total(),
                    send_wait: s.backpressured_total(),
                    idle: s.idle,
                })
                .collect(),
        }
    }

    /// Build from a threaded-engine profile, whose exact per-stage totals
    /// are the run's delta of the engine's live cells.
    pub fn from_profile(profile: &PipelineProfile) -> Self {
        RunReport {
            schema_version: SCHEMA_VERSION,
            engine: "threaded-host".to_string(),
            batch: profile.batch,
            unit: MetricUnit::Nanos,
            ns_per_unit: 1.0,
            total: profile.total_ns,
            stages: profile.stages.iter().map(|s| s.record()).collect(),
        }
    }

    /// Fixed-width text table for console output, in microseconds.
    pub fn render(&self) -> String {
        let us = |v: u64| v as f64 * self.ns_per_unit / 1e3;
        let mut out = format!(
            "engine {} batch {} total {:.1} us\n\
             stage           items  service_us  starved_us  blocked_us  idle_us\n",
            self.engine,
            self.batch,
            us(self.total)
        );
        for s in &self.stages {
            out.push_str(&format!(
                "{:<12} {:>8} {:>11.1} {:>11.1} {:>11.1} {:>8.1}\n",
                s.name,
                s.items,
                us(s.service),
                us(s.queue_wait),
                us(s.send_wait),
                us(s.idle),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::StageProfile;

    #[test]
    fn quartile_interval_ignores_fill_and_drain() {
        // fill: 3 slow gaps, steady: gap 10, drain: slow again
        let mut cycles = vec![0u64, 50, 100, 150];
        for k in 0..12 {
            cycles.push(160 + k * 10);
        }
        cycles.push(800);
        let ii = quartile_interval(&cycles).unwrap();
        assert!((ii - 10.0).abs() < 2.0, "ii = {ii}");
    }

    #[test]
    fn quartile_interval_needs_enough_samples() {
        assert!(quartile_interval(&[0, 10, 20]).is_none());
        assert!(quartile_interval(&[]).is_none());
    }

    #[test]
    fn run_report_from_profile_keeps_exact_totals() {
        let profile = PipelineProfile {
            stages: vec![StageProfile {
                name: "conv1".into(),
                replication: 1,
                images: 4,
                mean_interval_ns: 100,
                max_interval_ns: 150,
                service_total_ns: 403,
                queue_wait_total_ns: 81,
                send_wait_total_ns: 22,
            }],
            batch: 4,
            total_ns: 1000,
        };
        let report = RunReport::from_profile(&profile);
        assert_eq!(report.engine, "threaded-host");
        assert_eq!(report.unit, MetricUnit::Nanos);
        // exact totals, not mean × images (which would say 400/80/20)
        let want = StageRecord {
            name: "conv1".into(),
            items: 4,
            service: 403,
            queue_wait: 81,
            send_wait: 22,
            idle: 0,
        };
        assert_eq!(report.stages, vec![want]);
        assert_eq!(report.stages[0].per_item(report.stages[0].service), 100);
        assert_eq!(StageRecord::default().per_item(9), 0, "no items, no mean");
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(json.contains("\"schema_version\""));
        assert!(report.render().contains("conv1"));
    }
}
