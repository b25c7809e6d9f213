//! Live telemetry: lock-free in-flight metrics, sampled snapshots and
//! streaming exporters.
//!
//! The flight recorder answers *where did the time go* only after a run
//! completes. This module makes the same counters observable **while the
//! run executes**: every engine (dense sim, event sim, threaded host)
//! bills a [`LiveMetrics`] plane — one lock-free [`MetricCell`] per
//! stage/actor — from the hot path with relaxed atomic adds. A
//! [`Sampler`] turns the monotone cumulative counters into periodic
//! [`MetricsSnapshot`] *deltas* on a configurable tick, and two exporters
//! stream them out: Prometheus-style text exposition
//! ([`LiveMetrics::render_prometheus`]) and a JSONL time-series
//! ([`snapshots_to_jsonl`]) that also feeds the Perfetto counter tracks
//! ([`crate::trace::Trace::to_chrome_json_with_metrics`]).
//!
//! # One record, summed two ways
//!
//! A cell's cumulative totals ([`LiveMetrics::totals`]), a snapshot's
//! deltas, the sum of all deltas ([`sum_deltas`]) and a
//! [`crate::observe::RunReport`]'s rows are all the same type,
//! [`StageRecord`], in the plane's unit. Telemetry is only trustworthy if
//! it cannot drift from the post-hoc truth, so:
//!
//! * the simulator mirrors every [`crate::trace::Stall`] classification
//!   into the cells cycle-for-cycle, so `sum_deltas` of a run sampled to
//!   completion equals `RunReport::from_sim(..).stages` and the cell
//!   totals — one `assert_eq!` between `Vec<StageRecord>`s;
//! * the threaded engine has no other per-stage accumulator: each
//!   [`crate::exec::StageProfile`] row *is* the run's delta of the cells
//!   it billed, so `RunReport::from_profile(..).stages` equals the summed
//!   snapshot deltas of that run.
//!
//! `tests/live_telemetry.rs` pins both, on the paper test cases and on
//! the random-design corpus.
//!
//! One caveat inherited from the event-driven scheduler: sleeping actors
//! are billed lazily (back-fill at the next tick), so a *mid-run*
//! snapshot can lag the dense sweep's view of the same cycle. Only the
//! sum of all deltas — equivalently, the final cumulative totals — is
//! scheduler-independent.
//!
//! # Memory ordering
//!
//! All cell operations use `Ordering::Relaxed`: each counter is
//! individually monotone, samplers only ever read (possibly slightly
//! stale) points on that monotone staircase, and exact reconciliation is
//! read after the run's threads have joined — a happens-before edge that
//! makes the final totals precise without any fences in the hot path.

use crate::observe::StageRecord;
use crate::trace::{bucket_of, IntervalStats, Stall};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema version stamped into every serialised observability record
/// ([`MetricsSnapshot`], [`crate::observe::RunReport`],
/// [`crate::observe::DriftReport`]), so exporter consumers can evolve
/// safely.
pub const SCHEMA_VERSION: u32 = 2;

/// The time unit a telemetry source counts in: the cycle-accurate
/// simulator bills simulated **cycles**, the threaded host engine bills
/// wall-clock **nanoseconds**. Carried in every snapshot so exporters can
/// label axes without guessing the producer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricUnit {
    /// Simulated fabric cycles (cycle simulator, both schedulers).
    Cycles,
    /// Wall-clock nanoseconds (threaded host engine).
    Nanos,
}

impl MetricUnit {
    /// Lower-case label for exposition formats.
    pub fn label(&self) -> &'static str {
        match self {
            MetricUnit::Cycles => "cycles",
            MetricUnit::Nanos => "ns",
        }
    }
}

/// One stage's (or actor's) lock-free metric cell: monotone atomic
/// counters plus a fixed 64-bucket power-of-two interval histogram — the
/// same bucket scheme as [`IntervalStats`], so live quantiles and
/// post-hoc quantiles agree bit-for-bit. All writes are single relaxed
/// `fetch_add`s (plus a `fetch_min`/`fetch_max` pair per interval), cheap
/// enough for every engine's hot path.
#[derive(Debug)]
pub struct MetricCell {
    items: AtomicU64,
    service: AtomicU64,
    queue_wait: AtomicU64,
    send_wait: AtomicU64,
    idle: AtomicU64,
    int_count: AtomicU64,
    int_total: AtomicU64,
    int_max: AtomicU64,
    /// `u64::MAX` until the first interval lands.
    int_min: AtomicU64,
    int_buckets: [AtomicU64; 64],
}

impl MetricCell {
    fn new() -> Self {
        MetricCell {
            items: AtomicU64::new(0),
            service: AtomicU64::new(0),
            queue_wait: AtomicU64::new(0),
            send_wait: AtomicU64::new(0),
            idle: AtomicU64::new(0),
            int_count: AtomicU64::new(0),
            int_total: AtomicU64::new(0),
            int_max: AtomicU64::new(0),
            int_min: AtomicU64::new(u64::MAX),
            int_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Count `n` completed work items (initiations / images).
    #[inline]
    pub fn add_items(&self, n: u64) {
        self.items.fetch_add(n, Ordering::Relaxed);
    }

    /// Bill `n` units of service time (busy compute).
    #[inline]
    pub fn add_service(&self, n: u64) {
        self.service.fetch_add(n, Ordering::Relaxed);
    }

    /// Bill `n` units blocked waiting for input.
    #[inline]
    pub fn add_queue_wait(&self, n: u64) {
        self.queue_wait.fetch_add(n, Ordering::Relaxed);
    }

    /// Bill `n` units blocked pushing output downstream.
    #[inline]
    pub fn add_send_wait(&self, n: u64) {
        self.send_wait.fetch_add(n, Ordering::Relaxed);
    }

    /// Bill `n` units with nothing to do.
    #[inline]
    pub fn add_idle(&self, n: u64) {
        self.idle.fetch_add(n, Ordering::Relaxed);
    }

    /// Bill one image served in `ns` of service time — the host engine's
    /// per-image record: an item, its service and its histogram interval.
    #[inline]
    pub(crate) fn add_image(&self, ns: u64) {
        self.add_items(1);
        self.add_service(ns);
        self.record_interval(ns);
    }

    /// Bill `n` units of the simulator's stall taxonomy — the mapping the
    /// flight recorder mirrors: `Computing → service`,
    /// `Starved → queue_wait`, `Backpressured → send_wait`, `Idle → idle`.
    #[inline]
    pub fn add_stall(&self, class: Stall, n: u64) {
        match class {
            Stall::Computing => self.add_service(n),
            Stall::Starved(_) => self.add_queue_wait(n),
            Stall::Backpressured(_) => self.add_send_wait(n),
            Stall::Idle => self.add_idle(n),
        }
    }

    /// Record one measured interval (inter-initiation gap in cycles, or
    /// per-image service time in ns) into the fixed-bucket histogram.
    #[inline]
    pub fn record_interval(&self, v: u64) {
        self.int_count.fetch_add(1, Ordering::Relaxed);
        self.int_total.fetch_add(v, Ordering::Relaxed);
        self.int_max.fetch_max(v, Ordering::Relaxed);
        self.int_min.fetch_min(v, Ordering::Relaxed);
        self.int_buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// The cumulative counters, as stage `name`'s record.
    fn record(&self, name: &str) -> StageRecord {
        StageRecord {
            name: name.to_string(),
            items: self.items.load(Ordering::Relaxed),
            service: self.service.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.load(Ordering::Relaxed),
            send_wait: self.send_wait.load(Ordering::Relaxed),
            idle: self.idle.load(Ordering::Relaxed),
        }
    }

    /// Fold the live histogram back into an [`IntervalStats`], reusing
    /// its quantile machinery (the buckets are bit-compatible).
    pub fn interval_stats(&self) -> IntervalStats {
        let count = self.int_count.load(Ordering::Relaxed);
        let min = self.int_min.load(Ordering::Relaxed);
        IntervalStats::from_raw(
            count,
            self.int_total.load(Ordering::Relaxed),
            self.int_max.load(Ordering::Relaxed),
            if count == 0 { 0 } else { min },
            std::array::from_fn(|b| self.int_buckets[b].load(Ordering::Relaxed)),
        )
    }
}

/// The shared metrics plane of one engine instance: one named
/// [`MetricCell`] per stage/actor, in pipeline/actor order. `Sync` by
/// construction (all state is atomic), handed around as an `Arc` so
/// samplers, exporters and the engine observe the same cells
/// concurrently.
#[derive(Debug)]
pub struct LiveMetrics {
    unit: MetricUnit,
    names: Vec<String>,
    cells: Vec<MetricCell>,
}

impl LiveMetrics {
    /// A fresh metrics plane with one zeroed cell per name.
    pub fn new(unit: MetricUnit, names: Vec<String>) -> Arc<Self> {
        let cells = names.iter().map(|_| MetricCell::new()).collect();
        Arc::new(LiveMetrics { unit, names, cells })
    }

    /// The unit every counter in this plane is billed in.
    pub fn unit(&self) -> MetricUnit {
        self.unit
    }

    /// Number of cells (== stages/actors).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plane has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Stage/actor names, in cell order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The cell of stage/actor `i`.
    pub fn cell(&self, i: usize) -> &MetricCell {
        &self.cells[i]
    }

    /// Cumulative counters of every cell, in cell order.
    pub fn totals(&self) -> Vec<StageRecord> {
        self.names
            .iter()
            .zip(&self.cells)
            .map(|(name, c)| c.record(name))
            .collect()
    }

    /// The current p99 of every cell's interval histogram, in cell order.
    fn p99_intervals(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.interval_stats().p99_ns())
            .collect()
    }

    /// Prometheus-style text exposition of the *cumulative* counters —
    /// the pull-model exporter: serve this string from a `/metrics`
    /// endpoint (or just print it) at any point during a run.
    pub fn render_prometheus(&self) -> String {
        let unit = self.unit.label();
        let mut out = String::new();
        type Series = (&'static str, fn(&StageRecord) -> u64, &'static str);
        let series: [Series; 5] = [
            (
                "dfcnn_stage_items_total",
                |c| c.items,
                "Work items completed (initiations or images)",
            ),
            (
                "dfcnn_stage_busy_total",
                |c| c.service,
                "Time spent computing",
            ),
            (
                "dfcnn_stage_queue_wait_total",
                |c| c.queue_wait,
                "Time blocked waiting for input",
            ),
            (
                "dfcnn_stage_send_wait_total",
                |c| c.send_wait,
                "Time blocked pushing output downstream",
            ),
            (
                "dfcnn_stage_idle_total",
                |c| c.idle,
                "Time with nothing to do",
            ),
        ];
        let totals = self.totals();
        for (name, get, help) in series {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for r in &totals {
                out.push_str(&format!(
                    "{name}{{stage=\"{}\",unit=\"{unit}\"}} {}\n",
                    r.name,
                    get(r)
                ));
            }
        }
        out.push_str(
            "# HELP dfcnn_stage_interval_p99 p99 of the measured stage interval\n\
             # TYPE dfcnn_stage_interval_p99 gauge\n",
        );
        for (stage, p99) in self.names.iter().zip(self.p99_intervals()) {
            out.push_str(&format!(
                "dfcnn_stage_interval_p99{{stage=\"{stage}\",unit=\"{unit}\"}} {p99}\n"
            ));
        }
        out
    }
}

/// One sampler tick: per-stage deltas since the previous snapshot. The
/// deltas are exact differences of the monotone cumulative counters, so
/// summing every snapshot of a run reproduces the final totals with no
/// loss — the reconciliation invariant the tests pin.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Serialisation schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Monotone snapshot sequence number, from 0.
    pub seq: u64,
    /// Sample timestamp: cycles since run start ([`MetricUnit::Cycles`])
    /// or nanoseconds since sampler start ([`MetricUnit::Nanos`]).
    pub at: u64,
    /// Unit of `at` and of every time-valued counter.
    pub unit: MetricUnit,
    /// Per-stage deltas, in cell order.
    pub stages: Vec<StageRecord>,
    /// Per-stage cumulative p99 of the measured interval at sample time,
    /// in cell order: a gauge, so it sits beside the additive deltas.
    pub p99_interval: Vec<u64>,
}

/// Turns the cumulative cells into periodic [`MetricsSnapshot`] deltas.
/// The baseline is captured at construction, so a sampler built for a
/// run reports that run's activity even when the cells carried earlier
/// traffic. Single-threaded by design — the simulator drives it inline
/// at cycle boundaries; the host engine wraps one in a
/// [`SpawnedSampler`] thread ticking on wall-clock time.
#[derive(Debug)]
pub struct Sampler {
    live: Arc<LiveMetrics>,
    last: Vec<StageRecord>,
    seq: u64,
    snapshots: Vec<MetricsSnapshot>,
}

impl Sampler {
    /// A sampler over `live`, baselined at the cells' current values.
    pub fn new(live: Arc<LiveMetrics>) -> Self {
        let last = live.totals();
        Sampler {
            live,
            last,
            seq: 0,
            snapshots: Vec::new(),
        }
    }

    /// The metrics plane this sampler reads.
    pub fn live(&self) -> &Arc<LiveMetrics> {
        &self.live
    }

    /// Take one snapshot at timestamp `at`: the delta of every cell since
    /// the previous snapshot (or the construction baseline).
    pub fn sample(&mut self, at: u64) -> &MetricsSnapshot {
        let cur = self.live.totals();
        let stages = cur
            .iter()
            .zip(&self.last)
            .map(|(c, l)| c.delta_since(l))
            .collect();
        self.last = cur;
        let snap = MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            seq: self.seq,
            at,
            unit: self.live.unit(),
            stages,
            p99_interval: self.live.p99_intervals(),
        };
        self.seq += 1;
        self.snapshots.push(snap);
        self.snapshots.last().expect("just pushed")
    }

    /// Snapshots taken so far, in order.
    pub fn snapshots(&self) -> &[MetricsSnapshot] {
        &self.snapshots
    }

    /// Consume the sampler, returning the snapshot time-series.
    pub fn into_snapshots(self) -> Vec<MetricsSnapshot> {
        self.snapshots
    }
}

/// Sum every snapshot's deltas per stage — the reconciliation side of the
/// invariant: for a run sampled to completion (final flush included),
/// this equals the run's final cumulative counters exactly.
pub fn sum_deltas(snapshots: &[MetricsSnapshot]) -> Vec<StageRecord> {
    let Some((first, rest)) = snapshots.split_first() else {
        return Vec::new();
    };
    let mut acc = first.stages.clone();
    for snap in rest {
        for (a, d) in acc.iter_mut().zip(&snap.stages) {
            a.accumulate(d);
        }
    }
    acc
}

/// Render a snapshot time-series as JSONL (one [`MetricsSnapshot`] per
/// line) — the push-model exporter, written alongside the Perfetto trace.
pub fn snapshots_to_jsonl(snapshots: &[MetricsSnapshot]) -> String {
    let mut out = String::new();
    for snap in snapshots {
        out.push_str(&serde_json::to_string(snap).expect("snapshot renders"));
        out.push('\n');
    }
    out
}

/// A background sampling thread for the threaded host engine: ticks on
/// wall-clock time while workers bump the cells, takes a final flush
/// sample on [`SpawnedSampler::finish`]. Finish *after* the engine run
/// returns and the totals reconcile exactly (thread join gives the
/// happens-before edge).
#[derive(Debug)]
pub struct SpawnedSampler {
    /// Dropped to wake the thread and stop the tick loop.
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<Sampler>,
}

impl SpawnedSampler {
    /// Spawn a sampler over `live` ticking every `tick` of wall-clock
    /// time; timestamps are nanoseconds since spawn. The baseline is
    /// taken before the thread starts, so traffic recorded as soon as
    /// `spawn` returns lands in the snapshots, not in the baseline.
    pub fn spawn(live: Arc<LiveMetrics>, tick: Duration) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let start = Instant::now();
        let mut sampler = Sampler::new(live);
        let handle = std::thread::spawn(move || {
            // the wait ends early when `finish` drops the sender
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(tick) {
                sampler.sample(start.elapsed().as_nanos() as u64);
            }
            // final flush so the series sums to the cumulative totals
            sampler.sample(start.elapsed().as_nanos() as u64);
            sampler
        });
        SpawnedSampler { stop, handle }
    }

    /// Stop the tick loop at once, take the final flush sample and return
    /// the snapshot time-series.
    pub fn finish(self) -> Vec<MetricsSnapshot> {
        drop(self.stop);
        self.handle
            .join()
            .expect("sampler thread panicked")
            .into_snapshots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> Arc<LiveMetrics> {
        LiveMetrics::new(
            MetricUnit::Cycles,
            vec!["conv1".to_string(), "fc1".to_string()],
        )
    }

    #[test]
    fn cells_accumulate_the_stall_taxonomy() {
        let live = plane();
        live.cell(0).add_stall(Stall::Computing, 5);
        live.cell(0).add_stall(Stall::Starved(2), 3);
        live.cell(0).add_stall(Stall::Backpressured(0), 2);
        live.cell(0).add_stall(Stall::Idle, 7);
        live.cell(0).add_items(4);
        let want = StageRecord {
            name: "conv1".into(),
            items: 4,
            service: 5,
            queue_wait: 3,
            send_wait: 2,
            idle: 7,
        };
        let idle = StageRecord {
            name: "fc1".into(),
            ..StageRecord::default()
        };
        assert_eq!(live.totals(), vec![want, idle]);
    }

    #[test]
    fn cell_histogram_matches_interval_stats() {
        let live = plane();
        let mut reference = IntervalStats::new();
        for v in [3u64, 17, 17, 900, 4] {
            live.cell(0).record_interval(v);
            reference.record(v);
        }
        assert_eq!(live.cell(0).interval_stats(), reference);
        // an untouched cell folds to the empty series
        assert_eq!(live.cell(1).interval_stats(), IntervalStats::new());
    }

    #[test]
    fn sampler_deltas_sum_to_totals() {
        let live = plane();
        let mut sampler = Sampler::new(live.clone());
        live.cell(0).add_service(10);
        live.cell(0).add_items(1);
        sampler.sample(100);
        live.cell(0).add_service(5);
        live.cell(1).add_queue_wait(8);
        sampler.sample(200);
        let snaps = sampler.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].stages[0].service, 10);
        assert_eq!(snaps[1].stages[0].service, 5);
        assert_eq!(snaps[1].stages[1].queue_wait, 8);
        assert_eq!(snaps[0].seq, 0);
        assert_eq!(snaps[1].seq, 1);
        assert_eq!(sum_deltas(snaps), live.totals());
    }

    #[test]
    fn sampler_baselines_at_construction() {
        let live = plane();
        live.cell(0).add_service(100); // pre-existing traffic
        let mut sampler = Sampler::new(live.clone());
        live.cell(0).add_service(7);
        let snap = sampler.sample(1);
        assert_eq!(snap.stages[0].service, 7, "baseline must exclude history");
    }

    #[test]
    fn snapshot_serde_round_trips_with_schema_version() {
        let live = plane();
        let mut sampler = Sampler::new(live.clone());
        live.cell(0).add_items(3);
        live.cell(0).record_interval(12);
        let snap = sampler.sample(64).clone();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"schema_version\""));
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        // the JSONL exporter is one parseable snapshot per line
        let jsonl = snapshots_to_jsonl(sampler.snapshots());
        assert_eq!(jsonl.lines().count(), 1);
        let parsed: MetricsSnapshot = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_exposition_names_every_series() {
        let live = plane();
        live.cell(0).add_items(9);
        live.cell(0).add_service(21);
        live.cell(0).record_interval(40);
        let text = live.render_prometheus();
        assert!(text.contains("# TYPE dfcnn_stage_items_total counter"));
        assert!(text.contains("dfcnn_stage_items_total{stage=\"conv1\",unit=\"cycles\"} 9"));
        assert!(text.contains("dfcnn_stage_busy_total{stage=\"conv1\",unit=\"cycles\"} 21"));
        assert!(text.contains("dfcnn_stage_idle_total{stage=\"fc1\",unit=\"cycles\"} 0"));
        assert!(text.contains("# TYPE dfcnn_stage_interval_p99 gauge"));
    }

    #[test]
    fn spawned_sampler_flushes_on_finish() {
        let live = LiveMetrics::new(MetricUnit::Nanos, vec!["s0".to_string()]);
        let sampler = SpawnedSampler::spawn(live.clone(), Duration::from_millis(1));
        live.cell(0).add_items(5);
        live.cell(0).add_service(1000);
        std::thread::sleep(Duration::from_millis(5));
        let snaps = sampler.finish();
        assert!(!snaps.is_empty());
        assert_eq!(sum_deltas(&snaps), live.totals());
        assert!(snaps.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn spawned_sampler_finishes_without_waiting_out_its_tick() {
        let live = LiveMetrics::new(MetricUnit::Nanos, vec!["s0".to_string()]);
        let sampler = SpawnedSampler::spawn(live.clone(), Duration::from_secs(10));
        live.cell(0).add_items(2);
        live.cell(0).add_send_wait(30);
        let t = Instant::now();
        let snaps = sampler.finish();
        assert!(t.elapsed() < Duration::from_secs(1), "{:?}", t.elapsed());
        // no tick elapsed: the final flush is the only sample
        assert_eq!(snaps.len(), 1);
        assert_eq!(sum_deltas(&snaps), live.totals());
    }

    #[test]
    fn spawned_sampler_baseline_excludes_only_pre_spawn_traffic() {
        let live = LiveMetrics::new(MetricUnit::Nanos, vec!["s0".to_string()]);
        live.cell(0).add_items(3);
        live.cell(0).add_service(700);
        let before = live.totals();
        let sampler = SpawnedSampler::spawn(live.clone(), Duration::from_millis(1));
        // recorded before the sampler thread can have taken any sample
        live.cell(0).add_items(5);
        live.cell(0).add_service(1000);
        live.cell(0).add_queue_wait(40);
        let snaps = sampler.finish();
        let summed = sum_deltas(&snaps);
        assert_eq!(summed[0], live.totals()[0].delta_since(&before[0]));
        assert_eq!(summed[0].items, 5);
    }
}
