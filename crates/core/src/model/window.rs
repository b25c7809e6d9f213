//! The windowed compute-core shape shared by conv and pooling.
//!
//! §IV-A builds every windowed layer from one template: an SST memory
//! structure feeding a pipelined compute core; §IV-C adds that the pooling
//! cores "act as a standard filter". [`WindowCore`] is that template as a
//! cycle actor. It couples a [`WindowEngine`] with initiations at the Eq. 4
//! interval, a pipeline depth derived from the operator latencies, and
//! serialised emission over its output ports. A layer kind supplies only
//! its per-window compute ([`WindowCompute`]) and its depth.

use crate::sim::{Actor, Quiescence, Wiring};
use crate::sst::WindowEngine;
use crate::stream::{ChannelId, ChannelSet};
use crate::trace::{EventKind, Stall, Trace};
use dfcnn_tensor::ConvGeometry;
use std::collections::VecDeque;

/// Per-output-port emission queue with pipeline-latency timestamps.
///
/// Compute results enter with a `ready_cycle`; [`OutputQueue::drain`] moves
/// at most one value per port per cycle into the output FIFOs, respecting
/// both the pipeline latency and downstream backpressure.
#[derive(Clone, Debug)]
pub(crate) struct OutputQueue {
    queues: Vec<VecDeque<(u64, f32)>>,
    chs: Vec<ChannelId>,
}

impl OutputQueue {
    pub(crate) fn new(chs: Vec<ChannelId>) -> Self {
        OutputQueue {
            queues: vec![VecDeque::new(); chs.len()],
            chs,
        }
    }

    /// Schedule interleaved emission of `values`: value `k` leaves port
    /// `k mod P` at `base_cycle + k/P` (one value per port per cycle).
    pub(crate) fn schedule(&mut self, base_cycle: u64, values: &[f32]) {
        let p = self.chs.len();
        for (k, &v) in values.iter().enumerate() {
            self.queues[k % p].push_back((base_cycle + (k / p) as u64, v));
        }
    }

    /// Emit everything that is ready and accepted downstream.
    pub(crate) fn drain(&mut self, cycle: u64, chans: &mut ChannelSet) -> usize {
        let mut emitted = 0;
        for (q, &ch) in self.queues.iter_mut().zip(self.chs.iter()) {
            if let Some(&(ready, v)) = q.front() {
                if cycle >= ready && chans.can_push(ch) {
                    chans.push(ch, v);
                    q.pop_front();
                    emitted += 1;
                }
            }
        }
        emitted
    }

    /// Longest per-port backlog (total values queued, including those
    /// still travelling through the compute pipeline). Used by tests to
    /// observe drain progress; initiation throttling uses
    /// [`OutputQueue::stalled_backlog`].
    #[cfg(test)]
    pub(crate) fn max_backlog(&self) -> usize {
        self.queues.iter().map(|q| q.len()).max().unwrap_or(0)
    }

    /// Longest per-port backlog of values that are *ready but unsent* —
    /// i.e. stalled by downstream backpressure rather than still in the
    /// pipeline. This is the signal that should throttle initiations: a
    /// pipelined core keeps many results in flight, but stops issuing when
    /// its output FIFO stops draining. Reference form of
    /// [`OutputQueue::backlog_exceeds`], kept for the equivalence test.
    #[cfg(test)]
    pub(crate) fn stalled_backlog(&self, cycle: u64) -> usize {
        self.queues
            .iter()
            .map(|q| q.iter().filter(|&&(ready, _)| ready <= cycle).count())
            .max()
            .unwrap_or(0)
    }

    /// Whether [`OutputQueue::stalled_backlog`] exceeds `limit`, with an
    /// early exit — the hot-path form used by initiation gating and the
    /// quiescence checks.
    pub(crate) fn backlog_exceeds(&self, cycle: u64, limit: usize) -> bool {
        self.queues.iter().any(|q| {
            let mut stalled = 0usize;
            for &(ready, _) in q.iter() {
                if ready <= cycle {
                    stalled += 1;
                    if stalled > limit {
                        return true;
                    }
                }
            }
            false
        })
    }

    /// Whether any value is still queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// The output channels, in port order.
    pub(crate) fn channels(&self) -> &[ChannelId] {
        &self.chs
    }

    /// `(port, ready_cycle, channel)` of each non-empty port's head value.
    pub(crate) fn heads(&self) -> impl Iterator<Item = (usize, u64, ChannelId)> + '_ {
        self.queues
            .iter()
            .zip(self.chs.iter())
            .enumerate()
            .filter_map(|(p, (q, &ch))| q.front().map(|&(ready, _)| (p, ready, ch)))
    }
}

/// The per-window compute of a windowed layer kind, statically dispatched
/// inside [`WindowCore`].
pub(crate) trait WindowCompute {
    /// Values produced per window (`OUT_FM` for conv, the channel count
    /// for pooling).
    fn outputs(&self) -> usize;

    /// Compute one window (in [`WindowEngine`] `(f, dy, dx)` layout) into
    /// `outputs()` values for the `f32` stream transport. Quantisation of
    /// the window and dequantisation of the results happen inside, so the
    /// kind's element type never leaks into the actor.
    fn compute(&mut self, window: &[f32], out: &mut [f32]);
}

/// A windowed compute core plus its SST memory structure.
///
/// Per cycle it: (1) drains ready results onto its output ports, (2)
/// accepts at most one value per input port into the line buffers, and (3)
/// when the next window is complete, the II timer has elapsed and the
/// previous initiation's results have left the emission queue, *initiates*:
/// computes all outputs for the window in hardware order and schedules
/// their interleaved emission after the pipeline depth.
pub(crate) struct WindowCore<K> {
    name: String,
    engine: WindowEngine,
    in_chs: Vec<ChannelId>,
    out_q: OutputQueue,
    kernel: K,
    /// Eq. 4 initiation interval.
    ii: u64,
    /// Pipeline depth of the compute body in cycles.
    depth: u64,
    out_per_port: usize,
    next_initiation: u64,
    window_buf: Vec<f32>,
    out_buf: Vec<f32>,
    inits: u64,
}

impl<K: WindowCompute> WindowCore<K> {
    /// Build a core over `geo` with one line buffer per input channel.
    /// `ii` must come from Eq. 4 ([`dfcnn_hls::ii::pipeline_ii`], via the
    /// kind's [`super::CoreModel::plan`]).
    pub(crate) fn new(
        name: String,
        geo: ConvGeometry,
        in_chs: Vec<ChannelId>,
        out_chs: Vec<ChannelId>,
        ii: usize,
        depth: u64,
        kernel: K,
    ) -> Self {
        let outputs = kernel.outputs();
        assert_eq!(outputs % out_chs.len(), 0, "OUT_PORTS must divide OUT_FM");
        WindowCore {
            name,
            engine: WindowEngine::new(geo, in_chs.len()),
            in_chs,
            out_per_port: outputs / out_chs.len(),
            out_q: OutputQueue::new(out_chs),
            kernel,
            ii: ii as u64,
            depth,
            next_initiation: 0,
            window_buf: vec![0.0; geo.window_volume()],
            out_buf: vec![0.0; outputs],
            inits: 0,
        }
    }

    /// Override the line-buffer capacity per port (fault injection; see
    /// [`crate::graph::DesignConfig::line_buffer_cap`]). `None` keeps the
    /// SST full-buffering bound.
    pub(crate) fn with_line_buffer_cap(mut self, cap: Option<usize>) -> Self {
        if let Some(c) = cap {
            self.engine = self.engine.with_capacity_per_port(c);
        }
        self
    }
}

impl<K: WindowCompute> Actor for WindowCore<K> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) {
        // 1. emission
        if self.out_q.drain(cycle, chans) > 0 {
            trace.record(cycle, &self.name, EventKind::Emit);
        }
        // 2. input acceptance: one value per port per cycle
        for (p, &ch) in self.in_chs.iter().enumerate() {
            if self.engine.can_accept(p) && chans.peek(ch).is_some() {
                let v = chans.pop(ch).unwrap();
                self.engine.accept(p, v);
            }
        }
        // 3. initiation
        if cycle >= self.next_initiation
            && self.engine.window_ready()
            && !self.out_q.backlog_exceeds(cycle, self.out_per_port)
        {
            self.engine.extract(&mut self.window_buf);
            self.kernel.compute(&self.window_buf, &mut self.out_buf);
            self.out_q.schedule(cycle + self.depth, &self.out_buf);
            self.next_initiation = cycle + self.ii;
            self.inits += 1;
            trace.record(cycle, &self.name, EventKind::Initiate);
        }
    }

    fn busy(&self) -> bool {
        !self.out_q.is_empty() || self.engine.window_ready()
    }

    fn initiations(&self) -> u64 {
        self.inits
    }

    fn wiring(&self) -> Wiring {
        Wiring {
            inputs: self.in_chs.clone(),
            outputs: self.out_q.channels().to_vec(),
        }
    }

    /// The core can do something at `now + 1` — and must stay active — iff
    /// one of its three tick phases would fire: an emission head is ready
    /// and its FIFO has space, an input port can accept a value that is
    /// (or becomes) visible, or an initiation is due. Otherwise it sleeps:
    /// blocked emissions are woken by downstream pops, starved inputs by
    /// upstream pushes, and purely time-gated work (pipeline latency, the
    /// II timer) by the earliest known ready cycle. Early wake-ups
    /// re-evaluate harmlessly.
    fn quiescence(&self, now: u64, chans: &ChannelSet) -> Quiescence {
        let mut wake: Option<u64> = None;
        let merge = |wake: &mut Option<u64>, t: u64| {
            *wake = Some(wake.map_or(t, |w| w.min(t)));
        };
        for (_, ready, ch) in self.out_q.heads() {
            if chans.can_push(ch) {
                if ready <= now + 1 {
                    return Quiescence::Active;
                }
                merge(&mut wake, ready);
            }
            // no space: the consumer's pop wakes us
        }
        for (p, &ch) in self.in_chs.iter().enumerate() {
            if self.engine.can_accept(p) && chans.peek(ch).is_some() {
                return Quiescence::Active;
            }
            // can accept but starved: the producer's push wakes us;
            // cannot accept: only our own initiation frees space, below
        }
        if self.engine.window_ready() && !self.out_q.backlog_exceeds(now + 1, self.out_per_port) {
            if now + 1 >= self.next_initiation {
                return Quiescence::Active;
            }
            merge(&mut wake, self.next_initiation);
        }
        Quiescence::Wait(wake)
    }

    /// Priority order: a blocked emission head is `Backpressured`
    /// (regardless of whether the pipeline latency has elapsed — the
    /// output path is what's jammed), an acceptable-but-empty input port
    /// is `Starved`, any in-flight result or buffered window is
    /// `Computing` (pipeline latency / II pacing), and a core with nothing
    /// anywhere is `Idle`. A pure function of actor and wired-channel
    /// state, as [`Actor::stall`] requires.
    fn stall(&self, chans: &ChannelSet) -> Stall {
        for (port, _, ch) in self.out_q.heads() {
            if !chans.can_push(ch) {
                return Stall::Backpressured(port);
            }
        }
        for (p, &ch) in self.in_chs.iter().enumerate() {
            if self.engine.can_accept(p) && chans.peek(ch).is_none() {
                return Stall::Starved(p);
            }
        }
        if self.busy() {
            return Stall::Computing;
        }
        Stall::Idle
    }

    fn buffer_hwm(&self) -> Option<(usize, usize)> {
        // peak per-port line-buffer occupancy vs the SST full-buffering
        // bound (both per port)
        Some((self.engine.max_occupancy(), self.engine.capacity_per_port()))
    }
}

/// Test harness shared by the windowed kinds' actor tests: stream images
/// through an isolated core and collect its outputs in stream order.
#[cfg(test)]
pub(crate) mod harness {
    use super::*;
    use dfcnn_tensor::{Shape3, Tensor3};

    /// Wire a core built by `build` to `in_ports`/`out_ports` fresh
    /// channels, feed `img` FM-interleaved over the input ports, collect
    /// the `out_shape` outputs (value `k` of a window leaves port
    /// `k mod P`), and return them with the cycle count the image took.
    pub(crate) fn run_window<K: WindowCompute>(
        in_ports: usize,
        out_ports: usize,
        build: impl FnOnce(Vec<ChannelId>, Vec<ChannelId>) -> WindowCore<K>,
        img: &Tensor3<f32>,
        out_shape: Shape3,
    ) -> (Tensor3<f32>, u64) {
        let mut chans = ChannelSet::new();
        let ins: Vec<_> = (0..in_ports).map(|_| chans.alloc(8)).collect();
        let outs: Vec<_> = (0..out_ports).map(|_| chans.alloc(8)).collect();
        let mut core = build(ins.clone(), outs.clone());
        let mut streams: Vec<Vec<f32>> = vec![Vec::new(); in_ports];
        for v in img.as_slice().chunks(img.shape().c) {
            for (f, &x) in v.iter().enumerate() {
                streams[f % in_ports].push(x);
            }
        }
        let mut cursors = vec![0usize; in_ports];
        let mut collected = Vec::with_capacity(out_shape.len());
        let mut trace = Trace::disabled();
        let mut cycle = 0u64;
        let mut next_fm = 0usize;
        while collected.len() < out_shape.len() {
            for (p, &ch) in ins.iter().enumerate() {
                if cursors[p] < streams[p].len() && chans.can_push(ch) {
                    chans.push(ch, streams[p][cursors[p]]);
                    cursors[p] += 1;
                }
            }
            core.tick(cycle, &mut chans, &mut trace);
            while let Some(v) = chans.pop(outs[next_fm % out_ports]) {
                collected.push(v);
                next_fm = (next_fm + 1) % out_shape.c;
            }
            chans.commit_all();
            cycle += 1;
            assert!(cycle < 2_000_000, "{} made no progress", core.name);
        }
        (Tensor3::from_vec(out_shape, collected), cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_interleaves_over_ports() {
        let mut chans = ChannelSet::new();
        let p0 = chans.alloc(8);
        let p1 = chans.alloc(8);
        let mut q = OutputQueue::new(vec![p0, p1]);
        q.schedule(10, &[1.0, 2.0, 3.0, 4.0]);
        // port0: (10,1),(11,3); port1: (10,2),(11,4)
        assert_eq!(q.drain(9, &mut chans), 0, "nothing ready before base");
        assert_eq!(q.drain(10, &mut chans), 2);
        chans.commit_all();
        assert_eq!(q.drain(11, &mut chans), 2);
        chans.commit_all();
        assert!(q.is_empty());
        assert_eq!(chans.pop(p0), Some(1.0));
        assert_eq!(chans.pop(p0), Some(3.0));
        assert_eq!(chans.pop(p1), Some(2.0));
        assert_eq!(chans.pop(p1), Some(4.0));
    }

    #[test]
    fn backlog_exceeds_matches_stalled_backlog() {
        let mut chans = ChannelSet::new();
        let p0 = chans.alloc(8);
        let p1 = chans.alloc(8);
        let mut q = OutputQueue::new(vec![p0, p1]);
        q.schedule(5, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        for cycle in [0u64, 5, 6, 100] {
            for limit in 0..4 {
                assert_eq!(
                    q.backlog_exceeds(cycle, limit),
                    q.stalled_backlog(cycle) > limit,
                    "cycle {cycle} limit {limit}"
                );
            }
        }
    }

    #[test]
    fn drain_respects_backpressure() {
        let mut chans = ChannelSet::new();
        let p0 = chans.alloc(1);
        let mut q = OutputQueue::new(vec![p0]);
        q.schedule(0, &[1.0, 2.0]);
        assert_eq!(q.drain(5, &mut chans), 1);
        assert_eq!(q.drain(6, &mut chans), 0, "FIFO full (uncommitted)");
        chans.commit_all();
        assert_eq!(q.drain(7, &mut chans), 0, "FIFO still full");
        chans.pop(p0);
        assert_eq!(q.drain(8, &mut chans), 1);
        assert_eq!(q.max_backlog(), 0);
    }
}
