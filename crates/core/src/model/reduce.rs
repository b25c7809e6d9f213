//! The accumulate-and-drain compute-core shape shared by FC and the
//! on-fabric log-softmax.
//!
//! §IV-B builds the FC layer as a single-input-port / single-output-port
//! convolution that consumes its whole input vector and then drains its
//! outputs one per cycle; the normalisation core follows the same pattern.
//! [`ReduceCore`] is that shape as a cycle actor: an input loop gated by the
//! kind's initiation interval, a drain latency after the last input, and
//! sequential emission. A layer kind supplies only its whole-vector compute
//! ([`ReduceCompute`]), its input II and its drain latency.

use crate::sim::{Actor, Quiescence, Wiring};
use crate::stream::{ChannelId, ChannelSet};
use crate::trace::{EventKind, Stall, Trace};

/// The whole-vector compute of an accumulate-and-drain layer kind,
/// statically dispatched inside [`ReduceCore`].
pub(crate) trait ReduceCompute {
    /// `(values consumed, values produced)` per image.
    fn shape(&self) -> (usize, usize);

    /// Compute one image's outputs from its buffered inputs, both in the
    /// `f32` stream transport (quantisation happens inside the kernel).
    fn compute(&mut self, inputs: &[f32], out: &mut [f32]);
}

enum Phase {
    /// Consuming input values (the count so far is the buffer length).
    Accumulate,
    /// Emitting output `next_j` no earlier than `ready`.
    Drain { next_j: usize, ready: u64 },
}

/// An accumulate-and-drain compute core. Single input port, single output
/// port. The inputs of an image are buffered and the numerics computed at
/// the last one through the shared kernel, which reproduces the hardware
/// accumulation order; the outputs then leave one per cycle once the drain
/// latency has elapsed.
pub(crate) struct ReduceCore<K> {
    name: String,
    in_ch: ChannelId,
    out_ch: ChannelId,
    kernel: K,
    /// Input-loop initiation interval.
    in_ii: u64,
    /// Drain latency after the last input.
    drain: u64,
    inputs: usize,
    buffer: Vec<f32>,
    results: Vec<f32>,
    phase: Phase,
    next_accept: u64,
    inits: u64,
}

impl<K: ReduceCompute> ReduceCore<K> {
    /// Build a core accepting one input every `in_ii` cycles and starting
    /// to emit `drain` cycles after the last input.
    pub(crate) fn new(
        name: String,
        in_ch: ChannelId,
        out_ch: ChannelId,
        in_ii: u64,
        drain: u64,
        kernel: K,
    ) -> Self {
        let (inputs, outputs) = kernel.shape();
        ReduceCore {
            name,
            in_ch,
            out_ch,
            kernel,
            in_ii,
            drain,
            inputs,
            buffer: Vec::with_capacity(inputs),
            results: vec![0.0; outputs],
            phase: Phase::Accumulate,
            next_accept: 0,
            inits: 0,
        }
    }
}

impl<K: ReduceCompute> Actor for ReduceCore<K> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64, chans: &mut ChannelSet, trace: &mut Trace) {
        match self.phase {
            Phase::Accumulate => {
                if cycle >= self.next_accept && chans.peek(self.in_ch).is_some() {
                    let v = chans.pop(self.in_ch).unwrap();
                    self.buffer.push(v);
                    self.next_accept = cycle + self.in_ii;
                    self.inits += 1;
                    trace.record(cycle, &self.name, EventKind::Initiate);
                    if self.buffer.len() == self.inputs {
                        self.kernel.compute(&self.buffer, &mut self.results);
                        self.buffer.clear();
                        self.phase = Phase::Drain {
                            next_j: 0,
                            ready: cycle + self.drain,
                        };
                    }
                }
            }
            Phase::Drain { next_j, ready } => {
                if cycle >= ready && chans.can_push(self.out_ch) {
                    chans.push(self.out_ch, self.results[next_j]);
                    trace.record(cycle, &self.name, EventKind::Emit);
                    self.phase = if next_j + 1 == self.results.len() {
                        Phase::Accumulate
                    } else {
                        Phase::Drain {
                            next_j: next_j + 1,
                            ready: cycle + 1,
                        }
                    };
                }
            }
        }
    }

    fn busy(&self) -> bool {
        match self.phase {
            Phase::Accumulate => !self.buffer.is_empty(),
            Phase::Drain { .. } => true,
        }
    }

    fn initiations(&self) -> u64 {
        self.inits
    }

    fn wiring(&self) -> Wiring {
        Wiring {
            inputs: vec![self.in_ch],
            outputs: vec![self.out_ch],
        }
    }

    fn quiescence(&self, now: u64, chans: &ChannelSet) -> Quiescence {
        match self.phase {
            Phase::Accumulate => {
                if chans.peek(self.in_ch).is_none() {
                    Quiescence::Wait(None) // starved: push wakes us
                } else if self.next_accept > now + 1 {
                    Quiescence::Wait(Some(self.next_accept)) // II timer
                } else {
                    Quiescence::Active
                }
            }
            Phase::Drain { ready, .. } => {
                if !chans.can_push(self.out_ch) {
                    Quiescence::Wait(None) // backpressured: pop wakes us
                } else if ready > now + 1 {
                    Quiescence::Wait(Some(ready)) // drain latency
                } else {
                    Quiescence::Active
                }
            }
        }
    }

    fn stall(&self, chans: &ChannelSet) -> Stall {
        match self.phase {
            Phase::Accumulate => {
                if chans.peek(self.in_ch).is_some() {
                    Stall::Computing // input present: paced by the II timer
                } else if !self.buffer.is_empty() {
                    Stall::Starved(0) // mid-image, upstream ran dry
                } else {
                    Stall::Idle // between images
                }
            }
            Phase::Drain { .. } => {
                if chans.can_push(self.out_ch) {
                    Stall::Computing // drain latency elapsing
                } else {
                    Stall::Backpressured(0)
                }
            }
        }
    }
}

/// Test harness shared by the accumulate-and-drain kinds' actor tests.
#[cfg(test)]
pub(crate) mod harness {
    use super::*;

    /// Wire a core built by `build` to fresh channels, stream `x` through
    /// it `images` times back to back, and return each image's outputs
    /// with the cycle count the whole batch took.
    pub(crate) fn run_reduce<K: ReduceCompute>(
        build: impl FnOnce(ChannelId, ChannelId) -> ReduceCore<K>,
        x: &[f32],
        images: usize,
    ) -> (Vec<Vec<f32>>, u64) {
        let mut chans = ChannelSet::new();
        let inp = chans.alloc(8);
        let out = chans.alloc(8);
        let mut core = build(inp, out);
        let outputs = core.results.len();
        let feed: Vec<f32> = (0..images).flat_map(|_| x.iter().copied()).collect();
        let mut cursor = 0;
        let mut results = vec![Vec::new(); images];
        let mut img = 0;
        let mut trace = Trace::disabled();
        let mut cycle = 0u64;
        while img < images {
            if cursor < feed.len() && chans.can_push(inp) {
                chans.push(inp, feed[cursor]);
                cursor += 1;
            }
            core.tick(cycle, &mut chans, &mut trace);
            while let Some(v) = chans.pop(out) {
                results[img].push(v);
                if results[img].len() == outputs {
                    img += 1;
                }
            }
            chans.commit_all();
            cycle += 1;
            assert!(cycle < 1_000_000, "{} made no progress", core.name);
        }
        (results, cycle)
    }
}
