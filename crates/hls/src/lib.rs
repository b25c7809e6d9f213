//! # dfcnn-hls
//!
//! A model of the scheduling behaviour of a Vivado-HLS-style high-level
//! synthesis tool, as relied upon by the paper (§IV: "The filters and demux
//! core of the memory structure have been implemented by means of Vivado
//! HLS", "the computation core has been implemented using Vivado HLS").
//!
//! The paper's performance story hinges on three HLS mechanisms, all
//! modelled here:
//!
//! 1. **Pipelined loop nests** with an explicit initiation interval:
//!    Eq. 4 sets `II = max(OUT_FM / OUT_PORTS, IN_FM / IN_PORTS)` on the
//!    compute core's coordinate loop ([`ii`]).
//! 2. **Tree adders** for the MAC reduction (`reduce` in Algorithm 1),
//!    trading adders for pipeline depth ([`reduce`]).
//! 3. **Interleaved accumulators** to hide the ~11-cycle single-precision
//!    add latency in FC layers (§IV-B) ([`accum`]).
//!
//! Operator latencies live in [`latency`]; whole loop-nest latency
//! formulas in [`pipeline`].

pub mod accum;
pub mod ii;
pub mod latency;
pub mod pipeline;
pub mod reduce;

pub use accum::InterleavedAccumulator;
pub use ii::pipeline_ii;
pub use latency::OpLatency;
pub use pipeline::LoopNest;
pub use reduce::TreeAdder;
