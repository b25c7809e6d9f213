//! # dfcnn-fpga
//!
//! Platform models standing in for the paper's hardware: the Xilinx VC707
//! board (Virtex-7 xc7vx485t, §V-A), the Vivado resource report (Table I),
//! the power measurement (Table II), and the AXI/DMA data path ("the
//! datapath from the DMA towards the CNN is 32 bits wide and the available
//! bandwidth ... is 400MB/s", §V-C).
//!
//! Nothing here synthesises gates. The [`resources`] module is an
//! *analytical cost model*: it predicts FF/LUT/BRAM/DSP consumption of each
//! generated core from its design parameters, using per-operator costs
//! representative of Xilinx floating-point IP on Virtex-7. Its purpose is
//! the same as the authors' Vivado reports — decide whether a configuration
//! *fits* and whether a layer can be parallelised — and to regenerate
//! Table I's utilisation rows with the right shape (test case 2 heavier
//! than test case 1, DSP the tightest resource, BRAM the loosest).
//!
//! Module map:
//! - [`device`]: FPGA device database (xc7vx485t, plus the Stratix V D5 of
//!   the Microsoft baseline \[28\] for reference).
//! - [`resources`]: resource vectors and the per-core cost model.
//! - [`power`]: board-level power model for the GFLOPS/W column.
//! - [`dma`]: bandwidth-limited DMA source/sink timing model.
//! - [`host`]: the Microblaze/Axi-Timer measurement protocol (batch
//!   staging, per-image timestamps, Fig. 6 statistics).
//! - [`report`]: Table-I-style utilisation rendering.

pub mod device;
pub mod dma;
pub mod host;
pub mod power;
pub mod report;
pub mod resources;

pub use device::Device;
pub use dma::{DmaChannel, DmaConfig};
pub use power::PowerModel;
pub use resources::{CoreKind, CoreParams, CostModel, Resources};
