//! # sawl-nvm — non-volatile memory device model
//!
//! This crate provides the device substrate used throughout the SAWL
//! reproduction suite. It models an MLC-based NVM main memory at the
//! granularity the paper uses: a *line* (the atomic memory-access unit, the
//! size of a last-level-cache line, 64 bytes by default).
//!
//! The device model captures exactly the failure semantics of the paper
//! (§2.2): every line has a write-endurance limit (optionally drawn from a
//! process-variation distribution around the nominal `Wmax`); a line *fails*
//! when its write count reaches its limit; the device ships a pool of spare
//! lines, and the *device* fails when the number of failed lines exceeds the
//! spare pool. The paper provisions 4M spares for 256M lines (1/64); that is
//! the default here.
//!
//! The crate also carries the fault plan (stuck-at lines, transient write
//! faults, scheduled power loss) and wear-distribution statistics
//! (max/mean/CoV/Gini/histograms) used to analyse how well a wear-leveling
//! scheme balances writes. Access timing is not modelled here:
//! `sawl-timing` owns the controller and its Table 1 latencies.
//!
//! ## Example
//!
//! ```
//! use sawl_nvm::{NvmConfig, NvmDevice, WriteOutcome};
//!
//! let cfg = NvmConfig::builder()
//!     .lines(1 << 12)
//!     .endurance(1_000)
//!     .build()
//!     .unwrap();
//! let mut dev = NvmDevice::new(cfg);
//! assert_eq!(dev.write(0), WriteOutcome::Ok);
//! assert_eq!(dev.wear().total_writes, 1);
//! ```

pub mod config;
pub mod device;
pub mod fault;
pub mod stats;
pub mod variation;
pub mod wear;

pub use config::{NvmConfig, NvmConfigBuilder, NvmConfigError};
pub use device::{NvmDevice, WearCounters, WearSnapshot, WriteChunk, WriteOutcome};
pub use fault::{FaultPlan, FaultPlanError};
pub use stats::{FaultCounters, WearStats};
pub use variation::EnduranceModel;
pub use wear::WearState;

/// A physical line address (index of a memory line within the device).
pub type Pa = u64;

/// A logical line address, as issued by the CPU side of the memory
/// controller before wear-leveling translation.
pub type La = u64;
