//! # sawl-core — Self-Adaptive Wear Leveling
//!
//! The paper's contribution (§3): a tiered wear-leveling architecture whose
//! wear-leveling granularity *adapts at runtime*. The full mapping table
//! (IMT) lives in NVM; an on-chip CMT caches hot entries; and the engine
//! watches the CMT hit rate through an observation window:
//!
//! * hit rate persistently **below** the low threshold (90%) → the cached
//!   regions are **merged** pairwise with their buddies, so each CMT entry
//!   covers twice the address space and the hit rate recovers;
//! * hit rate persistently **above** the high threshold (95%) *and* hits
//!   concentrated in the hot half of the LRU stack (or a sub-queue above
//!   99%) → the cached regions are **split**, restoring fine-grained wear
//!   leveling at no data-movement cost (the XOR mapping makes split a pure
//!   metadata update, §3.2).
//!
//! Data exchange between regions follows PCM-S (the paper adopts it in the
//! data-exchange module); exchanges, merges and splits all write their
//! mapping updates through the GTD so translation-line wear is modelled
//! too.
//!
//! The engine is a thin composition of three unit-tested subsystems, one
//! concrete type per module:
//!
//! * [`mapping`] — the translation state ([`TieredMapping`]): IMT/CMT/GTD
//!   traversal, the owner inverse map, and translation-line wear (§3.1,
//!   Fig. 11).
//! * [`adapt`] — the adaptation controller ([`HitRateAdaptation`]):
//!   windowed hit-rate monitoring, LRU-stack sampling and lazy merge/split
//!   target decisions (§3.2, §4.2).
//! * [`exchange`] — the exchange policy ([`RegionExchange`]): region write
//!   counters, XOR-key rotation and displaced-region exchange, sharing the
//!   PCM-S counter machinery with `sawl_algos::exchange` (§2.1).
//!
//! [`engine`] composes them into the [`Sawl`] wear leveler; [`config`]
//! holds the tunables (incl. the §4.2-trained SOW/SSW) and [`history`] the
//! time series for Figs. 12–14.

pub mod adapt;
pub mod config;
pub mod engine;
pub mod exchange;
pub mod history;
pub mod mapping;

pub use adapt::{AdaptAction, Decision, HitRateAdaptation, HitRateMonitor, MonitorInputs};
pub use config::{ConfigError, SawlConfig};
pub use engine::{Sawl, SawlStats};
pub use exchange::{ExchangePlan, RegionExchange};
pub use history::{History, Sample};
pub use mapping::TieredMapping;
