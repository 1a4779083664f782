//! # sawl-tiered — the tiered address-mapping architecture
//!
//! The paper's §3.1 architecture stores the full address-mapping table in
//! the NVM itself and caches the hot entries on chip:
//!
//! * **IMT** (Integrated Mapping Table, [`imt`]) — one entry per
//!   wear-leveling region, holding the packed address information `D`
//!   (physical region number × granularity + key). The IMT lives in a
//!   reserved region of the NVM, packed into *translation lines* of
//!   `K = 6` entries each.
//! * **GTD** (Global Translation Directory, [`gtd`]) — a small on-chip
//!   table mapping logical translation-line addresses to their physical
//!   locations, because translation lines are wear-leveled too (they absorb
//!   every mapping update).
//! * **CMT** (Cached Mapping Table, [`cmt`]) — an on-chip LRU cache of
//!   recently used IMT entries. SAWL's split heuristic needs to know
//!   whether hits land in the hot (first) or cold (second) half of the LRU
//!   stack, so the cache maintains split hit counters with O(1) updates.
//! * **NWL** ([`nwl`]) — the "naive wear-leveling scheme": this tiered
//!   architecture at a *fixed* granularity, with PCM-S as the data-exchange
//!   policy. NWL-4 and NWL-64 are the paper's tiered baselines
//!   (Figs. 14, 17).
//! * [`overhead`] — the §4.5 hardware-overhead calculator.

pub mod cmt;
pub mod gtd;
pub mod imt;
pub mod journal;
pub mod layout;
pub mod nwl;
pub mod overhead;

pub use cmt::{Cmt, CmtLookup};
pub use gtd::Gtd;
pub use imt::{ImtEntry, ImtTable, ENTRIES_PER_TRANSLATION_LINE};
pub use journal::{Journal, OpKind, OpRecord, RegionUpdate};
pub use layout::TieredLayout;
pub use nwl::{Nwl, NwlConfig};
pub use overhead::OverheadModel;
