//! The device writes of one [`WearLeveler::write_chunk`](crate::WearLeveler::write_chunk)
//! offer, shared by every scheme that plans chunks (Security Refresh, TLSR,
//! MWSR and RBSG).
//!
//! A planner gathers the chunk's demand runs, overhead sweeps and single
//! overhead writes here, then hands them to [`NvmDevice::try_write_chunk`],
//! which applies them only if no touched line fails on the way. Each scheme
//! keeps one buffer and reuses it across offers; it starts empty, so
//! building a scheme allocates nothing for it.

use sawl_nvm::{NvmDevice, Pa, WriteChunk};

/// The device writes of one chunk, gathered before the device proves them
/// failure-free. Kept on the scheme so the buffers are reused.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkBuf {
    pub(crate) demand: Vec<(Pa, u64)>,
    pub(crate) sweeps: Vec<(Pa, u64)>,
    pub(crate) wl: Vec<Pa>,
}

impl ChunkBuf {
    pub(crate) fn clear(&mut self) {
        self.demand.clear();
        self.sweeps.clear();
        self.wl.clear();
    }

    /// The demand writes of a chunk of `w` writes whose demand line `pa`
    /// moves to `new_pa` after write `j` when `remap` is `Some((j, new_pa))`.
    pub(crate) fn push_demand(&mut self, pa: Pa, w: u64, remap: Option<(u64, Pa)>) {
        match remap {
            Some((j, new_pa)) => {
                self.demand.push((pa, j));
                if w > j {
                    self.demand.push((new_pa, w - j));
                }
            }
            None => self.demand.push((pa, w)),
        }
    }

    /// Offer the gathered writes to the device; `true` when it applied
    /// them all, `false` (nothing applied) when it refused.
    pub(crate) fn apply(&self, dev: &mut NvmDevice) -> bool {
        dev.try_write_chunk(&WriteChunk {
            demand: &self.demand,
            sweeps: &self.sweeps,
            wl: &self.wl,
        })
    }
}
