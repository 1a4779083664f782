//! The two reference points every experiment is measured against.
//!
//! * [`NoWl`] — identity mapping, no data exchange. This is the "Baseline
//!   (without any wear-leveling scheme)" of Figs. 16 and 17: best possible
//!   performance, worst possible lifetime under skewed writes.
//! * [`Ideal`] — an oracle that spreads consecutive writes round-robin over
//!   every physical line regardless of the requested address. It realizes
//!   the paper's "ideal lifetime, which indicates the lifespan of NVM with
//!   fully uniform writes" and is used to normalize all lifetime results.
//!   (It is not implementable in hardware — data would be unrecoverable —
//!   but as a lifetime yardstick only the wear pattern matters.)

use sawl_nvm::{La, NvmDevice, Pa};

use crate::WearLeveler;

/// Identity mapping; no wear leveling at all.
#[derive(Debug, Clone)]
pub struct NoWl {
    lines: u64,
}

impl NoWl {
    /// Baseline over `lines` logical (= physical) lines.
    pub fn new(lines: u64) -> Self {
        assert!(lines > 0);
        Self { lines }
    }

    /// The identity mapping has no mutable state; the checkpoint records
    /// only the line count so a resume can verify the spec matches.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u64(self.lines);
    }

    /// Validate a [`ckpt_save`](Self::ckpt_save) record against this
    /// instance (nothing to restore).
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        let lines = r.get_u64()?;
        if lines != self.lines {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "baseline: checkpoint covers {lines} lines, instance has {}",
                self.lines
            )));
        }
        Ok(())
    }
}

impl WearLeveler for NoWl {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn logical_lines(&self) -> u64 {
        self.lines
    }

    #[inline]
    fn translate(&self, la: La) -> Pa {
        debug_assert!(la < self.lines);
        la
    }

    #[inline]
    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        dev.write(la);
        la
    }

    fn quiet_writes(&self, _la: La) -> u64 {
        // No wear leveling: every write is quiet, forever.
        u64::MAX
    }

    fn note_quiet(&mut self, _la: La, _k: u64) {
        // Stateless: quiet writes advance nothing.
    }

    fn onchip_bits(&self) -> u64 {
        0
    }
}

/// Round-robin oracle achieving perfectly uniform wear.
#[derive(Debug, Clone)]
pub struct Ideal {
    lines: u64,
    cursor: u64,
}

impl Ideal {
    /// Oracle over `lines` physical lines.
    pub fn new(lines: u64) -> Self {
        assert!(lines > 0);
        Self { lines, cursor: 0 }
    }

    /// Checkpoint the round-robin cursor.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u64(self.lines);
        w.put_u64(self.cursor);
    }

    /// Restore a cursor saved by [`ckpt_save`](Self::ckpt_save).
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        let lines = r.get_u64()?;
        if lines != self.lines {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "ideal: checkpoint covers {lines} lines, instance has {}",
                self.lines
            )));
        }
        let cursor = r.get_u64()?;
        if cursor >= self.lines {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "ideal: cursor {cursor} out of range for {} lines",
                self.lines
            )));
        }
        self.cursor = cursor;
        Ok(())
    }
}

impl WearLeveler for Ideal {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn logical_lines(&self) -> u64 {
        self.lines
    }

    /// The oracle has no stable mapping; for reads it reports identity.
    #[inline]
    fn translate(&self, la: La) -> Pa {
        la
    }

    #[inline]
    fn write(&mut self, _la: La, dev: &mut NvmDevice) -> Pa {
        let pa = self.cursor;
        self.cursor += 1;
        if self.cursor == self.lines {
            self.cursor = 0;
        }
        dev.write(pa);
        pa
    }

    fn onchip_bits(&self) -> u64 {
        64 // one cursor register
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sawl_nvm::NvmConfig;

    fn dev(lines: u64, endurance: u32) -> NvmDevice {
        NvmDevice::new(
            NvmConfig::builder()
                .lines(lines)
                .banks(1)
                .endurance(endurance)
                .spare_shift(4)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn nowl_concentrates_wear_exactly_where_written() {
        let mut d = dev(64, 1000);
        let mut wl = NoWl::new(64);
        for _ in 0..100 {
            wl.write(7, &mut d);
        }
        assert_eq!(d.write_count(7), 100);
        assert_eq!(d.write_count(8), 0);
    }

    #[test]
    fn ideal_achieves_near_ideal_lifetime_under_raa() {
        let mut d = dev(64, 100);
        let mut wl = Ideal::new(64);
        // Hammer one logical address; the oracle spreads wear perfectly.
        while !d.is_dead() {
            wl.write(0, &mut d);
        }
        let nl = d.normalized_lifetime();
        assert!(nl > 0.95, "ideal oracle reached only {nl} of ideal lifetime");
    }

    #[test]
    fn ideal_wear_is_flat() {
        let mut d = dev(64, 1000);
        let mut wl = Ideal::new(64);
        for _ in 0..640 {
            wl.write(3, &mut d);
        }
        let stats = d.wear_stats();
        assert_eq!(stats.max, 10);
        assert_eq!(stats.min, 10);
    }

    #[test]
    fn nowl_dies_fast_under_raa() {
        let mut d = dev(64, 100);
        let mut wl = NoWl::new(64);
        let mut writes = 0u64;
        while !d.is_dead() {
            wl.write(0, &mut d);
            writes += 1;
            assert!(writes < 1_000_000, "baseline survived implausibly long");
        }
        // Device dies after spares (4) + 1 failures of the same hammered
        // line... the same PA keeps failing its replacement every 100
        // writes: 5 * 100 = 500 writes.
        assert_eq!(writes, 500);
        assert!(d.normalized_lifetime() < 0.1);
    }
}
