//! MWSR — multi-way wear leveling, the second hybrid (HWL) comparator.
//!
//! Yu & Du, "Increasing Endurance and Security of Phase-Change Memory with
//! Multi-Way Wear-Leveling" (IEEE TC '14), as summarized in the paper's
//! §2.1 and Fig. 2(b): regions migrate *gradually*. A logical region keeps
//! two placements — the previous round's (`prev`) and the current round's
//! (`cur`) — and its lines move one at a time from the old placement to the
//! new one; a per-region pointer tracks how far the migration has
//! progressed, so translation consults the old or the new placement
//! depending on the line's offset.
//!
//! Our implementation rotates migrations through one spare physical region
//! (the "free way"): a region beginning migration targets the current
//! spare; when its last line lands, its old physical region becomes the new
//! spare. One migration is active at a time (a single migration engine in
//! the controller); wear-leveling triggers that arrive while the engine is
//! busy advance the active migration.
//!
//! Each step moves one line (one overhead write), so the steady-state
//! overhead is `1/period` — half of PCM-S's. The flip side, highlighted by
//! the paper's §2.2 item 4 and Fig. 5, is the *metadata*: two placements
//! and two keys per region roughly double the per-entry storage, so a fixed
//! on-chip cache affords MWSR only half as many regions as PCM-S.
//!
//! A run that crosses migration steps is served as failure-free chunks
//! through [`WearLeveler::write_chunk`], each reaching to the end of one
//! migration (see the method's doc).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sawl_nvm::{La, NvmDevice, Pa, WriteOutcome};

use crate::chunk::ChunkBuf;
use crate::region::RegionGeometry;
use crate::WearLeveler;

/// Per-region placement (physical region + intra-region XOR key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    prn: u32,
    key: u32,
}

/// The MWSR hybrid wear-leveling scheme.
#[derive(Debug, Clone)]
pub struct Mwsr {
    geo: RegionGeometry,
    /// Completed placement of each logical region.
    cur: Vec<Placement>,
    /// Migration target of the active region (valid when `active` matches).
    next: Placement,
    /// Logical region currently migrating, if any.
    active: Option<u32>,
    /// Number of line offsets already moved for the active migration;
    /// offsets `< migrated` translate through `next`.
    migrated: u64,
    /// The physical region currently unmapped (migration target).
    spare: u32,
    /// Demand writes per logical region since its last completed migration.
    ctr: Vec<u32>,
    /// Writes to a region per migration step.
    period: u64,
    rng: SmallRng,
    migrations_completed: u64,
    /// Alternate migration starts between the triggering (hot) region and a
    /// round-robin sweep, modelling MWSR's rounds in which *every* region
    /// periodically rotates to a new way. Without the sweep the single
    /// spare would ping-pong a hot region between two physical locations.
    rotate_next: bool,
    rr_victim: u32,
    buf: ChunkBuf,
}

impl Mwsr {
    /// MWSR over `lines` logical lines in regions of `region_lines` with
    /// one migration step per `period` writes to a region.
    ///
    /// The device must provide `lines + region_lines` physical lines (one
    /// spare region).
    pub fn new(lines: u64, region_lines: u64, period: u64, seed: u64) -> Self {
        assert!(period > 0, "period must be non-zero");
        let geo = RegionGeometry::new(lines, region_lines);
        let regions = geo.regions() as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let cur: Vec<Placement> = (0..regions)
            .map(|i| Placement {
                prn: i as u32,
                key: (rng.random::<u64>() & (geo.region_lines() - 1)) as u32,
            })
            .collect();
        Self {
            geo,
            cur,
            next: Placement { prn: 0, key: 0 },
            active: None,
            migrated: 0,
            spare: regions as u32, // the extra physical region
            ctr: vec![0; regions],
            period,
            rng,
            migrations_completed: 0,
            rotate_next: false,
            rr_victim: 0,
            buf: ChunkBuf::default(),
        }
    }

    /// Physical lines the device must provide (logical + one spare region).
    pub fn physical_lines(&self) -> u64 {
        self.geo.lines() + self.geo.region_lines()
    }

    /// Completed region migrations.
    pub fn migrations_completed(&self) -> u64 {
        self.migrations_completed
    }

    /// Physical address of logical offset `off` under placement `p`.
    #[inline]
    fn place(&self, p: Placement, off: u64) -> u64 {
        u64::from(p.prn) * self.geo.region_lines() + (off ^ u64::from(p.key))
    }

    /// Checkpoint the placements, migration engine, counters, and RNG.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u64(self.cur.len() as u64);
        for p in &self.cur {
            w.put_u32(p.prn);
            w.put_u32(p.key);
        }
        w.put_u32(self.next.prn);
        w.put_u32(self.next.key);
        w.put_opt_u64(self.active.map(u64::from));
        w.put_u64(self.migrated);
        w.put_u32(self.spare);
        w.put_u32_slice(&self.ctr);
        w.put_rng(self.rng.state());
        w.put_u64(self.migrations_completed);
        w.put_bool(self.rotate_next);
        w.put_u32(self.rr_victim);
    }

    /// Restore state saved by [`ckpt_save`](Self::ckpt_save) into an
    /// instance built from the same spec.
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        let regions = self.geo.regions();
        let count = r.get_u64()?;
        if count != regions {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "mwsr: {count} placements in checkpoint, {regions} regions in instance"
            )));
        }
        let mut cur = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let prn = r.get_u32()?;
            let key = r.get_u32()?;
            cur.push(Placement { prn, key });
        }
        let next = Placement { prn: r.get_u32()?, key: r.get_u32()? };
        let active = r.get_opt_u64()?;
        let migrated = r.get_u64()?;
        let spare = r.get_u32()?;
        let ctr = r.get_u32_vec()?;
        let rng = r.get_rng()?;
        let migrations_completed = r.get_u64()?;
        let rotate_next = r.get_bool()?;
        let rr_victim = r.get_u32()?;
        // One spare region: valid prns span [0, regions]. A counter at the
        // period has already triggered, so no write leaves it there.
        if cur.iter().any(|p| u64::from(p.prn) > regions)
            || u64::from(spare) > regions
            || ctr.len() != regions as usize
            || ctr.iter().any(|&c| u64::from(c) >= self.period)
            || u64::from(rr_victim) >= regions
        {
            return Err(sawl_ckpt::CkptError::Corrupt("mwsr: placement state malformed".into()));
        }
        let active = match active {
            None => {
                // An idle engine is either fresh (no migration yet) or
                // parked right after a completed pass, which leaves
                // `migrated` at the full region length until the next
                // migration rearms it.
                if migrated != 0 && migrated != self.geo.region_lines() {
                    return Err(sawl_ckpt::CkptError::Corrupt(
                        "mwsr: idle engine with mid-flight migration progress".into(),
                    ));
                }
                None
            }
            Some(lrn) => {
                if lrn >= regions || migrated >= self.geo.region_lines() {
                    return Err(sawl_ckpt::CkptError::Corrupt(format!(
                        "mwsr: active migration of region {lrn} at offset {migrated} \
                         out of range"
                    )));
                }
                Some(lrn as u32)
            }
        };
        self.cur = cur;
        self.next = next;
        self.active = active;
        self.migrated = migrated;
        self.spare = spare;
        self.ctr = ctr;
        self.rng = SmallRng::from_state(rng);
        self.migrations_completed = migrations_completed;
        self.rotate_next = rotate_next;
        self.rr_victim = rr_victim;
        Ok(())
    }

    /// Advance the active migration by one line, or start a migration for
    /// `trigger_region` if the engine is idle.
    fn step(&mut self, trigger_region: u32, dev: &mut NvmDevice) {
        let lrn = match self.active {
            Some(lrn) => lrn,
            None => {
                // Begin a migration into the spare. Alternate between the
                // triggering (hot) region and the round-robin victim so the
                // spare keeps rotating through the whole memory.
                let target = if self.rotate_next {
                    let v = self.rr_victim;
                    self.rr_victim = (self.rr_victim + 1) % self.geo.regions() as u32;
                    v
                } else {
                    trigger_region
                };
                self.rotate_next = !self.rotate_next;
                self.next = Placement {
                    prn: self.spare,
                    key: (self.rng.random::<u64>() & (self.geo.region_lines() - 1)) as u32,
                };
                self.active = Some(target);
                self.migrated = 0;
                target
            }
        };
        // Move the next line to its new home (one overhead write).
        let off = self.migrated;
        dev.write_wl(self.place(self.next, off));
        self.migrated += 1;
        if self.migrated == self.geo.region_lines() {
            self.complete_migration(lrn);
        }
    }

    /// The last line of `lrn`'s migration has landed: its old placement's
    /// region becomes the spare.
    fn complete_migration(&mut self, lrn: u32) {
        let old = self.cur[lrn as usize];
        self.cur[lrn as usize] = self.next;
        self.spare = old.prn;
        self.active = None;
        self.ctr[lrn as usize] = 0;
        self.migrations_completed += 1;
    }
}

impl WearLeveler for Mwsr {
    fn name(&self) -> &'static str {
        "mwsr"
    }

    fn logical_lines(&self) -> u64 {
        self.geo.lines()
    }

    #[inline]
    fn translate(&self, la: La) -> Pa {
        let lrn = self.geo.region_of(la) as u32;
        let off = self.geo.offset_of(la);
        if self.active == Some(lrn) && off < self.migrated {
            self.place(self.next, off)
        } else {
            self.place(self.cur[lrn as usize], off)
        }
    }

    fn write(&mut self, la: La, dev: &mut NvmDevice) -> Pa {
        let pa = self.translate(la);
        if dev.write(pa) == WriteOutcome::PowerLost {
            // A dropped write is not a write: the trigger must not move.
            return pa;
        }
        let lrn = self.geo.region_of(la) as usize;
        self.ctr[lrn] += 1;
        if u64::from(self.ctr[lrn]) >= self.period {
            self.ctr[lrn] = 0;
            self.step(lrn as u32, dev);
        }
        pa
    }

    fn quiet_writes(&self, la: La) -> u64 {
        // Only `step` (every `period` writes to the region) can move the
        // mapping or write lines; everything strictly before the trigger
        // write is quiet.
        let lrn = self.geo.region_of(la) as usize;
        (self.period - u64::from(self.ctr[lrn])).max(1) - 1
    }

    fn note_quiet(&mut self, la: La, k: u64) {
        self.ctr[self.geo.region_of(la) as usize] += k as u32;
    }

    /// A chunk runs to the end of the migration in flight or, with the
    /// engine idle, of the one its first trigger starts (the only RNG
    /// draw, taken on a copy of the RNG that is kept only if the device
    /// applies the chunk), and ends before the trigger that would start
    /// the next. The migrating lines' new homes are one sweep of the spare
    /// region for a whole migration and single writes otherwise. When the
    /// target's own region migrates, its line moves at the step that
    /// carries its offset, so its demand is at most two runs.
    fn write_chunk(&mut self, la: La, n: u64, dev: &mut NvmDevice) -> Result<u64, u64> {
        if n <= self.quiet_writes(la) + 1 {
            return Ok(0);
        }
        let (p, s) = (self.period, self.geo.region_lines());
        let lrn = self.geo.region_of(la) as u32;
        let off = self.geo.offset_of(la);
        let c0 = u64::from(self.ctr[lrn as usize]);
        let (target, next, m0, rng) = match self.active {
            Some(a) => (a, self.next, self.migrated, None),
            None => {
                let mut rng = self.rng.clone();
                let key = (rng.random::<u64>() & (s - 1)) as u32;
                let target = if self.rotate_next { self.rr_victim } else { lrn };
                (target, Placement { prn: self.spare, key }, 0, Some(rng))
            }
        };
        // Saturating: a product past `u64::MAX` is a distance no run reaches.
        let w = n.min((s - m0 + 1).saturating_mul(p) - c0 - 1);
        let k = (c0 + w) / p;
        // Step `i` moves offset `m0 + i - 1`; its trigger write still lands
        // on the old line.
        let remap = (target == lrn && off >= m0 && off - m0 < k)
            .then(|| ((off - m0 + 1) * p - c0, self.place(next, off)));
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        buf.push_demand(self.translate(la), w, remap);
        if k == s {
            buf.sweeps.push((u64::from(next.prn) * s, s));
        } else {
            buf.wl.extend((m0..m0 + k).map(|o| self.place(next, o)));
        }
        let applied = buf.apply(dev);
        self.buf = buf;
        if !applied {
            return Err(w);
        }
        if let Some(r) = rng {
            self.rng = r;
            if self.rotate_next {
                self.rr_victim = (self.rr_victim + 1) % self.geo.regions() as u32;
            }
            self.rotate_next = !self.rotate_next;
            self.next = next;
            self.active = Some(target);
        }
        self.migrated = m0 + k;
        if self.migrated == s {
            self.complete_migration(target);
        }
        self.ctr[lrn as usize] = ((c0 + w) % p) as u32;
        Ok(w)
    }

    fn onchip_bits(&self) -> u64 {
        // Per region: two placements (prn + key each) + a 20-bit counter —
        // the "two physical addresses, two offset addresses and a write
        // counter" of the paper's §2.2 item 4.
        let addr = u64::from(self.geo.region_bits()) + u64::from(self.geo.offset_bits());
        self.geo.regions() * (2 * addr + 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_permutation;
    use sawl_nvm::NvmConfig;

    fn dev_for(wl: &Mwsr, endurance: u32) -> NvmDevice {
        NvmDevice::new(
            NvmConfig::builder()
                .lines(wl.physical_lines())
                .banks(1)
                .endurance(endurance)
                .spare_shift(4)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn initial_mapping_is_a_permutation() {
        let wl = Mwsr::new(256, 16, 8, 1);
        check_permutation(&wl, wl.physical_lines());
    }

    #[test]
    fn permutation_holds_mid_migration() {
        let mut wl = Mwsr::new(256, 16, 2, 2);
        let mut d = dev_for(&wl, 1_000_000);
        // Trigger a few steps so a migration is active but incomplete.
        for _ in 0..6 {
            wl.write(3, &mut d);
        }
        assert!(wl.active.is_some());
        assert!(wl.migrated > 0 && wl.migrated < 16);
        check_permutation(&wl, wl.physical_lines());
    }

    #[test]
    fn migration_completes_and_frees_old_region() {
        let mut wl = Mwsr::new(256, 16, 1, 3);
        let mut d = dev_for(&wl, 1_000_000);
        let old_prn = wl.cur[0].prn;
        // period 1: every write steps the engine; 16 steps complete one
        // migration of region 0.
        for _ in 0..16 {
            wl.write(0, &mut d);
        }
        assert_eq!(wl.migrations_completed(), 1);
        assert_eq!(wl.spare, old_prn);
        assert_ne!(wl.cur[0].prn, old_prn);
        check_permutation(&wl, wl.physical_lines());
    }

    #[test]
    fn busy_engine_defers_other_regions() {
        let mut wl = Mwsr::new(256, 16, 2, 4);
        let mut d = dev_for(&wl, 1_000_000);
        // Start migrating region 0.
        wl.write(0, &mut d);
        wl.write(0, &mut d);
        assert_eq!(wl.active, Some(0));
        // Triggers from region 5 advance region 0's migration.
        for _ in 0..8 {
            wl.write(5 * 16, &mut d);
        }
        assert!(wl.active == Some(0) || wl.migrations_completed() == 1);
        check_permutation(&wl, wl.physical_lines());
    }

    #[test]
    fn overhead_is_one_per_period() {
        let mut wl = Mwsr::new(1 << 10, 1 << 3, 16, 5);
        let mut d = dev_for(&wl, u32::MAX);
        let n = 200_000u64;
        let mut x = 3u64;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            wl.write(x % (1 << 10), &mut d);
        }
        let frac = d.wear().overhead_writes as f64 / n as f64;
        assert!((frac - 1.0 / 16.0).abs() < 0.01, "overhead {frac}");
    }

    #[test]
    fn raa_migrates_hot_line_across_memory() {
        let mut wl = Mwsr::new(1 << 12, 4, 8, 6);
        let mut d = dev_for(&wl, 1_000_000);
        let mut homes = std::collections::HashSet::new();
        for _ in 0..200_000 {
            wl.write(0, &mut d);
            homes.insert(wl.translate(0));
        }
        assert!(homes.len() > 100, "hot line visited only {} homes", homes.len());
    }

    #[test]
    fn metadata_is_roughly_double_pcms() {
        let mwsr = Mwsr::new(1 << 12, 1 << 4, 8, 7).onchip_bits();
        let pcms = crate::PcmS::new(1 << 12, 1 << 4, 8, 7).onchip_bits();
        let ratio = mwsr as f64 / pcms as f64;
        assert!((1.3..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn lifetime_comparable_to_pcms_under_raa() {
        // §2.2 item 3: "PCM-S and MWSR algorithms perform similarly in the
        // lifetime measure".
        let life_mwsr = {
            let mut wl = Mwsr::new(1 << 10, 4, 16, 8);
            let mut d = dev_for(&wl, 2_000);
            while !d.is_dead() {
                wl.write(0, &mut d);
            }
            d.normalized_lifetime()
        };
        let life_pcms = {
            let mut wl = crate::PcmS::new(1 << 10, 4, 16, 8);
            let mut d = NvmDevice::new(
                NvmConfig::builder()
                    .lines(1 << 10)
                    .banks(1)
                    .endurance(2_000)
                    .spare_shift(4)
                    .build()
                    .unwrap(),
            );
            while !d.is_dead() {
                wl.write(0, &mut d);
            }
            d.normalized_lifetime()
        };
        let ratio = life_mwsr / life_pcms;
        assert!((0.4..2.5).contains(&ratio), "mwsr {life_mwsr} vs pcm-s {life_pcms}");
    }

    #[test]
    fn ckpt_round_trips_the_idle_state_after_a_completed_migration() {
        let mut wl = Mwsr::new(256, 16, 2, 4);
        let mut d = dev_for(&wl, 1_000_000);
        // Drive one full migration: the engine parks with `active == None`
        // but `migrated` left at the full region length — a state an
        // earlier restore validation wrongly rejected as corrupt.
        while wl.migrations_completed() == 0 {
            wl.write(0, &mut d);
        }
        while wl.active.is_some() {
            wl.write(0, &mut d);
        }
        assert_eq!(wl.migrated, wl.geo.region_lines(), "completion leaves migrated parked");

        let mut w = sawl_ckpt::Writer::new();
        wl.ckpt_save(&mut w);
        let payload = w.into_payload();
        let mut twin = Mwsr::new(256, 16, 2, 4);
        let mut r = sawl_ckpt::Reader::new(&payload);
        twin.ckpt_restore(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = sawl_ckpt::Writer::new();
        twin.ckpt_save(&mut w2);
        assert_eq!(payload, w2.into_payload(), "restore lost state");
    }

    #[test]
    fn ckpt_restore_rejects_a_counter_at_the_period() {
        // Such a counter would have triggered; a chunk planned from it
        // would count its distance to the next trigger below zero.
        let mut wl = Mwsr::new(256, 16, 8, 4);
        wl.ctr[3] = 8;
        let mut w = sawl_ckpt::Writer::new();
        wl.ckpt_save(&mut w);
        let payload = w.into_payload();
        let mut twin = Mwsr::new(256, 16, 8, 4);
        let err = twin.ckpt_restore(&mut sawl_ckpt::Reader::new(&payload)).unwrap_err();
        assert!(matches!(err, sawl_ckpt::CkptError::Corrupt(_)), "{err}");
    }
}
