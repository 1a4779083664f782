//! Write-ahead journal for mapping-table updates.
//!
//! Merge, split and exchange each rewrite one or more IMT regions (entry +
//! translation-line + owner-map updates) plus moved data. A power loss in
//! the middle leaves the mapping torn: some granules translated through the
//! new region descriptor, the rest through the old one. The journal makes
//! the *intent* durable before the first NVM write of an operation, so
//! recovery can decide per operation whether to roll forward (replay the
//! recorded updates — they are idempotent) or roll back (discard the
//! record; the old mapping is still intact because nothing landed).
//!
//! ## Durability model
//!
//! Real controllers keep a small journal area in a capacitor-backed SRAM
//! or battery-protected buffer (cf. the GTD registers, which the paper's
//! architecture holds on chip and which must likewise survive power loss
//! for the mapping to be recoverable at all). We model the journal the
//! same way: appends are atomic with respect to power loss and are **not**
//! charged as NVM wear — which also keeps zero-fault runs byte-identical
//! to the fault-free path (pinned by `scenario_equivalence.rs`).

/// One region descriptor write: "region `base` now maps through
/// `(prn, key, q_log2)`". Applying it is idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionUpdate {
    /// First logical region number of the region (aligned to its size).
    pub base: u64,
    /// Physical region number the region maps to.
    pub prn: u64,
    /// XOR key of the region.
    pub key: u64,
    /// log2 of the region size in lines (the IMT entry's `q_log2`).
    pub q_log2: u8,
}

/// Which structural operation the journaled updates belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Pairwise region merge (§3.2): two buddies become one region.
    Merge,
    /// Region split (§3.2): pure metadata, one region becomes two.
    Split,
    /// Wear-triggered data exchange between regions.
    Exchange,
}

/// A journaled operation: its kind and the full set of region updates it
/// will apply. Data movement is recomputed at replay from the updates
/// themselves, so the record is self-contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The operation class (for reporting; recovery treats all alike).
    pub kind: OpKind,
    /// Every region descriptor this operation writes, in apply order.
    pub updates: Vec<RegionUpdate>,
}

/// The journal: at most one in-flight operation (the engines are
/// synchronous — an operation either commits before the next one starts or
/// the machine lost power inside it).
///
/// The journal owns its record buffer: `begin` copies an operation's
/// updates into it, and `commit` and `rollback` keep the allocation, so a
/// steady stream of operations journals without touching the heap.
#[derive(Debug, Clone)]
pub struct Journal {
    /// The latest operation's record; meaningful only while `pending`.
    record: OpRecord,
    pending: bool,
    begins: u64,
    commits: u64,
    replays: u64,
    rollbacks: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Self {
            record: OpRecord { kind: OpKind::Exchange, updates: Vec::new() },
            pending: false,
            begins: 0,
            commits: 0,
            replays: 0,
            rollbacks: 0,
        }
    }
}

impl Journal {
    /// Fresh, empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an operation's intent before its first NVM write: the
    /// updates are copied into the journal's own buffer. Panics if an
    /// operation is already in flight (the engines commit before starting
    /// the next operation).
    pub fn begin(&mut self, kind: OpKind, updates: impl AsRef<[RegionUpdate]>) {
        assert!(!self.pending, "journal already holds an in-flight operation");
        self.record.kind = kind;
        self.record.updates.clear();
        self.record.updates.extend_from_slice(updates.as_ref());
        self.pending = true;
        self.begins += 1;
    }

    /// Mark the in-flight operation complete; its record is discarded.
    pub fn commit(&mut self) {
        assert!(self.pending, "commit without a pending operation");
        self.pending = false;
        self.commits += 1;
    }

    /// The in-flight operation, if the last run ended inside one.
    pub fn pending(&self) -> Option<&OpRecord> {
        self.pending.then_some(&self.record)
    }

    /// Whether an operation is in flight.
    pub fn has_pending(&self) -> bool {
        self.pending
    }

    /// Recovery chose to roll the pending operation forward; the record
    /// stays pending until [`Journal::commit`] (replay itself can be
    /// interrupted by another power loss, after which recovery simply
    /// replays again).
    pub fn note_replay(&mut self) {
        self.replays += 1;
    }

    /// Recovery chose to roll the pending operation back: nothing of it
    /// landed, so the record is dropped.
    pub fn rollback(&mut self) {
        assert!(self.pending, "rollback without a pending operation");
        self.pending = false;
        self.rollbacks += 1;
    }

    /// Operations opened (`begin`) since construction.
    pub fn begins(&self) -> u64 {
        self.begins
    }

    /// Operations committed since construction.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Replay passes performed by recovery.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Rollbacks performed by recovery.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Checkpoint the journal: the in-flight record (if any) and the
    /// lifetime counters. The journal models capacitor-backed SRAM, so it
    /// must survive a checkpoint/resume cycle exactly like a power cycle.
    pub fn ckpt_save(&self, w: &mut sawl_ckpt::Writer) {
        match self.pending() {
            None => w.put_bool(false),
            Some(rec) => {
                w.put_bool(true);
                w.put_u8(match rec.kind {
                    OpKind::Merge => 0,
                    OpKind::Split => 1,
                    OpKind::Exchange => 2,
                });
                w.put_u64(rec.updates.len() as u64);
                for u in &rec.updates {
                    w.put_u64(u.base);
                    w.put_u64(u.prn);
                    w.put_u64(u.key);
                    w.put_u8(u.q_log2);
                }
            }
        }
        w.put_u64(self.begins);
        w.put_u64(self.commits);
        w.put_u64(self.replays);
        w.put_u64(self.rollbacks);
    }

    /// Restore a journal saved by [`ckpt_save`](Self::ckpt_save).
    pub fn ckpt_restore(
        &mut self,
        r: &mut sawl_ckpt::Reader<'_>,
    ) -> Result<(), sawl_ckpt::CkptError> {
        let pending = r.get_bool()?;
        if pending {
            let kind = match r.get_u8()? {
                0 => OpKind::Merge,
                1 => OpKind::Split,
                2 => OpKind::Exchange,
                k => {
                    return Err(sawl_ckpt::CkptError::Corrupt(format!(
                        "journal: unknown operation kind {k}"
                    )))
                }
            };
            let count = r.get_u64()?;
            // An operation touches at most a handful of regions; a huge
            // count is corruption, not a real record.
            if count > 1024 {
                return Err(sawl_ckpt::CkptError::Corrupt(format!(
                    "journal: implausible update count {count}"
                )));
            }
            self.record.kind = kind;
            self.record.updates.clear();
            for _ in 0..count {
                let base = r.get_u64()?;
                let prn = r.get_u64()?;
                let key = r.get_u64()?;
                let q_log2 = r.get_u8()?;
                self.record.updates.push(RegionUpdate { base, prn, key, q_log2 });
            }
        }
        self.pending = pending;
        self.begins = r.get_u64()?;
        self.commits = r.get_u64()?;
        self.replays = r.get_u64()?;
        self.rollbacks = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(base: u64) -> RegionUpdate {
        RegionUpdate { base, prn: base / 4, key: 3, q_log2: 2 }
    }

    #[test]
    fn begin_commit_cycle() {
        let mut j = Journal::new();
        assert!(!j.has_pending());
        j.begin(OpKind::Merge, vec![upd(0), upd(4)]);
        assert!(j.has_pending());
        assert_eq!(j.pending().unwrap().kind, OpKind::Merge);
        assert_eq!(j.pending().unwrap().updates.len(), 2);
        j.commit();
        assert!(!j.has_pending());
        assert_eq!(j.begins(), 1);
        assert_eq!(j.commits(), 1);
    }

    #[test]
    fn replay_keeps_the_record_until_commit() {
        let mut j = Journal::new();
        j.begin(OpKind::Exchange, vec![upd(8)]);
        j.note_replay();
        assert!(j.has_pending(), "replay must not consume the record");
        j.note_replay(); // a second crash during replay
        j.commit();
        assert_eq!(j.replays(), 2);
        assert_eq!(j.commits(), 1);
    }

    #[test]
    fn rollback_discards_the_record() {
        let mut j = Journal::new();
        j.begin(OpKind::Split, vec![upd(0)]);
        j.rollback();
        assert!(!j.has_pending());
        assert_eq!(j.rollbacks(), 1);
        assert_eq!(j.commits(), 0);
    }

    #[test]
    fn a_new_op_reuses_the_buffer_without_stale_updates() {
        let mut j = Journal::new();
        j.begin(OpKind::Merge, [upd(0), upd(4), upd(8)]);
        j.commit();
        j.begin(OpKind::Exchange, [upd(12)].as_slice());
        let rec = j.pending().unwrap();
        assert_eq!(rec.kind, OpKind::Exchange);
        assert_eq!(rec.updates, vec![upd(12)]);
        j.rollback();
        assert!(j.pending().is_none());
        j.begin(OpKind::Split, vec![upd(16)]);
        assert_eq!(j.pending().unwrap().kind, OpKind::Split);
        assert_eq!(j.pending().unwrap().updates, vec![upd(16)]);
    }

    #[test]
    #[should_panic(expected = "in-flight")]
    fn double_begin_panics() {
        let mut j = Journal::new();
        j.begin(OpKind::Merge, vec![]);
        j.begin(OpKind::Split, vec![]);
    }

    #[test]
    #[should_panic(expected = "without a pending")]
    fn commit_without_begin_panics() {
        Journal::new().commit();
    }
}
