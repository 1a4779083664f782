//! Stream combinators: probabilistic mixes and time-phased schedules.
//!
//! Real applications interleave access patterns (a scan over one array, a
//! pointer-chase through another) and move through execution phases whose
//! locality differs (the behaviour that drives SAWL's merge/split decisions
//! in Figs. 12–14). [`Mix`] interleaves child streams by weight per request;
//! [`Phased`] runs children back-to-back for fixed request budgets and then
//! cycles.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{AddressStream, CursorKind, MemReq, ReqRun, WearObservation};

/// Weighted per-request interleaving of child streams.
pub struct Mix {
    children: Vec<(f64, Box<dyn AddressStream + Send>)>,
    cumulative: Vec<f64>,
    rng: SmallRng,
    space: u64,
    label: String,
}

impl Mix {
    /// Build a mix from `(weight, stream)` pairs. Weights are normalized;
    /// all children must share the same address-space size.
    pub fn new(children: Vec<(f64, Box<dyn AddressStream + Send>)>, seed: u64) -> Self {
        assert!(!children.is_empty(), "mix needs at least one child");
        assert!(children.iter().all(|(w, _)| *w > 0.0), "weights must be positive");
        let space = children[0].1.space_lines();
        assert!(
            children.iter().all(|(_, c)| c.space_lines() == space),
            "all mix children must share one address space"
        );
        let total: f64 = children.iter().map(|(w, _)| w).sum();
        let mut acc = 0.0;
        let cumulative = children
            .iter()
            .map(|(w, _)| {
                acc += w / total;
                acc
            })
            .collect();
        let label = format!(
            "mix({})",
            children.iter().map(|(_, c)| c.name()).collect::<Vec<_>>().join("+")
        );
        Self { children, cumulative, rng: SmallRng::seed_from_u64(seed), space, label }
    }
}

impl AddressStream for Mix {
    fn next_req(&mut self) -> MemReq {
        let u = self.rng.random::<f64>();
        // Linear scan: mixes have a handful of children.
        let idx = self.cumulative.iter().position(|&c| u < c).unwrap_or(self.children.len() - 1);
        self.children[idx].1.next_req()
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn wants_observation(&self) -> bool {
        self.children.iter().any(|(_, c)| c.wants_observation())
    }

    fn observe_wear(&mut self, obs: &WearObservation) {
        for (_, c) in &mut self.children {
            c.observe_wear(obs);
        }
    }

    fn cursor_kind(&self) -> CursorKind {
        combined_cursor_kind(self.children.iter().map(|(_, c)| c.cursor_kind()))
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_rng(self.rng.state());
        for (_, c) in &self.children {
            c.cursor_save(w);
        }
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        self.rng = SmallRng::from_state(r.get_rng()?);
        for (_, c) in &mut self.children {
            c.cursor_restore(r)?;
        }
        Ok(())
    }
}

/// A combinator's cursor is serializable exactly when every child's is.
pub(crate) fn combined_cursor_kind(kinds: impl Iterator<Item = CursorKind>) -> CursorKind {
    let mut combined = CursorKind::State;
    for k in kinds {
        if k == CursorKind::Replay {
            combined = CursorKind::Replay;
        }
    }
    combined
}

/// Time-phased schedule: each child runs for its request budget, then the
/// next takes over; the schedule cycles forever.
pub struct Phased {
    children: Vec<(u64, Box<dyn AddressStream + Send>)>,
    current: usize,
    remaining: u64,
    space: u64,
    label: String,
    /// Reusable buffer for delegating `fill_runs` to children.
    child_runs: Vec<ReqRun>,
}

impl Phased {
    /// Build a schedule from `(requests, stream)` pairs.
    pub fn new(children: Vec<(u64, Box<dyn AddressStream + Send>)>) -> Self {
        assert!(!children.is_empty(), "phased schedule needs at least one child");
        assert!(children.iter().all(|(n, _)| *n > 0), "phase lengths must be non-zero");
        let space = children[0].1.space_lines();
        assert!(
            children.iter().all(|(_, c)| c.space_lines() == space),
            "all phases must share one address space"
        );
        let label = format!(
            "phased({})",
            children.iter().map(|(_, c)| c.name()).collect::<Vec<_>>().join(">")
        );
        let remaining = children[0].0;
        Self { children, current: 0, remaining, space, label, child_runs: Vec::new() }
    }

    #[inline]
    fn advance_phase(&mut self) {
        if self.remaining == 0 {
            self.current = (self.current + 1) % self.children.len();
            self.remaining = self.children[self.current].0;
        }
    }
}

impl AddressStream for Phased {
    fn next_req(&mut self) -> MemReq {
        self.advance_phase();
        self.remaining -= 1;
        self.children[self.current].1.next_req()
    }

    fn fill_runs(&mut self, runs: &mut Vec<ReqRun>, scratch: &mut [MemReq]) -> u64 {
        // Delegate in-phase fragments to each child's `fill_runs`, so a
        // phased schedule costs one virtual dispatch per fragment and a
        // BPA phase still emits whole dwells.
        runs.clear();
        let budget = scratch.len() as u64;
        let mut total = 0;
        let mut child_runs = std::mem::take(&mut self.child_runs);
        while total < budget {
            self.advance_phase();
            let take = self.remaining.min(budget - total) as usize;
            let covered =
                self.children[self.current].1.fill_runs(&mut child_runs, &mut scratch[..take]);
            debug_assert_eq!(covered, take as u64);
            runs.append(&mut child_runs);
            self.remaining -= covered;
            total += covered;
        }
        self.child_runs = child_runs;
        total
    }

    fn space_lines(&self) -> u64 {
        self.space
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn wants_observation(&self) -> bool {
        self.children.iter().any(|(_, c)| c.wants_observation())
    }

    fn observe_wear(&mut self, obs: &WearObservation) {
        for (_, c) in &mut self.children {
            c.observe_wear(obs);
        }
    }

    fn cursor_kind(&self) -> CursorKind {
        combined_cursor_kind(self.children.iter().map(|(_, c)| c.cursor_kind()))
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u64(self.current as u64);
        w.put_u64(self.remaining);
        for (_, c) in &self.children {
            c.cursor_save(w);
        }
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        let current = r.get_u64()? as usize;
        if current >= self.children.len() {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "phase cursor {current} past the {}-phase schedule",
                self.children.len()
            )));
        }
        let remaining = r.get_u64()?;
        let budget = self.children[current].0;
        if remaining > budget {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "phase cursor: {remaining} requests left in phase {current} of budget {budget}"
            )));
        }
        self.current = current;
        self.remaining = remaining;
        for (_, c) in &mut self.children {
            c.cursor_restore(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::SeqScan;
    use crate::Raa;

    #[test]
    fn mix_respects_weights() {
        let a = Box::new(Raa::new(0, 100));
        let b = Box::new(Raa::new(99, 100));
        let mut mix = Mix::new(vec![(3.0, a), (1.0, b)], 11);
        let total = 40_000;
        let hits_a = (0..total).filter(|_| mix.next_req().la == 0).count();
        let frac = hits_a as f64 / total as f64;
        assert!((frac - 0.75).abs() < 0.01, "weight-3 child got {frac}");
    }

    #[test]
    fn phased_switches_after_budget() {
        let a = Box::new(Raa::new(1, 10));
        let b = Box::new(Raa::new(2, 10));
        let mut p = Phased::new(vec![(3, a), (2, b)]);
        let seq: Vec<u64> = (0..10).map(|_| p.next_req().la).collect();
        assert_eq!(seq, vec![1, 1, 1, 2, 2, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn phased_children_keep_internal_state_across_phases() {
        let scan = Box::new(SeqScan::new(10, 0, 4, 1.0, 0));
        let other = Box::new(Raa::new(9, 10));
        let mut p = Phased::new(vec![(2, scan), (1, other)]);
        let seq: Vec<u64> = (0..6).map(|_| p.next_req().la).collect();
        // Scan resumes at 2 after the interleaved RAA phase.
        assert_eq!(seq, vec![0, 1, 9, 2, 3, 9]);
    }

    #[test]
    fn phased_cursor_restore_rejects_a_phase_overrun() {
        let phased = || {
            let a = Box::new(Raa::new(1, 10));
            let b = Box::new(Raa::new(2, 10));
            Phased::new(vec![(3, a), (2, b)])
        };
        let mut p = phased();
        for _ in 0..4 {
            p.next_req();
        }
        let mut w = sawl_ckpt::Writer::new();
        p.cursor_save(&mut w);
        let good = w.into_payload();
        assert!(phased().cursor_restore(&mut sawl_ckpt::Reader::new(&good)).is_ok());
        // The cursor is `current` then `remaining`; phase 1's budget is 2.
        let mut bad = good.clone();
        bad[8..16].copy_from_slice(&1000u64.to_le_bytes());
        let err = phased().cursor_restore(&mut sawl_ckpt::Reader::new(&bad)).unwrap_err();
        assert!(matches!(err, sawl_ckpt::CkptError::Corrupt(_)), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "share one address space")]
    fn mix_rejects_mismatched_spaces() {
        let a = Box::new(Raa::new(0, 100));
        let b = Box::new(Raa::new(0, 200));
        let _ = Mix::new(vec![(1.0, a), (1.0, b)], 0);
    }

    #[test]
    fn names_compose() {
        let a = Box::new(Raa::new(0, 8));
        let b = Box::new(Raa::new(1, 8));
        let mix = Mix::new(vec![(1.0, a), (1.0, b)], 0);
        assert_eq!(mix.name(), "mix(raa+raa)");
    }
}
