//! Multi-tenant interleaving: N independent child streams time-sliced
//! onto one device.
//!
//! A shared memory pool serving many tenants sees each tenant's traffic
//! in scheduling quanta, not blended per-request: tenant A gets the
//! device for a slice, then tenant B, round-robin. The wear profile
//! differs from a probabilistic [`Mix`](crate::Mix) — each tenant's
//! locality arrives intact within its slice, so schemes that adapt on
//! short windows see alternating workload regimes (the situation SAWL's
//! self-adaptive window targets).

use crate::phased::combined_cursor_kind;
use crate::{AddressStream, CursorKind, MemReq, ReqRun, WearObservation};

/// Deterministic round-robin time-slicing of child streams.
pub struct Interleave {
    children: Vec<Box<dyn AddressStream + Send>>,
    slice: u64,
    current: usize,
    /// Requests left in the current slice.
    remaining: u64,
    space: u64,
    label: String,
    /// Reusable buffer for delegating `fill_runs` to children.
    child_runs: Vec<ReqRun>,
}

impl Interleave {
    /// Interleave `children` in round-robin slices of `slice` requests.
    /// All children must share one address-space size.
    pub fn new(children: Vec<Box<dyn AddressStream + Send>>, slice: u64) -> Self {
        assert!(!children.is_empty(), "interleave needs at least one tenant");
        assert!(slice > 0, "slice must be non-zero");
        let space = children[0].space_lines();
        assert!(
            children.iter().all(|c| c.space_lines() == space),
            "all tenants must share one address space"
        );
        let label =
            format!("multi({})", children.iter().map(|c| c.name()).collect::<Vec<_>>().join("+"));
        Self { children, slice, current: 0, remaining: slice, space, label, child_runs: Vec::new() }
    }

    #[inline]
    fn advance_slice(&mut self) {
        if self.remaining == 0 {
            self.current = (self.current + 1) % self.children.len();
            self.remaining = self.slice;
        }
    }
}

impl AddressStream for Interleave {
    fn next_req(&mut self) -> MemReq {
        self.advance_slice();
        self.remaining -= 1;
        self.children[self.current].next_req()
    }

    fn fill_runs(&mut self, runs: &mut Vec<ReqRun>, scratch: &mut [MemReq]) -> u64 {
        // Delegate slice fragments to each child's `fill_runs`, so
        // interleaving costs one virtual dispatch per slice fragment and
        // run-structured tenants (BPA dwells, RAA) keep their O(1)-per-run
        // emission through the interleaver.
        runs.clear();
        let budget = scratch.len() as u64;
        let mut total = 0;
        let mut child_runs = std::mem::take(&mut self.child_runs);
        while total < budget {
            self.advance_slice();
            let take = self.remaining.min(budget - total) as usize;
            let covered =
                self.children[self.current].fill_runs(&mut child_runs, &mut scratch[..take]);
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
        self.children.iter().any(|c| c.wants_observation())
    }

    fn observe_wear(&mut self, obs: &WearObservation) {
        for c in &mut self.children {
            c.observe_wear(obs);
        }
    }

    fn cursor_kind(&self) -> CursorKind {
        combined_cursor_kind(self.children.iter().map(|c| c.cursor_kind()))
    }

    fn cursor_save(&self, w: &mut sawl_ckpt::Writer) {
        w.put_u64(self.current as u64);
        w.put_u64(self.remaining);
        for c in &self.children {
            c.cursor_save(w);
        }
    }

    fn cursor_restore(&mut self, r: &mut sawl_ckpt::Reader) -> Result<(), sawl_ckpt::CkptError> {
        let current = r.get_u64()? as usize;
        if current >= self.children.len() {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "tenant cursor {current} past the {}-tenant interleave",
                self.children.len()
            )));
        }
        self.current = current;
        self.remaining = r.get_u64()?;
        if self.remaining > self.slice {
            return Err(sawl_ckpt::CkptError::Corrupt(format!(
                "slice remainder {} exceeds the {}-request slice",
                self.remaining, self.slice
            )));
        }
        for c in &mut self.children {
            c.cursor_restore(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{Bpa, Raa};
    use crate::patterns::SeqScan;

    fn boxed<S: AddressStream + Send + 'static>(s: S) -> Box<dyn AddressStream + Send> {
        Box::new(s)
    }

    #[test]
    fn slices_round_robin() {
        let mut i = Interleave::new(vec![boxed(Raa::new(1, 10)), boxed(Raa::new(2, 10))], 3);
        let seq: Vec<u64> = (0..9).map(|_| i.next_req().la).collect();
        assert_eq!(seq, vec![1, 1, 1, 2, 2, 2, 1, 1, 1]);
    }

    #[test]
    fn tenants_keep_internal_state_across_slices() {
        let mut i = Interleave::new(
            vec![boxed(SeqScan::new(16, 0, 8, 1.0, 0)), boxed(Raa::new(15, 16))],
            2,
        );
        let seq: Vec<u64> = (0..8).map(|_| i.next_req().la).collect();
        // The scan resumes where it left off after the RAA slice.
        assert_eq!(seq, vec![0, 1, 15, 15, 2, 3, 15, 15]);
    }

    #[test]
    fn cursor_round_trips_through_children() {
        let mk = || {
            Interleave::new(
                vec![boxed(Bpa::new(1 << 10, 33, 3)), boxed(SeqScan::new(1 << 10, 0, 64, 0.7, 5))],
                57,
            )
        };
        let mut reference = mk();
        for _ in 0..1234 {
            reference.next_req();
        }
        assert_eq!(reference.cursor_kind(), CursorKind::State);
        let mut w = sawl_ckpt::Writer::new();
        reference.cursor_save(&mut w);
        let payload = w.into_payload();
        let mut restored = mk();
        let mut r = sawl_ckpt::Reader::new(&payload);
        restored.cursor_restore(&mut r).unwrap();
        r.finish().unwrap();
        for i in 0..500 {
            assert_eq!(restored.next_req(), reference.next_req(), "diverged at {i}");
        }
    }

    #[test]
    #[should_panic(expected = "share one address space")]
    fn rejects_mismatched_spaces() {
        let _ = Interleave::new(vec![boxed(Raa::new(0, 16)), boxed(Raa::new(0, 32))], 4);
    }

    #[test]
    fn names_compose() {
        let i = Interleave::new(vec![boxed(Raa::new(0, 8)), boxed(Raa::new(1, 8))], 4);
        assert_eq!(i.name(), "multi(raa+raa)");
    }
}
