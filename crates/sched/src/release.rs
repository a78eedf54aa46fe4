//! The persistent release index.
//!
//! Every scheduling pass needs the planned releases of all running jobs to
//! forecast future capacity for backfilling. Rebuilding that list from the
//! running set on every pass costs O(running × nodes-per-job) — the
//! dominant fixed cost of a pass on a busy machine. [`ReleaseIndex`] keeps
//! the records **incrementally**: the engine inserts a job's release when
//! it starts and removes it when it stops, each in O(log running).
//! Entries stay sorted by `(planned end, lease)`, so handing the scheduler
//! a time-ordered view is free.
//!
//! [`ReleaseView`] is the read-only borrow a pass receives: iteration in
//! ascending planned-end order with deterministic `(time, lease)`
//! tie-breaking — the order the availability profile's stable sort used to
//! produce from scratch, now a property of the container.
//!
//! Re-dilation under the contention model does **not** move planned ends:
//! the scheduler plans against walltime-based kill limits, which are fixed
//! at start.

use dmhpc_des::time::SimTime;
use dmhpc_platform::{Cluster, MemoryAssignment, MiB};
use std::collections::BTreeMap;

/// A running job's future release, as the engine reports it (walltime-based
/// planned end — schedulers do not know true runtimes).
#[derive(Debug, Clone, PartialEq)]
pub struct RunningRelease {
    /// Planned end (start + planned walltime).
    pub planned_end: SimTime,
    /// Nodes held, per rack.
    pub nodes_per_rack: Vec<u32>,
    /// Pool MiB held, per domain.
    pub pool_per_domain: Vec<MiB>,
}

impl RunningRelease {
    /// The release `assignment` produces on `cluster` at `planned_end`.
    pub fn of(cluster: &Cluster, assignment: &MemoryAssignment, planned_end: SimTime) -> Self {
        let mut nodes_per_rack = vec![0u32; cluster.spec().racks as usize];
        let mut pool_per_domain = vec![0; cluster.pools().len()];
        for &node in &assignment.nodes {
            nodes_per_rack[cluster.rack_of(node).0 as usize] += 1;
            if assignment.remote_per_node > 0 {
                // lint: allow(panic) — assignments borrow remote memory only on pool-backed nodes
                let pool = cluster.pool_of(node).expect("borrower has a pool");
                pool_per_domain[pool.0 as usize] += assignment.remote_per_node;
            }
        }
        RunningRelease {
            planned_end,
            nodes_per_rack,
            pool_per_domain,
        }
    }
}

/// Incrementally maintained set of running-job releases, sorted by
/// `(planned end, lease)`. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct ReleaseIndex {
    /// The sorted entries; the key's second element is the lease id.
    by_end: BTreeMap<(SimTime, u64), RunningRelease>,
    /// Lease → planned end, for O(log n) removal by lease alone.
    ends: BTreeMap<u64, SimTime>,
}

impl ReleaseIndex {
    /// An empty index.
    pub const fn new() -> Self {
        ReleaseIndex {
            by_end: BTreeMap::new(),
            ends: BTreeMap::new(),
        }
    }

    /// Number of tracked releases.
    pub fn len(&self) -> usize {
        self.by_end.len()
    }

    /// True when nothing is running.
    pub fn is_empty(&self) -> bool {
        self.by_end.is_empty()
    }

    /// Track `lease`'s release.
    ///
    /// # Panics
    /// Panics if `lease` is already tracked — a lease runs once.
    pub fn insert(&mut self, lease: u64, release: RunningRelease) {
        let prev = self.ends.insert(lease, release.planned_end);
        assert!(prev.is_none(), "lease {lease} already tracked");
        self.by_end.insert((release.planned_end, lease), release);
    }

    /// Stop tracking `lease`; returns its release record if it was tracked.
    pub fn remove(&mut self, lease: u64) -> Option<RunningRelease> {
        let end = self.ends.remove(&lease)?;
        let release = self
            .by_end
            .remove(&(end, lease))
            // lint: allow(panic) — ends and by_end are updated together; disagreement is a bookkeeping bug
            .expect("ends and by_end agree");
        Some(release)
    }

    /// The release record tracked for `lease`, if any.
    pub fn get(&self, lease: u64) -> Option<&RunningRelease> {
        let end = self.ends.get(&lease)?;
        self.by_end.get(&(*end, lease))
    }

    /// `(lease, release)` pairs in ascending `(planned end, lease)` order —
    /// what [`ReleaseView::iter`] yields, with the leases.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &RunningRelease)> {
        self.by_end
            .iter()
            .map(|(&(_, lease), release)| (lease, release))
    }

    /// A read-only, time-ordered view for a scheduling pass.
    pub fn view(&self) -> ReleaseView<'_> {
        ReleaseView { index: self }
    }
}

/// Borrowed, read-only view of a [`ReleaseIndex`]: what
/// [`crate::Scheduler::schedule`] receives. Copyable so passes and tests
/// can hand it around freely.
#[derive(Debug, Clone, Copy)]
pub struct ReleaseView<'a> {
    index: &'a ReleaseIndex,
}

/// The empty index behind [`ReleaseView::empty`].
static EMPTY: ReleaseIndex = ReleaseIndex::new();

impl<'a> ReleaseView<'a> {
    /// A view with no releases (idle machine) — for passes driven outside
    /// an engine, e.g. unit tests and benches.
    pub fn empty() -> ReleaseView<'static> {
        ReleaseView { index: &EMPTY }
    }

    /// Number of releases in view.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is running.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Releases in ascending `(planned end, lease)` order.
    pub fn iter(&self) -> impl Iterator<Item = &'a RunningRelease> + 'a {
        self.index.by_end.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(end_s: u64, nodes: u32) -> RunningRelease {
        RunningRelease {
            planned_end: SimTime::from_secs(end_s),
            nodes_per_rack: vec![nodes],
            pool_per_domain: vec![],
        }
    }

    fn ends(view: ReleaseView<'_>) -> Vec<u64> {
        view.iter().map(|r| r.planned_end.as_secs()).collect()
    }

    #[test]
    fn sorted_by_end_then_lease() {
        let mut idx = ReleaseIndex::new();
        idx.insert(3, rel(100, 1));
        idx.insert(1, rel(50, 2));
        idx.insert(2, rel(100, 3));
        assert_eq!(idx.len(), 3);
        assert_eq!(ends(idx.view()), vec![50, 100, 100]);
        // Equal ends tie-break on lease id: lease 2 before lease 3.
        let nodes: Vec<u32> = idx.view().iter().map(|r| r.nodes_per_rack[0]).collect();
        assert_eq!(nodes, vec![2, 3, 1]);
        let leases: Vec<u64> = idx.iter().map(|(lease, _)| lease).collect();
        assert_eq!(leases, vec![1, 2, 3]);
    }

    #[test]
    fn remove_by_lease() {
        let mut idx = ReleaseIndex::new();
        idx.insert(7, rel(10, 4));
        idx.insert(8, rel(20, 5));
        let gone = idx.remove(7).expect("tracked");
        assert_eq!(gone.nodes_per_rack, vec![4]);
        assert!(idx.remove(7).is_none(), "double remove is None");
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(8).unwrap().planned_end.as_secs(), 20);
        assert!(idx.get(7).is_none());
    }

    #[test]
    #[should_panic(expected = "already tracked")]
    fn duplicate_insert_panics() {
        let mut idx = ReleaseIndex::new();
        idx.insert(1, rel(10, 1));
        idx.insert(1, rel(20, 1));
    }

    #[test]
    fn empty_view() {
        let view = ReleaseView::empty();
        assert!(view.is_empty());
        assert_eq!(view.len(), 0);
        assert_eq!(view.iter().count(), 0);
    }
}
