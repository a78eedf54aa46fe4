//! The two-resource availability profile.
//!
//! Backfilling needs to answer: *"when will `n` nodes **and** the pool
//! memory they'd borrow be simultaneously free for `d` seconds?"* On a
//! conventional cluster the profile is one step function (free nodes over
//! time). With disaggregated memory it is a vector-valued step function —
//! free nodes **per rack** and free MiB **per pool domain** — because a node
//! can only borrow from its own rack's pool.
//!
//! ## Feasibility with a fixed rack split
//!
//! A job does not migrate between racks mid-run, so a placement is a *fixed
//! split* `k = (k_0, …, k_{R-1})` of its `n` nodes across racks, each node
//! borrowing `r` MiB from its rack's domain. A window `[s, s+d)` admits the
//! job iff some split satisfies, at **every** profile point in the window,
//! `k_i ≤ free_nodes_i` and the pool constraint. Taking per-rack minima over
//! the window reduces this to a one-shot greedy fill, which is exact.
//!
//! ## Why scanning point times is exact
//!
//! [`earliest_fit`](AvailabilityProfile::earliest_fit) only tries window
//! starts at profile breakpoints (plus the query time): if a start `s`
//! strictly inside a segment is feasible, the segment's own start `t* ≤ s`
//! is feasible too — the window `[t*, t*+d)` is contained in
//! `[t*, s) ∪ [s, s+d)`, both parts of which the `s`-window already proved
//! feasible. So breakpoint scanning finds the true earliest start. The
//! scan also jumps past any row that could not host the demand on its own
//! (too few nodes, or too little pool behind them): every window holding
//! such a row fails, so no start before the row's successor can succeed.
//!
//! ## Layout
//!
//! The profile is three flat arrays: breakpoint `times`, and row-major
//! `nodes` (`points × racks`) and `pool` (`points × domains`) tables. A
//! build is one prefix-sum pass over releases already sorted by planned
//! end (the engine's [`crate::ReleaseView`] order), made in place into the
//! profile's own buffers, so a scheduling pass that reuses one profile
//! allocates nothing once the buffers have grown. Queries read window
//! minima in place, row by row, instead of materializing them.
//!
//! ## Node horizons
//!
//! [`NodeHorizons`] summarizes the node rows for the EASY scan: for every
//! node count, the first breakpoint at which that many nodes no longer
//! stay free (per rack, from the origin). A candidate whose width does not
//! stay free for its whole walltime cannot fit, whatever its placement
//! plans, so the scan skips it in O(1) without planning it.

use crate::release::RunningRelease;
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, MiB, PoolTopology, RackId};
use std::ops::Range;

/// What a job needs from the profile: `nodes` spread over racks, each
/// borrowing `remote_per_node` MiB from its rack's pool domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demand {
    /// Node count.
    pub nodes: u32,
    /// Pool MiB per node (0 = purely local job).
    pub remote_per_node: MiB,
}

/// How long each node count stays free from a profile's origin, per
/// rack: the EASY scan's exact pre-`plan()` filter.
///
/// Let `m_r(i)` be rack `r`'s minimum free nodes over rows `0..=i` and
/// `S(i) = Σ_r m_r(i)`, which never increases with `i`. Entry `k - 1`
/// holds the time of the first row `i ≥ 1` with `S(i) < k`, or
/// [`SimTime::MAX`] if there is none; the table has `S(0)` entries.
///
/// A split of at least `k` nodes fits a window `[origin, end)` only if
/// `k_r ≤ m_r(i)` for every row `i` before `end`, so only if `S(i) ≥ k`
/// there: [`admits`](Self::admits) is false exactly when no such split
/// can fit (the oracle `node_horizons_match_naive_window_minima` checks
/// this against per-rack window minima).
#[derive(Debug, Clone, Default)]
pub struct NodeHorizons {
    /// Scratch: running per-rack minima while the table is built.
    rack_min: Vec<u32>,
    /// `until[k - 1]`: the first breakpoint at which `k` nodes no longer
    /// stay free from the origin.
    until: Vec<SimTime>,
}

impl NodeHorizons {
    /// An empty table, filled by [`AvailabilityProfile::node_horizons`].
    pub const fn new() -> Self {
        NodeHorizons {
            rack_min: Vec::new(),
            until: Vec::new(),
        }
    }

    /// Whether `nodes` nodes could stay free from the origin until `end`:
    /// necessary for any split of at least `nodes` nodes to fit the window
    /// `[origin, end)`, and exactly the per-rack minima test.
    pub fn admits(&self, nodes: u32, end: SimTime) -> bool {
        match (nodes as usize).checked_sub(1) {
            None => true,
            Some(k) => self.until.get(k).is_some_and(|&t| t >= end),
        }
    }

    /// Where the table's buffers live, to check that reuse does not move
    /// them.
    #[cfg(test)]
    pub(crate) fn buffer_addrs(&self) -> [usize; 2] {
        [
            self.rack_min.as_ptr() as usize,
            self.until.as_ptr() as usize,
        ]
    }
}

/// Pool-domain structure, mirrored from [`PoolTopology`] without capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DomainKind {
    None,
    PerRack,
    Global,
}

impl DomainKind {
    fn of(pool: &PoolTopology) -> Self {
        match pool {
            PoolTopology::None => DomainKind::None,
            PoolTopology::PerRack { .. } => DomainKind::PerRack,
            PoolTopology::Global { .. } => DomainKind::Global,
        }
    }
}

/// Piecewise-constant forecast of free capacity. See module docs.
#[derive(Debug, Clone)]
pub struct AvailabilityProfile {
    kind: DomainKind,
    racks: usize,
    domains: usize,
    /// Breakpoints, strictly ascending; `times[0]` is the profile origin
    /// ("now"); the last row extends to infinity.
    times: Vec<SimTime>,
    /// Free nodes, row `i` = racks at `times[i]`.
    nodes: Vec<u32>,
    /// Free pool MiB, row `i` = domains at `times[i]`.
    pool: Vec<MiB>,
}

impl AvailabilityProfile {
    /// A profile with no rows: the state of reused scratch before its
    /// first [`rebuild`](Self::rebuild). Queries need at least the origin
    /// row, so only a rebuild may follow.
    pub(crate) const fn empty() -> Self {
        AvailabilityProfile {
            kind: DomainKind::None,
            racks: 0,
            domains: 0,
            times: Vec::new(),
            nodes: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Build from a cluster's current state plus the planned releases of
    /// running jobs, in any order. Releases at or before `now` are folded
    /// into the origin.
    pub fn from_cluster(now: SimTime, cluster: &Cluster, releases: &[RunningRelease]) -> Self {
        let mut sorted: Vec<&RunningRelease> = releases.iter().collect();
        sorted.sort_by_key(|r| r.planned_end);
        let mut profile = Self::empty();
        profile.rebuild(now, cluster, sorted);
        profile
    }

    /// Rebuild in place, reusing this profile's buffers, from a cluster's
    /// current state and releases already in ascending planned-end order,
    /// such as a [`crate::ReleaseView`]'s. Once the buffers have grown to
    /// a pass's size, rebuilding allocates nothing.
    pub(crate) fn rebuild<'r>(
        &mut self,
        now: SimTime,
        cluster: &Cluster,
        releases: impl IntoIterator<Item = &'r RunningRelease>,
    ) {
        let free_nodes = (0..cluster.spec().racks).map(|r| cluster.free_nodes_in_rack(RackId(r)));
        let free_pool = cluster.pools().iter().map(|p| p.free());
        let kind = DomainKind::of(&cluster.spec().pool);
        self.rebuild_from(now, kind, free_nodes, free_pool, releases);
    }

    /// The prefix-sum build every constructor goes through: the origin row
    /// is the current free capacity and every later row adds the releases
    /// up to its time.
    fn rebuild_from<'r>(
        &mut self,
        now: SimTime,
        kind: DomainKind,
        free_nodes: impl IntoIterator<Item = u32>,
        free_pool: impl IntoIterator<Item = MiB>,
        releases: impl IntoIterator<Item = &'r RunningRelease>,
    ) {
        let (times, nodes, pool) = (&mut self.times, &mut self.nodes, &mut self.pool);
        times.clear();
        times.push(now);
        nodes.clear();
        nodes.extend(free_nodes);
        pool.clear();
        pool.extend(free_pool);
        let (racks, domains) = (nodes.len(), pool.len());
        debug_assert!(kind != DomainKind::PerRack || domains == racks);
        let releases = releases.into_iter();
        let rows = 1 + releases.size_hint().0;
        times.reserve(rows - 1);
        nodes.reserve((rows - 1) * racks);
        pool.reserve((rows - 1) * domains);
        let mut prev = SimTime::ZERO;
        for rel in releases {
            debug_assert!(rel.planned_end >= prev, "releases must be sorted");
            debug_assert_eq!(rel.nodes_per_rack.len(), racks, "release rack arity");
            // Releases at or before the last breakpoint (late, or
            // simultaneous) merge into it; later ones open a new row.
            if rel.planned_end > prev.max_of(now) {
                times.push(rel.planned_end);
                nodes.extend_from_within(nodes.len() - racks..);
                pool.extend_from_within(pool.len() - domains..);
            }
            let n = nodes.len();
            for (f, &add) in nodes[n - racks..].iter_mut().zip(&rel.nodes_per_rack) {
                *f += add;
            }
            let n = pool.len();
            for (f, &add) in pool[n - domains..].iter_mut().zip(&rel.pool_per_domain) {
                *f += add;
            }
            prev = rel.planned_end;
        }
        self.kind = kind;
        self.racks = racks;
        self.domains = domains;
    }

    /// Number of breakpoints (diagnostics/benches).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Always false: a profile has at least its origin point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The profile origin.
    pub fn origin(&self) -> SimTime {
        self.times[0]
    }

    fn nodes_row(&self, row: usize) -> &[u32] {
        &self.nodes[row * self.racks..(row + 1) * self.racks]
    }

    fn pool_row(&self, row: usize) -> &[MiB] {
        &self.pool[row * self.domains..(row + 1) * self.domains]
    }

    /// Index of the last point with `time <= t` (clamped to the origin).
    fn segment_at(&self, t: SimTime) -> usize {
        self.times.partition_point(|&p| p <= t).saturating_sub(1)
    }

    /// The rows covering `[start, end)`: the segment holding `start`, then
    /// every later breakpoint before `end`.
    fn window(&self, start: SimTime, end: SimTime) -> Range<usize> {
        let first = self.segment_at(start);
        first..first + 1 + self.times[first + 1..].partition_point(|&p| p < end)
    }

    /// Fill `split` with a greedy rack split serving `demand` throughout
    /// the window `rows`; false (with `split` clobbered) when none exists.
    /// `pool_min` is scratch space of one entry per domain.
    fn fit_rows(
        &self,
        rows: Range<usize>,
        demand: &Demand,
        split: &mut [u32],
        pool_min: &mut [MiB],
    ) -> bool {
        let r = demand.remote_per_node;
        let n = demand.nodes as u64;
        if r > 0 && self.kind == DomainKind::None {
            return false;
        }
        // Per-rack node minima and per-domain pool minima over the rows.
        split.copy_from_slice(self.nodes_row(rows.start));
        pool_min.copy_from_slice(self.pool_row(rows.start));
        for row in rows.start + 1..rows.end {
            for (u, &k) in split.iter_mut().zip(self.nodes_row(row)) {
                *u = (*u).min(k);
            }
            for (m, &p) in pool_min.iter_mut().zip(self.pool_row(row)) {
                *m = (*m).min(p);
            }
        }
        // Usable nodes per rack under the pool constraint, and (for a
        // global pool) the node count the pool can back. A purely local
        // demand (r = 0) borrows nothing.
        match self.kind {
            DomainKind::PerRack => {
                for (u, &pm) in split.iter_mut().zip(pool_min.iter()) {
                    if let Some(per_rack) = pm.checked_div(r) {
                        *u = (*u).min(per_rack.min(u32::MAX as u64) as u32);
                    }
                }
            }
            DomainKind::Global if pool_min[0].checked_div(r).is_some_and(|k| k < n) => {
                return false
            }
            _ => {}
        }
        if split.iter().map(|&u| u as u64).sum::<u64>() < n {
            return false;
        }
        let mut remaining = demand.nodes;
        for u in split.iter_mut() {
            let take = (*u).min(remaining);
            *u = take;
            remaining -= take;
        }
        true
    }

    /// True iff row `row` alone could host `demand`: enough nodes, and
    /// enough pool behind them. Necessary for any window holding the row.
    fn row_serves(&self, row: usize, demand: &Demand) -> bool {
        let r = demand.remote_per_node;
        let n = demand.nodes as u64;
        let (nodes, pool) = (self.nodes_row(row), self.pool_row(row));
        if nodes.iter().map(|&k| k as u64).sum::<u64>() < n {
            return false;
        }
        match self.kind {
            _ if r == 0 => true,
            DomainKind::None => false,
            DomainKind::PerRack => {
                let backed: MiB = nodes
                    .iter()
                    .zip(pool)
                    .map(|(&k, &p)| (k as u64).saturating_mul(r).min(p))
                    .sum();
                backed >= n.saturating_mul(r)
            }
            DomainKind::Global => pool[0] >= n.saturating_mul(r),
        }
    }

    /// Find a fixed rack split serving `demand` throughout `[start,
    /// start+dur)`, or `None`. The split is built greedily in ascending rack
    /// order (deterministic; concrete node choice is the memory policy's
    /// job).
    pub fn usable_split(
        &self,
        start: SimTime,
        dur: SimDuration,
        demand: &Demand,
    ) -> Option<Vec<u32>> {
        let mut split = vec![0; self.racks];
        let mut pool_min = vec![0; self.domains];
        let rows = self.window(start, start.saturating_add(dur));
        self.fit_rows(rows, demand, &mut split, &mut pool_min)
            .then_some(split)
    }

    /// True iff the *specific* split fits throughout the window. Used to
    /// validate a memory policy's concrete placement against reservations.
    pub fn fits_split(
        &self,
        start: SimTime,
        dur: SimDuration,
        split: &[u32],
        remote_per_node: MiB,
    ) -> bool {
        if remote_per_node > 0 && self.kind == DomainKind::None {
            return false;
        }
        let total: u64 = split.iter().map(|&k| k as u64).sum();
        // The split fits the window's minima iff it fits every row.
        self.window(start, start.saturating_add(dur)).all(|row| {
            if split.iter().zip(self.nodes_row(row)).any(|(&k, &m)| k > m) {
                return false;
            }
            match self.kind {
                _ if remote_per_node == 0 => true,
                DomainKind::PerRack => split
                    .iter()
                    .zip(self.pool_row(row))
                    .all(|(&k, &pm)| k as u64 * remote_per_node <= pm),
                DomainKind::Global => total * remote_per_node <= self.pool_row(row)[0],
                DomainKind::None => false,
            }
        })
    }

    /// Earliest start `>= from` at which `demand` fits for `dur`, together
    /// with a witness split. `None` only if the demand can never fit (even
    /// an idle machine is too small). Exact — see module docs.
    pub fn earliest_fit(
        &self,
        from: SimTime,
        dur: SimDuration,
        demand: &Demand,
    ) -> Option<(SimTime, Vec<u32>)> {
        let mut split = Vec::new();
        let start = self.earliest_fit_into(from, dur, demand, &mut split, &mut Vec::new())?;
        Some((start, split))
    }

    /// [`earliest_fit`](Self::earliest_fit) into caller-owned buffers: on
    /// `Some`, `split` holds the witness; `pool_min` is scratch. Both are
    /// resized here, so reused buffers make the query allocation-free.
    pub(crate) fn earliest_fit_into(
        &self,
        from: SimTime,
        dur: SimDuration,
        demand: &Demand,
        split: &mut Vec<u32>,
        pool_min: &mut Vec<MiB>,
    ) -> Option<SimTime> {
        split.clear();
        split.resize(self.racks, 0);
        pool_min.clear();
        pool_min.resize(self.domains, 0);
        let mut start = from.max_of(self.origin());
        // Rows in `[window start, known_good)` serve `demand` on their own.
        let mut known_good = 0;
        loop {
            let rows = self.window(start, start.saturating_add(dur));
            // A row that cannot serve the demand on its own fails every
            // window holding it — this one and each later start before the
            // row's successor — so resume the scan right after it.
            let blocking = (rows.start.max(known_good)..rows.end)
                .rev()
                .find(|&row| !self.row_serves(row, demand));
            known_good = rows.end;
            let next = match blocking {
                Some(row) => row + 1,
                None if self.fit_rows(rows.clone(), demand, split, pool_min) => return Some(start),
                None => rows.start + 1,
            };
            start = *self.times.get(next)?;
        }
    }

    /// Fill `horizons` from this profile's node rows. See [`NodeHorizons`].
    /// Costs O(rows × racks + free nodes at the origin) and allocates
    /// nothing once the table's buffers have grown.
    pub fn node_horizons(&self, horizons: &mut NodeHorizons) {
        let NodeHorizons { rack_min, until } = horizons;
        rack_min.clear();
        rack_min.extend_from_slice(self.nodes_row(0));
        let mut sum: u64 = rack_min.iter().map(|&k| u64::from(k)).sum();
        until.clear();
        until.resize(sum as usize, SimTime::MAX);
        for row in 1..self.len() {
            if sum == 0 {
                break;
            }
            let mut next = 0;
            for (m, &k) in rack_min.iter_mut().zip(self.nodes_row(row)) {
                *m = (*m).min(k);
                next += u64::from(*m);
            }
            // Node counts in `(next, sum]` stop fitting at this row.
            until[next as usize..sum as usize].fill(self.times[row]);
            sum = next;
        }
    }

    /// Add one more future release — e.g. of a job the current pass just
    /// started. The result equals building with the release included.
    pub(crate) fn add_release(&mut self, release: &RunningRelease) {
        let first = self.ensure_point(release.planned_end);
        for row in first..self.times.len() {
            let nodes = &mut self.nodes[row * self.racks..(row + 1) * self.racks];
            for (f, &add) in nodes.iter_mut().zip(&release.nodes_per_rack) {
                *f += add;
            }
            let pool = &mut self.pool[row * self.domains..(row + 1) * self.domains];
            for (f, &add) in pool.iter_mut().zip(&release.pool_per_domain) {
                *f += add;
            }
        }
    }

    /// Ensure a breakpoint exists at `t`; returns its index.
    fn ensure_point(&mut self, t: SimTime) -> usize {
        match self.times.binary_search(&t) {
            Ok(i) => i,
            // Before the origin: clamp to origin (reservations cannot
            // start in the past).
            Err(0) => 0,
            Err(i) => {
                self.times.insert(i, t);
                Self::dup_row(&mut self.nodes, i - 1, self.racks);
                Self::dup_row(&mut self.pool, i - 1, self.domains);
                i
            }
        }
    }

    /// Duplicate row `row` of a `width`-wide table in place.
    fn dup_row<T: Copy>(table: &mut Vec<T>, row: usize, width: usize) {
        let at = (row + 1) * width;
        table.extend_from_within(row * width..at);
        table[at..].rotate_right(width);
    }

    /// Subtract a reservation: `split` nodes per rack, each borrowing
    /// `remote_per_node`, over `[start, start+dur)`.
    ///
    /// # Panics
    /// Panics if the reservation does not fit — callers must have validated
    /// with [`usable_split`](Self::usable_split)/[`fits_split`](Self::fits_split).
    pub fn reserve(
        &mut self,
        start: SimTime,
        dur: SimDuration,
        split: &[u32],
        remote_per_node: MiB,
    ) {
        assert_eq!(split.len(), self.racks, "split arity");
        let end = start.saturating_add(dur);
        let si = self.ensure_point(start);
        if end != SimTime::MAX {
            self.ensure_point(end);
        }
        let total_nodes: u64 = split.iter().map(|&k| k as u64).sum();
        let rows = si..si + self.times[si..].partition_point(|&p| p < end);
        for row in rows {
            let nodes = &mut self.nodes[row * self.racks..(row + 1) * self.racks];
            for (f, &k) in nodes.iter_mut().zip(split) {
                // lint: allow(panic) — reservations come from earliest_fit, which bounded them by free capacity
                *f = f.checked_sub(k).expect("reservation exceeds free nodes");
            }
            if remote_per_node == 0 {
                continue;
            }
            let pool = &mut self.pool[row * self.domains..(row + 1) * self.domains];
            match self.kind {
                // lint: allow(panic) — remote reservations are only produced for pool-backed clusters
                DomainKind::None => panic!("remote reservation without pools"),
                DomainKind::PerRack => {
                    for (f, &k) in pool.iter_mut().zip(split) {
                        *f = f
                            .checked_sub(k as u64 * remote_per_node)
                            // lint: allow(panic) — reservations come from earliest_fit, which bounded them by pool capacity
                            .expect("reservation exceeds pool");
                    }
                }
                DomainKind::Global => {
                    pool[0] = pool[0]
                        .checked_sub(total_nodes * remote_per_node)
                        // lint: allow(panic) — reservations come from earliest_fit, which bounded them by pool capacity
                        .expect("reservation exceeds pool");
                }
            }
        }
    }

    /// Free nodes per rack at time `t`.
    pub fn free_nodes_at(&self, t: SimTime) -> &[u32] {
        self.nodes_row(self.segment_at(t))
    }

    /// Free pool MiB per domain at time `t`.
    pub fn free_pool_at(&self, t: SimTime) -> &[MiB] {
        self.pool_row(self.segment_at(t))
    }

    /// Where the row buffers live, to check that reuse does not move them.
    #[cfg(test)]
    pub(crate) fn buffer_addrs(&self) -> [usize; 3] {
        [
            self.times.as_ptr() as usize,
            self.nodes.as_ptr() as usize,
            self.pool.as_ptr() as usize,
        ]
    }
}

/// The original `Vec<Point>` profile, kept as a test-only differential
/// oracle for the flat one: every operation allocates and re-derives its
/// minima from scratch, so it is slow but obviously correct.
#[cfg(test)]
pub(crate) mod naive {
    use super::DomainKind;
    use crate::release::RunningRelease;
    use dmhpc_des::time::{SimDuration, SimTime};
    use dmhpc_platform::{Cluster, MiB, RackId};

    #[derive(Debug, Clone)]
    struct Point {
        time: SimTime,
        free_nodes: Vec<u32>,
        free_pool: Vec<MiB>,
    }

    /// Naive two-resource profile with the same API as
    /// [`super::AvailabilityProfile`].
    #[derive(Debug, Clone)]
    pub(crate) struct NaiveProfile {
        kind: DomainKind,
        racks: usize,
        points: Vec<Point>,
    }

    impl NaiveProfile {
        pub(crate) fn from_cluster(
            now: SimTime,
            cluster: &Cluster,
            releases: &[RunningRelease],
        ) -> Self {
            let spec = cluster.spec();
            let free_nodes = (0..spec.racks)
                .map(|r| cluster.free_nodes_in_rack(RackId(r)))
                .collect();
            let free_pool = cluster.pools().iter().map(|p| p.free()).collect();
            Self::from_parts(
                now,
                DomainKind::of(&spec.pool),
                free_nodes,
                free_pool,
                releases,
            )
        }

        pub(super) fn from_parts(
            now: SimTime,
            kind: DomainKind,
            free_nodes: Vec<u32>,
            free_pool: Vec<MiB>,
            releases: &[RunningRelease],
        ) -> Self {
            let racks = free_nodes.len();
            let mut sorted: Vec<&RunningRelease> = releases.iter().collect();
            sorted.sort_by_key(|r| r.planned_end);
            let mut points = vec![Point {
                time: now,
                free_nodes,
                free_pool,
            }];
            for rel in sorted {
                let last = points.last().unwrap();
                let mut next = if rel.planned_end <= last.time {
                    points.pop().unwrap()
                } else {
                    Point {
                        time: rel.planned_end,
                        ..last.clone()
                    }
                };
                for (f, &add) in next.free_nodes.iter_mut().zip(&rel.nodes_per_rack) {
                    *f += add;
                }
                for (f, &add) in next.free_pool.iter_mut().zip(&rel.pool_per_domain) {
                    *f += add;
                }
                points.push(next);
            }
            NaiveProfile {
                kind,
                racks,
                points,
            }
        }

        pub(crate) fn len(&self) -> usize {
            self.points.len()
        }

        fn segment_at(&self, t: SimTime) -> usize {
            match self.points.binary_search_by(|p| p.time.cmp(&t)) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            }
        }

        /// Per-rack free-node and per-domain free-pool minima over the
        /// window `[start, end)`.
        pub(crate) fn window_minima(&self, start: SimTime, end: SimTime) -> (Vec<u32>, Vec<MiB>) {
            let first = self.segment_at(start);
            let mut node_min = self.points[first].free_nodes.clone();
            let mut pool_min = self.points[first].free_pool.clone();
            for p in &self.points[first + 1..] {
                if p.time >= end {
                    break;
                }
                for (m, &v) in node_min.iter_mut().zip(&p.free_nodes) {
                    *m = (*m).min(v);
                }
                for (m, &v) in pool_min.iter_mut().zip(&p.free_pool) {
                    *m = (*m).min(v);
                }
            }
            (node_min, pool_min)
        }

        pub(crate) fn usable_split(
            &self,
            start: SimTime,
            dur: SimDuration,
            demand: &super::Demand,
        ) -> Option<Vec<u32>> {
            let (node_min, pool_min) = self.window_minima(start, start.saturating_add(dur));
            let r = demand.remote_per_node;
            let n = demand.nodes;
            if r > 0 && self.kind == DomainKind::None {
                return None;
            }
            let usable: Vec<u32> = match self.kind {
                DomainKind::None | DomainKind::Global => node_min.clone(),
                DomainKind::PerRack => node_min
                    .iter()
                    .zip(&pool_min)
                    .map(|(&nm, &pm)| {
                        pm.checked_div(r)
                            .map_or(nm, |per| nm.min(per.min(u32::MAX as u64) as u32))
                    })
                    .collect(),
            };
            if self.kind == DomainKind::Global && r > 0 {
                let pool_nodes = (pool_min[0] / r).min(u32::MAX as u64) as u32;
                if pool_nodes < n {
                    return None;
                }
            }
            let total: u64 = usable.iter().map(|&u| u as u64).sum();
            if total < n as u64 {
                return None;
            }
            let mut split = vec![0u32; self.racks];
            let mut remaining = n;
            for (i, &u) in usable.iter().enumerate() {
                let take = u.min(remaining);
                split[i] = take;
                remaining -= take;
                if remaining == 0 {
                    break;
                }
            }
            Some(split)
        }

        pub(crate) fn fits_split(
            &self,
            start: SimTime,
            dur: SimDuration,
            split: &[u32],
            remote_per_node: MiB,
        ) -> bool {
            let (node_min, pool_min) = self.window_minima(start, start.saturating_add(dur));
            if split.iter().zip(&node_min).any(|(&k, &m)| k > m) {
                return false;
            }
            if remote_per_node == 0 {
                return true;
            }
            match self.kind {
                DomainKind::None => false,
                DomainKind::PerRack => split
                    .iter()
                    .zip(&pool_min)
                    .all(|(&k, &pm)| k as u64 * remote_per_node <= pm),
                DomainKind::Global => {
                    let total: u64 = split.iter().map(|&k| k as u64).sum();
                    total * remote_per_node <= pool_min[0]
                }
            }
        }

        pub(crate) fn earliest_fit(
            &self,
            from: SimTime,
            dur: SimDuration,
            demand: &super::Demand,
        ) -> Option<(SimTime, Vec<u32>)> {
            let from = from.max_of(self.points[0].time);
            if let Some(split) = self.usable_split(from, dur, demand) {
                return Some((from, split));
            }
            self.points
                .iter()
                .filter(|p| p.time > from)
                .find_map(|p| Some((p.time, self.usable_split(p.time, dur, demand)?)))
        }

        fn ensure_point(&mut self, t: SimTime) -> usize {
            match self.points.binary_search_by(|p| p.time.cmp(&t)) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => {
                    let clone = Point {
                        time: t,
                        ..self.points[i - 1].clone()
                    };
                    self.points.insert(i, clone);
                    i
                }
            }
        }

        pub(crate) fn reserve(
            &mut self,
            start: SimTime,
            dur: SimDuration,
            split: &[u32],
            remote_per_node: MiB,
        ) {
            let end = start.saturating_add(dur);
            let si = self.ensure_point(start);
            if end != SimTime::MAX {
                self.ensure_point(end);
            }
            let total_nodes: u64 = split.iter().map(|&k| k as u64).sum();
            for p in &mut self.points[si..] {
                if p.time >= end {
                    break;
                }
                for (f, &k) in p.free_nodes.iter_mut().zip(split) {
                    *f = f.checked_sub(k).expect("reservation exceeds free nodes");
                }
                if remote_per_node > 0 {
                    match self.kind {
                        DomainKind::None => panic!("remote reservation without pools"),
                        DomainKind::PerRack => {
                            for (f, &k) in p.free_pool.iter_mut().zip(split) {
                                *f = f
                                    .checked_sub(k as u64 * remote_per_node)
                                    .expect("reservation exceeds pool");
                            }
                        }
                        DomainKind::Global => {
                            p.free_pool[0] = p.free_pool[0]
                                .checked_sub(total_nodes * remote_per_node)
                                .expect("reservation exceeds pool");
                        }
                    }
                }
            }
        }

        pub(crate) fn free_nodes_at(&self, t: SimTime) -> Vec<u32> {
            self.points[self.segment_at(t)].free_nodes.clone()
        }

        pub(crate) fn free_pool_at(&self, t: SimTime) -> Vec<MiB> {
            self.points[self.segment_at(t)].free_pool.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::naive::NaiveProfile;
    use super::*;
    use dmhpc_des::rng::Pcg64;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// Build from releases in any order (the flat build wants them sorted).
    fn build(
        now: SimTime,
        kind: DomainKind,
        nodes: Vec<u32>,
        pool: Vec<MiB>,
        releases: &[RunningRelease],
    ) -> AvailabilityProfile {
        let mut sorted: Vec<&RunningRelease> = releases.iter().collect();
        sorted.sort_by_key(|r| r.planned_end);
        let mut profile = AvailabilityProfile::empty();
        profile.rebuild_from(now, kind, nodes, pool, sorted);
        profile
    }

    /// 2 racks × 4 nodes, per-rack pools of 1000 MiB, 2 nodes free in rack
    /// 0 and 0 in rack 1 now; releases at t=100 (2 nodes r1 + 500 pool r1)
    /// and t=200 (2 nodes r0, 2 nodes r1, 500 pool each).
    fn profile() -> AvailabilityProfile {
        build(
            t(0),
            DomainKind::PerRack,
            vec![2, 0],
            vec![1000, 0],
            &[
                RunningRelease {
                    planned_end: t(100),
                    nodes_per_rack: vec![0, 2],
                    pool_per_domain: vec![0, 500],
                },
                RunningRelease {
                    planned_end: t(200),
                    nodes_per_rack: vec![2, 2],
                    pool_per_domain: vec![0, 500],
                },
            ],
        )
    }

    #[test]
    fn builds_cumulative_points() {
        let p = profile();
        assert_eq!(p.len(), 3);
        assert_eq!(p.free_nodes_at(t(0)), vec![2, 0]);
        assert_eq!(p.free_nodes_at(t(150)), vec![2, 2]);
        assert_eq!(p.free_nodes_at(t(500)), vec![4, 4]);
        assert_eq!(p.free_pool_at(t(150)), vec![1000, 500]);
        assert_eq!(p.free_pool_at(t(500)), vec![1000, 1000]);
    }

    #[test]
    fn merges_simultaneous_and_past_releases() {
        let p = build(
            t(10),
            DomainKind::None,
            vec![1],
            vec![],
            &[
                RunningRelease {
                    planned_end: t(5), // in the past: folded into origin
                    nodes_per_rack: vec![1],
                    pool_per_domain: vec![],
                },
                RunningRelease {
                    planned_end: t(20),
                    nodes_per_rack: vec![1],
                    pool_per_domain: vec![],
                },
                RunningRelease {
                    planned_end: t(20),
                    nodes_per_rack: vec![1],
                    pool_per_domain: vec![],
                },
            ],
        );
        assert_eq!(p.len(), 2);
        assert_eq!(p.free_nodes_at(t(10)), vec![2]);
        assert_eq!(p.free_nodes_at(t(20)), vec![4]);
    }

    #[test]
    fn usable_split_respects_pool_per_rack() {
        let p = profile();
        // 2 nodes, 400 MiB each: rack 0 pool 1000 allows floor(1000/400)=2.
        let split = p.usable_split(
            t(0),
            d(50),
            &Demand {
                nodes: 2,
                remote_per_node: 400,
            },
        );
        assert_eq!(split, Some(vec![2, 0]));
        // 3 nodes now: only 2 free anywhere.
        assert_eq!(
            p.usable_split(
                t(0),
                d(50),
                &Demand {
                    nodes: 3,
                    remote_per_node: 0
                }
            ),
            None
        );
        // At t=100: 2+2 nodes, but rack-1 pool 500 allows only 1 node at 400.
        let split = p.usable_split(
            t(100),
            d(50),
            &Demand {
                nodes: 3,
                remote_per_node: 400,
            },
        );
        assert_eq!(split, Some(vec![2, 1]));
    }

    #[test]
    fn window_minima_span_segments() {
        let p = profile();
        // Window [0, 150) includes the t=100 release; minima are the t=0
        // values, so 3 nodes never fit in that window.
        assert_eq!(
            p.usable_split(
                t(0),
                d(150),
                &Demand {
                    nodes: 3,
                    remote_per_node: 0
                }
            ),
            None
        );
        // Window [100, 90s) fits 4 nodes.
        assert!(p
            .usable_split(
                t(100),
                d(90),
                &Demand {
                    nodes: 4,
                    remote_per_node: 0
                }
            )
            .is_some());
    }

    #[test]
    fn earliest_fit_scans_breakpoints() {
        let p = profile();
        let (start, split) = p
            .earliest_fit(
                t(0),
                d(50),
                &Demand {
                    nodes: 4,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(start, t(100));
        assert_eq!(split.iter().sum::<u32>(), 4);

        let (start, _) = p
            .earliest_fit(
                t(0),
                d(50),
                &Demand {
                    nodes: 8,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(start, t(200));

        // Demand that never fits: 9 nodes on an 8-node machine.
        assert!(p
            .earliest_fit(
                t(0),
                d(50),
                &Demand {
                    nodes: 9,
                    remote_per_node: 0
                }
            )
            .is_none());
    }

    #[test]
    fn earliest_fit_honors_from_mid_segment() {
        let p = profile();
        let (start, _) = p
            .earliest_fit(
                t(150),
                d(10),
                &Demand {
                    nodes: 4,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(start, t(150), "already feasible at the query time");
    }

    #[test]
    fn reserve_subtracts_and_restores() {
        let mut p = profile();
        // Reserve 2 nodes in rack 0 with 300 MiB each over [0, 120).
        p.reserve(t(0), d(120), &[2, 0], 300);
        assert_eq!(p.free_nodes_at(t(0)), vec![0, 0]);
        assert_eq!(p.free_pool_at(t(0)), vec![400, 0]);
        assert_eq!(p.free_nodes_at(t(110)), vec![0, 2]);
        // After the reservation ends capacity returns.
        assert_eq!(p.free_nodes_at(t(120)), vec![2, 2]);
        assert_eq!(p.free_pool_at(t(120)), vec![1000, 500]);
        assert_eq!(p.free_nodes_at(t(300)), vec![4, 4]);
    }

    #[test]
    fn reserve_then_earliest_fit_is_pushed_back() {
        let mut p = profile();
        // Head job: 4 nodes at t=100 for 200 s.
        let (s, split) = p
            .earliest_fit(
                t(0),
                d(200),
                &Demand {
                    nodes: 4,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(s, t(100));
        p.reserve(s, d(200), &split, 0);
        // A 1-node backfill of 100 s fits immediately (rack 0 has 2 free).
        let (s2, _) = p
            .earliest_fit(
                t(0),
                d(100),
                &Demand {
                    nodes: 1,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(s2, t(0));
        // But 8 nodes now only fit after the head finishes at 300.
        let (s3, _) = p
            .earliest_fit(
                t(0),
                d(10),
                &Demand {
                    nodes: 8,
                    remote_per_node: 0,
                },
            )
            .unwrap();
        assert_eq!(s3, t(300));
    }

    #[test]
    fn fits_split_validates_specific_placement() {
        let p = profile();
        assert!(p.fits_split(t(0), d(50), &[2, 0], 400));
        assert!(
            !p.fits_split(t(0), d(50), &[2, 0], 600),
            "2×600 > 1000 pool"
        );
        assert!(!p.fits_split(t(0), d(50), &[1, 1], 0), "rack 1 empty now");
        assert!(p.fits_split(t(100), d(50), &[1, 1], 400));
        assert!(
            !p.fits_split(t(100), d(50), &[0, 2], 400),
            "rack-1 pool 500"
        );
    }

    #[test]
    fn global_pool_semantics() {
        let p = build(t(0), DomainKind::Global, vec![2, 2], vec![1000], &[]);
        // 4 nodes × 300 = 1200 > 1000: infeasible.
        assert!(p
            .usable_split(
                t(0),
                d(10),
                &Demand {
                    nodes: 4,
                    remote_per_node: 300
                }
            )
            .is_none());
        // 3 nodes × 300 = 900 <= 1000: feasible, spread 2+1.
        let split = p
            .usable_split(
                t(0),
                d(10),
                &Demand {
                    nodes: 3,
                    remote_per_node: 300,
                },
            )
            .unwrap();
        assert_eq!(split, vec![2, 1]);
        assert!(p.fits_split(t(0), d(10), &[2, 1], 300));
        assert!(!p.fits_split(t(0), d(10), &[2, 2], 300));
    }

    #[test]
    fn no_pool_topology_rejects_remote() {
        let p = build(t(0), DomainKind::None, vec![4], vec![], &[]);
        assert!(p
            .usable_split(
                t(0),
                d(10),
                &Demand {
                    nodes: 1,
                    remote_per_node: 1
                }
            )
            .is_none());
        assert!(!p.fits_split(t(0), d(10), &[1], 1));
        assert!(p
            .usable_split(
                t(0),
                d(10),
                &Demand {
                    nodes: 4,
                    remote_per_node: 0
                }
            )
            .is_some());
    }

    #[test]
    #[should_panic(expected = "exceeds free nodes")]
    fn over_reserve_panics() {
        let mut p = profile();
        p.reserve(t(0), d(10), &[3, 0], 0);
    }

    #[test]
    fn reserve_to_infinity() {
        let mut p = build(t(0), DomainKind::None, vec![4], vec![], &[]);
        p.reserve(t(5), SimDuration::MAX, &[2], 0);
        assert_eq!(p.free_nodes_at(t(4)), vec![4]);
        assert_eq!(p.free_nodes_at(t(1_000_000)), vec![2]);
    }

    /// Differential test: earliest_fit against a brute-force oracle that
    /// tries every breakpoint on randomized profiles.
    #[test]
    fn earliest_fit_matches_bruteforce() {
        let mut rng = Pcg64::new(71);
        for case in 0..200 {
            let racks = 1 + rng.index(3);
            let base: Vec<u32> = (0..racks).map(|_| rng.bounded_u64(4) as u32).collect();
            let pool: Vec<MiB> = (0..racks).map(|_| rng.bounded_u64(1000)).collect();
            let releases: Vec<RunningRelease> = (0..rng.index(5))
                .map(|_| RunningRelease {
                    planned_end: t(rng.bounded_u64(500)),
                    nodes_per_rack: (0..racks).map(|_| rng.bounded_u64(3) as u32).collect(),
                    pool_per_domain: (0..racks).map(|_| rng.bounded_u64(400)).collect(),
                })
                .collect();
            let p = build(
                t(0),
                DomainKind::PerRack,
                base.clone(),
                pool.clone(),
                &releases,
            );
            let demand = Demand {
                nodes: 1 + rng.bounded_u64(6) as u32,
                remote_per_node: rng.bounded_u64(300),
            };
            let dur = d(1 + rng.bounded_u64(300));
            let got = p.earliest_fit(t(0), dur, &demand).map(|(s, _)| s);
            // Oracle: scan a fine time grid (1 s) up to beyond the horizon.
            let mut oracle = None;
            for s in 0..1000u64 {
                if p.usable_split(t(s), dur, &demand).is_some() {
                    oracle = Some(t(s));
                    break;
                }
            }
            assert_eq!(got, oracle, "case {case}: demand {demand:?} dur {dur}");
        }
    }

    /// A random profile of `kind` (releases unsorted, some before the
    /// origin, some simultaneous) in both implementations.
    fn random_pair(rng: &mut Pcg64, kind: DomainKind) -> (AvailabilityProfile, NaiveProfile) {
        let racks = 1 + rng.index(4);
        let domains = match kind {
            DomainKind::None => 0,
            DomainKind::PerRack => racks,
            DomainKind::Global => 1,
        };
        let now = t(100);
        let nodes: Vec<u32> = (0..racks).map(|_| rng.bounded_u64(6) as u32).collect();
        let pool: Vec<MiB> = (0..domains).map(|_| rng.bounded_u64(2000)).collect();
        let releases: Vec<RunningRelease> = (0..rng.index(12))
            .map(|_| RunningRelease {
                // A coarse grid makes simultaneous releases common.
                planned_end: t(10 * rng.bounded_u64(60)),
                nodes_per_rack: (0..racks).map(|_| rng.bounded_u64(3) as u32).collect(),
                pool_per_domain: (0..domains).map(|_| rng.bounded_u64(500)).collect(),
            })
            .collect();
        let flat = build(now, kind, nodes.clone(), pool.clone(), &releases);
        let naive = NaiveProfile::from_parts(now, kind, nodes, pool, &releases);
        (flat, naive)
    }

    fn random_demand(rng: &mut Pcg64) -> Demand {
        Demand {
            nodes: 1 + rng.bounded_u64(10) as u32,
            remote_per_node: if rng.bounded_u64(3) == 0 {
                0
            } else {
                rng.bounded_u64(400)
            },
        }
    }

    fn assert_same(flat: &AvailabilityProfile, naive: &NaiveProfile, ctx: &str) {
        assert_eq!(flat.len(), naive.len(), "{ctx}: breakpoints");
        for s in (0..700).step_by(5) {
            assert_eq!(
                flat.free_nodes_at(t(s)),
                naive.free_nodes_at(t(s)),
                "{ctx}: nodes@{s}"
            );
            assert_eq!(
                flat.free_pool_at(t(s)),
                naive.free_pool_at(t(s)),
                "{ctx}: pool@{s}"
            );
        }
    }

    /// Differential oracle: the flat profile answers every query exactly
    /// like the naive `Vec<Point>` profile, for all three domain kinds,
    /// through random sequences of queries and reservations.
    #[test]
    fn flat_profile_matches_naive_profile() {
        let mut rng = Pcg64::new(2024);
        for kind in [DomainKind::None, DomainKind::PerRack, DomainKind::Global] {
            for case in 0..300 {
                let (mut flat, mut naive) = random_pair(&mut rng, kind);
                let ctx = format!("{kind:?} case {case}");
                assert_same(&flat, &naive, &ctx);
                for step in 0..12 {
                    let ctx = format!("{ctx} step {step}");
                    let demand = random_demand(&mut rng);
                    let from = t(rng.bounded_u64(700));
                    let dur = if rng.bounded_u64(8) == 0 {
                        SimDuration::MAX
                    } else {
                        d(rng.bounded_u64(300))
                    };
                    assert_eq!(
                        flat.usable_split(from, dur, &demand),
                        naive.usable_split(from, dur, &demand),
                        "{ctx}: usable_split {demand:?} at {from} for {dur}"
                    );
                    let split: Vec<u32> =
                        (0..flat.racks).map(|_| rng.bounded_u64(4) as u32).collect();
                    assert_eq!(
                        flat.fits_split(from, dur, &split, demand.remote_per_node),
                        naive.fits_split(from, dur, &split, demand.remote_per_node),
                        "{ctx}: fits_split {split:?} at {from} for {dur}"
                    );
                    let fit = flat.earliest_fit(from, dur, &demand);
                    assert_eq!(fit, naive.earliest_fit(from, dur, &demand), "{ctx}: fit");
                    // Reserve the witness (or, half the time, the random
                    // split where it fits) in both and compare again.
                    if rng.bounded_u64(2) == 0 {
                        if let Some((start, witness)) = fit {
                            flat.reserve(start, dur, &witness, demand.remote_per_node);
                            naive.reserve(start, dur, &witness, demand.remote_per_node);
                        }
                    } else if flat.fits_split(from, dur, &split, demand.remote_per_node) {
                        flat.reserve(from, dur, &split, demand.remote_per_node);
                        naive.reserve(from, dur, &split, demand.remote_per_node);
                    }
                    assert_same(&flat, &naive, &ctx);
                }
            }
        }
    }

    /// Oracle for the EASY scan's node-horizon filter: on random profiles
    /// carved by random reservations, `admits(k, end)` holds exactly when
    /// the naive per-rack window minima over `[origin, end)` sum to at
    /// least `k`, for every `k` and every end next to a breakpoint.
    #[test]
    fn node_horizons_match_naive_window_minima() {
        let mut rng = Pcg64::new(1414);
        let mut horizons = NodeHorizons::new();
        let (mut admitted, mut refused) = (0, 0);
        for kind in [DomainKind::None, DomainKind::PerRack, DomainKind::Global] {
            for case in 0..200 {
                let (mut flat, mut naive) = random_pair(&mut rng, kind);
                for step in 0..6 {
                    let ctx = format!("{kind:?} case {case} step {step}");
                    flat.node_horizons(&mut horizons);
                    let origin = flat.origin();
                    let mut ends = vec![origin, SimTime::MAX];
                    for &bp in &flat.times {
                        let us = bp.as_micros();
                        ends.extend(
                            [us.saturating_sub(1), us, us.saturating_add(1)]
                                .map(SimTime::from_micros),
                        );
                    }
                    let widest: u32 = flat.free_nodes_at(origin).iter().sum::<u32>() + 2;
                    for end in ends {
                        let (minima, _) = naive.window_minima(origin, end);
                        let stays_free: u32 = minima.iter().sum();
                        for k in 0..=widest {
                            let admits = horizons.admits(k, end);
                            assert_eq!(admits, stays_free >= k, "{ctx}: {k} nodes until {end}");
                            if admits {
                                admitted += 1
                            } else {
                                refused += 1
                            }
                        }
                    }
                    // Carve the profile: reserve a random demand where it fits.
                    let demand = random_demand(&mut rng);
                    let from = t(100 + rng.bounded_u64(600));
                    let dur = d(1 + rng.bounded_u64(300));
                    if let Some((start, witness)) = flat.earliest_fit(from, dur, &demand) {
                        flat.reserve(start, dur, &witness, demand.remote_per_node);
                        naive.reserve(start, dur, &witness, demand.remote_per_node);
                    }
                }
            }
        }
        assert!(
            admitted >= 10_000 && refused >= 10_000,
            "oracle coverage: {admitted} admitted, {refused} refused"
        );
    }

    #[test]
    fn add_release_equals_building_with_it() {
        let mut rng = Pcg64::new(77);
        for kind in [DomainKind::None, DomainKind::PerRack, DomainKind::Global] {
            for case in 0..200 {
                let racks = 1 + rng.index(3);
                let domains = match kind {
                    DomainKind::None => 0,
                    DomainKind::PerRack => racks,
                    DomainKind::Global => 1,
                };
                let nodes: Vec<u32> = (0..racks).map(|_| rng.bounded_u64(4) as u32).collect();
                let pool: Vec<MiB> = (0..domains).map(|_| rng.bounded_u64(900)).collect();
                let releases: Vec<RunningRelease> = (0..rng.index(8))
                    .map(|_| RunningRelease {
                        planned_end: t(10 * rng.bounded_u64(40)),
                        nodes_per_rack: (0..racks).map(|_| rng.bounded_u64(3) as u32).collect(),
                        pool_per_domain: (0..domains).map(|_| rng.bounded_u64(300)).collect(),
                    })
                    .collect();
                let split = rng.index(releases.len() + 1);
                let mut flat = build(
                    t(100),
                    kind,
                    nodes.clone(),
                    pool.clone(),
                    &releases[..split],
                );
                for rel in &releases[split..] {
                    flat.add_release(rel);
                }
                let naive = NaiveProfile::from_parts(t(100), kind, nodes, pool, &releases);
                assert_same(&flat, &naive, &format!("{kind:?} case {case}"));
            }
        }
    }

    #[test]
    fn from_cluster_sorts_and_matches_naive() {
        use dmhpc_platform::{ClusterSpec, NodeSpec};
        let cluster = Cluster::new(ClusterSpec::new(
            2,
            4,
            NodeSpec::new(8, 1024),
            PoolTopology::PerRack { mib_per_rack: 4096 },
        ));
        let releases = [
            RunningRelease {
                planned_end: t(300),
                nodes_per_rack: vec![1, 0],
                pool_per_domain: vec![10, 0],
            },
            RunningRelease {
                planned_end: t(100),
                nodes_per_rack: vec![0, 2],
                pool_per_domain: vec![0, 20],
            },
        ];
        let flat = AvailabilityProfile::from_cluster(t(0), &cluster, &releases);
        let naive = NaiveProfile::from_cluster(t(0), &cluster, &releases);
        assert_same(&flat, &naive, "from_cluster");
        assert_eq!(flat.free_nodes_at(t(150)), [4, 6]);
        assert_eq!(flat.free_pool_at(t(300)), [4106, 4116]);
    }
}
