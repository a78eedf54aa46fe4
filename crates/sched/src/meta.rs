//! Fleet-level meta-scheduling: routing jobs across federated sites.
//!
//! A *fleet* is N independent clusters ("sites"), each with its own
//! scheduler, behind one admission point. The federation engine in
//! `dmhpc-sim` advances all sites in lockstep epochs and, at each epoch
//! barrier, asks a [`MetaPolicy`] where every job that arrived during
//! the epoch should run. The policy sees only [`SiteSnapshot`]s — plain
//! observations taken at the barrier — so routing is a pure function of
//! the spec and seed.
//!
//! Built-ins cover the three natural families from the federation
//! literature: blind load spreading ([`MetaPolicyKind::RoundRobin`]),
//! queue balancing ([`MetaPolicyKind::LeastQueueDepth`]), and
//! memory-pressure balancing ([`MetaPolicyKind::LeastMemoryPressure`] —
//! the disaggregated-memory twist, where the meta-scheduler steers jobs
//! away from sites whose local + pool memory is nearly committed).
//!
//! Determinism contract: every policy must be a deterministic function
//! of `(job, snapshots, own state)`, and every comparison must break
//! ties by ascending site index so identical snapshots route
//! identically on every run.

use dmhpc_workload::Job;

/// One site's state as observed at an epoch barrier — everything a
/// routing policy may consult. Pure data (no references into engine
/// state), so snapshots cross thread boundaries freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSnapshot {
    /// The site's index in the fleet (0-based, fleet order).
    pub site: usize,
    /// Jobs waiting in the site's queue, plus jobs routed to the site
    /// earlier in the same barrier batch.
    pub queue_depth: usize,
    /// Total nodes requested by those queued jobs.
    pub queued_nodes: u64,
    /// Nodes currently free (up and idle).
    pub free_nodes: usize,
    /// Nodes in the machine (up or down).
    pub total_nodes: u32,
    /// Committed memory fraction across local + pool capacity, in
    /// `[0, 1]`: `(local_used + pool_used) / (total_local + total_pool)`.
    pub mem_pressure: f64,
    /// Total memory capacity (local + pool, MiB) the pressure fraction is
    /// taken over — what lets in-batch routing charge a routed job's
    /// demand back into `mem_pressure`.
    pub mem_capacity: u64,
}

impl SiteSnapshot {
    /// Account for a job routed to this site within the current barrier
    /// batch, so later routing decisions in the same batch see it. The
    /// job's memory demand is folded into `mem_pressure` (not just its
    /// queue footprint): without that, every job of a barrier batch sees
    /// the same pressure ordering and the whole batch herds onto one
    /// site under [`MetaPolicyKind::LeastMemoryPressure`].
    pub fn note_routed(&mut self, job: &Job) {
        self.queue_depth += 1;
        self.queued_nodes += job.nodes as u64;
        if self.mem_capacity > 0 {
            self.mem_pressure += job.total_mem() as f64 / self.mem_capacity as f64;
        }
    }
}

/// Fleet-level routing behaviour: pick the site each arriving job runs
/// on.
///
/// Policies may be stateful (round-robin keeps a cursor) but must be
/// deterministic; `route` is called once per job in arrival order with
/// snapshots already adjusted for earlier routings in the same batch.
/// The returned index must be `< sites.len()`.
pub trait MetaPolicy: std::fmt::Debug + Send {
    /// Stable name used in labels and reports.
    fn name(&self) -> &str;

    /// Choose the destination site for `job` given the barrier
    /// snapshots. `sites` is never empty.
    fn route(&mut self, job: &Job, sites: &[SiteSnapshot]) -> usize;
}

/// The built-in [`MetaPolicy`] implementations, as a plain value for
/// specs, labels, and hashing. [`MetaPolicyKind::build`] yields the
/// runnable policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetaPolicyKind {
    /// Cycle through sites in fleet order, ignoring state.
    #[default]
    RoundRobin,
    /// Send each job to the site with the shallowest queue; ties fall to
    /// fewer queued nodes, then the lowest site index.
    LeastQueueDepth,
    /// Send each job to the site with the lowest committed-memory
    /// fraction (local + pool); ties fall to the shallower queue, then
    /// the lowest site index.
    LeastMemoryPressure,
}

impl MetaPolicyKind {
    /// Stable name for labels and cache hashes.
    pub fn name(&self) -> &'static str {
        match self {
            MetaPolicyKind::RoundRobin => "round-robin",
            MetaPolicyKind::LeastQueueDepth => "least-queue",
            MetaPolicyKind::LeastMemoryPressure => "least-pressure",
        }
    }

    /// Parse the name produced by [`MetaPolicyKind::name`].
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "round-robin" => Some(MetaPolicyKind::RoundRobin),
            "least-queue" => Some(MetaPolicyKind::LeastQueueDepth),
            "least-pressure" => Some(MetaPolicyKind::LeastMemoryPressure),
            _ => None,
        }
    }

    /// Construct the runnable policy.
    pub fn build(&self) -> Box<dyn MetaPolicy> {
        match self {
            MetaPolicyKind::RoundRobin => Box::new(RoundRobin { next: 0 }),
            MetaPolicyKind::LeastQueueDepth => Box::new(LeastQueueDepth),
            MetaPolicyKind::LeastMemoryPressure => Box::new(LeastMemoryPressure),
        }
    }
}

/// See [`MetaPolicyKind::RoundRobin`].
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl MetaPolicy for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn route(&mut self, _job: &Job, sites: &[SiteSnapshot]) -> usize {
        let site = self.next % sites.len();
        self.next = (self.next + 1) % sites.len();
        site
    }
}

/// See [`MetaPolicyKind::LeastQueueDepth`].
#[derive(Debug, Default)]
pub struct LeastQueueDepth;

impl MetaPolicy for LeastQueueDepth {
    fn name(&self) -> &str {
        "least-queue"
    }

    fn route(&mut self, _job: &Job, sites: &[SiteSnapshot]) -> usize {
        sites
            .iter()
            .min_by_key(|s| (s.queue_depth, s.queued_nodes, s.site))
            // lint: allow(panic) — construction validated a non-empty site list
            .expect("sites is never empty")
            .site
    }
}

/// See [`MetaPolicyKind::LeastMemoryPressure`].
#[derive(Debug, Default)]
pub struct LeastMemoryPressure;

impl MetaPolicy for LeastMemoryPressure {
    fn name(&self) -> &str {
        "least-pressure"
    }

    fn route(&mut self, _job: &Job, sites: &[SiteSnapshot]) -> usize {
        sites
            .iter()
            .min_by(|a, b| {
                a.mem_pressure
                    .total_cmp(&b.mem_pressure)
                    .then_with(|| (a.queue_depth, a.site).cmp(&(b.queue_depth, b.site)))
            })
            // lint: allow(panic) — construction validated a non-empty site list
            .expect("sites is never empty")
            .site
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_workload::JobBuilder;

    fn job() -> Job {
        JobBuilder::new(1)
            .nodes(4)
            .runtime_secs(10, 20)
            .mem_per_node(100)
            .build()
    }

    fn snap(site: usize, queue_depth: usize, queued_nodes: u64, mem: f64) -> SiteSnapshot {
        SiteSnapshot {
            site,
            queue_depth,
            queued_nodes,
            free_nodes: 8,
            total_nodes: 8,
            mem_pressure: mem,
            mem_capacity: 8_000,
        }
    }

    #[test]
    fn round_robin_cycles_sites_in_order() {
        let mut p = MetaPolicyKind::RoundRobin.build();
        let sites = [snap(0, 9, 9, 0.9), snap(1, 0, 0, 0.0), snap(2, 5, 5, 0.5)];
        let j = job();
        let got: Vec<usize> = (0..7).map(|_| p.route(&j, &sites)).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2, 0], "state-blind cycle");
    }

    /// Tie-breaking table for the two state-driven policies: each row is
    /// (snapshots, expected site).
    #[test]
    fn least_queue_tie_breaking_table() {
        let j = job();
        let cases: Vec<(Vec<SiteSnapshot>, usize, &str)> = vec![
            (
                vec![snap(0, 3, 12, 0.1), snap(1, 1, 4, 0.9)],
                1,
                "shallower queue wins regardless of memory",
            ),
            (
                vec![snap(0, 2, 16, 0.1), snap(1, 2, 8, 0.1)],
                1,
                "equal depth: fewer queued nodes wins",
            ),
            (
                vec![snap(0, 2, 8, 0.5), snap(1, 2, 8, 0.1), snap(2, 2, 8, 0.0)],
                0,
                "full tie: lowest site index wins",
            ),
        ];
        for (sites, want, why) in cases {
            let mut p = MetaPolicyKind::LeastQueueDepth.build();
            assert_eq!(p.route(&j, &sites), want, "{why}");
        }
    }

    #[test]
    fn least_pressure_tie_breaking_table() {
        let j = job();
        let cases: Vec<(Vec<SiteSnapshot>, usize, &str)> = vec![
            (
                vec![snap(0, 0, 0, 0.8), snap(1, 9, 90, 0.3)],
                1,
                "lower memory pressure wins regardless of queue",
            ),
            (
                vec![snap(0, 4, 4, 0.5), snap(1, 2, 2, 0.5)],
                1,
                "equal pressure: shallower queue wins",
            ),
            (
                vec![snap(0, 2, 2, 0.5), snap(1, 2, 9, 0.5), snap(2, 2, 2, 0.5)],
                0,
                "full tie: lowest site index wins",
            ),
        ];
        for (sites, want, why) in cases {
            let mut p = MetaPolicyKind::LeastMemoryPressure.build();
            assert_eq!(p.route(&j, &sites), want, "{why}");
        }
    }

    #[test]
    fn note_routed_adjusts_in_batch_state() {
        let mut s = snap(0, 1, 2, 0.0);
        s.note_routed(&job());
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queued_nodes, 6);
        // 4 nodes × 100 MiB against 8000 MiB of capacity.
        assert!((s.mem_pressure - 0.05).abs() < 1e-12);
        // Zero-capacity sites (degenerate specs) must not divide by zero.
        let mut z = snap(0, 0, 0, 0.0);
        z.mem_capacity = 0;
        z.note_routed(&job());
        assert_eq!(z.mem_pressure, 0.0);
    }

    /// The herding regression: a barrier batch routed under
    /// least-pressure must spread across equally-pressured sites instead
    /// of dumping every job on the first one.
    #[test]
    fn least_pressure_batch_spreads_instead_of_herding() {
        let mut p = MetaPolicyKind::LeastMemoryPressure.build();
        let mut sites = vec![snap(0, 0, 0, 0.2), snap(1, 0, 0, 0.2)];
        let j = job();
        let mut routed = Vec::new();
        for _ in 0..4 {
            let site = p.route(&j, &sites);
            sites[site].note_routed(&j);
            routed.push(site);
        }
        assert_eq!(
            routed,
            vec![0, 1, 0, 1],
            "in-batch pressure must alternate sites"
        );
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            MetaPolicyKind::RoundRobin,
            MetaPolicyKind::LeastQueueDepth,
            MetaPolicyKind::LeastMemoryPressure,
        ] {
            assert_eq!(MetaPolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(MetaPolicyKind::parse("nope"), None);
        assert_eq!(MetaPolicyKind::default(), MetaPolicyKind::RoundRobin);
    }
}
