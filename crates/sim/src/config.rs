//! Simulation configuration.

use covenant_agreements::{AgreementGraph, PrincipalId};
use covenant_sched::Policy;
use covenant_tree::Topology;
use covenant_workload::{ClientMachine, ReplySizes};

// The queuing mode is shared with the live prototypes through the
// enforcement core; re-exported here so simulator users keep one import.
pub use covenant_enforce::QueueMode;

/// How much server work one request costs, in average-request units
/// ("large requests are treated as multiple small ones").
#[derive(Debug, Clone, PartialEq)]
pub enum RequestCost {
    /// Every request costs 1 unit.
    Unit,
    /// Every request costs a fixed amount.
    Fixed(f64),
    /// Costs follow the WebBench reply-size distribution: each request
    /// costs `sampled_bytes / mean_bytes`, floored at 1.
    SizeDistributed {
        /// The size sampler.
        sizes: ReplySizes,
        /// The "average request" the capacities are scaled in (6 KB for
        /// the paper's WebBench mix).
        mean_bytes: f64,
        /// RNG seed for reproducibility.
        seed: u64,
    },
}

/// One client machine attached to a redirector.
#[derive(Debug, Clone, PartialEq)]
pub struct SimClient {
    /// The load generator.
    pub machine: ClientMachine,
    /// Which redirector this client sends to.
    pub redirector: usize,
    /// Closed-loop limit: maximum requests in flight (admitted or deferred)
    /// before the client skips scheduled sends. `None` = open loop.
    pub max_outstanding: Option<usize>,
    /// Per-request cost model.
    pub cost: RequestCost,
}

/// A scheduled mid-run capacity change ("agreements are interpreted
/// dynamically: changes in a principal's resource levels affect the amount
/// available to others", §2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityChange {
    /// Simulation time at which the change takes effect (applied at the
    /// next window boundary).
    pub at: f64,
    /// The principal whose capacity changes.
    pub principal: PrincipalId,
    /// New capacity, units/second.
    pub capacity: f64,
}

/// A scheduled mid-run agreement renegotiation: the `[lb, ub]` bounds of
/// an existing issuer→holder agreement change at a window boundary and the
/// graph re-flows (the same dynamic-reinterpretation hook capacity changes
/// use, §2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementChange {
    /// Simulation time at which the change takes effect (applied at the
    /// next window boundary).
    pub at: f64,
    /// Issuer of the renegotiated agreement.
    pub issuer: PrincipalId,
    /// Holder of the renegotiated agreement.
    pub holder: PrincipalId,
    /// New mandatory fraction.
    pub lb: f64,
    /// New upper bound.
    pub ub: f64,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Principals, capacities, agreements.
    pub graph: AgreementGraph,
    /// Scheduling policy (community θ or provider income).
    pub policy: Policy,
    /// Scheduling window, seconds (paper: 0.1).
    pub window_secs: f64,
    /// Queuing mode.
    pub mode: QueueMode,
    /// Combining tree over the redirectors.
    pub tree: Topology,
    /// Additional information lag injected on top of the tree's own
    /// propagation delay (Figure 8 uses 10 s).
    pub extra_tree_lag: f64,
    /// Client machines.
    pub clients: Vec<SimClient>,
    /// Run length, seconds.
    pub duration: f64,
    /// Server accept-backlog limit.
    pub server_backlog: usize,
    /// Rate-series bucket width for reporting, seconds.
    pub bucket_secs: f64,
    /// Mid-run capacity changes, applied at window boundaries.
    pub capacity_changes: Vec<CapacityChange>,
    /// Mid-run agreement renegotiations, applied at window boundaries.
    pub agreement_changes: Vec<AgreementChange>,
    /// Failure injection: at each `(time, redirector)` the redirector
    /// crashes and restarts with empty state — credits, demand estimates,
    /// parked queues, and its delayed view of the tree are all lost.
    pub redirector_restarts: Vec<(f64, usize)>,
    /// Per-redirector locality caps (requests per window a redirector may
    /// push to each server), modelling forwarding cost. `None` entries (or
    /// a `None` table) mean uncapped. Only meaningful with the community
    /// policy.
    pub redirector_locality: Option<Vec<Option<covenant_sched::LocalityCaps>>>,
    /// One-way network latency per hop (client→redirector and
    /// redirector→server), seconds. Deferred retries pay a full extra
    /// round trip on top of `retry_delay`.
    pub network_latency: f64,
    /// Shared-rate reply-path links, one per redirector. `None` keeps the
    /// degenerate fixed-delay model (replies land `2 × network_latency`
    /// after server completion, no contention).
    pub net: Option<crate::link::NetModelCfg>,
    /// Let redirectors memoize the last solved window (see
    /// `covenant_sched::SchedulerConfig::plan_cache`). On by default; turn
    /// off to force an LP solve every window (plans are identical either
    /// way — the cache only replays exact repeats).
    pub plan_cache: bool,
    /// Record every per-arrival admission decision into
    /// [`crate::SimReport::decisions`] (time, redirector, principal, cost,
    /// outcome — retries included). Off by default: the trace grows with
    /// total arrivals. Used by the sim-vs-live differential tests to
    /// replay the exact arrival sequence against the live control plane.
    pub record_decisions: bool,
}

impl SimConfig {
    /// A baseline configuration: community policy, 100 ms windows, credit +
    /// retry mode, single redirector, no extra lag.
    pub fn new(graph: AgreementGraph, duration: f64) -> Self {
        SimConfig {
            graph,
            policy: Policy::Community { locality: None },
            window_secs: 0.1,
            mode: QueueMode::CreditRetry { retry_delay: 0.05 },
            tree: Topology::star(1, 0.0),
            extra_tree_lag: 0.0,
            clients: Vec::new(),
            duration,
            server_backlog: 4096,
            bucket_secs: 1.0,
            capacity_changes: Vec::new(),
            agreement_changes: Vec::new(),
            redirector_restarts: Vec::new(),
            redirector_locality: None,
            network_latency: 0.0,
            net: None,
            plan_cache: true,
            record_decisions: false,
        }
    }

    /// Number of redirectors (tree nodes).
    pub fn n_redirectors(&self) -> usize {
        self.tree.len()
    }

    /// Adds a client machine.
    pub fn client(self, machine: ClientMachine, redirector: usize) -> Self {
        self.add_client(machine, redirector, None, RequestCost::Unit)
    }

    /// Adds a closed-loop client machine with an outstanding-request limit.
    pub fn closed_loop_client(
        self,
        machine: ClientMachine,
        redirector: usize,
        max_outstanding: usize,
    ) -> Self {
        self.add_client(machine, redirector, Some(max_outstanding), RequestCost::Unit)
    }

    /// Adds a client whose requests carry WebBench-style size-distributed
    /// costs.
    pub fn sized_client(
        self,
        machine: ClientMachine,
        redirector: usize,
        sizes: ReplySizes,
        mean_bytes: f64,
        seed: u64,
    ) -> Self {
        let cost = RequestCost::SizeDistributed { sizes, mean_bytes, seed };
        self.add_client(machine, redirector, None, cost)
    }

    fn add_client(
        mut self,
        machine: ClientMachine,
        redirector: usize,
        max_outstanding: Option<usize>,
        cost: RequestCost,
    ) -> Self {
        assert!(redirector < self.n_redirectors(), "redirector index out of range");
        self.clients.push(SimClient { machine, redirector, max_outstanding, cost });
        self
    }

    /// Schedules a mid-run capacity change.
    pub fn with_capacity_change(mut self, at: f64, principal: PrincipalId, capacity: f64) -> Self {
        self.capacity_changes.push(CapacityChange { at, principal, capacity });
        self
    }

    /// Schedules a mid-run agreement renegotiation.
    pub fn with_agreement_change(
        mut self,
        at: f64,
        issuer: PrincipalId,
        holder: PrincipalId,
        lb: f64,
        ub: f64,
    ) -> Self {
        self.agreement_changes.push(AgreementChange { at, issuer, holder, lb, ub });
        self
    }

    /// Installs the shared-rate reply-path network model.
    pub fn with_net(mut self, net: crate::link::NetModelCfg) -> Self {
        assert_eq!(net.links.len(), self.n_redirectors(), "one link per redirector");
        self.net = Some(net);
        self
    }

    /// Schedules a redirector crash-and-restart (state loss) at `at`.
    pub fn with_redirector_restart(mut self, at: f64, redirector: usize) -> Self {
        assert!(redirector < self.n_redirectors(), "redirector index out of range");
        self.redirector_restarts.push((at, redirector));
        self
    }

    /// Sets one redirector's locality caps (requests/window per server).
    pub fn with_redirector_locality(
        mut self,
        redirector: usize,
        caps: covenant_sched::LocalityCaps,
    ) -> Self {
        assert!(redirector < self.n_redirectors(), "redirector index out of range");
        let table = self
            .redirector_locality
            .get_or_insert_with(|| vec![None; self.tree.len()]);
        table[redirector] = Some(caps);
        self
    }

    /// Sets the queuing mode.
    pub fn with_mode(mut self, mode: QueueMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the redirector tree and optional extra lag.
    pub fn with_tree(mut self, tree: Topology, extra_lag: f64) -> Self {
        self.tree = tree;
        self.extra_tree_lag = extra_lag;
        self
    }

    /// Sets the one-way per-hop network latency.
    pub fn with_network_latency(mut self, latency: f64) -> Self {
        assert!(latency >= 0.0 && latency.is_finite());
        self.network_latency = latency;
        self
    }

    /// Records every per-arrival admission decision into the report (see
    /// [`SimConfig::record_decisions`]).
    pub fn with_decision_recording(mut self) -> Self {
        self.record_decisions = true;
        self
    }
}
