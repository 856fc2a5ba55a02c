//! The round-synchronous simulation engine.
//!
//! The engine owns one protocol instance per node, an adversary, and an
//! activation schedule, and executes the model of Section 2 round by round:
//!
//! 1. activate the nodes the schedule designates for this round;
//! 2. ask every active node for its action;
//! 3. ask the adversary for its disruption set (based on the history through
//!    the previous round) and clamp it to the configured bound `t`;
//! 4. resolve every frequency: a message is delivered iff exactly one node
//!    broadcast on it and it was not disrupted — then any attached
//!    [`fault`](crate::fault) layers may still drop the delivery whole or
//!    suppress individual receivers (loss, capture, partitions);
//! 5. hand every active node its feedback and sample its output;
//! 6. stream one borrowed observation of the resolved round through the
//!    probe pipeline: the engine's metrics fold, the attached
//!    [`probe`](crate::probe) stack, and the adversary-visible history.
//!
//! Executions are a pure function of `(SimConfig, protocol factory,
//! adversary, activation schedule, seed)`.
//!
//! # Performance
//!
//! Round dispatch is *sparse*: dormant nodes sit in a wake queue keyed by
//! activation round, running nodes are held in a sorted **active set**, and
//! per-frequency occupancy is reset through a *touched-frequency* list
//! rather than a band-wide sweep — so a steady-state round costs
//! O(active + contended frequencies), not O(N + F), with no heap
//! allocation. The engine still owns reusable structure-of-arrays buffers
//! (per-node action/payload/view slots, per-frequency occupancy counters
//! and the per-frequency activity record) sized O(N + F) once at
//! construction; only the *passes* are sparse. The two deliberate
//! per-round O(F) residues are outside the pass structure: the
//! [`History`] probe memcpys the F-wide activity slice when retention is
//! active, and adversaries allocate one F-wide
//! [`DisruptionSet`](crate::adversary::DisruptionSet) mask per round. The tracked rounds/sec baseline lives in `BENCH_engine.json` at
//! the repository root and is regenerated by the `engine_throughput` bench
//! in `wsync-bench`.

use crate::action::Action;
use crate::activation::ActivationSchedule;
use crate::adversary::Adversary;
use crate::error::{ConfigError, Result};
use crate::fault::{FaultKind, FaultLayer, FaultStack, FaultTransitions, NetworkView};
use crate::frequency::FrequencyBand;
use crate::history::{FrequencyActivity, History};
use crate::message::{Feedback, Received};
use crate::metrics::SimMetrics;
use crate::node::{ActivationInfo, NodeId};
use crate::probe::{Probe, ProbeStack};
use crate::protocol::Protocol;
use crate::rng::{SimRng, StreamId};
use crate::trace::{ActionView, Delivery, NodeView, RoundObservation, RoundTally};

use serde::{Deserialize, Serialize};

/// How much of the completed-round [`History`] the engine retains for the
/// adversary and the probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum HistoryRetention {
    /// Derive the window from the registered demand: the maximum of the
    /// adversary's [`max_lookback`](Adversary::max_lookback) and every
    /// attached probe's [`lookback`](Probe::lookback). With only bounded
    /// demands an outcome-only run holds O(window) — for the history-free
    /// adversaries, O(1) — round state. This is the default.
    ///
    /// An adversary that declares `None` (unknown lookback — the trait
    /// default for impls outside this crate) falls back to **full**
    /// retention: correctness over memory, since truncating an
    /// unknown-depth consumer would silently change its behaviour. Full
    /// retention grows with `max_rounds × F`; long-running simulations of
    /// such an adversary should either implement
    /// [`max_lookback`](Adversary::max_lookback) honestly or pin an
    /// explicit [`Window`](Self::Window).
    #[default]
    Demand,
    /// Retain exactly the last `w` completed rounds, regardless of demand.
    Window(usize),
    /// Retain every completed round.
    Full,
}

/// Static configuration of a simulated execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Actual number of participating nodes `n`.
    pub num_nodes: usize,
    /// Upper bound `N ≥ n` announced to the protocols. Defaults to `n`
    /// rounded up to a power of two (see [`SimConfig::new`]).
    pub upper_bound_n: u64,
    /// Number of frequencies `F`.
    pub num_frequencies: u32,
    /// Disruption bound `t < F` announced to the protocols and enforced on
    /// the adversary.
    pub disruption_bound: u32,
    /// Hard cap on the number of rounds simulated.
    pub max_rounds: u64,
    /// Number of additional rounds to keep simulating after every node has
    /// synchronized (useful for observing that outputs keep incrementing).
    pub extra_rounds_after_sync: u64,
    /// If `true`, the adversary is shown the current round's actions
    /// (stronger than the model allows; stress-testing only).
    pub adversary_sees_current_round: bool,
    /// How much adversary-visible history the engine retains. Retention
    /// never changes an outcome as long as it covers every consumer's
    /// declared lookback — which [`HistoryRetention::Demand`] guarantees by
    /// construction.
    pub history_retention: HistoryRetention,
}

impl SimConfig {
    /// Creates a configuration for `n` nodes, `F` frequencies and disruption
    /// bound `t`, with `N` set to `n.next_power_of_two()`, a generous
    /// default round cap, and no extras.
    pub fn new(num_nodes: usize, num_frequencies: u32, disruption_bound: u32) -> Self {
        SimConfig {
            num_nodes,
            upper_bound_n: (num_nodes.max(2) as u64).next_power_of_two(),
            num_frequencies,
            disruption_bound,
            max_rounds: 1_000_000,
            extra_rounds_after_sync: 0,
            adversary_sees_current_round: false,
            history_retention: HistoryRetention::Demand,
        }
    }

    /// Sets the bound `N` announced to the protocols.
    pub fn with_upper_bound(mut self, upper_bound_n: u64) -> Self {
        self.upper_bound_n = upper_bound_n;
        self
    }

    /// Sets the maximum number of simulated rounds.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Keeps simulating for `extra` rounds after all nodes synchronize.
    pub fn with_extra_rounds_after_sync(mut self, extra: u64) -> Self {
        self.extra_rounds_after_sync = extra;
        self
    }

    /// Lets the adversary observe the current round's actions
    /// (stress-testing mode, stronger than the paper's model).
    pub fn with_omniscient_adversary(mut self, enabled: bool) -> Self {
        self.adversary_sees_current_round = enabled;
        self
    }

    /// Sets the adversary-visible history retention policy.
    pub fn with_history_retention(mut self, retention: HistoryRetention) -> Self {
        self.history_retention = retention;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.num_nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.num_frequencies == 0 {
            return Err(ConfigError::NoFrequencies);
        }
        if self.disruption_bound >= self.num_frequencies {
            return Err(ConfigError::DisruptionBoundTooLarge {
                t: self.disruption_bound,
                f: self.num_frequencies,
            });
        }
        if self.upper_bound_n < self.num_nodes as u64 {
            return Err(ConfigError::UpperBoundTooSmall {
                n: self.num_nodes as u64,
                upper_bound: self.upper_bound_n,
            });
        }
        if self.max_rounds == 0 {
            return Err(ConfigError::ZeroMaxRounds);
        }
        Ok(())
    }

    /// The activation information announced to protocols.
    pub fn activation_info(&self) -> ActivationInfo {
        ActivationInfo::new(
            self.upper_bound_n,
            self.num_frequencies,
            self.disruption_bound,
        )
    }

    /// The frequency band of the configured network.
    pub fn band(&self) -> FrequencyBand {
        FrequencyBand::new(self.num_frequencies)
    }
}

/// Per-node outcome of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSummary {
    /// The node.
    pub id: NodeId,
    /// The global round in which the node was activated.
    pub activation_round: u64,
    /// The first global round in which the node produced a non-`⊥` output,
    /// if it ever did.
    pub sync_round: Option<u64>,
    /// The node's output in the final simulated round.
    pub final_output: Option<u64>,
}

impl NodeSummary {
    /// Number of rounds between activation and synchronization, if the node
    /// synchronized.
    pub fn rounds_to_sync(&self) -> Option<u64> {
        self.sync_round
            .map(|s| s.saturating_sub(self.activation_round))
    }
}

/// The result of running an execution to completion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionResult {
    /// Number of rounds simulated.
    pub rounds_executed: u64,
    /// Whether every node synchronized before the round cap.
    pub all_synchronized: bool,
    /// Per-node outcomes, indexed by node index.
    pub nodes: Vec<NodeSummary>,
    /// Aggregate counters.
    pub metrics: SimMetrics,
}

impl ExecutionResult {
    /// The global round by which every node had synchronized, if all did.
    pub fn completion_round(&self) -> Option<u64> {
        if !self.all_synchronized {
            return None;
        }
        self.nodes.iter().map(|n| n.sync_round).max().flatten()
    }

    /// The largest per-node `rounds_to_sync`, if every node synchronized.
    pub fn max_rounds_to_sync(&self) -> Option<u64> {
        if !self.all_synchronized {
            return None;
        }
        self.nodes
            .iter()
            .map(|n| n.rounds_to_sync())
            .max()
            .flatten()
    }

    /// Mean per-node `rounds_to_sync` over nodes that synchronized.
    pub fn mean_rounds_to_sync(&self) -> f64 {
        let synced: Vec<u64> = self
            .nodes
            .iter()
            .filter_map(|n| n.rounds_to_sync())
            .collect();
        if synced.is_empty() {
            0.0
        } else {
            synced.iter().sum::<u64>() as f64 / synced.len() as f64
        }
    }
}

/// Reusable per-round working memory, so that steady-state round dispatch
/// performs no heap allocation.
///
/// The per-node arrays (`actions`, `payloads`, `node_views`) are indexed by
/// node index and persist across rounds: every *active* node overwrites its
/// slot each round, a slot belonging to a not-yet-activated node keeps its
/// initial `Inactive`/`None` value, and a crashed node's slot is written
/// `Crashed` once at the crash transition and left alone while it is down.
/// The per-frequency arrays are flat structure-of-arrays counters reset
/// *sparsely* at the top of each round: only the frequencies touched last
/// round (occupied by some node or disrupted by the adversary — tracked in
/// `touched`) are rewritten, so the reset costs O(touched), not O(F).
/// `activity` is the round's per-frequency resolution record, which probes
/// observe by reference and the [`History`] copies into a recycled buffer;
/// entries for untouched frequencies hold the all-quiet value.
struct RoundScratch<M> {
    /// Nodes newly activated this round.
    newly_activated: Vec<NodeId>,
    /// Per-node action view, indexed by node index.
    actions: Vec<ActionView>,
    /// Per-node broadcast payload slot, indexed by node index. `Some` only
    /// for nodes that broadcast this round.
    payloads: Vec<Option<M>>,
    /// Per-node observer view, indexed by node index.
    node_views: Vec<NodeView>,
    /// Per-frequency broadcaster count (0-based frequency index).
    broadcasters: Vec<u32>,
    /// Per-frequency listener count (0-based frequency index).
    listeners: Vec<u32>,
    /// Per-frequency index of the lowest-indexed broadcaster; only
    /// meaningful on frequencies with exactly one broadcaster.
    solo_broadcaster: Vec<u32>,
    /// Per-frequency resolution record of this round (always `F` entries;
    /// untouched frequencies stay all-quiet).
    activity: Vec<FrequencyActivity>,
    /// 0-based indices of the frequencies touched this round (occupied or
    /// disrupted), sorted ascending before the resolution pass.
    touched: Vec<u32>,
    /// Per-frequency membership flag for `touched`.
    freq_touched: Vec<bool>,
    /// Messages delivered this round.
    deliveries: Vec<Delivery>,
    /// Per-frequency index into `deliveries`; written (and read) only for
    /// frequencies that delivered this round, and only on the fault path,
    /// where receiver counts are settled per-listener in the feedback pass.
    delivery_slot: Vec<usize>,
    /// Flat aggregate counters of this round, tallied during the passes.
    tally: RoundTally,
}

/// The resolution record of a frequency nobody used and nobody jammed.
const QUIET: FrequencyActivity = FrequencyActivity {
    broadcasters: 0,
    listeners: 0,
    disrupted: false,
    delivered: false,
};

impl<M> RoundScratch<M> {
    fn new(num_nodes: usize, num_frequencies: usize) -> Self {
        RoundScratch {
            newly_activated: Vec::new(),
            actions: vec![ActionView::Inactive; num_nodes],
            payloads: (0..num_nodes).map(|_| None).collect(),
            node_views: vec![NodeView::Inactive; num_nodes],
            broadcasters: vec![0; num_frequencies],
            listeners: vec![0; num_frequencies],
            solo_broadcaster: vec![0; num_frequencies],
            activity: vec![QUIET; num_frequencies],
            touched: Vec::new(),
            freq_touched: vec![false; num_frequencies],
            deliveries: Vec::new(),
            delivery_slot: vec![0; num_frequencies],
            tally: RoundTally::default(),
        }
    }

    /// Resets the per-round state, keeping every allocation. Only the
    /// frequencies touched last round are rewritten — O(touched), not
    /// O(F).
    fn begin_round(&mut self) {
        self.newly_activated.clear();
        self.deliveries.clear();
        for &fi in &self.touched {
            let fi = fi as usize;
            self.broadcasters[fi] = 0;
            self.listeners[fi] = 0;
            self.activity[fi] = QUIET;
            self.freq_touched[fi] = false;
        }
        self.touched.clear();
        self.tally = RoundTally::default();
        // `solo_broadcaster`, `actions`, `payloads` and `node_views` are
        // overwritten where meaningful; stale entries are never read.
    }

    /// Marks frequency `fi` as touched this round.
    #[inline]
    fn touch(&mut self, fi: usize) {
        if !self.freq_touched[fi] {
            self.freq_touched[fi] = true;
            self.touched.push(fi as u32);
        }
    }
}

/// Merges the sorted node list `incoming` into the sorted `active` list,
/// marking membership in `in_active`. Backward in-place merge: O(incoming)
/// when the new nodes all sort after the current tail (the common case —
/// staggered schedules activate in index order), O(active + incoming)
/// worst case, which only arises on rounds that actually change
/// membership.
fn merge_into_active(active: &mut Vec<u32>, in_active: &mut [bool], incoming: &[u32]) {
    if incoming.is_empty() {
        return;
    }
    for &n in incoming {
        in_active[n as usize] = true;
    }
    let old_len = active.len();
    if old_len == 0 || incoming[0] > active[old_len - 1] {
        active.extend_from_slice(incoming);
        return;
    }
    active.resize(old_len + incoming.len(), 0);
    let mut a = old_len;
    let mut b = incoming.len();
    let mut w = active.len();
    while b > 0 {
        w -= 1;
        if a > 0 && active[a - 1] > incoming[b - 1] {
            a -= 1;
            active[w] = active[a];
        } else {
            b -= 1;
            active[w] = incoming[b];
        }
    }
}

/// The round-synchronous simulation engine.
///
/// See the [module documentation](self) for the per-round pipeline.
///
/// # Observation
///
/// Every resolved round streams through one probe pipeline: the engine's
/// own [`History`] and [`SimMetrics`] — both [`Probe`]s — observe first,
/// followed by the user probes attached with
/// [`attach_probe`](Engine::attach_probe), composed in a [`ProbeStack`]
/// the engine owns. Probes never perturb the execution, and the history
/// retention window is derived from the maximum lookback the adversary and
/// the probes register (see [`HistoryRetention`]).
pub struct Engine<P: Protocol, A: Adversary> {
    config: SimConfig,
    adversary: A,
    protocols: Vec<P>,
    node_rngs: Vec<SimRng>,
    adversary_rng: SimRng,
    activation_rounds: Vec<u64>,
    activated: Vec<bool>,
    /// Dormant nodes, as `(activation_round, node)` pairs sorted
    /// lexicographically; `wake_cursor` marks how far activation has
    /// consumed the queue. Popping a round's due nodes is O(popped).
    wake_queue: Vec<(u64, u32)>,
    wake_cursor: usize,
    /// Sorted indices of the running nodes (activated and not crashed):
    /// the engine's **active set**. Every per-node pass iterates this
    /// list, so a round costs O(active), not O(N).
    active: Vec<u32>,
    /// Per-node membership flag for `active`.
    in_active: Vec<bool>,
    /// Number of activated nodes currently held down by a fault layer
    /// (the per-round `crashed_nodes` tally).
    down_count: u32,
    /// Per-node flag: currently counted in `synced_count`.
    counted_synced: Vec<bool>,
    /// Number of nodes that are activated, synchronized, and not down —
    /// [`all_synchronized`](Engine::all_synchronized) is O(1).
    synced_count: usize,
    /// Reused crash/wake transition collector for the fault stack.
    transitions: FaultTransitions,
    /// Reused sorted-insertion buffer for active-set merges.
    merge_buf: Vec<u32>,
    sync_round: Vec<Option<u64>>,
    /// The master seed, retained so fault layers attached after
    /// construction can derive their private streams.
    seed: u64,
    /// Network-fault layers applied between resolution and delivery. Empty
    /// in ordinary runs; every fault hook is guarded by that emptiness, so
    /// the fault-free hot path is untouched.
    faults: FaultStack,
    /// Per-node base round of the current protocol lifetime: the activation
    /// round, moved forward to the wake round after each churn restart (so
    /// protocols see local round 0 again after losing their state). Equal
    /// to `activation_rounds` in any fault-free execution.
    local_base: Vec<u64>,
    /// The adversary-visible history probe (kept as a named field so the
    /// adversary can read it while the stack is borrowed elsewhere).
    history: History,
    /// The aggregate-metrics probe.
    metrics: SimMetrics,
    /// User probes, observed after `metrics` and before `history`.
    probes: ProbeStack,
    round: u64,
    scratch: RoundScratch<P::Msg>,
}

impl<P: Protocol, A: Adversary> Engine<P, A> {
    /// Builds an engine.
    ///
    /// `factory` is called once per node (in index order) to create the
    /// protocol instances; `seed` determines every random choice of the
    /// execution (node randomness, adversary randomness, and randomized
    /// activation schedules each get independent derived streams).
    pub fn new<F>(
        config: SimConfig,
        mut factory: F,
        adversary: A,
        schedule: ActivationSchedule,
        seed: u64,
    ) -> Result<Self>
    where
        F: FnMut(NodeId) -> P,
    {
        config.validate()?;
        let protocols: Vec<P> = (0..config.num_nodes)
            .map(|i| factory(NodeId::new(i as u32)))
            .collect();
        let node_rngs: Vec<SimRng> = (0..config.num_nodes)
            .map(|i| SimRng::derive(seed, StreamId::Node(i as u32)))
            .collect();
        let mut activation_rng = SimRng::derive(seed, StreamId::Activation);
        let activation_rounds = schedule.activation_rounds(config.num_nodes, &mut activation_rng);
        let mut wake_queue: Vec<(u64, u32)> = activation_rounds
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i as u32))
            .collect();
        wake_queue.sort_unstable();
        let history = match config.history_retention {
            HistoryRetention::Window(w) => History::with_window(w),
            HistoryRetention::Full => History::new(),
            HistoryRetention::Demand => match adversary.max_lookback() {
                // Unknown demand: retaining everything is always safe.
                None => History::new(),
                Some(k) => History::with_window(k.max(1)),
            },
        };
        Ok(Engine {
            config,
            adversary,
            protocols,
            node_rngs,
            adversary_rng: SimRng::derive(seed, StreamId::Adversary),
            local_base: activation_rounds.clone(),
            activation_rounds,
            activated: vec![false; config.num_nodes],
            wake_queue,
            wake_cursor: 0,
            active: Vec::new(),
            in_active: vec![false; config.num_nodes],
            down_count: 0,
            counted_synced: vec![false; config.num_nodes],
            synced_count: 0,
            transitions: FaultTransitions::new(),
            merge_buf: Vec::new(),
            sync_round: vec![None; config.num_nodes],
            seed,
            faults: FaultStack::new(),
            history,
            metrics: SimMetrics::default(),
            probes: ProbeStack::new(),
            round: 0,
            scratch: RoundScratch::new(config.num_nodes, config.num_frequencies as usize),
        })
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The per-node activation rounds chosen by the schedule.
    pub fn activation_rounds(&self) -> &[u64] {
        &self.activation_rounds
    }

    /// Read access to the protocol instances (e.g. to count leaders after a
    /// run).
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The retained completed-round history (what the adversary sees).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Attaches a probe to the engine's stack, returning its slot (use it
    /// with [`take_probes`](Engine::take_probes) and
    /// [`ProbeStack::take`] to recover the probe after the run).
    ///
    /// Under [`HistoryRetention::Demand`] the retained history window is
    /// widened to cover the probe's declared
    /// [`lookback`](Probe::lookback); attach probes before the first round
    /// runs so the demand is registered while the history is still empty.
    /// Explicit [`Window`](HistoryRetention::Window) /
    /// [`Full`](HistoryRetention::Full) policies are never adjusted —
    /// widening a caller-pinned window could change what the *adversary*
    /// sees and thereby let a probe perturb the outcome, which probes must
    /// never do (a probe demanding more than an explicit window simply
    /// observes the starved history the caller configured).
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) -> usize {
        if self.config.history_retention == HistoryRetention::Demand {
            self.history.widen_window(probe.lookback());
        }
        self.probes.push(probe)
    }

    /// The user probes attached so far.
    pub fn probes(&self) -> &ProbeStack {
        &self.probes
    }

    /// Attaches a network-fault layer, applied between the resolution pass
    /// and delivery (after any already-attached layers).
    ///
    /// The layer is paired with a private random stream derived from the
    /// master seed and its stack index
    /// ([`StreamId::Fault`]), so fault layers
    /// never perturb the node, adversary, or activation streams — and a
    /// layer that draws nothing (zero intensity) leaves the execution
    /// bit-identical to a run without it. Attach layers before the first
    /// round runs; layers attached mid-run would skip the rounds already
    /// resolved.
    pub fn attach_fault(&mut self, layer: Box<dyn FaultLayer>) {
        let rng = SimRng::derive(self.seed, StreamId::Fault(self.faults.len() as u32));
        self.faults.push(layer, rng);
    }

    /// The attached fault layers.
    pub fn faults(&self) -> &FaultStack {
        &self.faults
    }

    /// Removes and returns the attached probe stack (e.g. to recover the
    /// probes' collected state after a run), leaving an empty stack behind.
    pub fn take_probes(&mut self) -> ProbeStack {
        std::mem::take(&mut self.probes)
    }

    /// Runs the execution to completion, streaming every round through the
    /// attached probes.
    ///
    /// The execution stops when every node has been activated and has
    /// synchronized (plus the configured number of extra rounds), or when
    /// `max_rounds` is reached.
    pub fn run(&mut self) -> ExecutionResult {
        let mut extra_remaining: Option<u64> = None;
        while self.round < self.config.max_rounds {
            self.step();
            match extra_remaining {
                None => {
                    if self.all_synchronized() {
                        if self.config.extra_rounds_after_sync == 0 {
                            break;
                        }
                        extra_remaining = Some(self.config.extra_rounds_after_sync);
                    }
                }
                Some(k) if k <= 1 => break,
                Some(ref mut k) => *k -= 1,
            }
        }
        self.result()
    }

    /// Executes exactly one round, streaming it through the attached
    /// probes.
    ///
    /// The round is resolved over the engine's reusable `RoundScratch`
    /// buffers: one pass over the *active set* to collect actions into flat
    /// per-frequency counters, one pass over the *touched* frequencies to
    /// resolve deliveries, and one pass over the active set to deliver
    /// feedback — O(active + touched) per round, with no heap allocation
    /// in steady state.
    pub fn step(&mut self) {
        let round = self.round;
        let band = self.config.band();
        let f_count = self.config.num_frequencies as usize;
        let info = self.config.activation_info();
        let has_faults = !self.faults.is_empty();
        self.scratch.begin_round();

        // 0. Fault-layer upkeep: stateful layers (churn) advance their
        // crash/wake state against the active set as of the end of the
        // previous round, reporting crash/wake transitions instead of
        // being scanned. Newly crashed nodes leave the active set here;
        // reported wakes are processed in phase 1b, after activations.
        // Skipped entirely without layers.
        if has_faults {
            self.transitions.clear();
            self.faults.begin_round(
                round,
                &NetworkView {
                    activated: &self.activated,
                    running: &self.active,
                },
                &mut self.transitions,
            );
            self.transitions.normalize();
            if !self.transitions.crashed().is_empty() {
                let mut removed = false;
                for &node in self.transitions.crashed() {
                    let i = node as usize;
                    if self.in_active[i] {
                        self.in_active[i] = false;
                        removed = true;
                        self.scratch.actions[i] = ActionView::Crashed;
                        self.scratch.payloads[i] = None;
                        self.scratch.node_views[i] = NodeView::Crashed;
                        self.down_count += 1;
                        if self.counted_synced[i] {
                            self.counted_synced[i] = false;
                            self.synced_count -= 1;
                        }
                    }
                }
                if removed {
                    let in_active = &self.in_active;
                    self.active.retain(|&n| in_active[n as usize]);
                }
            }
        }

        // 1. Activations: pop this round's due nodes off the wake queue
        // (they sit contiguously at the cursor, in node order). A node a
        // fault layer already holds down at activation joins as crashed
        // and enters the active set when the layer reports its wake.
        let due_start = self.wake_cursor;
        while self.wake_cursor < self.wake_queue.len()
            && self.wake_queue[self.wake_cursor].0 <= round
        {
            let i = self.wake_queue[self.wake_cursor].1 as usize;
            self.wake_cursor += 1;
            self.activated[i] = true;
            self.protocols[i].on_activate(info, &mut self.node_rngs[i]);
            self.scratch.newly_activated.push(NodeId::new(i as u32));
        }
        if self.wake_cursor > due_start {
            self.merge_buf.clear();
            for k in due_start..self.wake_cursor {
                let node = self.wake_queue[k].1;
                if has_faults && self.faults.is_down(NodeId::new(node)) {
                    let i = node as usize;
                    self.scratch.actions[i] = ActionView::Crashed;
                    self.scratch.payloads[i] = None;
                    self.scratch.node_views[i] = NodeView::Crashed;
                    self.down_count += 1;
                } else {
                    self.merge_buf.push(node);
                }
            }
            merge_into_active(&mut self.active, &mut self.in_active, &self.merge_buf);
        }

        self.scratch.tally.newly_activated = self.scratch.newly_activated.len() as u32;

        // 1b. Restarts: nodes the fault stack reported waking rejoin with
        // freshly reset protocol state and a restarted local round counter.
        // The sorted report preserves node-order `on_restart` calls; each
        // candidate is re-checked against the whole stack, so a wake one
        // layer reports while another still holds the node down is
        // ignored.
        if has_faults && !self.transitions.woke().is_empty() {
            self.merge_buf.clear();
            for &node in self.transitions.woke() {
                let i = node as usize;
                if self.activated[i] && self.faults.just_restarted(NodeId::new(node)) {
                    self.protocols[i].on_restart(info, &mut self.node_rngs[i]);
                    self.local_base[i] = round;
                    self.scratch.tally.restarted_nodes += 1;
                    if !self.in_active[i] {
                        self.down_count -= 1;
                        self.merge_buf.push(node);
                    }
                }
            }
            let (active, in_active, merge_buf) =
                (&mut self.active, &mut self.in_active, &self.merge_buf);
            merge_into_active(active, in_active, merge_buf);
        }
        self.scratch.tally.crashed_nodes = self.down_count;

        // 2. Actions: one pass over the active set (sorted, so protocol
        // and per-node RNG calls stay in node order), filling the flat
        // per-node action/payload slots and the per-frequency occupancy
        // counters of the touched frequencies.
        for idx in 0..self.active.len() {
            let i = self.active[idx] as usize;
            let local_round = round - self.local_base[i];
            let action = self.protocols[i].choose_action(local_round, &mut self.node_rngs[i]);
            match action {
                Action::Broadcast { frequency, message } => {
                    assert!(
                        band.contains(frequency),
                        "protocol chose frequency {frequency} outside the band of {f_count} frequencies"
                    );
                    let fi = frequency.as_zero_based();
                    self.scratch.touch(fi);
                    self.scratch.actions[i] = ActionView::Broadcast(frequency);
                    self.scratch.payloads[i] = Some(message);
                    if self.scratch.broadcasters[fi] == 0 {
                        self.scratch.solo_broadcaster[fi] = i as u32;
                    }
                    self.scratch.broadcasters[fi] += 1;
                    self.scratch.tally.broadcasts += 1;
                }
                Action::Listen { frequency } => {
                    assert!(
                        band.contains(frequency),
                        "protocol chose frequency {frequency} outside the band of {f_count} frequencies"
                    );
                    let fi = frequency.as_zero_based();
                    self.scratch.touch(fi);
                    self.scratch.actions[i] = ActionView::Listen(frequency);
                    self.scratch.payloads[i] = None;
                    self.scratch.listeners[fi] += 1;
                    self.scratch.tally.listens += 1;
                }
                Action::Sleep => {
                    self.scratch.actions[i] = ActionView::Sleep;
                    self.scratch.payloads[i] = None;
                    self.scratch.tally.sleeps += 1;
                }
            }
        }
        self.scratch.tally.active_nodes = self.active.len() as u32;

        // 3. Adversary.
        let mut disrupted = if self.config.adversary_sees_current_round {
            self.adversary.disrupt_with_current(
                round,
                band,
                &self.history,
                &self.scratch.broadcasters,
                &self.scratch.listeners,
                &mut self.adversary_rng,
            )
        } else {
            self.adversary
                .disrupt(round, band, &self.history, &mut self.adversary_rng)
        };
        let removed = disrupted.truncate_to_budget(self.config.disruption_bound as usize);
        self.scratch.tally.adversary_clamped = removed > 0;
        self.scratch.tally.disrupted_frequencies = disrupted.len() as u32;

        // A disrupted-but-unoccupied frequency still shows up in the
        // round's activity record, so it counts as touched too.
        for &fi in disrupted.indices() {
            self.scratch.touch(fi as usize);
        }
        // Ascending frequency order keeps the resolution pass (and the
        // fault layers' per-delivery draws) bit-identical to the old
        // band-wide sweep.
        self.scratch.touched.sort_unstable();

        // 4. Resolution: one pass over the touched frequencies — an
        // untouched frequency resolves to the all-quiet record its
        // `activity` slot already holds. On the fault path, a resolved
        // delivery may still be dropped whole by a loss layer, and
        // surviving deliveries defer their receiver counts to the
        // feedback pass (where per-listener layers have their say).
        for ti in 0..self.scratch.touched.len() {
            let fi = self.scratch.touched[ti] as usize;
            let freq = crate::frequency::Frequency::from_zero_based(fi);
            let b = self.scratch.broadcasters[fi];
            let l = self.scratch.listeners[fi];
            let is_disrupted = disrupted.contains(freq);
            let mut delivered = b == 1 && !is_disrupted;
            if b >= 2 {
                self.scratch.tally.collisions += 1;
            }
            if b == 1 && is_disrupted {
                self.scratch.tally.jammed_solo_broadcasts += 1;
            }
            if delivered && has_faults {
                let sender = NodeId::new(self.scratch.solo_broadcaster[fi]);
                if self.faults.drops_delivery(round, freq, sender).is_some() {
                    delivered = false;
                    self.scratch.tally.dropped_deliveries += 1;
                }
            }
            if delivered {
                self.scratch.tally.deliveries += 1;
                if has_faults {
                    self.scratch.delivery_slot[fi] = self.scratch.deliveries.len();
                    self.scratch.deliveries.push(Delivery {
                        frequency: freq,
                        sender: NodeId::new(self.scratch.solo_broadcaster[fi]),
                        receivers: 0,
                    });
                } else {
                    self.scratch.tally.receptions += l;
                    self.scratch.deliveries.push(Delivery {
                        frequency: freq,
                        sender: NodeId::new(self.scratch.solo_broadcaster[fi]),
                        receivers: l,
                    });
                }
            }
            self.scratch.activity[fi] = FrequencyActivity {
                broadcasters: b,
                listeners: l,
                disrupted: is_disrupted,
                delivered,
            };
        }

        // 5. Feedback and outputs: one more pass over the active set (in
        // node order — per-listener fault draws depend on it). A listener
        // on a delivering frequency receives the payload of that
        // frequency's single broadcaster. Crashed nodes are not in the
        // set: their `Crashed` view was written at the crash transition
        // and persists untouched while they are down.
        for idx in 0..self.active.len() {
            let i = self.active[idx] as usize;
            let action = self.scratch.actions[i];
            let local_round = round - self.local_base[i];
            let feedback: Feedback<P::Msg> = match action {
                ActionView::Inactive | ActionView::Crashed => {
                    unreachable!("running node has an action")
                }
                ActionView::Sleep => Feedback::Slept,
                ActionView::Broadcast(freq) => Feedback::Broadcasted { frequency: freq },
                ActionView::Listen(freq) => {
                    let fi = freq.as_zero_based();
                    if !self.scratch.activity[fi].delivered {
                        Feedback::Silence { frequency: freq }
                    } else {
                        let sender = self.scratch.solo_broadcaster[fi] as usize;
                        let suppressed = if has_faults {
                            self.faults.suppresses_receive(
                                round,
                                freq,
                                NodeId::new(sender as u32),
                                NodeId::new(i as u32),
                            )
                        } else {
                            None
                        };
                        match suppressed {
                            Some(kind) => {
                                // The delivery survives for other listeners;
                                // this one hears silence.
                                if kind == FaultKind::Partition {
                                    self.scratch.tally.severed_receptions += 1;
                                } else {
                                    self.scratch.tally.suppressed_receptions += 1;
                                }
                                Feedback::Silence { frequency: freq }
                            }
                            None => {
                                if has_faults {
                                    // Receiver counts were deferred to this
                                    // pass on the fault path.
                                    self.scratch.tally.receptions += 1;
                                    let slot = self.scratch.delivery_slot[fi];
                                    self.scratch.deliveries[slot].receivers += 1;
                                }
                                Feedback::Received(Received {
                                    sender: NodeId::new(sender as u32),
                                    frequency: freq,
                                    payload: self.scratch.payloads[sender]
                                        .clone()
                                        // lint:allow(panicky-library): the occupancy pass only marks a frequency delivered when its solo broadcaster stored a payload this round
                                        .expect("delivering sender has a payload"),
                                })
                            }
                        }
                    }
                }
            };
            self.protocols[i].on_feedback(local_round, feedback, &mut self.node_rngs[i]);
            let output = self.protocols[i].output();
            if output.is_some() && self.sync_round[i].is_none() {
                self.sync_round[i] = Some(round);
            }
            self.scratch.node_views[i] = NodeView::Active { output };
            // `on_feedback` is the last protocol call of the round, so the
            // synchronized-node counter settles here — `all_synchronized`
            // reads it in O(1) between rounds.
            let synced = self.protocols[i].is_synchronized();
            if synced != self.counted_synced[i] {
                self.counted_synced[i] = synced;
                if synced {
                    self.synced_count += 1;
                } else {
                    self.synced_count -= 1;
                }
            }
        }

        // 6. Observation fan-out: one borrowed view of the resolved round
        // streams through the probe pipeline — the metrics fold, the user
        // probe stack, and the adversary-visible history (which copies the activity slice into a
        // recycled record buffer). Probes only read the observation, so
        // their order is unobservable; history goes last by convention.
        let observation = RoundObservation {
            round,
            newly_activated: &self.scratch.newly_activated,
            actions: &self.scratch.actions,
            nodes: &self.scratch.node_views,
            disrupted: &disrupted,
            deliveries: &self.scratch.deliveries,
            activity: &self.scratch.activity,
            tally: self.scratch.tally,
        };
        self.metrics.observe(&observation);
        self.probes.observe(&observation);
        self.history.observe(&observation);
        self.round = round + 1;
    }

    /// Whether every node has been activated and reports itself
    /// synchronized. A node currently crashed by a fault layer counts as
    /// unsynchronized: its protocol state is about to be reset, so the
    /// execution is not done with it yet.
    ///
    /// O(1): the engine maintains a count of activated, synchronized,
    /// not-down nodes across the feedback pass and the fault transitions
    /// (between protocol calls a node's `is_synchronized` answer cannot
    /// change, so the count settled at the end of the last round is
    /// exact).
    pub fn all_synchronized(&self) -> bool {
        self.synced_count == self.config.num_nodes
    }

    /// Builds the result summary for the rounds executed so far.
    pub fn result(&self) -> ExecutionResult {
        let nodes: Vec<NodeSummary> = (0..self.config.num_nodes)
            .map(|i| NodeSummary {
                id: NodeId::new(i as u32),
                activation_round: self.activation_rounds[i],
                sync_round: self.sync_round[i],
                final_output: if self.activated[i] {
                    self.protocols[i].output()
                } else {
                    None
                },
            })
            .collect();
        ExecutionResult {
            rounds_executed: self.round,
            all_synchronized: self.all_synchronized(),
            nodes,
            metrics: self.metrics,
        }
    }

    /// Consumes the engine and returns the protocol instances (e.g. to
    /// inspect final protocol-specific state such as who became leader).
    pub fn into_protocols(self) -> Vec<P> {
        self.protocols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FixedBandAdversary, NoAdversary, RandomAdversary};
    use crate::frequency::Frequency;
    use crate::trace::FullTrace;
    use rand::Rng;

    /// Node 0 broadcasts a token on frequency 1 every round; all others
    /// listen on frequency 1 and output `0` once they have heard it.
    #[derive(Debug)]
    struct Beacon {
        is_beacon: bool,
        heard: bool,
    }

    impl Protocol for Beacon {
        type Msg = u64;

        fn on_activate(&mut self, _info: ActivationInfo, _rng: &mut SimRng) {}

        fn choose_action(&mut self, local_round: u64, _rng: &mut SimRng) -> Action<u64> {
            if self.is_beacon {
                Action::broadcast(Frequency::new(1), local_round)
            } else {
                Action::listen(Frequency::new(1))
            }
        }

        fn on_feedback(&mut self, _local_round: u64, feedback: Feedback<u64>, _rng: &mut SimRng) {
            if feedback.is_received() {
                self.heard = true;
            }
        }

        fn output(&self) -> Option<u64> {
            if self.is_beacon || self.heard {
                Some(0)
            } else {
                None
            }
        }
    }

    fn beacon_factory(id: NodeId) -> Beacon {
        Beacon {
            is_beacon: id.index() == 0,
            heard: false,
        }
    }

    /// Every node broadcasts on a random frequency every round; never
    /// synchronizes. Used to exercise collision accounting and round caps.
    #[derive(Debug)]
    struct Shouter {
        f: u32,
    }

    impl Protocol for Shouter {
        type Msg = ();

        fn on_activate(&mut self, info: ActivationInfo, _rng: &mut SimRng) {
            self.f = info.num_frequencies;
        }

        fn choose_action(&mut self, _local_round: u64, rng: &mut SimRng) -> Action<()> {
            Action::broadcast(Frequency::new(rng.gen_range(1..=self.f)), ())
        }

        fn on_feedback(&mut self, _local_round: u64, _feedback: Feedback<()>, _rng: &mut SimRng) {}

        fn output(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn config_validation() {
        assert!(SimConfig::new(4, 4, 1).validate().is_ok());
        assert_eq!(
            SimConfig::new(0, 4, 1).validate(),
            Err(ConfigError::NoNodes)
        );
        assert_eq!(
            SimConfig::new(4, 0, 0).validate(),
            Err(ConfigError::NoFrequencies)
        );
        assert!(matches!(
            SimConfig::new(4, 4, 4).validate(),
            Err(ConfigError::DisruptionBoundTooLarge { .. })
        ));
        assert!(matches!(
            SimConfig::new(4, 4, 1).with_upper_bound(2).validate(),
            Err(ConfigError::UpperBoundTooSmall { .. })
        ));
        assert_eq!(
            SimConfig::new(4, 4, 1).with_max_rounds(0).validate(),
            Err(ConfigError::ZeroMaxRounds)
        );
    }

    #[test]
    fn default_upper_bound_is_power_of_two() {
        let c = SimConfig::new(5, 4, 0);
        assert_eq!(c.upper_bound_n, 8);
        assert!(c.upper_bound_n.is_power_of_two());
    }

    #[test]
    fn beacon_network_synchronizes_without_adversary() {
        let config = SimConfig::new(5, 4, 0).with_max_rounds(10);
        let mut engine = Engine::new(
            config,
            beacon_factory,
            NoAdversary::new(),
            ActivationSchedule::Simultaneous,
            1,
        )
        .unwrap();
        let result = engine.run();
        assert!(result.all_synchronized);
        // Delivery happens in round 0, so everything synchronizes there.
        assert_eq!(result.completion_round(), Some(0));
        assert_eq!(result.nodes.len(), 5);
        assert!(result.metrics.deliveries >= 1);
        assert_eq!(result.metrics.collisions, 0);
    }

    #[test]
    fn beacon_jammed_on_frequency_one_never_synchronizes() {
        // The fixed-band adversary always jams frequency 1, which is the only
        // frequency the beacon protocol uses.
        let config = SimConfig::new(3, 4, 1).with_max_rounds(50);
        let mut engine = Engine::new(
            config,
            beacon_factory,
            FixedBandAdversary::new(1),
            ActivationSchedule::Simultaneous,
            2,
        )
        .unwrap();
        let result = engine.run();
        assert!(!result.all_synchronized);
        assert_eq!(result.rounds_executed, 50);
        assert_eq!(result.metrics.deliveries, 0);
        assert_eq!(result.metrics.jammed_solo_broadcasts, 50);
        assert!(result.completion_round().is_none());
        assert!(result.max_rounds_to_sync().is_none());
    }

    #[test]
    fn staggered_activation_rounds_respected() {
        let config = SimConfig::new(3, 4, 0).with_max_rounds(20);
        let mut engine = Engine::new(
            config,
            beacon_factory,
            NoAdversary::new(),
            ActivationSchedule::Staggered { gap: 3 },
            3,
        )
        .unwrap();
        assert_eq!(engine.activation_rounds(), &[0, 3, 6]);
        let result = engine.run();
        assert!(result.all_synchronized);
        // node 2 activates at round 6 and hears the beacon in that same round
        assert_eq!(result.nodes[2].activation_round, 6);
        assert_eq!(result.nodes[2].sync_round, Some(6));
        assert_eq!(result.nodes[2].rounds_to_sync(), Some(0));
    }

    #[test]
    fn collisions_are_counted_and_round_cap_respected() {
        let config = SimConfig::new(8, 2, 0).with_max_rounds(30);
        let mut engine = Engine::new(
            config,
            |_| Shouter { f: 2 },
            NoAdversary::new(),
            ActivationSchedule::Simultaneous,
            4,
        )
        .unwrap();
        let result = engine.run();
        assert!(!result.all_synchronized);
        assert_eq!(result.rounds_executed, 30);
        assert!(result.metrics.collisions > 0);
        assert_eq!(result.metrics.broadcasts, 8 * 30);
    }

    #[test]
    fn identical_seeds_give_identical_executions() {
        let run = |seed: u64| {
            let config = SimConfig::new(6, 8, 2).with_max_rounds(40);
            let mut engine = Engine::new(
                config,
                beacon_factory,
                RandomAdversary::new(2),
                ActivationSchedule::UniformWindow { window: 10 },
                seed,
            )
            .unwrap();
            let slot = engine.attach_probe(Box::new(FullTrace::new()));
            let result = engine.run();
            let trace: FullTrace = engine.take_probes().take(slot).expect("trace slot");
            (result, trace.events().to_vec())
        };
        let (r1, t1) = run(99);
        let (r2, t2) = run(99);
        assert_eq!(r1, r2);
        assert_eq!(t1, t2);
        let (r3, _) = run(100);
        assert!(r1 != r3 || r1.rounds_executed == r3.rounds_executed);
    }

    #[test]
    fn observer_sees_every_round_and_disruptions() {
        let config = SimConfig::new(2, 4, 2).with_max_rounds(10);
        let mut engine = Engine::new(
            config,
            |_| Shouter { f: 4 },
            FixedBandAdversary::new(2),
            ActivationSchedule::Simultaneous,
            5,
        )
        .unwrap();
        let slot = engine.attach_probe(Box::new(FullTrace::new()));
        let result = engine.run();
        let trace: FullTrace = engine.take_probes().take(slot).expect("trace slot");
        assert_eq!(trace.len() as u64, result.rounds_executed);
        for event in trace.events() {
            assert_eq!(event.disrupted, vec![1, 2]);
            assert_eq!(event.nodes.len(), 2);
        }
    }

    #[test]
    fn extra_rounds_after_sync_extend_execution() {
        let config = SimConfig::new(3, 4, 0)
            .with_max_rounds(100)
            .with_extra_rounds_after_sync(7);
        let mut engine = Engine::new(
            config,
            beacon_factory,
            NoAdversary::new(),
            ActivationSchedule::Simultaneous,
            6,
        )
        .unwrap();
        let result = engine.run();
        assert!(result.all_synchronized);
        // Synchronization completes in round 0; 7 extra rounds follow.
        assert_eq!(result.rounds_executed, 1 + 7);
    }

    #[test]
    fn adversary_budget_is_enforced_by_engine() {
        // Adversary claims to jam 3 frequencies but the configured bound is 1.
        let config = SimConfig::new(2, 4, 1).with_max_rounds(5);
        let mut engine = Engine::new(
            config,
            beacon_factory,
            FixedBandAdversary::new(3),
            ActivationSchedule::Simultaneous,
            7,
        )
        .unwrap();
        let result = engine.run();
        assert!(result.metrics.adversary_budget_violations > 0);
        // Only frequency 1 can actually be jammed each round.
        assert!(result.metrics.disrupted_frequency_rounds <= result.rounds_executed);
    }

    #[test]
    fn mean_rounds_to_sync_reports_zero_when_nobody_synced() {
        let config = SimConfig::new(2, 2, 0).with_max_rounds(3);
        let mut engine = Engine::new(
            config,
            |_| Shouter { f: 2 },
            NoAdversary::new(),
            ActivationSchedule::Simultaneous,
            8,
        )
        .unwrap();
        let result = engine.run();
        assert_eq!(result.mean_rounds_to_sync(), 0.0);
    }

    #[test]
    fn into_protocols_returns_all_instances() {
        let config = SimConfig::new(4, 2, 0).with_max_rounds(2);
        let mut engine = Engine::new(
            config,
            beacon_factory,
            NoAdversary::new(),
            ActivationSchedule::Simultaneous,
            9,
        )
        .unwrap();
        engine.run();
        let protocols = engine.into_protocols();
        assert_eq!(protocols.len(), 4);
        assert!(protocols[0].is_beacon);
    }
}
