//! The round-synchronous simulation engine.
//!
//! The engine owns one protocol instance per node, an adversary, and an
//! activation schedule, and executes the model of Section 2 round by round:
//!
//! 1. activate the nodes the schedule designates for this round;
//! 2. ask every active node for its action;
//! 3. ask the adversary for its disruption set (it has observed the
//!    execution through the previous round) and clamp it to the configured
//!    bound `t`;
//! 4. resolve every frequency: a message is delivered iff exactly one node
//!    broadcast on it and it was not disrupted — then any attached
//!    [`fault`](crate::fault) layers may still drop the delivery whole or
//!    suppress individual receivers (loss, capture, partitions);
//! 5. hand every active node its feedback and sample its output — except
//!    where a quiet round cannot change the node (see below);
//! 6. stream one borrowed observation of the resolved round through the
//!    probe pipeline — the engine's metrics fold and the attached
//!    [`probe`](crate::probe) stack — and then to the adversary's
//!    [`observe`](Adversary::observe).
//!
//! Executions are a pure function of `(SimConfig, protocol factory,
//! adversary, activation schedule, seed)`.
//!
//! # Performance
//!
//! Round dispatch is *sparse*: dormant nodes sit in a wake queue keyed by
//! activation round, running nodes are held in a sorted **active set**, and
//! the frequencies a round touches (occupied by a node or disrupted) are
//! marked in a word bitset, one bit per frequency. The per-frequency
//! resolution and reset passes walk that bitset's set bits in ascending
//! order with `trailing_zeros`, so a steady-state round costs
//! O(active + touched) per-node and per-frequency work plus O(⌈F/64⌉) word
//! operations for the band bookkeeping — at most 32 words for any band in
//! this workspace — with no sort and no heap allocation. The engine still
//! owns reusable structure-of-arrays buffers (per-node action and view
//! slots, per-frequency occupancy counters, payload slots and the
//! per-frequency activity record) sized O(N + F) once at construction,
//! plus output-break slots grown to the largest active set; only the
//! *passes* are sparse. The adversary fills an engine-owned
//! [`DisruptionSet`], itself a word bitset, whose words the engine ORs into
//! the touched words. The per-node passes bind every array they touch to a
//! local slice once per pass and keep the round's action tallies and the
//! synchronized count in locals. Nothing of the round is copied or retained
//! by the engine: probes and the adversary read the observation in place.
//!
//! The feedback pass also checks each running node's new output against
//! the view it overwrites — the output of the round before — and hands the
//! round's [`OutputBreak`]s and [`RoundTally::disagreements`] to the
//! probes, so the property checker costs O(1) in a clean round and the
//! checked run stays O(active). A probe that scans
//! [`RoundObservation::nodes`] still reads all N node views. The workspace
//! benchmark (`perfbench/`) measures the engine's ns and heap allocations
//! per round on the production path.
//!
//! Most node-rounds of a contention change nothing: a Trapdoor contender
//! short of its deadline, or one knocked out, only listens and waits, and
//! a round in which it hears nothing leaves it as it was. The feedback
//! pass therefore skips a node whose feedback is anything but
//! [`Feedback::Received`], whose view already reads
//! `Active { output: None }`, and whose protocol answers
//! [`ignores_quiet_round`](Protocol::ignores_quiet_round) with `true`: it
//! gets no `on_feedback`, `output` or `is_synchronized` call, and its view,
//! sync round, synchronized count, breaks and disagreements keep what
//! those calls would have written again. The skip may happen wherever the
//! hint holds; a protocol relies neither on the skip nor on the call.

use crate::action::Action;
use crate::activation::ActivationSchedule;
use crate::adversary::{Adversary, DisruptionSet};
use crate::error::{ConfigError, Result};
use crate::fault::{FaultKind, FaultLayer, FaultStack, FaultTransitions, NetworkView};
use crate::frequency::{Frequency, FrequencyBand};
use crate::message::{Feedback, Received};
use crate::metrics::SimMetrics;
use crate::node::{ActivationInfo, NodeId};
use crate::probe::{Probe, ProbeStack};
use crate::protocol::Protocol;
use crate::rng::{SimRng, StreamId};
use crate::trace::{
    ActionView, Delivery, FrequencyActivity, NodeView, OutputBreak, RoundObservation, RoundTally,
};

use serde::{Deserialize, Serialize};

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
    fn activation_info(&self) -> ActivationInfo {
        ActivationInfo::new(
            self.upper_bound_n,
            self.num_frequencies,
            self.disruption_bound,
        )
    }

    /// The frequency band of the configured network.
    #[inline]
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
}

/// Reusable per-round working memory, so that steady-state round dispatch
/// performs no heap allocation.
///
/// The per-node arrays (`actions`, `node_views`) are indexed by node index
/// and persist across rounds: every *active* node overwrites its slot each
/// round, a slot belonging to a not-yet-activated node keeps its initial
/// `Inactive` value, and a crashed node's slot is written `Crashed` once at
/// the crash transition and left alone while it is down. So at the top of
/// the feedback pass a running node's view still holds its output of the
/// round before, or `Inactive`/`Crashed` if it did not run then.
/// The per-frequency arrays are flat structure-of-arrays counters reset
/// *sparsely* at the top of each round: only the frequencies touched last
/// round (occupied by some node or disrupted by the adversary — the set
/// bits of `touched`) are rewritten, so the reset costs O(touched) slot
/// writes plus a walk of the ⌈F/64⌉ words. `payloads` holds one message
/// per frequency, written by the frequency's first broadcaster of the
/// round — the only payload a delivery can carry — and never reset, since
/// it is read only on a frequency that delivered this round. `activity` is
/// the round's per-frequency resolution record, which probes and the
/// adversary observe by reference; entries for untouched frequencies hold
/// the all-quiet value. `disrupted` is the bitset the adversary fills,
/// emptied word by word.
struct RoundScratch<M> {
    /// Nodes newly activated this round.
    newly_activated: Vec<NodeId>,
    /// Per-node action view, indexed by node index.
    actions: Vec<ActionView>,
    /// Per-node observer view, indexed by node index.
    node_views: Vec<NodeView>,
    /// Slots for the round's output breaks. The feedback pass writes them
    /// from slot 0 up, in node order, after growing the slots to the
    /// active-set size (a node breaks at most once per round), so the pass
    /// itself never allocates; the observation borrows the slots it wrote.
    breaks: Vec<OutputBreak>,
    /// Per-frequency payload of the round's first broadcaster (0-based
    /// frequency index); meaningful only on frequencies that delivered.
    payloads: Vec<Option<M>>,
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
    /// The frequencies touched this round (occupied or disrupted), as a
    /// bitset: bit `i % 64` of word `i / 64` marks the 0-based frequency
    /// `i`, the layout of [`DisruptionSet`]'s words.
    touched: Vec<u64>,
    /// The frequencies the adversary disrupts this round.
    disrupted: DisruptionSet,
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
        let disrupted = DisruptionSet::empty(num_frequencies as u32);
        RoundScratch {
            newly_activated: Vec::new(),
            actions: vec![ActionView::Inactive; num_nodes],
            node_views: vec![NodeView::Inactive; num_nodes],
            breaks: Vec::new(),
            payloads: (0..num_frequencies).map(|_| None).collect(),
            broadcasters: vec![0; num_frequencies],
            listeners: vec![0; num_frequencies],
            solo_broadcaster: vec![0; num_frequencies],
            activity: vec![QUIET; num_frequencies],
            touched: vec![0; disrupted.words().len()],
            disrupted,
            deliveries: Vec::new(),
            delivery_slot: vec![0; num_frequencies],
            tally: RoundTally::default(),
        }
    }

    /// Resets the per-round state, keeping every allocation. Only the
    /// frequencies touched last round are rewritten — O(touched) slot
    /// writes over a walk of the ⌈F/64⌉ touched words, not O(F).
    fn begin_round(&mut self) {
        self.newly_activated.clear();
        self.deliveries.clear();
        for (w, word) in self.touched.iter_mut().enumerate() {
            let mut rest = std::mem::take(word);
            while rest != 0 {
                let fi = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                self.broadcasters[fi] = 0;
                self.listeners[fi] = 0;
                self.activity[fi] = QUIET;
            }
        }
        self.disrupted.clear();
        self.tally = RoundTally::default();
        // `solo_broadcaster`, `payloads`, `actions`, `node_views` and the
        // `breaks` slots are overwritten where meaningful; stale entries
        // are never read.
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
/// Every resolved round streams through one observation: the engine's own
/// [`SimMetrics`] — a [`Probe`] — observes first, followed by the user
/// probes attached with [`attach_probe`](Engine::attach_probe), composed
/// in a [`ProbeStack`] the engine owns, and last the adversary's
/// [`observe`](Adversary::observe). Probes never perturb the execution.
/// The adversary observes round `r` after its round-`r` disruption was
/// chosen, so it picks each round from exactly the rounds before it.
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
    /// The aggregate-metrics probe.
    metrics: SimMetrics,
    /// User probes, observed after `metrics` and before the adversary.
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

    /// Attaches a probe to the engine's stack, returning its slot (use it
    /// with [`take_probes`](Engine::take_probes) and
    /// [`ProbeStack::take`] to recover the probe after the run).
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) -> usize {
        self.probes.push(probe)
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
    /// per-frequency counters and the touched-frequency bitset, one walk
    /// over that bitset's set bits to resolve deliveries in ascending
    /// frequency order, and one pass over the active set to deliver
    /// feedback — O(active + touched) per round plus O(⌈F/64⌉) word
    /// operations, with no sort and no heap allocation in steady state.
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
        // The sorted report preserves node-order `on_activate` calls; each
        // candidate is re-checked against the whole stack, so a wake one
        // layer reports while another still holds the node down is
        // ignored.
        if has_faults && !self.transitions.woke().is_empty() {
            self.merge_buf.clear();
            for &node in self.transitions.woke() {
                let i = node as usize;
                if self.activated[i] && self.faults.just_restarted(NodeId::new(node)) {
                    self.protocols[i].on_activate(info, &mut self.node_rngs[i]);
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
        // per-node action slots, the per-frequency occupancy counters and
        // each frequency's first payload, and marking each chosen frequency
        // touched. Every array is bound to a local slice once, cut to N
        // (per node) or F (per frequency) so that one bounds check per
        // index covers every slice it reads, and the action tallies live
        // in locals until the pass ends.
        let RoundScratch {
            actions,
            payloads,
            broadcasters,
            listeners,
            solo_broadcaster,
            touched,
            ..
        } = &mut self.scratch;
        let n = self.config.num_nodes;
        let (actions, payloads, touched) = (
            &mut actions[..n],
            &mut payloads[..f_count],
            &mut touched[..],
        );
        let (broadcasters, listeners, solo_broadcaster) = (
            &mut broadcasters[..f_count],
            &mut listeners[..f_count],
            &mut solo_broadcaster[..f_count],
        );
        let (protocols, node_rngs, local_base) = (
            &mut self.protocols[..n],
            &mut self.node_rngs[..n],
            &self.local_base[..n],
        );
        let (mut broadcasts, mut listens, mut sleeps) = (0u32, 0u32, 0u32);
        for &node in &self.active {
            let i = node as usize;
            let local_round = round - local_base[i];
            match protocols[i].choose_action(local_round, &mut node_rngs[i]) {
                Action::Broadcast { frequency, message } => {
                    assert!(
                        band.contains(frequency),
                        "protocol chose frequency {frequency} outside the band of {f_count} frequencies"
                    );
                    let fi = frequency.as_zero_based();
                    touched[fi / 64] |= 1 << (fi % 64);
                    actions[i] = ActionView::Broadcast(frequency);
                    if broadcasters[fi] == 0 {
                        solo_broadcaster[fi] = node;
                        payloads[fi] = Some(message);
                    }
                    broadcasters[fi] += 1;
                    broadcasts += 1;
                }
                Action::Listen { frequency } => {
                    assert!(
                        band.contains(frequency),
                        "protocol chose frequency {frequency} outside the band of {f_count} frequencies"
                    );
                    let fi = frequency.as_zero_based();
                    touched[fi / 64] |= 1 << (fi % 64);
                    actions[i] = ActionView::Listen(frequency);
                    listeners[fi] += 1;
                    listens += 1;
                }
                Action::Sleep => {
                    actions[i] = ActionView::Sleep;
                    sleeps += 1;
                }
            }
        }
        let tally = &mut self.scratch.tally;
        tally.broadcasts = broadcasts;
        tally.listens = listens;
        tally.sleeps = sleeps;
        tally.active_nodes = self.active.len() as u32;

        // 3. Adversary: it fills the set `begin_round` emptied.
        self.adversary.disrupt(
            round,
            band,
            &mut self.adversary_rng,
            &mut self.scratch.disrupted,
        );
        let removed = self
            .scratch
            .disrupted
            .truncate_to_budget(self.config.disruption_bound as usize);
        self.scratch.tally.adversary_clamped = removed > 0;
        self.scratch.tally.disrupted_frequencies = self.scratch.disrupted.len() as u32;

        // 4. Resolution: one walk over the touched bitset's set bits, in
        // ascending frequency order, which keeps `deliveries` and the
        // fault layers' per-delivery draws in band order. A
        // disrupted-but-unoccupied frequency still shows up in the round's
        // activity record, so the disrupted words are ORed in first; an
        // untouched frequency resolves to the all-quiet record its
        // `activity` slot already holds. On the fault path, a resolved
        // delivery may still be dropped whole by a loss layer, and
        // surviving deliveries defer their receiver counts to the
        // feedback pass (where per-listener layers have their say).
        let RoundScratch {
            broadcasters,
            listeners,
            solo_broadcaster,
            activity,
            touched,
            disrupted,
            deliveries,
            delivery_slot,
            tally,
            ..
        } = &mut self.scratch;
        for (w, (word, &jammed)) in touched.iter_mut().zip(disrupted.words()).enumerate() {
            *word |= jammed;
            let mut rest = *word;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                let fi = w * 64 + bit as usize;
                let freq = Frequency::from_zero_based(fi);
                let b = broadcasters[fi];
                let l = listeners[fi];
                let is_disrupted = jammed >> bit & 1 != 0;
                let mut delivered = b == 1 && !is_disrupted;
                if b >= 2 {
                    tally.collisions += 1;
                }
                if b == 1 && is_disrupted {
                    tally.jammed_solo_broadcasts += 1;
                }
                if delivered && has_faults {
                    let sender = NodeId::new(solo_broadcaster[fi]);
                    if self.faults.drops_delivery(round, freq, sender).is_some() {
                        delivered = false;
                        tally.dropped_deliveries += 1;
                    }
                }
                if delivered {
                    tally.deliveries += 1;
                    let sender = NodeId::new(solo_broadcaster[fi]);
                    if has_faults {
                        delivery_slot[fi] = deliveries.len();
                        deliveries.push(Delivery {
                            frequency: freq,
                            sender,
                            receivers: 0,
                        });
                    } else {
                        tally.receptions += l;
                        deliveries.push(Delivery {
                            frequency: freq,
                            sender,
                            receivers: l,
                        });
                    }
                }
                activity[fi] = FrequencyActivity {
                    broadcasters: b,
                    listeners: l,
                    disrupted: is_disrupted,
                    delivered,
                };
            }
        }

        // 5. Feedback and outputs: one more pass over the active set (in
        // node order — per-listener fault draws depend on it). A listener
        // on a delivering frequency receives the payload of that
        // frequency's single broadcaster. Crashed nodes are not in the
        // set: their `Crashed` view was written at the crash transition
        // and persists untouched while they are down. Each node's new
        // output is checked against the view it overwrites: a number must
        // be followed by the next number, or the node's `OutputBreak` is
        // written to the next `breaks` slot, and every non-⊥ output is
        // compared with the round's first. A node its protocol says a quiet
        // round cannot change is skipped (see the module docs). As in the
        // actions pass, the arrays are local slices, and the synchronized
        // count, the break count and the disagreement count are locals.
        let RoundScratch {
            actions,
            node_views,
            breaks,
            payloads,
            solo_broadcaster,
            activity,
            deliveries,
            delivery_slot,
            tally,
            ..
        } = &mut self.scratch;
        if breaks.len() < self.active.len() {
            let filler = OutputBreak {
                node: NodeId::new(0),
                previous: 0,
                current: None,
            };
            breaks.resize(self.active.len(), filler);
        }
        let (actions, node_views, breaks) = (&actions[..n], &mut node_views[..n], &mut breaks[..]);
        let (payloads, solo_broadcaster, activity, delivery_slot) = (
            &payloads[..f_count],
            &solo_broadcaster[..f_count],
            &activity[..f_count],
            &delivery_slot[..f_count],
        );
        let (protocols, node_rngs, local_base) = (
            &mut self.protocols[..n],
            &mut self.node_rngs[..n],
            &self.local_base[..n],
        );
        let (sync_round, counted_synced) =
            (&mut self.sync_round[..n], &mut self.counted_synced[..n]);
        let faults = &mut self.faults;
        let mut synced_count = self.synced_count;
        let (mut breaks_found, mut first_output, mut disagreements) = (0usize, None, 0u32);
        for &node in &self.active {
            let i = node as usize;
            let local_round = round - local_base[i];
            let feedback: Feedback<P::Msg> = match actions[i] {
                ActionView::Inactive | ActionView::Crashed => {
                    unreachable!("running node has an action")
                }
                ActionView::Sleep => Feedback::Slept,
                ActionView::Broadcast(freq) => Feedback::Broadcasted { frequency: freq },
                ActionView::Listen(freq) => {
                    let fi = freq.as_zero_based();
                    if !activity[fi].delivered {
                        Feedback::Silence { frequency: freq }
                    } else {
                        let sender = solo_broadcaster[fi];
                        let suppressed = if has_faults {
                            faults.suppresses_receive(
                                round,
                                freq,
                                NodeId::new(sender),
                                NodeId::new(node),
                            )
                        } else {
                            None
                        };
                        match suppressed {
                            Some(kind) => {
                                // The delivery survives for other listeners;
                                // this one hears silence.
                                if kind == FaultKind::Partition {
                                    tally.severed_receptions += 1;
                                } else {
                                    tally.suppressed_receptions += 1;
                                }
                                Feedback::Silence { frequency: freq }
                            }
                            None => {
                                if has_faults {
                                    // Receiver counts were deferred to this
                                    // pass on the fault path.
                                    tally.receptions += 1;
                                    deliveries[delivery_slot[fi]].receivers += 1;
                                }
                                Feedback::Received(Received {
                                    sender: NodeId::new(sender),
                                    frequency: freq,
                                    payload: payloads[fi]
                                        .clone()
                                        // lint:allow(panicky-library): the occupancy pass only marks a frequency delivered when its solo broadcaster stored its payload this round
                                        .expect("a delivering frequency has a payload"),
                                })
                            }
                        }
                    }
                }
            };
            let protocol = &mut protocols[i];
            // A quiet round the protocol ignores leaves a node that output
            // ⊥ in the round before exactly as it was, so its output, view,
            // sync round and synchronized flag already hold what the calls
            // below would write, and it can neither break nor disagree.
            if !matches!(feedback, Feedback::Received(_))
                && matches!(node_views[i], NodeView::Active { output: None })
                && protocol.ignores_quiet_round(local_round)
            {
                continue;
            }
            protocol.on_feedback(local_round, feedback, &mut node_rngs[i]);
            let output = protocol.output();
            if output.is_some() && sync_round[i].is_none() {
                sync_round[i] = Some(round);
            }
            if let NodeView::Active {
                output: Some(previous),
            } = node_views[i]
            {
                if output != Some(previous + 1) {
                    breaks[breaks_found] = OutputBreak {
                        node: NodeId::new(node),
                        previous,
                        current: output,
                    };
                    breaks_found += 1;
                }
            }
            if let Some(value) = output {
                if value != *first_output.get_or_insert(value) {
                    disagreements += 1;
                }
            }
            node_views[i] = NodeView::Active { output };
            // `on_feedback` is the last protocol call of the round, so the
            // synchronized-node counter settles here — `all_synchronized`
            // reads it in O(1) between rounds.
            let synced = protocol.is_synchronized();
            if synced != counted_synced[i] {
                counted_synced[i] = synced;
                if synced {
                    synced_count += 1;
                } else {
                    synced_count -= 1;
                }
            }
        }
        self.synced_count = synced_count;
        tally.disagreements = disagreements;

        // 6. Observation fan-out: one borrowed view of the resolved round
        // streams through the probe pipeline — the metrics fold and the
        // user probe stack — and then to the adversary, which may adapt
        // its next round to it. Probes only read the observation, so their
        // order is unobservable.
        let observation = RoundObservation {
            round,
            newly_activated: &self.scratch.newly_activated,
            actions: &self.scratch.actions,
            nodes: &self.scratch.node_views,
            disrupted: &self.scratch.disrupted,
            deliveries: &self.scratch.deliveries,
            activity: &self.scratch.activity,
            breaks: &self.scratch.breaks[..breaks_found],
            tally: self.scratch.tally,
        };
        self.metrics.observe(&observation);
        self.probes.observe(&observation);
        self.adversary.observe(&observation);
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

    /// What a [`Spy`] adversary saw: every round it observed, and at each
    /// `disrupt(r)` the last round it had observed by then.
    #[derive(Default)]
    struct SpyLog {
        observed: Vec<u64>,
        at_disrupt: Vec<(u64, Option<u64>)>,
    }

    struct Spy(std::rc::Rc<std::cell::RefCell<SpyLog>>);

    impl Adversary for Spy {
        fn observe(&mut self, round: &RoundObservation<'_>) {
            self.0.borrow_mut().observed.push(round.round);
        }

        fn disrupt(
            &mut self,
            round: u64,
            _band: FrequencyBand,
            _rng: &mut SimRng,
            _disrupted: &mut DisruptionSet,
        ) {
            let mut log = self.0.borrow_mut();
            let last = log.observed.last().copied();
            log.at_disrupt.push((round, last));
        }
    }

    /// Runs a [`Spy`], as `wrap` hands it to the engine, and checks what it
    /// saw.
    fn spy_sees_exactly_the_rounds_before_each_choice<A: Adversary>(wrap: impl FnOnce(Spy) -> A) {
        // Nobody is active in rounds 0 and 1; those rounds are observed too.
        let log = std::rc::Rc::new(std::cell::RefCell::new(SpyLog::default()));
        let config = SimConfig::new(3, 4, 1).with_max_rounds(12);
        let mut engine = Engine::new(
            config,
            |_| Shouter { f: 4 },
            wrap(Spy(log.clone())),
            ActivationSchedule::Explicit(vec![2, 4, 7]),
            3,
        )
        .unwrap();
        let rounds = engine.run().rounds_executed;
        assert_eq!(rounds, 12);
        let log = log.borrow();
        assert_eq!(log.observed, (0..rounds).collect::<Vec<_>>());
        let expected: Vec<(u64, Option<u64>)> =
            (0..rounds).map(|r| (r, r.checked_sub(1))).collect();
        assert_eq!(log.at_disrupt, expected);
    }

    #[test]
    fn adversary_chooses_each_round_from_exactly_the_rounds_before_it() {
        spy_sees_exactly_the_rounds_before_each_choice(|spy| spy);
        // A boxed adversary forwards `observe` too, not just `disrupt`.
        spy_sees_exactly_the_rounds_before_each_choice(|spy| Box::new(spy) as Box<dyn Adversary>);
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
