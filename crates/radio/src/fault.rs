//! Composable network-fault layers: loss, capture/fading, partitions, and
//! crash/restart churn.
//!
//! The paper's adversary model disrupts *frequencies*; real deployments also
//! lose individual messages, fade individual receivers, partition the
//! network, and reboot nodes. A [`FaultLayer`] injects exactly those
//! effects between the engine's resolution pass and delivery: after a round
//! is resolved (exactly one broadcaster, not jammed), the attached layers
//! may still drop the delivery outright, suppress individual receivers, or
//! sever receivers across a partition boundary — and independently force
//! nodes into a crashed state that resets their protocol state on wake.
//!
//! Layers compose in a [`FaultStack`], stacking with any jamming adversary:
//! the adversary removes frequencies, the fault layers then thin the
//! surviving deliveries. Each layer draws from its own random stream,
//! derived from the trial's master seed and the layer's stack index
//! ([`StreamId::Fault`](crate::rng::StreamId::Fault)), so attaching,
//! removing, or reordering layers never perturbs the node, adversary, or
//! activation streams — and a layer at zero intensity draws nothing at all,
//! leaving the execution bit-identical to a fault-free run (pinned by
//! `tests/fault_properties.rs`).

use rand::Rng;

use crate::frequency::Frequency;
use crate::node::NodeId;
use crate::rng::SimRng;

/// The family a fault layer belongs to; used for attribution when a layer
/// suppresses a reception (the engine's
/// [`RoundTally`](crate::trace::RoundTally) splits partition-severed
/// receptions from capture-suppressed ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Whole-delivery probabilistic message loss.
    Drop,
    /// Per-receiver probabilistic capture/fading loss.
    Capture,
    /// Cross-partition severing with an optional healing round.
    Partition,
    /// Node crash/restart churn.
    Churn,
}

/// The engine's sparse view of the network at the top of a round, handed to
/// every layer's [`begin_round`](FaultLayer::begin_round).
///
/// The sparse-activity engine never scans all `N` nodes per round, and
/// neither should a fault layer: `running` lists exactly the nodes a
/// stateful layer may need to visit (to crash them), and everything else is
/// either dormant or already down.
#[derive(Debug, Clone, Copy)]
pub struct NetworkView<'a> {
    /// Per-node activation flags as of the *previous* round.
    pub activated: &'a [bool],
    /// Sorted indices of the nodes that were activated and not crashed at
    /// the end of the previous round (the engine's active set).
    pub running: &'a [u32],
}

/// Crash/wake transitions reported by fault layers during
/// [`begin_round`](FaultLayer::begin_round).
///
/// The engine maintains its active set incrementally from these reports —
/// a layer that holds nodes down **must** report every node it newly
/// crashes and every node it wakes, or the engine will keep scheduling
/// (or keep skipping) the node. Reports may repeat across layers and
/// arrive unsorted; the engine sorts and deduplicates, then re-checks each
/// candidate against the whole stack (`FaultStack::is_down` /
/// `FaultStack::just_restarted`), so a wake reported by one layer while
/// another still holds the node down is correctly ignored.
#[derive(Debug, Default)]
pub struct FaultTransitions {
    crashed: Vec<u32>,
    woke: Vec<u32>,
}

impl FaultTransitions {
    /// An empty transition collector.
    pub fn new() -> Self {
        FaultTransitions::default()
    }

    /// Clears both lists, retaining capacity (the engine reuses one
    /// collector across rounds).
    pub fn clear(&mut self) {
        self.crashed.clear();
        self.woke.clear();
    }

    /// Reports that `node` newly crashed this round.
    fn report_crash(&mut self, node: NodeId) {
        self.crashed.push(node.index() as u32);
    }

    /// Reports that `node` wakes from a crash this round.
    fn report_wake(&mut self, node: NodeId) {
        self.woke.push(node.index() as u32);
    }

    /// Nodes reported crashed this round (possibly unsorted, with
    /// duplicates across layers).
    pub(crate) fn crashed(&self) -> &[u32] {
        &self.crashed
    }

    /// Nodes reported waking this round (possibly unsorted, with
    /// duplicates across layers).
    pub(crate) fn woke(&self) -> &[u32] {
        &self.woke
    }

    /// Sorts and deduplicates both lists in place.
    pub(crate) fn normalize(&mut self) {
        self.crashed.sort_unstable();
        self.crashed.dedup();
        self.woke.sort_unstable();
        self.woke.dedup();
    }
}

/// One composable network-fault effect, applied by the engine between
/// resolution and delivery.
///
/// Every hook has a no-op default, so a layer implements only the effects
/// it models. All randomness must come from the supplied [`SimRng`] — the
/// engine pairs each attached layer with a private stream derived from the
/// master seed, which is what keeps executions reproducible and keeps
/// layers from perturbing each other.
///
/// The per-round call order is fixed: [`begin_round`](FaultLayer::begin_round)
/// first (before activations), then [`is_down`](FaultLayer::is_down) /
/// [`just_restarted`](FaultLayer::just_restarted) queries during the action
/// and feedback passes, [`drops_delivery`](FaultLayer::drops_delivery) once
/// per resolved delivery (in frequency order), and
/// [`suppresses_receive`](FaultLayer::suppresses_receive) once per listener
/// on a surviving delivery (in node order).
pub trait FaultLayer {
    /// The family this layer belongs to.
    fn kind(&self) -> FaultKind;

    /// Called once at the top of every round, before activations.
    ///
    /// Stateful layers (churn) advance their crash/wake state here, drawing
    /// crash decisions over `net.running` **in ascending node order** (so
    /// the draw sequence is engine-schedule-independent) and reporting every
    /// crash and wake into `transitions` — the engine updates its active
    /// set from those reports instead of scanning all `N` nodes.
    ///
    /// Contract change vs. the pre-sparse engine: crash draws cover the
    /// stack-wide running set, not every activated node, so in a stack with
    /// *two* down-capable layers a node held down by the other layer is no
    /// longer drawn for. No built-in composition is affected (churn is the
    /// only down-capable built-in).
    fn begin_round(
        &mut self,
        round: u64,
        net: &NetworkView<'_>,
        transitions: &mut FaultTransitions,
        rng: &mut SimRng,
    ) {
        let _ = (round, net, transitions, rng);
    }

    /// Whether `node` is crashed this round (takes no action, receives no
    /// feedback, produces no output).
    fn is_down(&self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// Whether `node` wakes from a crash this round. The engine resets the
    /// node's protocol state via
    /// [`Protocol::on_activate`](crate::protocol::Protocol::on_activate) and
    /// restarts its local round counter.
    fn just_restarted(&self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// Whether the resolved delivery on `frequency` (from `sender`) is
    /// dropped whole — no listener receives it.
    fn drops_delivery(
        &mut self,
        round: u64,
        frequency: Frequency,
        sender: NodeId,
        rng: &mut SimRng,
    ) -> bool {
        let _ = (round, frequency, sender, rng);
        false
    }

    /// Whether `listener`'s reception of the surviving delivery on
    /// `frequency` (from `sender`) is suppressed — the listener hears
    /// silence while other listeners may still receive.
    fn suppresses_receive(
        &mut self,
        round: u64,
        frequency: Frequency,
        sender: NodeId,
        listener: NodeId,
        rng: &mut SimRng,
    ) -> bool {
        let _ = (round, frequency, sender, listener, rng);
        false
    }
}

/// An ordered stack of fault layers, each paired with its private random
/// stream.
///
/// Composition mirrors the engine's probe stack: effects union. A delivery
/// is dropped if *any* layer drops it, a reception is suppressed by the
/// *first* layer that suppresses it (whose [`FaultKind`] attributes the
/// loss), and a node is down if any layer holds it down. An empty stack is
/// free: the engine guards every fault hook behind
/// [`is_empty`](FaultStack::is_empty).
#[derive(Default)]
pub struct FaultStack {
    layers: Vec<(Box<dyn FaultLayer>, SimRng)>,
}

impl FaultStack {
    /// An empty stack.
    pub fn new() -> Self {
        FaultStack::default()
    }

    /// Whether no layers are attached.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Number of attached layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Appends `layer`, pairing it with `rng` as its private stream.
    ///
    /// The engine derives the stream from the master seed and the layer's
    /// stack index (see
    /// [`Engine::attach_fault`](crate::engine::Engine::attach_fault));
    /// direct callers supply whatever stream suits their test.
    pub fn push(&mut self, layer: Box<dyn FaultLayer>, rng: SimRng) {
        self.layers.push((layer, rng));
    }

    /// The attached layers' kinds, in stack order.
    fn kinds(&self) -> Vec<FaultKind> {
        self.layers.iter().map(|(layer, _)| layer.kind()).collect()
    }

    /// Advances every layer's per-round state, collecting crash/wake
    /// transitions into `transitions` (which the caller should
    /// [`clear`](FaultTransitions::clear) beforehand and
    /// [`normalize`](FaultTransitions::normalize) afterwards).
    pub(crate) fn begin_round(
        &mut self,
        round: u64,
        net: &NetworkView<'_>,
        transitions: &mut FaultTransitions,
    ) {
        for (layer, rng) in &mut self.layers {
            layer.begin_round(round, net, transitions, rng);
        }
    }

    /// Whether any layer holds `node` down this round.
    pub(crate) fn is_down(&self, node: NodeId) -> bool {
        self.layers.iter().any(|(layer, _)| layer.is_down(node))
    }

    /// Whether `node` wakes from a crash this round: some layer restarts it
    /// and no layer still holds it down.
    pub(crate) fn just_restarted(&self, node: NodeId) -> bool {
        !self.is_down(node)
            && self
                .layers
                .iter()
                .any(|(layer, _)| layer.just_restarted(node))
    }

    /// Consults the layers about the resolved delivery on `frequency`;
    /// returns the kind of the first layer that drops it.
    pub(crate) fn drops_delivery(
        &mut self,
        round: u64,
        frequency: Frequency,
        sender: NodeId,
    ) -> Option<FaultKind> {
        for (layer, rng) in &mut self.layers {
            if layer.drops_delivery(round, frequency, sender, rng) {
                return Some(layer.kind());
            }
        }
        None
    }

    /// Consults the layers about `listener`'s reception; returns the kind
    /// of the first layer that suppresses it.
    pub(crate) fn suppresses_receive(
        &mut self,
        round: u64,
        frequency: Frequency,
        sender: NodeId,
        listener: NodeId,
    ) -> Option<FaultKind> {
        for (layer, rng) in &mut self.layers {
            if layer.suppresses_receive(round, frequency, sender, listener, rng) {
                return Some(layer.kind());
            }
        }
        None
    }
}

impl std::fmt::Debug for FaultStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultStack")
            .field("layers", &self.kinds())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Built-in layers
// ---------------------------------------------------------------------------

/// Probabilistic whole-delivery message loss: each resolved delivery is
/// dropped independently with probability `rate`.
///
/// At `rate == 0.0` the layer draws nothing and changes nothing.
#[derive(Debug, Clone)]
pub struct DropLayer {
    rate: f64,
}

impl DropLayer {
    /// A loss layer dropping each delivery with probability `rate`
    /// (clamped to `[0, 1]`).
    pub fn new(rate: f64) -> Self {
        DropLayer {
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The configured drop probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl FaultLayer for DropLayer {
    fn kind(&self) -> FaultKind {
        FaultKind::Drop
    }

    fn drops_delivery(
        &mut self,
        _round: u64,
        _frequency: Frequency,
        _sender: NodeId,
        rng: &mut SimRng,
    ) -> bool {
        self.rate > 0.0 && rng.gen::<f64>() < self.rate
    }
}

/// Per-receiver capture/fading loss: each listener on a surviving delivery
/// independently misses it with probability `miss_rate`, modelling
/// receiver-side fading while other listeners still hear the message.
///
/// At `miss_rate == 0.0` the layer draws nothing and changes nothing.
#[derive(Debug, Clone)]
pub struct CaptureLayer {
    miss_rate: f64,
}

impl CaptureLayer {
    /// A capture layer suppressing each reception with probability
    /// `miss_rate` (clamped to `[0, 1]`).
    pub fn new(miss_rate: f64) -> Self {
        CaptureLayer {
            miss_rate: miss_rate.clamp(0.0, 1.0),
        }
    }
}

impl FaultLayer for CaptureLayer {
    fn kind(&self) -> FaultKind {
        FaultKind::Capture
    }

    fn suppresses_receive(
        &mut self,
        _round: u64,
        _frequency: Frequency,
        _sender: NodeId,
        _listener: NodeId,
        rng: &mut SimRng,
    ) -> bool {
        self.miss_rate > 0.0 && rng.gen::<f64>() < self.miss_rate
    }
}

/// A static partition map with an optional healing round: while unhealed,
/// a reception is severed whenever sender and listener sit in different
/// groups. Deterministic — the layer draws no randomness.
///
/// Nodes not named by any group form one implicit remainder group, so an
/// empty map (or a map listing every node in one group) changes nothing.
#[derive(Debug, Clone)]
pub struct PartitionLayer {
    /// Per-node group index; nodes outside every declared group share the
    /// sentinel remainder group `u32::MAX`.
    group_of: Vec<u32>,
    heal_at: Option<u64>,
    healed: bool,
}

impl PartitionLayer {
    /// A partition over `num_nodes` nodes: `groups` lists the node indices
    /// of each side, and the partition heals (stops severing) at round
    /// `heal_at` (`None` never heals).
    ///
    /// # Panics
    ///
    /// Panics if a group names a node index `>= num_nodes` or names the
    /// same node twice; the spec-layer factory validates both with typed
    /// errors before construction.
    pub fn new(num_nodes: usize, groups: &[Vec<u32>], heal_at: Option<u64>) -> Self {
        let mut group_of = vec![u32::MAX; num_nodes];
        for (g, members) in groups.iter().enumerate() {
            for &node in members {
                assert!(
                    (node as usize) < num_nodes,
                    "partition group {g} names node {node}, but the network has {num_nodes} nodes"
                );
                assert!(
                    group_of[node as usize] == u32::MAX,
                    "node {node} appears in more than one partition group"
                );
                group_of[node as usize] = g as u32;
            }
        }
        PartitionLayer {
            group_of,
            heal_at,
            healed: false,
        }
    }

    /// The healing round, if any.
    pub fn heal_at(&self) -> Option<u64> {
        self.heal_at
    }
}

impl FaultLayer for PartitionLayer {
    fn kind(&self) -> FaultKind {
        FaultKind::Partition
    }

    fn begin_round(
        &mut self,
        round: u64,
        _net: &NetworkView<'_>,
        _transitions: &mut FaultTransitions,
        _rng: &mut SimRng,
    ) {
        if let Some(heal) = self.heal_at {
            self.healed = round >= heal;
        }
    }

    fn suppresses_receive(
        &mut self,
        _round: u64,
        _frequency: Frequency,
        sender: NodeId,
        listener: NodeId,
        _rng: &mut SimRng,
    ) -> bool {
        !self.healed && self.group_of[sender.index()] != self.group_of[listener.index()]
    }
}

/// Crash/restart churn: each activated, running node crashes independently
/// with probability `rate` per round, stays down for `downtime` rounds, and
/// then wakes with freshly reset protocol state (the engine calls
/// [`Protocol::on_activate`](crate::protocol::Protocol::on_activate) again
/// and restarts the node's local round counter).
///
/// At `rate == 0.0` the layer draws nothing and changes nothing. A node
/// cannot crash again in the round it wakes.
#[derive(Debug, Clone)]
pub struct ChurnLayer {
    rate: f64,
    downtime: u64,
    /// Per-node wake round while crashed.
    down_until: Vec<Option<u64>>,
    /// Per-node flag: woke this round.
    restarted: Vec<bool>,
    /// Crashed nodes keyed by wake round. Because `downtime` is fixed,
    /// wake rounds are pushed in nondecreasing order (and same-round
    /// entries in node order), so waking is a front-pop — O(woke) per
    /// round, never a scan.
    wake_queue: std::collections::VecDeque<(u64, u32)>,
    /// Nodes whose `restarted` flag was set last round (to clear without
    /// an O(N) sweep).
    last_woke: Vec<u32>,
}

impl ChurnLayer {
    /// A churn layer crashing each running node with probability `rate`
    /// per round (clamped to `[0, 1]`) for `downtime` rounds per crash
    /// (raised to at least 1).
    pub fn new(rate: f64, downtime: u64) -> Self {
        ChurnLayer {
            rate: rate.clamp(0.0, 1.0),
            downtime: downtime.max(1),
            down_until: Vec::new(),
            restarted: Vec::new(),
            wake_queue: std::collections::VecDeque::new(),
            last_woke: Vec::new(),
        }
    }

    /// The configured per-round crash probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The configured rounds-per-crash downtime.
    pub fn downtime(&self) -> u64 {
        self.downtime
    }
}

impl FaultLayer for ChurnLayer {
    fn kind(&self) -> FaultKind {
        FaultKind::Churn
    }

    fn begin_round(
        &mut self,
        round: u64,
        net: &NetworkView<'_>,
        transitions: &mut FaultTransitions,
        rng: &mut SimRng,
    ) {
        if self.down_until.len() < net.activated.len() {
            self.down_until.resize(net.activated.len(), None);
            self.restarted.resize(net.activated.len(), false);
        }
        for &i in &self.last_woke {
            self.restarted[i as usize] = false;
        }
        self.last_woke.clear();
        // Wake pass: nodes whose downtime expired restart this round.
        // Wake rounds enter the queue in nondecreasing order, so every
        // due entry sits at the front.
        while let Some(&(wake, node)) = self.wake_queue.front() {
            if wake > round {
                break;
            }
            self.wake_queue.pop_front();
            self.down_until[node as usize] = None;
            self.restarted[node as usize] = true;
            self.last_woke.push(node);
            transitions.report_wake(NodeId::new(node));
        }
        // Crash pass: every running node (not one that just woke) draws
        // once, in ascending node order, from this layer's private
        // stream — worker scheduling can never reorder the draws.
        if self.rate > 0.0 {
            for &node in net.running {
                let i = node as usize;
                if self.down_until[i].is_none()
                    && !self.restarted[i]
                    && rng.gen::<f64>() < self.rate
                {
                    self.down_until[i] = Some(round + self.downtime);
                    self.wake_queue.push_back((round + self.downtime, node));
                    transitions.report_crash(NodeId::new(node));
                }
            }
        }
    }

    fn is_down(&self, node: NodeId) -> bool {
        self.down_until
            .get(node.index())
            .is_some_and(|slot| slot.is_some())
    }

    fn just_restarted(&self, node: NodeId) -> bool {
        self.restarted.get(node.index()).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::from_seed(42)
    }

    /// Drives one `begin_round` of a lone `layer` the way the engine
    /// would: the running list is the activated nodes the layer does not
    /// hold down, and the reported transitions are returned.
    fn step_layer<L: FaultLayer + ?Sized>(
        layer: &mut L,
        round: u64,
        activated: &[bool],
        rng: &mut SimRng,
    ) -> FaultTransitions {
        let running: Vec<u32> = (0..activated.len())
            .filter(|&i| activated[i] && !layer.is_down(NodeId::new(i as u32)))
            .map(|i| i as u32)
            .collect();
        let mut transitions = FaultTransitions::new();
        layer.begin_round(
            round,
            &NetworkView {
                activated,
                running: &running,
            },
            &mut transitions,
            rng,
        );
        transitions
    }

    /// Same, against a whole stack.
    fn running_of_stack(stack: &FaultStack, activated: &[bool]) -> Vec<u32> {
        (0..activated.len())
            .filter(|&i| activated[i] && !stack.is_down(NodeId::new(i as u32)))
            .map(|i| i as u32)
            .collect()
    }

    #[test]
    fn zero_rate_layers_never_act_and_never_draw() {
        let mut stack = FaultStack::new();
        stack.push(Box::new(DropLayer::new(0.0)), SimRng::from_seed(1));
        stack.push(Box::new(CaptureLayer::new(0.0)), SimRng::from_seed(2));
        stack.push(Box::new(ChurnLayer::new(0.0, 8)), SimRng::from_seed(3));
        stack.push(
            Box::new(PartitionLayer::new(4, &[], None)),
            SimRng::from_seed(4),
        );
        let activated = [true; 4];
        let mut transitions = FaultTransitions::new();
        for round in 0..64 {
            let running = running_of_stack(&stack, &activated);
            transitions.clear();
            stack.begin_round(
                round,
                &NetworkView {
                    activated: &activated,
                    running: &running,
                },
                &mut transitions,
            );
            assert!(transitions.crashed().is_empty() && transitions.woke().is_empty());
            assert_eq!(
                stack.drops_delivery(round, Frequency::new(1), NodeId::new(0)),
                None
            );
            assert_eq!(
                stack.suppresses_receive(round, Frequency::new(1), NodeId::new(0), NodeId::new(1)),
                None
            );
            for i in 0..4 {
                assert!(!stack.is_down(NodeId::new(i)));
                assert!(!stack.just_restarted(NodeId::new(i)));
            }
        }
    }

    #[test]
    fn full_rate_drop_drops_everything() {
        let mut layer = DropLayer::new(1.0);
        let mut r = rng();
        for round in 0..32 {
            assert!(layer.drops_delivery(round, Frequency::new(2), NodeId::new(1), &mut r));
        }
    }

    #[test]
    fn rates_are_clamped_into_the_unit_interval() {
        assert_eq!(DropLayer::new(7.0).rate(), 1.0);
        assert_eq!(DropLayer::new(-3.0).rate(), 0.0);
        assert_eq!(CaptureLayer::new(2.0).miss_rate, 1.0);
        assert_eq!(ChurnLayer::new(9.0, 0).rate(), 1.0);
        assert_eq!(ChurnLayer::new(0.5, 0).downtime(), 1);
    }

    #[test]
    fn partition_severs_across_groups_until_healing() {
        let mut layer = PartitionLayer::new(4, &[vec![0, 1], vec![2, 3]], Some(10));
        let mut r = rng();
        let activated = [true; 4];
        step_layer(&mut layer, 0, &activated, &mut r);
        // cross-group severed, intra-group delivered
        assert!(layer.suppresses_receive(
            0,
            Frequency::new(1),
            NodeId::new(0),
            NodeId::new(2),
            &mut r
        ));
        assert!(!layer.suppresses_receive(
            0,
            Frequency::new(1),
            NodeId::new(0),
            NodeId::new(1),
            &mut r
        ));
        // healed from round 10 on
        step_layer(&mut layer, 10, &activated, &mut r);
        assert!(!layer.suppresses_receive(
            10,
            Frequency::new(1),
            NodeId::new(0),
            NodeId::new(2),
            &mut r
        ));
    }

    #[test]
    fn remainder_nodes_share_one_implicit_group() {
        let mut layer = PartitionLayer::new(4, &[vec![0]], None);
        let mut r = rng();
        step_layer(&mut layer, 0, &[true; 4], &mut r);
        // 1, 2, 3 are all in the remainder group together
        assert!(!layer.suppresses_receive(
            0,
            Frequency::new(1),
            NodeId::new(1),
            NodeId::new(3),
            &mut r
        ));
        // but severed from the declared group
        assert!(layer.suppresses_receive(
            0,
            Frequency::new(1),
            NodeId::new(0),
            NodeId::new(3),
            &mut r
        ));
    }

    #[test]
    #[should_panic(expected = "more than one partition group")]
    fn duplicate_partition_membership_panics() {
        PartitionLayer::new(4, &[vec![0, 1], vec![1, 2]], None);
    }

    #[test]
    #[should_panic(expected = "the network has 2 nodes")]
    fn out_of_range_partition_member_panics() {
        PartitionLayer::new(2, &[vec![0, 5]], None);
    }

    #[test]
    fn churn_crashes_wake_after_downtime_with_a_restart_flag() {
        let mut layer = ChurnLayer::new(1.0, 3);
        let mut r = rng();
        let activated = [true; 2];
        let t = step_layer(&mut layer, 0, &activated, &mut r);
        assert!(
            layer.is_down(NodeId::new(0)),
            "rate 1.0 crashes immediately"
        );
        assert_eq!(t.crashed(), &[0, 1]);
        // down through rounds 1 and 2, wakes at round 3
        for round in 1..3 {
            let t = step_layer(&mut layer, round, &activated, &mut r);
            assert!(layer.is_down(NodeId::new(0)));
            assert!(!layer.just_restarted(NodeId::new(0)));
            assert!(t.crashed().is_empty() && t.woke().is_empty());
        }
        let t = step_layer(&mut layer, 3, &activated, &mut r);
        assert!(!layer.is_down(NodeId::new(0)));
        assert!(layer.just_restarted(NodeId::new(0)));
        assert_eq!(t.woke(), &[0, 1]);
        // the wake round is crash-exempt; the next round it can crash again
        step_layer(&mut layer, 4, &activated, &mut r);
        assert!(layer.is_down(NodeId::new(0)));
    }

    #[test]
    fn churn_ignores_unactivated_nodes() {
        let mut layer = ChurnLayer::new(1.0, 2);
        let mut r = rng();
        step_layer(&mut layer, 0, &[false, true], &mut r);
        assert!(!layer.is_down(NodeId::new(0)));
        assert!(layer.is_down(NodeId::new(1)));
    }

    #[test]
    fn stack_attributes_suppression_to_the_first_acting_layer() {
        let mut stack = FaultStack::new();
        stack.push(
            Box::new(PartitionLayer::new(4, &[vec![0, 1], vec![2, 3]], None)),
            SimRng::from_seed(1),
        );
        stack.push(Box::new(CaptureLayer::new(1.0)), SimRng::from_seed(2));
        let activated = [true; 4];
        let running = running_of_stack(&stack, &activated);
        stack.begin_round(
            0,
            &NetworkView {
                activated: &activated,
                running: &running,
            },
            &mut FaultTransitions::new(),
        );
        // cross-partition: the partition layer answers first
        assert_eq!(
            stack.suppresses_receive(0, Frequency::new(1), NodeId::new(0), NodeId::new(2)),
            Some(FaultKind::Partition)
        );
        // intra-partition: the capture layer suppresses
        assert_eq!(
            stack.suppresses_receive(0, Frequency::new(1), NodeId::new(0), NodeId::new(1)),
            Some(FaultKind::Capture)
        );
        assert_eq!(
            stack.kinds(),
            vec![FaultKind::Partition, FaultKind::Capture]
        );
        assert_eq!(stack.len(), 2);
        assert!(!stack.is_empty());
    }

    #[test]
    fn layer_streams_are_independent_of_stack_composition() {
        // The drop layer's verdict sequence must not move when an unrelated
        // layer joins the stack: private streams mean layers cannot perturb
        // each other.
        let verdicts = |with_partition: bool| -> Vec<Option<FaultKind>> {
            let mut stack = FaultStack::new();
            if with_partition {
                stack.push(
                    Box::new(PartitionLayer::new(4, &[], None)),
                    SimRng::from_seed(77),
                );
            }
            stack.push(Box::new(DropLayer::new(0.5)), SimRng::from_seed(11));
            let activated = [true; 4];
            (0..64)
                .map(|round| {
                    let running = running_of_stack(&stack, &activated);
                    stack.begin_round(
                        round,
                        &NetworkView {
                            activated: &activated,
                            running: &running,
                        },
                        &mut FaultTransitions::new(),
                    );
                    stack.drops_delivery(round, Frequency::new(1), NodeId::new(0))
                })
                .collect()
        };
        assert_eq!(verdicts(false), verdicts(true));
    }
}
