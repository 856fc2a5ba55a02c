//! The protocol interface implemented by node algorithms.

use crate::action::Action;
use crate::message::Feedback;
use crate::node::ActivationInfo;
use crate::rng::SimRng;

/// A node algorithm for the disrupted radio network model.
///
/// One instance of the implementing type is created per node. The engine
/// drives it through the following lifecycle:
///
/// 1. [`on_activate`](Protocol::on_activate) is called in the round the
///    adversary activates the node. The node learns only the model
///    parameters (`N`, `F`, `t`) — never the global round number.
/// 2. In every subsequent round (including the activation round) the engine
///    calls [`choose_action`](Protocol::choose_action) with the node's
///    *local* round number (`0` in the activation round, incrementing by one
///    each round), then resolves all actions, and finally calls
///    [`on_feedback`](Protocol::on_feedback) with the outcome.
/// 3. After feedback, [`output`](Protocol::output) is sampled; this is the
///    node's externally visible output for the wireless synchronization
///    problem — `None` encodes the paper's `⊥`, `Some(i)` a claimed round
///    number `i`.
///
/// All randomness must be drawn from the supplied [`SimRng`] so that
/// executions are exactly reproducible from the master seed.
pub trait Protocol {
    /// The message payload type exchanged by this protocol.
    type Msg: Clone + std::fmt::Debug;

    /// Called when the node is activated, and again when it wakes from a
    /// crash injected by a [`fault layer`](crate::fault::FaultLayer): a
    /// crashed node loses its volatile protocol state and rejoins the
    /// execution as if freshly activated (its local round counter restarts
    /// at 0). Fault-free executions call it exactly once.
    fn on_activate(&mut self, info: ActivationInfo, rng: &mut SimRng);

    /// Chooses the action for local round `local_round` (0-based, counted
    /// from activation).
    fn choose_action(&mut self, local_round: u64, rng: &mut SimRng) -> Action<Self::Msg>;

    /// Receives the outcome of local round `local_round`.
    fn on_feedback(&mut self, local_round: u64, feedback: Feedback<Self::Msg>, rng: &mut SimRng);

    /// The node's current output: `None` is the paper's `⊥`, `Some(i)` means
    /// the node claims the current round is round `i` of the shared
    /// numbering.
    fn output(&self) -> Option<u64>;

    /// Whether the node considers itself synchronized. The engine's default
    /// stop condition waits for every activated node to report `true`.
    ///
    /// The default implementation returns `true` exactly when
    /// [`output`](Protocol::output) is non-`⊥`, which matches the problem's
    /// *synch commit* property.
    fn is_synchronized(&self) -> bool {
        self.output().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequency::Frequency;

    struct Dummy {
        out: Option<u64>,
    }

    impl Protocol for Dummy {
        type Msg = ();

        fn on_activate(&mut self, _info: ActivationInfo, _rng: &mut SimRng) {}

        fn choose_action(&mut self, _local_round: u64, _rng: &mut SimRng) -> Action<()> {
            Action::listen(Frequency::new(1))
        }

        fn on_feedback(&mut self, _local_round: u64, _feedback: Feedback<()>, _rng: &mut SimRng) {}

        fn output(&self) -> Option<u64> {
            self.out
        }
    }

    #[test]
    fn default_is_synchronized_follows_output() {
        let mut d = Dummy { out: None };
        assert!(!d.is_synchronized());
        d.out = Some(5);
        assert!(d.is_synchronized());
    }
}
