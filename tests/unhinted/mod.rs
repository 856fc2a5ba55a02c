//! The run without the quiet-round skip, for comparison with the run the
//! engine makes.
//!
//! [`Unhinted`] forwards every [`Protocol`] method to the node it wraps
//! except [`Protocol::ignores_quiet_round`], whose default `false` it keeps,
//! so the engine calls its `on_feedback` in every round: a run of wrapped
//! nodes is the run without the skip. The wrapper also holds the wrapped
//! node to the hint's promise. Before each feedback, wherever the wrapped
//! node answers `true`, clones of it fed `Silence`, `Broadcasted` and
//! `Slept` must stay `Debug`-equal to it, leave a cloned RNG's next draw
//! as it was, output `⊥` and not report themselves synchronized.

use std::fmt::Debug;

use rand::RngCore;
use wireless_sync::prelude::*;

/// A node that never claims a quiet round and checks the claims of the
/// node it wraps.
#[derive(Debug, Clone)]
pub struct Unhinted<P> {
    inner: P,
    /// Rounds in which the wrapped node's hint was `true`, each checked.
    pub audited: u64,
}

impl<P> Unhinted<P> {
    pub fn new(inner: P) -> Self {
        Unhinted { inner, audited: 0 }
    }
}

impl<P: Protocol + Clone + Debug> Unhinted<P> {
    /// Feeds every quiet feedback to a clone of the wrapped node, as it
    /// stands before this round's feedback, and requires each to change
    /// nothing.
    fn audit(&mut self, local_round: u64, rng: &SimRng) {
        let before = format!("{:?}", self.inner);
        let frequency = Frequency::new(1);
        let quiet = [
            Feedback::Silence { frequency },
            Feedback::Broadcasted { frequency },
            Feedback::Slept,
        ];
        for feedback in quiet {
            let shown = format!("{feedback:?}");
            let mut node = self.inner.clone();
            let mut drawn = rng.clone();
            node.on_feedback(local_round, feedback, &mut drawn);
            assert_eq!(
                format!("{node:?}"),
                before,
                "local round {local_round}: {shown} changed a node whose hint was true"
            );
            assert_eq!(
                drawn.next_u64(),
                rng.clone().next_u64(),
                "local round {local_round}: {shown} drew from the rng of a node whose hint \
                 was true"
            );
            assert_eq!(node.output(), None, "local round {local_round}: {shown}");
            assert!(
                !node.is_synchronized(),
                "local round {local_round}: {shown}"
            );
        }
        self.audited += 1;
    }
}

impl<P: Protocol + Clone + Debug> Protocol for Unhinted<P> {
    type Msg = P::Msg;

    fn on_activate(&mut self, info: ActivationInfo, rng: &mut SimRng) {
        self.inner.on_activate(info, rng);
    }

    fn choose_action(&mut self, local_round: u64, rng: &mut SimRng) -> Action<P::Msg> {
        self.inner.choose_action(local_round, rng)
    }

    fn on_feedback(&mut self, local_round: u64, feedback: Feedback<P::Msg>, rng: &mut SimRng) {
        if self.inner.ignores_quiet_round(local_round) {
            self.audit(local_round, rng);
        }
        self.inner.on_feedback(local_round, feedback, rng);
    }

    fn output(&self) -> Option<u64> {
        self.inner.output()
    }

    fn is_synchronized(&self) -> bool {
        self.inner.is_synchronized()
    }
}

/// Sums the audited rounds of a run's wrapped nodes.
pub fn audited<P>(nodes: &[Unhinted<P>]) -> u64 {
    nodes.iter().map(|node| node.audited).sum()
}
