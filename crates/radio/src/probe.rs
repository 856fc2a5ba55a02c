//! The streaming observation pipeline: the [`Probe`] trait and the owned
//! [`ProbeStack`] composition.
//!
//! The paper's model (Section 2) is naturally a single per-round event
//! stream: the adversary sees the completed execution through round
//! `r − 1`, and the synchronization properties are per-round invariants
//! over deliveries and outputs. [`Probe`] is that stream's consumer: every
//! observer of a resolved round implements one trait and reads the
//! engine's reusable structure-of-arrays scratch through a borrowed
//! [`RoundObservation`] (no per-round allocation). The adversary reads the
//! same observation through
//! [`Adversary::observe`](crate::adversary::Adversary::observe).
//!
//! [`SimMetrics`](crate::metrics::SimMetrics),
//! [`FullTrace`](crate::trace::FullTrace), and the `wsync-core` property
//! checker all implement `Probe`; the engine composes its own metrics
//! probe with any user-attached ones
//! ([`Engine::attach_probe`](crate::engine::Engine::attach_probe)) in a
//! [`ProbeStack`] it owns. A `ProbeStack` is itself a `Probe`, so stacks
//! nest.

use std::any::Any;

use crate::trace::RoundObservation;

/// Blanket-implemented downcasting support for [`Probe`] objects.
///
/// Probes are attached to the engine as type-erased `Box<dyn Probe>`s;
/// after a run, callers recover their concrete probes (to read collected
/// state or finalize reports) through these accessors — see
/// [`ProbeStack::take`].
pub trait AsAny: Any {
    /// The probe as a `&dyn Any` for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// The boxed probe as a `Box<dyn Any>` for by-value downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A streaming observer of resolved rounds.
///
/// The engine calls [`observe`](Probe::observe) exactly once per
/// completed round, in round order, with an observation that borrows the
/// engine's reusable per-round buffers — a probe that retains data across
/// rounds must copy what it keeps. Probes never perturb the execution:
/// attaching or removing probes cannot change a single bit of the engine's
/// outcome (`tests/engine_golden.rs` pins this).
pub trait Probe: AsAny {
    /// Observes one completed round.
    fn observe(&mut self, observation: &RoundObservation<'_>);
}

/// A probe that ignores every round. Placeholder returned into a
/// [`ProbeStack`] slot when its probe is [taken](ProbeStack::take) out.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl Probe for NullProbe {
    fn observe(&mut self, _observation: &RoundObservation<'_>) {}
}

/// An owned, ordered composition of probes.
///
/// Because the stack owns its probes (`Box<dyn Probe>`), it can be
/// assembled by registries and factories without lifetime gymnastics,
/// attached to an engine, and disassembled after the run to recover each
/// probe's collected state ([`take`](ProbeStack::take)).
#[derive(Default)]
pub struct ProbeStack {
    probes: Vec<Box<dyn Probe>>,
}

impl std::fmt::Debug for ProbeStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeStack")
            .field("probes", &self.probes.len())
            .finish()
    }
}

impl ProbeStack {
    /// An empty stack.
    pub fn new() -> Self {
        ProbeStack::default()
    }

    /// Appends a probe, returning its slot index (stable for the lifetime
    /// of the stack; use it with [`take`](Self::take)).
    pub fn push(&mut self, probe: Box<dyn Probe>) -> usize {
        self.probes.push(probe);
        self.probes.len() - 1
    }

    /// Number of probes in the stack.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether the stack holds no probes.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Fans one observation out to every probe, in insertion order.
    pub fn observe(&mut self, observation: &RoundObservation<'_>) {
        for probe in self.probes.iter_mut() {
            probe.observe(observation);
        }
    }

    /// Removes the probe in `slot` and downcasts it to its concrete type,
    /// leaving a [`NullProbe`] behind so other slot indices stay valid.
    /// Returns `None` if the slot does not exist or holds a different type.
    pub fn take<T: Probe>(&mut self, slot: usize) -> Option<T> {
        let slot = self.probes.get_mut(slot)?;
        // Explicit deref: the blanket `AsAny` impl also covers the `Box`
        // itself, and we want the probe's type, not the box's.
        if !(**slot).as_any().is::<T>() {
            return None;
        }
        let boxed = std::mem::replace(slot, Box::new(NullProbe));
        boxed.into_any().downcast::<T>().ok().map(|b| *b)
    }
}

impl Probe for ProbeStack {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        ProbeStack::observe(self, observation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::DisruptionSet;
    use crate::trace::{ActionView, FullTrace, NodeView, RoundTally};

    struct Counter {
        rounds: u64,
    }

    impl Probe for Counter {
        fn observe(&mut self, _observation: &RoundObservation<'_>) {
            self.rounds += 1;
        }
    }

    fn observation<'a>(
        round: u64,
        nodes: &'a [NodeView],
        actions: &'a [ActionView],
        disrupted: &'a DisruptionSet,
    ) -> RoundObservation<'a> {
        RoundObservation {
            round,
            newly_activated: &[],
            actions,
            nodes,
            disrupted,
            deliveries: &[],
            activity: &[],
            tally: RoundTally::default(),
        }
    }

    #[test]
    fn stack_fans_out_to_every_slot() {
        let mut stack = ProbeStack::new();
        let a = stack.push(Box::new(Counter { rounds: 0 }));
        let b = stack.push(Box::new(Counter { rounds: 0 }));
        assert_eq!(stack.len(), 2);

        let disrupted = DisruptionSet::empty(2);
        let nodes = [NodeView::Active { output: None }];
        let actions = [ActionView::Sleep];
        for round in 0..4 {
            stack.observe(&observation(round, &nodes, &actions, &disrupted));
        }
        let first: Counter = stack.take(a).expect("slot a downcasts");
        assert_eq!(first.rounds, 4);
        // taking leaves a NullProbe behind; slot b is still addressable
        assert_eq!(stack.len(), 2);
        let second: Counter = stack.take(b).expect("slot b downcasts");
        assert_eq!(second.rounds, 4);
    }

    #[test]
    fn take_rejects_wrong_types_and_bad_slots() {
        let mut stack = ProbeStack::new();
        let slot = stack.push(Box::new(FullTrace::new()));
        assert!(stack.take::<Counter>(slot).is_none());
        assert!(stack.take::<FullTrace>(99).is_none());
        // the failed typed take must not have disturbed the slot
        assert!(stack.take::<FullTrace>(slot).is_some());
    }

    #[test]
    fn stacks_nest() {
        let mut inner = ProbeStack::new();
        inner.push(Box::new(Counter { rounds: 0 }));
        let mut outer = ProbeStack::new();
        let slot = outer.push(Box::new(inner));
        let disrupted = DisruptionSet::empty(1);
        let nodes = [NodeView::Inactive];
        let actions = [ActionView::Inactive];
        outer.observe(&observation(0, &nodes, &actions, &disrupted));
        let mut inner: ProbeStack = outer.take(slot).unwrap();
        let counter: Counter = inner.take(0).unwrap();
        assert_eq!(counter.rounds, 1);
    }
}
