//! The streaming observation pipeline: the [`Probe`] trait and the owned
//! [`ProbeStack`] composition.
//!
//! Historically the engine fed four parallel observation channels — the
//! adversary-facing [`History`](crate::history::History) ring, the
//! [`SimMetrics`](crate::metrics::SimMetrics) counters, a borrowed-observer
//! trace layer, and a post-hoc property checker — each with its own data
//! shapes and buffers. The paper's model
//! (Section 2) is naturally a single per-round event stream: the adversary
//! sees the completed execution through round `r − 1`, and the
//! synchronization properties are per-round invariants over deliveries and
//! outputs. [`Probe`] is that unification: every consumer of a resolved
//! round implements one trait, observes the engine's reusable
//! structure-of-arrays scratch through a borrowed
//! [`RoundObservation`] (no per-round allocation), and
//! declares how much retained history it needs via
//! [`lookback`](Probe::lookback) so the engine can derive the minimal
//! [`History`](crate::history::History) retention window.
//!
//! [`History`](crate::history::History),
//! [`SimMetrics`](crate::metrics::SimMetrics),
//! [`FullTrace`](crate::trace::FullTrace), and the `wsync-core` property
//! checker all implement `Probe`; the engine composes its own history and
//! metrics probes with any user-attached ones
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
    /// The probe as a `&mut dyn Any` for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// The boxed probe as a `Box<dyn Any>` for by-value downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
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

    /// How many completed rounds of engine [`History`](crate::history::History)
    /// this probe needs retained (its maximum lookback through
    /// [`Engine::history`](crate::engine::Engine::history)).
    ///
    /// The engine derives its history retention window from the maximum
    /// lookback over the adversary and every attached probe (see
    /// [`HistoryRetention::Demand`](crate::engine::HistoryRetention)), so a
    /// probe that only reads its own `on_round` stream — the common case —
    /// keeps the default of `0` and costs no retention at all.
    fn lookback(&self) -> usize {
        0
    }
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
    /// of the stack; use it with [`get_mut`](Self::get_mut) /
    /// [`take`](Self::take)).
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

    /// The maximum [`lookback`](Probe::lookback) over the stack.
    pub fn lookback(&self) -> usize {
        self.probes.iter().map(|p| p.lookback()).max().unwrap_or(0)
    }

    /// Fans one observation out to every probe, in insertion order.
    pub fn observe(&mut self, observation: &RoundObservation<'_>) {
        for probe in self.probes.iter_mut() {
            probe.observe(observation);
        }
    }

    /// Mutable access to the probe in `slot` (e.g. to downcast and inspect
    /// mid-run state).
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut dyn Probe> {
        self.probes.get_mut(slot).map(|b| &mut **b)
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

    /// Consumes the stack, returning the owned probes in insertion order.
    pub fn into_inner(self) -> Vec<Box<dyn Probe>> {
        self.probes
    }
}

impl Probe for ProbeStack {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        ProbeStack::observe(self, observation);
    }

    fn lookback(&self) -> usize {
        ProbeStack::lookback(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::DisruptionSet;
    use crate::trace::{ActionView, FullTrace, NodeView, RoundTally};

    struct Counter {
        rounds: u64,
        lookback: usize,
    }

    impl Probe for Counter {
        fn observe(&mut self, _observation: &RoundObservation<'_>) {
            self.rounds += 1;
        }
        fn lookback(&self) -> usize {
            self.lookback
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
    fn stack_fans_out_and_reports_max_lookback() {
        let mut stack = ProbeStack::new();
        let a = stack.push(Box::new(Counter {
            rounds: 0,
            lookback: 3,
        }));
        let b = stack.push(Box::new(Counter {
            rounds: 0,
            lookback: 9,
        }));
        assert_eq!(stack.len(), 2);
        assert_eq!(stack.lookback(), 9);

        let disrupted = DisruptionSet::empty(2);
        let nodes = [NodeView::Active { output: None }];
        let actions = [ActionView::Sleep];
        for round in 0..4 {
            stack.observe(&observation(round, &nodes, &actions, &disrupted));
        }
        let first: Counter = stack.take(a).expect("slot a downcasts");
        assert_eq!(first.rounds, 4);
        // taking leaves a NullProbe behind; slot b is still addressable
        assert_eq!(stack.lookback(), 9);
        let second: Counter = stack.take(b).expect("slot b downcasts");
        assert_eq!(second.rounds, 4);
        assert_eq!(stack.lookback(), 0);
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
        inner.push(Box::new(Counter {
            rounds: 0,
            lookback: 5,
        }));
        let mut outer = ProbeStack::new();
        let slot = outer.push(Box::new(inner));
        assert_eq!(outer.lookback(), 5);
        let disrupted = DisruptionSet::empty(1);
        let nodes = [NodeView::Inactive];
        let actions = [ActionView::Inactive];
        outer.observe(&observation(0, &nodes, &actions, &disrupted));
        let mut inner: ProbeStack = outer.take(slot).unwrap();
        let counter: Counter = inner.take(0).unwrap();
        assert_eq!(counter.rounds, 1);
    }
}
