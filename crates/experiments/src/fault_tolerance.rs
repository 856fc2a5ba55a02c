//! FT1 — the Section 8 fault-tolerance discussion: what happens when the
//! elected leader crashes.
//!
//! The paper sketches a crash-tolerant extension (nodes restart when they
//! have not heard from the leader for `Ω(F²/(F−t)·logN)` rounds, and delay
//! outputting a number until they have heard the leader sufficiently
//! often). This experiment demonstrates the problem that extension solves:
//! with the unmodified Trapdoor Protocol, nodes that synchronized before
//! the crash keep a *mutually* consistent numbering (their local counters
//! keep incrementing), but a device that joins *after* the crash never
//! hears the dead leader, wins its own competition, and starts announcing a
//! **second, disagreeing** numbering — a split-brain that shows up as
//! agreement violations in the checker.
//!
//! [`CrashWrapper`] wraps any protocol and silences its radio from a given
//! local round onwards (the device's clock keeps running, so its output —
//! if it had one — keeps incrementing, which models a leader whose
//! transmitter died rather than a full machine wipe).

use wsync_core::batch::BatchRunner;
use wsync_core::runner::{run_protocol, Scenario, SyncProtocol};
use wsync_core::trapdoor::{TrapdoorConfig, TrapdoorProtocol};
use wsync_radio::action::Action;
use wsync_radio::activation::ActivationSchedule;
use wsync_radio::message::Feedback;
use wsync_radio::node::{ActivationInfo, NodeId};
use wsync_radio::protocol::Protocol;
use wsync_radio::rng::SimRng;
use wsync_stats::Table;

use crate::output::{fmt, Effort, ExperimentReport};

/// Wraps a protocol and stops all radio activity from `crash_round`
/// (local rounds) onwards. `None` means the node never crashes.
#[derive(Debug, Clone)]
pub struct CrashWrapper<P> {
    inner: P,
    crash_round: Option<u64>,
}

impl<P> CrashWrapper<P> {
    /// Wraps `inner`, crashing its radio at local round `crash_round`.
    pub fn new(inner: P, crash_round: Option<u64>) -> Self {
        CrashWrapper { inner, crash_round }
    }

    /// Whether the node's radio is down at `local_round`.
    fn is_crashed(&self, local_round: u64) -> bool {
        self.crash_round.is_some_and(|c| local_round >= c)
    }

    /// Read access to the wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol> Protocol for CrashWrapper<P> {
    type Msg = P::Msg;

    fn on_activate(&mut self, info: ActivationInfo, rng: &mut SimRng) {
        self.inner.on_activate(info, rng);
    }

    fn choose_action(&mut self, local_round: u64, rng: &mut SimRng) -> Action<Self::Msg> {
        if self.is_crashed(local_round) {
            Action::Sleep
        } else {
            self.inner.choose_action(local_round, rng)
        }
    }

    fn on_feedback(&mut self, local_round: u64, feedback: Feedback<Self::Msg>, rng: &mut SimRng) {
        if self.is_crashed(local_round) {
            // The device's clock keeps running even though the radio is
            // dead, so the inner protocol still sees the round pass.
            self.inner.on_feedback(local_round, Feedback::Slept, rng);
        } else {
            self.inner.on_feedback(local_round, feedback, rng);
        }
    }

    fn output(&self) -> Option<u64> {
        self.inner.output()
    }
}

impl<P: SyncProtocol> SyncProtocol for CrashWrapper<P> {
    fn is_leader(&self) -> bool {
        self.inner.is_leader()
    }
}

/// FT1 — leader crash: already-synchronized devices keep counting
/// consistently, but a late joiner elects itself and splits the numbering
/// (motivating the paper's restart/delayed-output extension).
pub fn ft1_leader_crash(effort: Effort) -> ExperimentReport {
    let seeds = effort.seeds();
    let f = 8u32;
    let t = 2u32;
    let n_nodes = 6usize;
    let mut report = ExperimentReport::new(
        "FT1",
        "Section 8: leader crash — safety is preserved for synchronized nodes, liveness is lost for late joiners (motivating the restart extension)",
    );
    let mut table = Table::new(
        format!("Leader crash (n={n_nodes} + 1 late joiner, F={f}, t={t})"),
        &[
            "seed",
            "all synced before crash",
            "agreement violations after crash",
            "late joiner self-elected",
        ],
    );
    let mut early_synced_all = 0u64;
    let mut late_synced = 0u64;
    let mut total_violations = 0u64;
    // Node 0 is activated first (largest timestamp) so it wins the
    // competition w.h.p.; we crash it shortly after it would have finished
    // disseminating, and activate one extra node long after the crash.
    let config = TrapdoorConfig::new(64, f, t);
    let crash_at = config.total_contention_rounds() * 4;
    let late_activation = crash_at * 3;
    let mut activations: Vec<u64> = (0..n_nodes as u64).map(|i| i * 3).collect();
    activations.push(late_activation);
    let scenario = Scenario::new(n_nodes + 1, f, t)
        .with_upper_bound(64)
        .with_adversary("random")
        .with_activation(ActivationSchedule::Explicit(activations))
        .with_max_rounds(late_activation + 30_000);
    let outcomes = BatchRunner::new().map(0..seeds, |seed| {
        run_protocol(
            &scenario,
            |id: NodeId| {
                let crash = if id.index() == 0 {
                    Some(crash_at)
                } else {
                    None
                };
                CrashWrapper::new(TrapdoorProtocol::new(config), crash)
            },
            seed,
        )
    });
    for (seed, outcome) in outcomes.iter().enumerate() {
        let early_ok = outcome.result.nodes[..n_nodes]
            .iter()
            .all(|nd| nd.sync_round.is_some());
        let late_ok = outcome.result.nodes[n_nodes].sync_round.is_some();
        if early_ok {
            early_synced_all += 1;
        }
        if late_ok {
            late_synced += 1;
        }
        total_violations += outcome.properties.total_violations;
        table.push_row(vec![
            seed.to_string(),
            early_ok.to_string(),
            fmt(outcome.properties.total_violations as f64),
            late_ok.to_string(),
        ]);
    }
    report.push_table(table);
    report.note(format!(
        "early devices all synchronized in {early_synced_all}/{seeds} runs; late joiners self-elected in {late_synced}/{seeds} runs, producing {total_violations} agreement violations in total — after a leader crash the unmodified protocol splits the numbering, exactly the gap the paper's proposed restart/delayed-output extension addresses"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_wrapper_silences_radio_after_crash() {
        let config = TrapdoorConfig::new(16, 4, 1);
        let mut wrapped = CrashWrapper::new(TrapdoorProtocol::new(config), Some(3));
        let mut rng = SimRng::from_seed(1);
        wrapped.on_activate(ActivationInfo::new(16, 4, 1), &mut rng);
        assert!(!wrapped.is_crashed(2));
        assert!(wrapped.is_crashed(3));
        let action = wrapped.choose_action(5, &mut rng);
        assert!(matches!(action, Action::Sleep));
    }

    #[test]
    fn ft1_smoke_shows_split_brain_after_leader_crash() {
        let report = ft1_leader_crash(Effort::Smoke);
        for row in report.tables[0].rows() {
            assert_eq!(
                row[1], "true",
                "early devices must sync before the crash: {row:?}"
            );
            assert_eq!(
                row[3], "true",
                "the late joiner must self-elect after the crash: {row:?}"
            );
            let violations: f64 = row[2].parse().unwrap();
            assert!(
                violations > 0.0,
                "the split numbering must be flagged as agreement violations: {row:?}"
            );
        }
    }
}
