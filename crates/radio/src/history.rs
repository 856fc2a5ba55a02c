//! Public execution history made available to adaptive adversaries.
//!
//! Per the model (Section 2), the adversary "chooses its behavior for round
//! `r` based only on knowledge of the protocol being executed and the
//! completed execution up to the end of round `r − 1`". [`History`] is the
//! engine's record of completed rounds in a form adversaries can query.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::frequency::FrequencyBand;
use crate::probe::Probe;
use crate::trace::RoundObservation;

/// Per-frequency activity observed in one completed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrequencyActivity {
    /// Number of nodes that broadcast on the frequency.
    pub broadcasters: u32,
    /// Number of nodes that listened on the frequency.
    pub listeners: u32,
    /// Whether the adversary disrupted the frequency.
    pub disrupted: bool,
    /// Whether a message was delivered on the frequency (exactly one
    /// broadcaster, not disrupted, at least zero listeners — delivery is
    /// counted even if nobody was listening, since the lone broadcast was
    /// receivable).
    pub delivered: bool,
}

/// Everything the adversary may know about one completed round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// The global round number.
    pub round: u64,
    /// Per-frequency activity, indexed by 0-based frequency index.
    pub activity: Vec<FrequencyActivity>,
    /// Number of nodes that were active (activated and not crashed) during
    /// the round.
    pub active_nodes: u32,
    /// Number of nodes newly activated at the beginning of the round.
    pub newly_activated: u32,
}

impl RoundRecord {
    /// Number of frequencies on which a message was delivered.
    pub fn deliveries(&self) -> u32 {
        self.activity.iter().filter(|a| a.delivered).count() as u32
    }

    /// Number of frequencies with two or more broadcasters (collisions).
    pub fn collisions(&self) -> u32 {
        self.activity.iter().filter(|a| a.broadcasters >= 2).count() as u32
    }
}

/// The completed-round history of an execution.
///
/// The engine's `History` probe appends one [`RoundRecord`] per completed
/// round through its private `push_copied`. It retains only the most
/// recent `w` rounds, where `w` is the largest lookback the adversary
/// ([`max_lookback`](crate::adversary::Adversary::max_lookback)) and the
/// attached probes ([`lookback`](Probe::lookback)) declare; an adversary
/// with an unknown lookback gets the whole execution.
///
/// Records are stored in a ring buffer, so windowed retention is O(1) per
/// round, and each append reuses the evicted record's per-frequency
/// buffer — once the window is full the history performs no heap
/// allocation at all.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct History {
    records: VecDeque<RoundRecord>,
    window: Option<usize>,
}

impl History {
    /// Creates an empty, unbounded history.
    pub fn new() -> Self {
        History::default()
    }

    /// Creates an empty history that retains only the last `window` rounds.
    pub(crate) fn with_window(window: usize) -> Self {
        History {
            records: VecDeque::new(),
            window: Some(window.max(1)),
        }
    }

    /// The retention window, if bounded.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Raises the retention window so that at least `window` rounds are
    /// retained from here on (a no-op when the history already retains that
    /// much, or everything). The engine calls this when a newly attached
    /// probe registers a larger lookback than the window derived so far;
    /// rounds already evicted are not resurrected, so demand should be
    /// registered before the first round runs.
    pub(crate) fn widen_window(&mut self, window: usize) {
        if let Some(w) = self.window {
            if w < window.max(1) {
                self.window = Some(window.max(1));
            }
        }
    }

    /// Evicts the oldest record if the retention window is full, returning
    /// its cleared per-frequency buffer for reuse.
    fn evict_for_push(&mut self) -> Option<Vec<FrequencyActivity>> {
        match self.window {
            Some(w) if self.records.len() >= w => {
                let old = self.records.pop_front()?;
                let mut buffer = old.activity;
                buffer.clear();
                Some(buffer)
            }
            _ => None,
        }
    }

    /// Appends the record of a completed round.
    pub fn push(&mut self, record: RoundRecord) {
        self.evict_for_push();
        self.records.push_back(record);
    }

    /// Appends a completed round by copying a borrowed per-frequency slice
    /// into the evicted record's recycled buffer (a memcpy of `F` small
    /// `Copy` records — no steady-state allocation once the retention
    /// window has filled).
    ///
    /// This is the [`Probe`] append path: probe observations borrow the
    /// engine's scratch.
    fn push_copied(
        &mut self,
        round: u64,
        activity: &[FrequencyActivity],
        active_nodes: u32,
        newly_activated: u32,
    ) {
        let mut storage = self
            .evict_for_push()
            .unwrap_or_else(|| Vec::with_capacity(activity.len()));
        storage.extend_from_slice(activity);
        self.records.push_back(RoundRecord {
            round,
            activity: storage,
            active_nodes,
            newly_activated,
        });
    }

    /// Number of rounds recorded (and still retained).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no rounds are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The most recently completed round, if any.
    pub fn last(&self) -> Option<&RoundRecord> {
        self.records.back()
    }

    /// The `i`-th retained record, oldest first.
    pub fn get(&self, i: usize) -> Option<&RoundRecord> {
        self.records.get(i)
    }

    /// Iterates over the retained records from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &RoundRecord> {
        self.records.iter()
    }

    /// Sums, per frequency, the number of listeners over the last
    /// `lookback` retained rounds, for adversaries that target the
    /// historically busiest frequencies. Clears `counts` and fills it with
    /// one sum per frequency, reusing its allocation.
    pub fn listener_counts_into(
        &self,
        band: FrequencyBand,
        lookback: usize,
        counts: &mut Vec<u64>,
    ) {
        counts.clear();
        counts.resize(band.count() as usize, 0);
        for rec in self.records.iter().rev().take(lookback) {
            for (i, act) in rec.activity.iter().enumerate().take(counts.len()) {
                counts[i] += u64::from(act.listeners);
            }
        }
    }
}

/// A [`History`] is itself a probe: it folds each observed round into its
/// ring through `push_copied`. The engine composes one ahead of the user
/// stack to maintain the adversary-visible history; attaching an
/// *additional* [`History::new`] probe is how a caller records a private
/// view of the whole execution.
impl Probe for History {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        self.push_copied(
            observation.round,
            observation.activity,
            observation.tally.active_nodes,
            observation.tally.newly_activated,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: u64, per_freq: &[(u32, u32, bool, bool)]) -> RoundRecord {
        RoundRecord {
            round,
            activity: per_freq
                .iter()
                .map(|&(b, l, d, del)| FrequencyActivity {
                    broadcasters: b,
                    listeners: l,
                    disrupted: d,
                    delivered: del,
                })
                .collect(),
            active_nodes: per_freq.iter().map(|&(b, l, _, _)| b + l).sum(),
            newly_activated: 0,
        }
    }

    #[test]
    fn record_aggregates() {
        let r = record(
            3,
            &[
                (1, 2, false, true),
                (2, 0, true, false),
                (0, 1, false, false),
            ],
        );
        assert_eq!(r.deliveries(), 1);
        assert_eq!(r.collisions(), 1);
    }

    #[test]
    fn history_push_and_query() {
        let mut h = History::new();
        assert!(h.is_empty());
        h.push(record(0, &[(1, 0, false, true)]));
        h.push(record(1, &[(0, 2, false, false)]));
        assert_eq!(h.len(), 2);
        assert_eq!(h.last().unwrap().round, 1);
        assert_eq!(h.iter().count(), 2);
    }

    #[test]
    fn window_retention_drops_old_rounds() {
        let mut h = History::with_window(2);
        for r in 0..5 {
            h.push(record(r, &[(0, 0, false, false)]));
        }
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(0).unwrap().round, 3);
        assert_eq!(h.last().unwrap().round, 4);
    }

    #[test]
    fn push_copied_matches_push() {
        let mut plain = History::with_window(3);
        let mut copied = History::with_window(3);
        for r in 0..8 {
            let rec = record(r, &[(1, r as u32, false, false), (0, 2, r % 2 == 0, false)]);
            copied.push_copied(r, &rec.activity, rec.active_nodes, 0);
            plain.push(rec);
        }
        assert_eq!(copied.len(), 3);
        assert!(plain.iter().eq(copied.iter()));
    }

    #[test]
    fn listener_counts_sum_the_lookback_window() {
        let band = FrequencyBand::new(2);
        let mut h = History::new();
        h.push(record(0, &[(1, 3, false, false), (0, 1, false, false)]));
        h.push(record(1, &[(2, 1, false, false), (1, 4, false, false)]));
        // A junk-shaped buffer is cleared and resized to the band.
        let mut counts = vec![99u64; 17];
        h.listener_counts_into(band, 10, &mut counts);
        assert_eq!(counts, vec![4, 5]);
        // lookback of 1 only sees the last round
        h.listener_counts_into(band, 1, &mut counts);
        assert_eq!(counts, vec![1, 4]);
        h.listener_counts_into(band, 0, &mut counts);
        assert_eq!(counts, vec![0, 0]);
    }

    #[test]
    fn counts_with_empty_history_are_zero() {
        let band = FrequencyBand::new(3);
        let mut counts = vec![7u64; 5];
        History::new().listener_counts_into(band, 5, &mut counts);
        assert_eq!(counts, vec![0, 0, 0]);
    }
}
