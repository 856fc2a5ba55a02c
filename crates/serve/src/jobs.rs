//! The job registry: every `POST /sweep` becomes a [`Job`] whose progress
//! events `GET /jobs/<id>` streams back as JSON lines.
//!
//! A job is an append-only log of pre-serialized JSON lines plus a done
//! flag. Producers (the orchestration thread and its fabric workers) push
//! lines; any number of consumers read from their own cursor, so a client
//! that connects mid-run still sees the full history before the live
//! tail. Job ids are sequential (`job-1`, `job-2`, …) — no ambient
//! randomness anywhere in the workspace, the serving layer included.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Recovers a poisoned mutex: job state is an append-only log plus a
/// flag, both valid at every instant, so a panicking producer cannot
/// leave it inconsistent — consumers keep serving what was logged.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Debug, Default)]
struct JobState {
    events: Vec<String>,
    done: bool,
}

/// One scheduled sweep: an identifier and its event log.
#[derive(Debug)]
pub struct Job {
    id: String,
    state: Mutex<JobState>,
}

impl Job {
    /// The job's identifier (`job-<n>`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Appends one event line (a complete JSON document, no newline).
    pub fn push(&self, line: String) {
        lock(&self.state).events.push(line);
    }

    /// Marks the job finished; streams drain and close.
    pub fn finish(&self) {
        lock(&self.state).done = true;
    }

    /// Whether the job has finished.
    fn is_done(&self) -> bool {
        lock(&self.state).done
    }

    /// The events at positions `>= cursor`, plus the done flag — the
    /// polling read a streaming handler advances its cursor with.
    pub(crate) fn events_from(&self, cursor: usize) -> (Vec<String>, bool) {
        let state = lock(&self.state);
        let fresh = state.events.get(cursor..).unwrap_or(&[]).to_vec();
        (fresh, state.done)
    }
}

/// The server's job table: sequential ids mapping to shared [`Job`]s.
#[derive(Debug, Default)]
pub struct JobRegistry {
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    next_id: AtomicU64,
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        JobRegistry::default()
    }

    /// Creates and registers a fresh job.
    pub fn create(&self) -> Arc<Job> {
        let n = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let job = Arc::new(Job {
            id: format!("job-{n}"),
            state: Mutex::new(JobState::default()),
        });
        lock(&self.jobs).insert(job.id.clone(), Arc::clone(&job));
        job
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        lock(&self.jobs).get(id).cloned()
    }

    /// Jobs created over the server's lifetime.
    pub fn total(&self) -> usize {
        lock(&self.jobs).len()
    }

    /// Jobs still running.
    pub fn active(&self) -> usize {
        lock(&self.jobs).values().filter(|j| !j.is_done()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursors_see_history_then_tail_then_done() {
        let registry = JobRegistry::new();
        let job = registry.create();
        assert_eq!(job.id(), "job-1");
        job.push("{\"a\":1}".to_string());
        job.push("{\"a\":2}".to_string());
        let (history, done) = job.events_from(0);
        assert_eq!(history.len(), 2);
        assert!(!done);
        let (tail, _) = job.events_from(2);
        assert!(tail.is_empty());
        job.push("{\"a\":3}".to_string());
        job.finish();
        let (tail, done) = job.events_from(2);
        assert_eq!(tail, vec!["{\"a\":3}".to_string()]);
        assert!(done);
    }

    #[test]
    fn registry_tracks_totals_and_activity() {
        let registry = JobRegistry::new();
        let a = registry.create();
        let b = registry.create();
        assert_eq!(registry.total(), 2);
        assert_eq!(registry.active(), 2);
        a.finish();
        assert_eq!(registry.active(), 1);
        assert!(registry.get(b.id()).is_some());
        assert!(registry.get("job-99").is_none());
    }
}
