//! The job registry: every `POST /sweep` becomes a [`Job`] whose progress
//! events `GET /jobs/<id>` streams back as JSON lines.
//!
//! A job is an append-only log of pre-serialized JSON lines plus a done
//! flag. Producers (the orchestration thread and its fabric workers) push
//! lines; any number of consumers read from their own cursor, so a client
//! that connects mid-run still sees the full history before the live
//! tail. Job ids are sequential (`job-1`, `job-2`, …) — no ambient
//! randomness anywhere in the workspace, the serving layer included.
//!
//! Each running job holds one of [`MAX_RUNNING_JOBS`] slots, reserved
//! under the registry's lock when the job is created and given back when
//! it [finishes](Job::finish); with every slot held,
//! [`try_create`](JobRegistry::try_create) refuses, and `POST /sweep`
//! answers `429 Too Many Requests`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Most sweep jobs running at once. Each running job holds an
/// orchestration thread plus its fabric worker threads, so this cap bounds
/// the daemon's job threads at `MAX_RUNNING_JOBS × (1 + fabric workers)`.
pub const MAX_RUNNING_JOBS: usize = 8;

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

/// One scheduled sweep: an identifier, its event log, and the registry's
/// running-job count, which it decrements once when it finishes.
#[derive(Debug)]
pub struct Job {
    id: String,
    state: Mutex<JobState>,
    running: Arc<AtomicUsize>,
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

    /// Marks the job finished, giving its running-job slot back (once,
    /// however often it is called); streams drain and close.
    pub fn finish(&self) {
        let mut state = lock(&self.state);
        if !state.done {
            state.done = true;
            self.running.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// The events at positions `>= cursor`, plus the done flag — the
    /// polling read a streaming handler advances its cursor with.
    pub(crate) fn events_from(&self, cursor: usize) -> (Vec<String>, bool) {
        let state = lock(&self.state);
        let fresh = state.events.get(cursor..).unwrap_or(&[]).to_vec();
        (fresh, state.done)
    }
}

/// The server's job table: sequential ids mapping to shared [`Job`]s, and
/// the count of those still running.
#[derive(Debug, Default)]
pub struct JobRegistry {
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    next_id: AtomicU64,
    running: Arc<AtomicUsize>,
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        JobRegistry::default()
    }

    /// Creates and registers a fresh job, reserving one of the
    /// [`MAX_RUNNING_JOBS`] running-job slots; `None` (and no job) when
    /// every slot is held. The check and the reservation happen under the
    /// registry's lock, so concurrent creators cannot overshoot the cap;
    /// finishing a job only ever frees a slot.
    pub fn try_create(&self) -> Option<Arc<Job>> {
        let mut jobs = lock(&self.jobs);
        if self.running.load(Ordering::Acquire) >= MAX_RUNNING_JOBS {
            return None;
        }
        self.running.fetch_add(1, Ordering::AcqRel);
        let n = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let job = Arc::new(Job {
            id: format!("job-{n}"),
            state: Mutex::new(JobState::default()),
            running: Arc::clone(&self.running),
        });
        jobs.insert(job.id.clone(), Arc::clone(&job));
        Some(job)
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
        self.running.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursors_see_history_then_tail_then_done() {
        let registry = JobRegistry::new();
        let job = registry.try_create().unwrap();
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
        let a = registry.try_create().unwrap();
        let b = registry.try_create().unwrap();
        assert_eq!(registry.total(), 2);
        assert_eq!(registry.active(), 2);
        a.finish();
        assert_eq!(registry.active(), 1);
        assert!(registry.get(b.id()).is_some());
        assert!(registry.get("job-99").is_none());
    }

    #[test]
    fn running_jobs_are_capped_and_finishing_frees_a_slot() {
        let registry = JobRegistry::new();
        let jobs: Vec<Arc<Job>> = (0..MAX_RUNNING_JOBS)
            .map(|_| registry.try_create().expect("a slot is free"))
            .collect();
        assert_eq!(registry.active(), MAX_RUNNING_JOBS);
        assert!(registry.try_create().is_none(), "the cap must hold");
        assert_eq!(
            registry.total(),
            MAX_RUNNING_JOBS,
            "a refusal registers nothing"
        );

        // Finishing twice gives back one slot, not two.
        jobs[3].finish();
        jobs[3].finish();
        assert_eq!(registry.active(), MAX_RUNNING_JOBS - 1);
        let next = registry
            .try_create()
            .expect("the finished job's slot is free");
        assert_eq!(next.id(), format!("job-{}", MAX_RUNNING_JOBS + 1));
        assert!(registry.try_create().is_none());

        // A finished job stays readable.
        assert!(registry.get(jobs[3].id()).is_some());
    }
}
