//! Shared runtime control surface of a serving daemon: the shutdown
//! flag a socket `shutdown` request sets, the cancellation set a
//! socket `cancel` request feeds, the per-job status board the
//! scheduler publishes for `status` queries, and the drain state one
//! drain pass leaves for the next.
//!
//! One [`ServeControl`] is shared (behind an `Arc`) between the drain
//! loop, the scheduler's worker pool and the socket listener threads.
//! It is deliberately *advisory*: the journal stays the single source
//! of truth for progress; the status board is a best-effort live view,
//! and the drain state is a cache that every pass checks against the
//! queue and journal bytes before trusting it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::daemon::DrainState;

/// Externally visible state of one job, published for `status`
/// queries over the socket.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// Job kind (`grid`/`sweep`/`fig9`/`fuzz`).
    pub kind: String,
    /// Points journaled so far (recovered + computed).
    pub points: usize,
    /// Total points the job will journal.
    pub total_points: usize,
    /// `running`, `done` or `failed`.
    pub state: String,
    /// The failure error, when `state` is `failed`.
    pub error: Option<String>,
}

#[derive(Debug, Default)]
struct ControlInner {
    cancelled: BTreeSet<String>,
    status: BTreeMap<String, JobView>,
}

/// The daemon's shared control block: shutdown flag, cancellation set,
/// job status board and warm drain state. See the module docs.
#[derive(Debug, Default)]
pub struct ServeControl {
    shutdown: AtomicBool,
    inner: Mutex<ControlInner>,
    /// Signalled when the status board changes or a shutdown is
    /// requested.
    changed: Condvar,
    /// Held while a submit appends to the queue file and while a drain
    /// pass reads it.
    queue: Mutex<()>,
    drain: Mutex<DrainState>,
}

impl ServeControl {
    /// Requests a graceful shutdown: workers stop claiming new units,
    /// in-flight units finish and are journaled, the drain exits.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Taking the lock orders the flag before any waiter's next
        // check, so no status waiter misses the wakeup.
        drop(self.inner.lock().expect("control lock"));
        self.changed.notify_all();
    }

    /// Whether a shutdown has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Whether the drain should stop early: a shutdown request, or the
    /// stop file existing.
    #[must_use]
    pub fn stop_requested(&self, stop_file: Option<&Path>) -> bool {
        self.is_shutdown() || stop_file.is_some_and(Path::exists)
    }

    /// Marks job `id` cancelled. Idempotent: returns `false` when the
    /// job was already cancelled.
    pub fn cancel(&self, id: &str) -> bool {
        self.inner
            .lock()
            .expect("control lock")
            .cancelled
            .insert(id.to_owned())
    }

    /// Whether job `id` has been cancelled.
    #[must_use]
    pub fn is_cancelled(&self, id: &str) -> bool {
        self.inner
            .lock()
            .expect("control lock")
            .cancelled
            .contains(id)
    }

    /// Publishes the live view of job `id` to the status board. An
    /// unchanged view is not republished.
    pub fn publish(&self, id: &str, view: JobView) {
        let mut inner = self.inner.lock().expect("control lock");
        match inner.status.get_mut(id) {
            Some(old) if *old == view => return,
            Some(old) => *old = view,
            None => {
                inner.status.insert(id.to_owned(), view);
            }
        }
        drop(inner);
        self.changed.notify_all();
    }

    /// Waits until the published view of job `id` differs from `seen`,
    /// a shutdown is requested, or `max` has passed, and returns the
    /// view then.
    #[must_use]
    pub(crate) fn wait_for_change(
        &self,
        id: &str,
        seen: Option<&JobView>,
        max: Duration,
    ) -> Option<JobView> {
        let deadline = Instant::now() + max;
        let mut inner = self.inner.lock().expect("control lock");
        loop {
            let view = inner.status.get(id);
            let now = Instant::now();
            if view != seen || self.is_shutdown() || now >= deadline {
                return view.cloned();
            }
            inner = self
                .changed
                .wait_timeout(inner, deadline - now)
                .expect("control lock")
                .0;
        }
    }

    /// The published view of job `id`, if any.
    #[must_use]
    pub fn view(&self, id: &str) -> Option<JobView> {
        self.inner
            .lock()
            .expect("control lock")
            .status
            .get(id)
            .cloned()
    }

    /// Locks the queue file against this process's own appends. A large
    /// enough append becomes visible to readers a page at a time, so a
    /// pass reading the queue while a submit appends could see half a
    /// line and journal its rejection.
    pub(crate) fn lock_queue(&self) -> MutexGuard<'_, ()> {
        self.queue.lock().expect("queue lock")
    }

    /// Takes the drain state the last pass left, leaving an empty
    /// (cold) one. A pass that fails never puts its state back, so the
    /// next pass replays cold.
    pub(crate) fn take_drain_state(&self) -> DrainState {
        std::mem::take(&mut *self.drain.lock().expect("drain lock"))
    }

    /// Keeps a completed pass's drain state for the next pass.
    pub(crate) fn keep_drain_state(&self, state: DrainState) {
        *self.drain.lock().expect("drain lock") = state;
    }
}

/// The stop-file path for a journal: `<journal>.stop`. Touching it
/// makes the daemon finish in-flight units, journal a clean `stopped`
/// record and exit; deleting it and restarting resumes the drain.
#[must_use]
pub fn stop_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_owned();
    name.push(".stop");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_is_idempotent_and_queryable() {
        let control = ServeControl::default();
        assert!(!control.is_cancelled("g1"));
        assert!(control.cancel("g1"), "first cancel is new");
        assert!(!control.cancel("g1"), "second cancel is a repeat");
        assert!(control.is_cancelled("g1"));
        assert!(!control.is_cancelled("g2"));
    }

    #[test]
    fn shutdown_flag_and_stop_file_both_request_a_stop() {
        let control = ServeControl::default();
        assert!(!control.stop_requested(None));
        let missing = PathBuf::from("/nonexistent/serve.journal.stop");
        assert!(!control.stop_requested(Some(&missing)));
        control.request_shutdown();
        assert!(control.is_shutdown());
        assert!(control.stop_requested(None));
    }

    #[test]
    fn status_board_returns_the_latest_published_view() {
        let control = ServeControl::default();
        assert!(control.view("g1").is_none());
        let view = JobView {
            kind: "grid".into(),
            points: 1,
            total_points: 4,
            state: "running".into(),
            error: None,
        };
        control.publish("g1", view.clone());
        assert_eq!(control.view("g1"), Some(view));
    }

    #[test]
    fn a_status_waiter_wakes_on_a_change_and_not_on_a_republish() {
        let control = std::sync::Arc::new(ServeControl::default());
        let view = |points: usize| JobView {
            kind: "grid".into(),
            points,
            total_points: 4,
            state: "running".into(),
            error: None,
        };
        control.publish("g1", view(1));
        // A view that already differs is returned at once.
        let t = Instant::now();
        assert_eq!(
            control.wait_for_change("g1", None, Duration::from_secs(60)),
            Some(view(1))
        );
        assert!(t.elapsed() < Duration::from_secs(30));
        // A republished identical view is no change; a new one is,
        // whenever either lands relative to the wait.
        let publisher = {
            let control = std::sync::Arc::clone(&control);
            std::thread::spawn(move || {
                control.publish("g1", view(1));
                control.publish("g1", view(2));
            })
        };
        let t = Instant::now();
        let seen = control.wait_for_change("g1", Some(&view(1)), Duration::from_secs(60));
        assert_eq!(seen, Some(view(2)), "only the change ends the wait");
        assert!(
            t.elapsed() < Duration::from_secs(30),
            "woken, not timed out"
        );
        publisher.join().expect("publisher");
        // With nothing changing, the wait ends at its limit.
        let t = Instant::now();
        let seen = control.wait_for_change("g1", Some(&view(2)), Duration::from_millis(30));
        assert_eq!(seen, Some(view(2)));
        assert!(t.elapsed() >= Duration::from_millis(30));
        // A shutdown request ends any wait.
        control.request_shutdown();
        let t = Instant::now();
        let _ = control.wait_for_change("g1", Some(&view(2)), Duration::from_secs(60));
        assert!(t.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn stop_path_appends_the_stop_suffix() {
        assert_eq!(
            stop_path(Path::new("/tmp/serve.journal")),
            PathBuf::from("/tmp/serve.journal.stop")
        );
    }
}
