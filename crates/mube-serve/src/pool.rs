//! A bounded worker thread pool over a shared job queue.
//!
//! `N` threads drain a `Mutex<VecDeque>` + `Condvar` queue — the classic
//! std-only construction. Shutdown is *draining*: workers finish every job
//! already queued (in-flight solves included) before exiting, which is what
//! gives the server its graceful-shutdown guarantee.
//!
//! Workers are *self-healing*: a job that panics kills its worker thread,
//! but a drop guard running during the unwind spawns a replacement (unless
//! the pool is already shutting down), so a single bad request can never
//! permanently sink pool capacity. Panics are counted and surfaced through
//! [`WorkerPool::panics`] so `/metrics` can report them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    /// Jobs that panicked (each one cost a worker thread, since replaced).
    /// Behind its own `Arc` so observers (the server's `/metrics`) can
    /// keep reading it after the pool is consumed by shutdown.
    panics: Arc<AtomicU64>,
    /// Handles of respawned workers, joined at shutdown after the originals.
    replacements: Mutex<Vec<JoinHandle<()>>>,
}

/// A fixed-size worker pool.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            panics: Arc::new(AtomicU64::new(0)),
            replacements: Mutex::new(Vec::new()),
        });
        let workers = (0..threads.max(1))
            .map(|i| spawn_worker(Arc::clone(&shared), format!("mube-serve-worker-{i}")))
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads the pool was created with.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs that have panicked over the pool's lifetime. Each panic killed
    /// a worker, which was immediately respawned.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::SeqCst)
    }

    /// A handle on the panic counter that outlives the pool (for metrics).
    pub fn panic_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.shared.panics)
    }

    /// Enqueues a job. Returns `false` (dropping the job) if the pool is
    /// already shutting down.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) -> bool {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        if state.shutdown {
            return false;
        }
        state.jobs.push_back(Box::new(job));
        drop(state);
        self.shared.cv.notify_one();
        true
    }

    /// Jobs currently waiting (in-flight jobs not included).
    pub fn queued(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool lock poisoned")
            .jobs
            .len()
    }

    /// Drains the queue and joins every worker. Jobs already enqueued run
    /// to completion; [`WorkerPool::execute`] refuses new ones.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            state.shutdown = true;
        }
        self.shared.cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Replacements may themselves panic and respawn while draining, so
        // keep joining until the list stays empty.
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut replacements = self
                    .shared
                    .replacements
                    .lock()
                    .expect("replacements lock poisoned");
                std::mem::take(&mut *replacements)
            };
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Mirror shutdown() for pools dropped without an explicit call
        // (e.g. on a panic path), so worker threads never leak.
        self.shutdown_in_place();
    }
}

fn spawn_worker(shared: Arc<Shared>, name: String) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || worker_loop(shared, name))
        .expect("spawn worker thread")
}

/// Respawns the worker if its thread is unwinding from a job panic.
///
/// Dropped on every exit path of [`worker_loop`]; `std::thread::panicking`
/// distinguishes the clean shutdown return from a panicking job.
struct RespawnGuard {
    shared: Arc<Shared>,
    name: String,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        self.shared.panics.fetch_add(1, Ordering::SeqCst);
        let shutting_down = self
            .shared
            .state
            .lock()
            .expect("pool lock poisoned")
            .shutdown;
        if shutting_down {
            return;
        }
        let handle = spawn_worker(Arc::clone(&self.shared), self.name.clone());
        self.shared
            .replacements
            .lock()
            .expect("replacements lock poisoned")
            .push(handle);
    }
}

fn worker_loop(shared: Arc<Shared>, name: String) {
    let _guard = RespawnGuard {
        shared: Arc::clone(&shared),
        name,
    };
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.cv.wait(state).expect("pool lock poisoned");
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_jobs_on_many_threads() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            assert!(pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..64 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        // One blocked worker, many queued jobs: shutdown must wait for all.
        let pool = WorkerPool::new(1);
        let (release, blocked) = std::sync::mpsc::channel::<()>();
        pool.execute(move || {
            let _ = blocked.recv();
        });
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                std::thread::sleep(Duration::from_millis(2));
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        // The single worker is blocked, so all 16 are still waiting.
        assert!(pool.queued() >= 16, "queued {}", pool.queued());
        release.send(()).unwrap();
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn execute_after_shutdown_is_refused() {
        let pool = WorkerPool::new(2);
        // Capture the shared handle the way the server does: a second pool
        // reference does not exist, so emulate by shutting down first.
        let shared = Arc::clone(&pool.shared);
        pool.shutdown();
        let mut state = shared.state.lock().unwrap();
        assert!(state.shutdown);
        assert!(state.jobs.pop_front().is_none());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = mpsc::channel();
        pool.execute(move || tx.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
        pool.shutdown();
    }

    #[test]
    fn panicking_job_respawns_worker_and_is_counted() {
        // A single-threaded pool: if the panicking job killed the only
        // worker for good, every later job would hang forever.
        let pool = WorkerPool::new(1);
        pool.execute(|| panic!("boom"));
        let (tx, rx) = mpsc::channel();
        for i in 0..8u64 {
            let tx = tx.clone();
            assert!(pool.execute(move || tx.send(i).unwrap()));
        }
        let mut got: Vec<u64> = (0..8)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(pool.panics(), 1);
        pool.shutdown();
    }

    #[test]
    fn repeated_panics_never_sink_capacity() {
        let pool = WorkerPool::new(2);
        for _ in 0..5 {
            pool.execute(|| panic!("again"));
        }
        // Wait for all panics to land (each respawn is counted first).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.panics() < 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.panics(), 5);
        let (tx, rx) = mpsc::channel();
        assert!(pool.execute(move || tx.send(42).unwrap()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 42);
        pool.shutdown();
    }
}
