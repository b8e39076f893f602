//! Cooperative cancellation with optional deadlines for solver runs.
//!
//! A [`CancelToken`] is threaded through every solver and the portfolio so a
//! caller can bound a solve by wall-clock time (or cancel it explicitly) and
//! still receive the best incumbent found so far — *anytime* semantics. The
//! token is checked once per objective evaluation via
//! `Incumbent::exhausted`, so cancellation latency is one evaluation.
//!
//! Deadlines are expressed against an injectable [`CancelClock`] so tests can
//! drive time manually ([`ManualClock`]) while production uses the monotonic
//! [`MonotonicClock`]. A default token ([`CancelToken::none`]) carries no
//! state and costs one branch per check.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source for deadline checks.
///
/// Implementations report nanoseconds elapsed since an arbitrary fixed
/// origin; only differences are meaningful. The trait exists so deadline
/// behaviour is testable without sleeping.
pub trait CancelClock: Send + Sync {
    /// Nanoseconds elapsed since the clock's origin.
    fn now_nanos(&self) -> u64;
}

/// Production clock backed by [`std::time::Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Creates a clock whose origin is "now".
    pub fn new() -> Self {
        MonotonicClock {
            // lint-src: allow(MUBE101) — this *is* the injectable clock's
            // production implementation; everything else routes through it.
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelClock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        // Saturates after ~584 years of process uptime, which is fine.
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// Manually advanced clock for deterministic tests: time only moves when
/// [`ManualClock::advance`] is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// Creates a clock frozen at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `delta`.
    pub fn advance(&self, delta: Duration) {
        let d = delta.as_nanos().min(u128::from(u64::MAX)) as u64;
        // ordering: single monotone counter; deadline checks tolerate a
        // stale read (they just cancel one poll later).
        self.nanos.fetch_add(d, Ordering::Relaxed);
    }
}

impl CancelClock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed) // ordering: see `advance`
    }
}

struct Inner {
    flag: AtomicBool,
    /// `(clock, deadline_nanos)`: cancelled once `clock.now_nanos()` reaches
    /// the threshold.
    deadline: Option<(Arc<dyn CancelClock>, u64)>,
}

/// A cloneable cancellation handle shared between a solve and its caller.
///
/// Cancellation is *cooperative*: solvers poll [`CancelToken::is_cancelled`]
/// between evaluations and unwind normally, returning their best-so-far
/// incumbent flagged `timed_out`. Cloning is cheap (an `Arc` bump); all
/// clones observe the same flag and deadline. The default token never
/// cancels and allocates nothing.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "CancelToken::none"),
            Some(i) => f
                .debug_struct("CancelToken")
                // ordering: advisory snapshot for Debug output only.
                .field("cancelled", &i.flag.load(Ordering::Relaxed))
                .field("has_deadline", &i.deadline.is_some())
                .finish(),
        }
    }
}

impl CancelToken {
    /// A token that never cancels; zero-cost to check.
    pub fn none() -> Self {
        CancelToken { inner: None }
    }

    /// A token with no deadline that cancels only when
    /// [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A token that auto-cancels `budget` from now on the monotonic
    /// wall clock (and can still be cancelled earlier by hand).
    pub fn after(budget: Duration) -> Self {
        Self::with_deadline(Arc::new(MonotonicClock::new()), budget)
    }

    /// A token that auto-cancels once `clock` has advanced `budget` past its
    /// current reading. The injectable clock makes deadline behaviour
    /// testable without sleeping.
    pub fn with_deadline(clock: Arc<dyn CancelClock>, budget: Duration) -> Self {
        let b = budget.as_nanos().min(u128::from(u64::MAX)) as u64;
        let deadline = clock.now_nanos().saturating_add(b);
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some((clock, deadline)),
            })),
        }
    }

    /// Requests cancellation. Idempotent; a no-op on [`CancelToken::none`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            // ordering: one-way latch carrying no payload; solvers poll it
            // and only need the `true` to become visible eventually.
            inner.flag.store(true, Ordering::Relaxed);
        }
    }

    /// True once the token has been cancelled or its deadline has passed.
    /// A passed deadline latches the flag so later checks skip the clock.
    pub fn is_cancelled(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        // ordering: polling the latch; see `cancel`.
        if inner.flag.load(Ordering::Relaxed) {
            return true;
        }
        if let Some((clock, deadline)) = &inner.deadline {
            if clock.now_nanos() >= *deadline {
                // ordering: latching the already-passed deadline; see `cancel`.
                inner.flag.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_cancels() {
        let t = CancelToken::none();
        t.cancel();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn manual_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn deadline_fires_on_manual_clock() {
        let clock = Arc::new(ManualClock::new());
        let t = CancelToken::with_deadline(clock.clone(), Duration::from_millis(10));
        assert!(!t.is_cancelled());
        clock.advance(Duration::from_millis(9));
        assert!(!t.is_cancelled());
        clock.advance(Duration::from_millis(1));
        assert!(t.is_cancelled());
        // Latches: rewinding is impossible, and the flag stays set.
        assert!(t.is_cancelled());
    }

    #[test]
    fn zero_budget_cancels_immediately() {
        let clock = Arc::new(ManualClock::new());
        let t = CancelToken::with_deadline(clock, Duration::ZERO);
        assert!(t.is_cancelled());
    }

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }
}
