//! Cooperative cancellation and deadlines for long-running solves.
//!
//! A [`CancelToken`] is a cheap, clonable handle shared between the party
//! that wants to stop a solve (a service dispatcher, a UI, a watchdog) and
//! the iteration loop doing the work. The loop polls [`CancelToken::check`]
//! at **round boundaries** — between rounds of at most
//! [`TEMPORAL_FUSION_DEPTH`](crate::schedule::TEMPORAL_FUSION_DEPTH)
//! Chambolle iterations, between tiled rounds of `K`, between TV-L1 warps —
//! so a cancelled solve never leaves a half-written grid behind: every
//! observable state is one the uncancelled algorithm would also have passed
//! through.
//!
//! Two things cancel a token:
//!
//! - an explicit [`CancelToken::cancel`] call ([`CancelReason::Explicit`]);
//! - a wall-clock deadline fixed at construction
//!   ([`CancelReason::DeadlineExceeded`]).
//!
//! Explicit cancellation takes precedence when both hold. Tokens are
//! monotonic: once cancelled, a token never reports runnable again.
//!
//! # Examples
//!
//! ```
//! use chambolle_core::cancel::{CancelReason, CancelToken};
//!
//! let token = CancelToken::new();
//! assert!(token.check().is_ok());
//! token.cancel();
//! assert_eq!(token.check().unwrap_err().reason, CancelReason::Explicit);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a solve was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Explicit,
    /// The token's deadline passed before the solve finished.
    DeadlineExceeded,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::Explicit => write!(f, "cancelled"),
            CancelReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// Error returned by a cancelled solve.
///
/// Deliberately `Copy` and payload-free so it can ride inside `Copy` error
/// enums like [`crate::FlowError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// What triggered the cancellation.
    pub reason: CancelReason,
}

impl Cancelled {
    /// A cancellation with the given reason.
    pub fn new(reason: CancelReason) -> Self {
        Cancelled { reason }
    }
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "solve cancelled: {}", self.reason)
    }
}

impl std::error::Error for Cancelled {}

struct TokenInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// Shared cancellation handle polled by the iteration loops.
///
/// Cloning shares the underlying state; cancelling any clone cancels all of
/// them. A default-constructed token never cancels on its own.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A token with no deadline that only cancels on [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Requests cancellation; every clone observes it on its next check.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token is cancelled (explicitly or by deadline).
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }

    /// The poll the iteration loops call at round boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when [`CancelToken::cancel`] was called
    /// (explicit cancellation wins) or the deadline has passed.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Err(Cancelled::new(CancelReason::Explicit));
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Err(Cancelled::new(CancelReason::DeadlineExceeded));
            }
        }
        Ok(())
    }
}

impl Default for CancelToken {
    /// Equivalent to [`CancelToken::new`].
    fn default() -> Self {
        CancelToken::new()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_runnable() {
        let token = CancelToken::new();
        assert!(token.check().is_ok());
        assert!(!token.is_cancelled());
        assert_eq!(token.deadline(), None);
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        let err = token.check().unwrap_err();
        assert_eq!(err.reason, CancelReason::Explicit);
        assert!(clone.is_cancelled());
    }

    #[test]
    fn elapsed_deadline_cancels() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(
            token.check().unwrap_err().reason,
            CancelReason::DeadlineExceeded
        );
        // A comfortably distant deadline does not.
        let live = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(live.check().is_ok());
        assert!(live.deadline().is_some());
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        token.cancel();
        assert_eq!(token.check().unwrap_err().reason, CancelReason::Explicit);
    }

    #[test]
    fn error_formats_mention_the_reason() {
        let c = Cancelled::new(CancelReason::DeadlineExceeded);
        assert!(c.to_string().contains("deadline"));
        let c = Cancelled::new(CancelReason::Explicit);
        assert!(c.to_string().contains("cancelled"));
    }

    #[test]
    fn zero_timeout_deadline_is_already_expired() {
        // `with_timeout(0)` sets the deadline to "now"; by the first check
        // the clock has advanced (or is equal), so the token must report
        // DeadlineExceeded before any iteration could run.
        let token = CancelToken::with_timeout(Duration::ZERO);
        assert_eq!(
            token.check().unwrap_err().reason,
            CancelReason::DeadlineExceeded
        );
        assert!(token.is_cancelled());
    }

    #[test]
    fn deadline_tokens_are_monotonic_once_expired() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(token.check().is_err());
        // Repeated checks never flip back to runnable.
        for _ in 0..3 {
            assert_eq!(
                token.check().unwrap_err().reason,
                CancelReason::DeadlineExceeded
            );
        }
    }

    #[test]
    fn explicit_cancel_after_deadline_still_reports_explicit() {
        // The race both ways: a token whose deadline already fired is then
        // explicitly cancelled — the explicit reason must win on every
        // subsequent check, on every clone.
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(5));
        let clone = token.clone();
        assert_eq!(
            clone.check().unwrap_err().reason,
            CancelReason::DeadlineExceeded
        );
        token.cancel();
        assert_eq!(clone.check().unwrap_err().reason, CancelReason::Explicit);
        assert_eq!(token.check().unwrap_err().reason, CancelReason::Explicit);
    }

    #[test]
    fn concurrent_cancel_and_deadline_checks_settle_on_explicit() {
        // Hammer check() from several threads while one thread cancels a
        // token whose deadline fires at roughly the same time. Every error
        // must carry one of the two reasons, and once any thread has seen
        // Explicit, later checks must keep reporting Explicit.
        let token = CancelToken::with_timeout(Duration::from_millis(2));
        let canceller = token.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            canceller.cancel();
        });
        let mut reasons = Vec::new();
        loop {
            match token.check() {
                Ok(()) => std::thread::yield_now(),
                Err(c) => {
                    reasons.push(c.reason);
                    if c.reason == CancelReason::Explicit || reasons.len() > 10_000 {
                        break;
                    }
                }
            }
        }
        h.join().unwrap();
        assert_eq!(
            token.check().unwrap_err().reason,
            CancelReason::Explicit,
            "after the explicit cancel lands, it wins every later check"
        );
    }
}
