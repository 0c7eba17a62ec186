//! Cooperative cancellation tokens.
//!
//! A solver cannot be stopped from outside mid-kernel (the state is a
//! half-applied factorization), so cancellation is cooperative: the worker
//! installs a progress hook that consults the token wherever the solver
//! polls it — before every tile-task release of a solve's graph, at the
//! top of every round of a batched wave (each member under its own hook) —
//! and the run is abandoned there.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared cancellation flag for one job. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; takes effect at the solver's next
    /// progress poll (or before the job starts, if still queued).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_flag() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t2.is_cancelled());
        t.cancel();
        assert!(t2.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }
}
