//! Cooperative cancellation for racing schedulers.
//!
//! A [`CancelToken`] is a cloneable flag a portfolio driver hands to the
//! cancellable racing backends (SAT and the heuristic; the ILP racer is
//! never cancelled); they poll it at the same granularity as their
//! wall-clock deadline checks (per backtrack, per CDCL conflict) and
//! abandon the search promptly once it fires. The token
//! lives here rather than in a scheduler crate because `swp-obs` is the one
//! crate every backend already depends on.
//!
//! Cancellation is *host-timing-dependent* by nature — whether a racer was
//! cancelled before finishing depends on wall clock — so every backend
//! reports a cancelled search the same way it reports a wall-clock deadline
//! hit, and the schedule cache refuses to memoize such results.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag.
///
/// The `Default` token is *inert*: it can never fire, costs nothing to
/// check, and allocates nothing — options structs embed one so that the
/// non-racing paths stay untouched.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A live token that can later be [`cancel`](Self::cancel)led.
    pub fn new() -> CancelToken {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// The inert token (same as `Default`): never fires.
    pub fn never() -> CancelToken {
        CancelToken { flag: None }
    }

    /// Fire the flag. All clones observe it; inert tokens ignore it.
    pub fn cancel(&self) {
        if let Some(f) = &self.flag {
            f.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the flag has fired.
    pub fn is_cancelled(&self) -> bool {
        self.flag
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_is_inert() {
        let t = CancelToken::default();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(!t.is_cancelled(), "inert tokens never fire");
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
        assert!(u.is_cancelled());
    }

    #[test]
    fn independent_tokens_do_not_share() {
        let t = CancelToken::new();
        let u = CancelToken::new();
        t.cancel();
        assert!(!u.is_cancelled());
    }
}
