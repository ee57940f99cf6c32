//! Poison-proof locking for the workspace's memoization caches.
//!
//! Every cache in the stack ([`crate::memo::Memo`], which backs the
//! evaluation, circuit and timing caches, and `SolverContext`) guards a
//! plain-data map with a [`Mutex`]. The maps
//! hold *completed* results only — a writer inserts a finished value or
//! nothing — so a thread that panics while holding the lock cannot leave
//! a torn entry behind: the worst case is a missing memo, which the next
//! lookup simply recomputes. Propagating the poison flag as a second
//! panic would turn one worker's failure into a panic in every other
//! thread (and, through the persisted-store paths, violate the PR 6
//! contract that a cache problem may cost a warm start but never a
//! crash). [`lock`] therefore takes the guard whether or not the mutex
//! is poisoned.
//!
//! Do **not** use this for locks protecting multi-step invariants — only
//! for maps whose entries are inserted atomically.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// The caller asserts the protected data is valid at every lock release
/// (single-insert memo maps are; see the module docs).
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_mutex_still_serves_its_data() {
        let shared = Mutex::new(vec![1, 2, 3]);
        // Poison the mutex: a scoped thread panics while holding it.
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = shared.lock().expect("first lock");
                panic!("poison the lock");
            })
            .join()
        });
        assert!(result.is_err(), "the poisoning thread must have panicked");
        assert!(shared.is_poisoned());
        // A plain .lock().unwrap() would now panic; lock() recovers.
        assert_eq!(*lock(&shared), vec![1, 2, 3]);
        lock(&shared).push(4);
        assert_eq!(lock(&shared).len(), 4);
    }
}
