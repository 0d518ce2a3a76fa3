//! Ranked mutexes: the engine's lock-order discipline, enforced at runtime.
//!
//! Deadlock freedom in the engine rests on a total acquisition order over
//! its lock families:
//!
//! ```text
//! state < cache < registry < store < lanes < gate < job < telemetry < wire
//! ```
//!
//! Every engine mutex is a crate-internal `RankedMutex` carrying its
//! [`Rank`]. Under
//! `debug_assertions` each thread keeps a stack of currently-held ranks, and
//! acquiring a lock whose rank is not strictly greater than the top of the
//! stack panics with both ranks named — so any test run (tier-1 runs the
//! whole suite in debug) catches a misordered acquisition the first time it
//! executes, not the first time it deadlocks. Release builds compile the
//! checker away entirely; a `RankedMutex` is then exactly a `Mutex`.
//!
//! The same order is verified *statically* by `hcc-lint`'s `lock-order` rule,
//! which extracts every `.lock()` site in this crate and checks the nesting
//! graph. The lint's declared order and [`RANK_NAMES`] are asserted equal by
//! the workspace self-check test, so the two checkers can never drift apart.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Human-readable names of the ranks, lowest first. Index `i` names
/// `Rank` variant `i`; `hcc-lint` asserts this matches its declared order.
pub const RANK_NAMES: [&str; 9] = [
    "state",
    "cache",
    "registry",
    "store",
    "lanes",
    "gate",
    "job",
    "telemetry",
    "wire",
];

/// Acquisition rank of an engine lock, lowest-acquired-first.
///
/// A thread may only acquire a lock of *strictly* higher rank than every
/// lock it currently holds (two locks of the same rank may never be held
/// together).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// The engine `State` mutex (job queue, job table, counters).
    State,
    /// The fingerprint-keyed result cache.
    Cache,
    /// The prepared-dataset registry.
    Registry,
    /// The durable budget ledger and its backing on-disk store
    /// (`hcc-store`). Above `Registry` so a prepare/unprepare may
    /// persist its refcount change while still holding the registry
    /// lock (keeping disk refcounts ordered with the in-memory ones),
    /// and below the execution-side locks so persistence never nests
    /// inside a running task.
    Store,
    /// Per-worker task deque lanes.
    Lanes,
    /// The compute-admission gate's permit count.
    Gate,
    /// Job-internal locks (`estimates`, `failure`, legacy executor slots).
    Job,
    /// Telemetry span rings.
    Telemetry,
    /// The reactor's cross-thread completion queue (`completions`):
    /// highest rank, so engine completion watchers may push into it
    /// while the worker holds nothing, and the reactor drains it
    /// before touching any engine lock.
    Wire,
}

impl Rank {
    /// The rank's name as used by `hcc-lint` and in violation messages.
    pub fn name(self) -> &'static str {
        match self {
            Rank::State => "state",
            Rank::Cache => "cache",
            Rank::Registry => "registry",
            Rank::Store => "store",
            Rank::Lanes => "lanes",
            Rank::Gate => "gate",
            Rank::Job => "job",
            Rank::Telemetry => "telemetry",
            Rank::Wire => "wire",
        }
    }
}

#[cfg(debug_assertions)]
mod held {
    use super::Rank;
    use std::cell::RefCell;

    thread_local! {
        static STACK: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn push(rank: Rank) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(&top) = stack.last() {
                assert!(
                    rank > top,
                    "lock-rank violation: acquiring `{}` while holding `{}` \
                     (declared order: {})",
                    rank.name(),
                    top.name(),
                    super::RANK_NAMES.join(" < ")
                );
            }
            stack.push(rank);
        });
    }

    pub(super) fn pop(rank: Rank) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&r| r == rank) {
                stack.remove(pos);
            }
        });
    }
}

/// RAII record of one rank on the current thread's held stack. Popping on
/// drop (rather than dropping the guard struct itself) lets
/// [`RankedGuard::wait`] destructure and reassemble the guard around a
/// condvar wait without touching the stack — the lock conceptually stays
/// held across the wait.
struct RankToken {
    #[cfg(debug_assertions)]
    rank: Rank,
}

impl RankToken {
    fn acquire(rank: Rank) -> RankToken {
        #[cfg(debug_assertions)]
        held::push(rank);
        #[cfg(not(debug_assertions))]
        let _ = rank;
        RankToken {
            #[cfg(debug_assertions)]
            rank,
        }
    }
}

impl Drop for RankToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::pop(self.rank);
    }
}

/// A `Mutex` that knows its place in the engine lock order.
#[derive(Debug)]
pub(crate) struct RankedMutex<T> {
    rank: Rank,
    inner: Mutex<T>,
}

/// Guard returned by [`RankedMutex::lock`]; derefs to the protected value.
pub(crate) struct RankedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    token: RankToken,
}

impl<T> RankedMutex<T> {
    /// Wrap `value` in a mutex of the given rank.
    pub(crate) fn new(rank: Rank, value: T) -> RankedMutex<T> {
        RankedMutex {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Acquire the lock, asserting rank order under `debug_assertions`.
    ///
    /// Poisoning is converted to a panic here, once, for every engine lock:
    /// a poisoned engine lock means a worker panicked while mutating shared
    /// state the `catch_unwind` isolation should have protected, and no
    /// caller has a saner recovery than propagating.
    pub(crate) fn lock(&self) -> RankedGuard<'_, T> {
        let token = RankToken::acquire(self.rank);
        // hcc-lint: allow(panic-policy, reason = "single poison conversion point for all engine locks; poisoning implies a bug catch_unwind isolation failed to contain")
        let guard = self.inner.lock().expect("engine lock poisoned");
        RankedGuard { guard, token }
    }
}

impl<'a, T> RankedGuard<'a, T> {
    /// Block on `condvar`, releasing and reacquiring the underlying mutex.
    ///
    /// The rank token is carried across the wait: the lock is still
    /// considered held for ordering purposes, exactly matching `Condvar`
    /// semantics (the mutex is reacquired before this returns).
    pub(crate) fn wait(self, condvar: &Condvar) -> RankedGuard<'a, T> {
        let RankedGuard { guard, token } = self;
        // hcc-lint: allow(panic-policy, reason = "same poison policy as RankedMutex::lock; wait repoisons only if a peer panicked while holding the lock")
        let guard = condvar.wait(guard).expect("engine lock poisoned");
        RankedGuard { guard, token }
    }
}

impl<T> std::ops::Deref for RankedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_nesting_is_allowed() {
        let state = RankedMutex::new(Rank::State, 1);
        let gate = RankedMutex::new(Rank::Gate, 2);
        let telemetry = RankedMutex::new(Rank::Telemetry, 3);
        let a = state.lock();
        let b = gate.lock();
        let c = telemetry.lock();
        assert_eq!(*a + *b + *c, 6);
    }

    #[test]
    fn reacquire_after_release_is_allowed() {
        let state = RankedMutex::new(Rank::State, 0);
        let cache = RankedMutex::new(Rank::Cache, 0);
        {
            let _c = cache.lock();
        }
        // cache released: acquiring the lower-ranked state lock is fine now.
        let _s = state.lock();
        let _c = cache.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank violation")]
    fn misordered_nesting_panics() {
        let state = RankedMutex::new(Rank::State, 0);
        let gate = RankedMutex::new(Rank::Gate, 0);
        let _g = gate.lock();
        let _s = state.lock(); // gate > state: must panic
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank violation")]
    fn equal_rank_nesting_panics() {
        let a = RankedMutex::new(Rank::Job, 0);
        let b = RankedMutex::new(Rank::Job, 0);
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    fn wait_preserves_rank_and_content() {
        use std::sync::{Arc, Condvar};
        let mutex = Arc::new(RankedMutex::new(Rank::State, false));
        let condvar = Arc::new(Condvar::new());
        let (m2, c2) = (Arc::clone(&mutex), Arc::clone(&condvar));
        let setter = std::thread::spawn(move || {
            *m2.lock() = true;
            c2.notify_all();
        });
        let mut guard = mutex.lock();
        while !*guard {
            guard = guard.wait(&condvar);
        }
        assert!(*guard);
        drop(guard);
        setter.join().expect("setter thread panicked");
    }

    #[test]
    fn rank_names_match_variants() {
        let ranks = [
            Rank::State,
            Rank::Cache,
            Rank::Registry,
            Rank::Store,
            Rank::Lanes,
            Rank::Gate,
            Rank::Job,
            Rank::Telemetry,
            Rank::Wire,
        ];
        for (i, rank) in ranks.iter().enumerate() {
            assert_eq!(rank.name(), RANK_NAMES[i]);
        }
    }
}
