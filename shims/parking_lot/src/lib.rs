//! Offline stand-in for `parking_lot`, implementing the subset the repo
//! uses ([`Mutex`], [`Condvar`], [`WaitTimeoutResult`]) on top of
//! `std::sync`.
//!
//! Semantics match parking_lot where it matters for this codebase:
//!
//! * `lock()` returns the guard directly (poisoning is swallowed — a
//!   panicking worker must not poison the pool, which is exactly the
//!   behavior `rtpool-exec`'s panic isolation relies on);
//! * `Condvar::wait`/`wait_for` take the guard by `&mut`, re-acquiring
//!   the same lock before returning;
//! * `MutexGuard::unlocked` releases the lock around a closure through
//!   the same `&mut` guard.

use std::sync::{self, PoisonError};
use std::time::Duration;

/// A mutual-exclusion primitive (non-poisoning facade over
/// [`std::sync::Mutex`]).
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
///
/// Wraps the `std` guard in an `Option` so a [`Condvar`] can take the
/// guard out, block on the underlying condition variable, and put the
/// re-acquired guard back — all in safe code.
pub struct MutexGuard<'a, T> {
    mutex: &'a sync::Mutex<T>,
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, blocking until available. Never poisons.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            mutex: &self.inner,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<'a, T> MutexGuard<'a, T> {
    /// Releases the lock, runs `f`, and re-acquires the lock before
    /// returning — or unwinding, if `f` panics (parking_lot's
    /// `MutexGuard::unlocked`).
    pub fn unlocked<U>(s: &mut Self, f: impl FnOnce() -> U) -> U {
        struct Relock<'g, 'a, T>(&'g mut MutexGuard<'a, T>);
        impl<T> Drop for Relock<'_, '_, T> {
            fn drop(&mut self) {
                let relocked = self.0.mutex.lock().unwrap_or_else(PoisonError::into_inner);
                self.0.inner = Some(relocked);
            }
        }
        drop(s.inner.take().expect("guard present"));
        let _relock = Relock(s);
        f()
    }

    fn guard(&self) -> &sync::MutexGuard<'a, T> {
        self.inner
            .as_ref()
            .expect("guard present outside condvar wait")
    }

    fn guard_mut(&mut self) -> &mut sync::MutexGuard<'a, T> {
        self.inner
            .as_mut()
            .expect("guard present outside condvar wait")
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard()
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard_mut()
    }
}

/// Result of [`Condvar::wait_for`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable (facade over [`std::sync::Condvar`]).
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Blocks until notified, releasing the guard's lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present");
        let reacquired = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(reacquired);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present");
        let (reacquired, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(reacquired);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn unlocked_releases_and_reacquires() {
        let m = Mutex::new(0);
        let mut g = m.lock();
        *g = 1;
        let seen = MutexGuard::unlocked(&mut g, || {
            let mut inner = m.lock();
            *inner += 1;
            *inner
        });
        assert_eq!(seen, 2);
        assert_eq!(*g, 2, "same guard, lock held again");
    }

    #[test]
    fn unlocked_reacquires_on_unwind() {
        let m = Mutex::new(7);
        let mut g = m.lock();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MutexGuard::unlocked(&mut g, || panic!("inside unlocked"));
        }));
        assert!(unwound.is_err());
        assert_eq!(*g, 7, "the guard holds the lock again");
        drop(g);
        assert_eq!(*m.lock(), 7, "and released it when dropped");
    }

    #[test]
    fn notify_wakes_waiter() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = Arc::clone(&shared);
        let t = thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        thread::sleep(Duration::from_millis(20));
        {
            let (m, cv) = &*shared;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn lock_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(5));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // A parking_lot mutex is unaffected by a panicking holder.
        assert_eq!(*m.lock(), 5);
    }
}
