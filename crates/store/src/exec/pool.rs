//! Process-wide worker-permit pool: one budget for every query's
//! parallelism.
//!
//! Each fragment union's member list is already pulled morsel-style
//! by a work-stealing claim counter
//! ([`super::parallel::eval_union`]); what used to be unbounded was
//! the number of *pullers*. Every concurrent query spawning its
//! profile's full `parallelism` oversubscribes the machine as soon as
//! a server runs two queries at once — 8 clients × 8 workers = 64
//! runnable threads on 8 cores, all paying context-switch and cache
//! churn for nothing.
//!
//! The permit pool makes worker admission global. A query's caller
//! thread always runs as one worker for free (so progress never
//! depends on the pool), and each *extra* worker requires a permit.
//! Acquisition is strictly non-blocking: under contention queries
//! simply run narrower — degrading to sequential member evaluation in
//! the worst case — instead of queueing behind each other's fan-out.
//! Permits release on drop (RAII), including on panic and error
//! unwinds, so a failed query can never leak capacity.
//!
//! The determinism story is unchanged: permits only size the worker
//! pool, and the order-stable merge makes rows, counters and node
//! profiles identical whatever that size turns out to be.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A fixed budget of worker permits shared by every query in the
/// process.
pub struct PermitPool {
    capacity: usize,
    available: AtomicUsize,
}

impl PermitPool {
    /// A pool with `capacity` permits (minimum one).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PermitPool { capacity, available: AtomicUsize::new(capacity) }
    }

    /// The process-wide pool. Sized to the machine's parallelism (via
    /// `JUCQ_THREADS` when set, hardware otherwise), floor 4 so small
    /// machines still exercise concurrent paths.
    pub fn global() -> &'static PermitPool {
        static GLOBAL: OnceLock<PermitPool> = OnceLock::new();
        GLOBAL.get_or_init(|| PermitPool::new(crate::profile::default_parallelism().max(4)))
    }

    /// Total permits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Permits currently unclaimed (racy by nature; informational).
    pub fn available(&self) -> usize {
        self.available.load(Ordering::Relaxed)
    }

    /// Claim up to `want` permits without blocking. The grant may be
    /// anything from 0 to `want`; callers must run correctly (if
    /// narrower) with whatever they get.
    pub fn try_acquire(&self, want: usize) -> Permits<'_> {
        let mut current = self.available.load(Ordering::Relaxed);
        loop {
            let grant = want.min(current);
            if grant == 0 {
                return Permits { pool: self, count: 0 };
            }
            match self.available.compare_exchange_weak(
                current,
                current - grant,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Permits { pool: self, count: grant },
                Err(observed) => current = observed,
            }
        }
    }

    fn release(&self, count: usize) {
        if count > 0 {
            self.available.fetch_add(count, Ordering::Release);
        }
    }
}

/// A grant of extra-worker permits; returns them to the pool on drop.
pub struct Permits<'a> {
    pool: &'a PermitPool,
    count: usize,
}

impl Permits<'_> {
    /// Extra workers this grant admits (0 = run sequentially).
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        self.pool.release(self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_are_bounded_and_released_on_drop() {
        let pool = PermitPool::new(3);
        assert_eq!(pool.capacity(), 3);
        let a = pool.try_acquire(2);
        assert_eq!(a.count(), 2);
        let b = pool.try_acquire(2);
        assert_eq!(b.count(), 1, "only one permit left");
        let c = pool.try_acquire(1);
        assert_eq!(c.count(), 0, "exhausted pools grant zero, never block");
        drop(a);
        let d = pool.try_acquire(5);
        assert_eq!(d.count(), 2, "dropped permits return to the pool");
        drop(b);
        drop(c);
        drop(d);
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn permits_survive_panics_via_drop() {
        let pool = PermitPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = pool.try_acquire(2);
            panic!("worker died");
        }));
        assert!(result.is_err());
        assert_eq!(pool.available(), 2, "unwind returned the permits");
    }

    #[test]
    fn concurrent_acquire_release_never_overshoots() {
        let pool = PermitPool::new(4);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        let g = pool.try_acquire(3);
                        assert!(g.count() <= 3);
                        std::hint::spin_loop();
                        drop(g);
                    }
                });
            }
        });
        assert_eq!(pool.available(), 4, "all permits home after the storm");
    }

    #[test]
    fn global_pool_has_a_usable_floor() {
        assert!(PermitPool::global().capacity() >= 4);
    }
}
