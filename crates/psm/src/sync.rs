//! Test-and-test-and-set spin locks.
//!
//! The paper (§3.2): synchronization is handled with interlocked
//! instructions rather than OS primitives, and spinning processes use
//! "test and test-and-set" — ordinary reads until the lock looks free, then
//! one interlocked attempt — so waiters spin in their caches instead of on
//! the bus. The `AtomicBool` load/compare-exchange pair below is the direct
//! Rust translation (Rust Atomics and Locks, ch. 4).
//!
//! A lock is its state word and its data, nothing else. Every guard reports
//! the *spins before acquisition* it cost — the contention metric of Tables
//! 4-7 and 4-9 ("the number of times a process spins on the lock before it
//! gets access") — and the process that took the lock books them into its
//! own counters, so the instrument adds no shared write to the lock.

use std::cell::UnsafeCell;
use std::hint;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// One busy observation: count it, and on an oversubscribed host, where the
/// holder may not even be running, yield now and then so it can progress.
#[inline]
fn spin(spins: &mut u64) {
    *spins += 1;
    if spins.is_multiple_of(256) {
        std::thread::yield_now();
    } else {
        hint::spin_loop();
    }
}

/// A TTAS spin lock guarding `T`.
pub struct SpinLock<T> {
    locked: AtomicBool,
    data: UnsafeCell<T>,
}

unsafe impl<T: Send> Send for SpinLock<T> {}
unsafe impl<T: Send> Sync for SpinLock<T> {}

impl<T> SpinLock<T> {
    pub const fn new(value: T) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock. The guard reports how many times it was seen busy.
    #[inline]
    pub fn lock(&self) -> SpinGuard<'_, T> {
        let mut spins = 0u64;
        // Test-and-set; while busy, spin on plain reads (stay in cache, off
        // the bus).
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            while self.locked.load(Ordering::Relaxed) {
                spin(&mut spins);
            }
        }
        SpinGuard { lock: self, spins }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// RAII guard for [`SpinLock`].
pub struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
    /// Spins this acquisition cost, for the caller to book.
    pub spins: u64,
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: we hold the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // Safety: we hold the lock exclusively.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

/// A reader-writer spin lock (used by the MRSW line protocol for the token
/// lists: concurrent same-side scans, serialized destructive modification).
///
/// State word: bit 31 = writer held, bits 0..31 = reader count.
pub struct RwSpinLock<T> {
    state: AtomicU32,
    data: UnsafeCell<T>,
}

unsafe impl<T: Send> Send for RwSpinLock<T> {}
unsafe impl<T: Send + Sync> Sync for RwSpinLock<T> {}

const WRITER: u32 = 1 << 31;

impl<T> RwSpinLock<T> {
    pub const fn new(value: T) -> Self {
        RwSpinLock {
            state: AtomicU32::new(0),
            data: UnsafeCell::new(value),
        }
    }

    #[inline]
    pub fn read(&self) -> RwReadGuard<'_, T> {
        let mut spins = 0u64;
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if s & WRITER == 0
                && self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return RwReadGuard { lock: self, spins };
            }
            spin(&mut spins);
        }
    }

    #[inline]
    pub fn write(&self) -> RwWriteGuard<'_, T> {
        let mut spins = 0u64;
        while self
            .state
            .compare_exchange_weak(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            while self.state.load(Ordering::Relaxed) != 0 {
                spin(&mut spins);
            }
        }
        RwWriteGuard { lock: self, spins }
    }
}

pub struct RwReadGuard<'a, T> {
    lock: &'a RwSpinLock<T>,
    pub spins: u64,
}

impl<T> Deref for RwReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: readers exclude the writer.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for RwReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.state.fetch_sub(1, Ordering::Release);
    }
}

pub struct RwWriteGuard<'a, T> {
    lock: &'a RwSpinLock<T>,
    pub spins: u64,
}

impl<T> Deref for RwWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for RwWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // Safety: the writer is exclusive.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for RwWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.state.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spinlock_mutual_exclusion() {
        let lock = Arc::new(SpinLock::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = lock.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    *l.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), 40_000);
    }

    #[test]
    fn uncontended_lock_spins_zero() {
        let lock = SpinLock::new(());
        assert_eq!(lock.lock().spins, 0);
        assert_eq!(RwSpinLock::new(()).write().spins, 0);
    }

    #[test]
    fn rwlock_concurrent_readers() {
        let lock = Arc::new(RwSpinLock::new(5u32));
        let r1 = lock.read();
        let r2 = lock.read();
        assert_eq!(*r1 + *r2, 10);
    }

    #[test]
    fn rwlock_writer_excludes() {
        let lock = Arc::new(RwSpinLock::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = lock.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    *l.write() += 1;
                    let _r = l.read();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.read(), 20_000);
    }

    #[test]
    fn guard_releases_on_drop() {
        let lock = SpinLock::new(1);
        {
            let _g = lock.lock();
        }
        // Would deadlock if the guard leaked the lock.
        assert_eq!(*lock.lock(), 1);
    }
}
