//! CPU affinity for the served measurements.
//!
//! A served command is three thread hand-offs (client → reactor → worker →
//! reactor → client) with one thread runnable at a time. Left alone, the
//! guest's scheduler either keeps those threads on one core, where a
//! hand-off is a context switch (~3 µs), or spreads them over two, where it
//! is a wake-up of an idle virtual CPU (~40 µs on this host), and which it
//! does is sticky for minutes: serve-churn read `cmd_p50_us` 23 in one sweep
//! and 135 in the next, serve-steady 10 k `cmds_per_s` where it reads 39 k
//! on one core. Neither number says anything about the server. So the
//! threads of a served measurement get as many cores as there are
//! connections ([`crate::served::conns`]), and the rest of the machine is
//! left to the operating system.
//!
//! The calls go to the C library the standard library already links; no
//! crate is added. Anywhere but Linux, and wherever the calls fail, the
//! measurement runs unpinned and says so.

/// Words in the CPU mask: room for 1024 CPUs, the kernel's default limit.
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<[u64; WORDS]> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &[u64; WORDS]) -> bool {
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<[u64; WORDS]> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &[u64; WORDS]) -> bool {
    false
}

/// The last `n` CPUs of `mask` (CPU 0 is where interrupts and housekeeping
/// usually land).
fn last(mask: &[u64; WORDS], n: usize) -> [u64; WORDS] {
    let mut out = [0u64; WORDS];
    let mut left = n;
    for cpu in (0..WORDS * 64).rev() {
        if left > 0 && mask[cpu / 64] >> (cpu % 64) & 1 == 1 {
            out[cpu / 64] |= 1 << (cpu % 64);
            left -= 1;
        }
    }
    out
}

/// The calling thread confined to a few of its CPUs until dropped. Threads
/// it spawns meanwhile inherit the confinement and keep it.
pub struct Pinned {
    before: [u64; WORDS],
}

impl Pinned {
    /// Confines the calling thread to the last `n` CPUs it may run on.
    /// `None` when that cannot be done.
    pub fn to_last(n: usize) -> Option<Pinned> {
        let before = get()?;
        set(&last(&before, n.max(1))).then_some(Pinned { before })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set(&self.before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_picks_the_highest_allowed_cpus() {
        let mut mask = [0u64; WORDS];
        mask[0] = 0b1011;
        mask[1] = 0b1;
        assert_eq!(last(&mask, 1)[1], 1);
        assert_eq!(last(&mask, 1)[0], 0);
        let two = last(&mask, 2);
        assert_eq!((two[0], two[1]), (0b1000, 1));
        assert_eq!(last(&mask, 9), mask, "no more than there are");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_confines_spawned_threads_and_is_undone_on_drop() {
        let before = get().expect("sched_getaffinity");
        {
            let _pin = Pinned::to_last(1).expect("pin");
            let inside = std::thread::spawn(get).join().unwrap().unwrap();
            assert_eq!(inside.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(inside, last(&before, 1));
        }
        assert_eq!(get().unwrap(), before);
    }
}
