//! Pins the calling thread — and the threads it spawns while pinned,
//! which inherit the mask — to one CPU.
//!
//! Two workloads need this to be measurements at all on the 2-vCPU
//! reference box, where thread placement is a per-process coin flip
//! (and the first run after an idle spell usually lands everything on
//! one core):
//!
//! * `wide_resume` spawns two splice threads per resume. Both on the
//!   driver's core reads p50 ≈ 42 µs, one remote ≈ 68 µs, both remote
//!   ≈ 78 µs (a cross-vCPU wake-up costs a VM exit); back-to-back runs of
//!   one binary read 42, 71, 77, 68, 78 … µs. Pinned, every run reads
//!   42.5 ± 0.3 µs, and what is left is what the workload is about: the
//!   cost of dispatching and joining the pool's workers.
//! * `ull_batch_2t`'s two drivers sometimes start — and for a second or
//!   more stay — on the same core: 0.89 M ops/s with an uncontended
//!   p50 instead of 1.28 M ops/s contended. One CPU per driver removes
//!   the case.

/// `cpu_set_t` of glibc: 1024 CPUs.
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// While alive, the calling thread is pinned to one CPU; dropping it
/// restores the previous mask.
#[derive(Debug)]
pub struct Pinned {
    previous: [u64; WORDS],
    /// The CPU pinned to.
    pub cpu: usize,
}

impl Pinned {
    /// Pins the calling thread to the `n`-th CPU (counting from the
    /// lowest, wrapping) its affinity mask allows. `None` where the
    /// platform has no such call or it fails; the run then proceeds
    /// unpinned and says so.
    #[cfg(target_os = "linux")]
    pub fn nth_allowed_cpu(n: usize) -> Option<Self> {
        let mut previous = [0u64; WORDS];
        // SAFETY: `previous` is a live, writable buffer of exactly the
        // byte length passed; pid 0 names the calling thread.
        let rc = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&previous), previous.as_mut_ptr())
        };
        if rc != 0 {
            return None;
        }
        let allowed: Vec<usize> = (0..WORDS * 64)
            .filter(|cpu| previous[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect();
        let cpu = *allowed.get(n % allowed.len().max(1))?;
        let mut only = [0u64; WORDS];
        only[cpu / 64] = 1 << (cpu % 64);
        set(&only).then_some(Self { previous, cpu })
    }

    /// Pinning is unavailable off Linux.
    #[cfg(not(target_os = "linux"))]
    pub fn nth_allowed_cpu(_n: usize) -> Option<Self> {
        None
    }
}

#[cfg(target_os = "linux")]
fn set(mask: &[u64; WORDS]) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // the call only reads it. pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // A failed restore leaves the thread pinned: slower for whatever
        // runs next, never wrong — and `Drop` must not panic.
        #[cfg(target_os = "linux")]
        set(&self.previous);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn allowed() -> [u64; WORDS] {
        let mut mask = [0u64; WORDS];
        // SAFETY: as in `nth_allowed_cpu`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert_eq!(rc, 0);
        mask
    }

    #[test]
    fn pin_narrows_to_one_cpu_and_drop_restores() {
        // Own thread: the mask is per thread, other tests must not see it.
        std::thread::spawn(|| {
            let before = allowed();
            let cpus = before.iter().map(|w| w.count_ones()).sum::<u32>() as usize;
            let pinned = Pinned::nth_allowed_cpu(0).expect("pinning works on Linux");
            let during = allowed();
            assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_ne!(during[pinned.cpu / 64] & (1 << (pinned.cpu % 64)), 0);
            // Spawned threads inherit the pinned mask.
            let inherited = std::thread::spawn(allowed).join().expect("joins");
            assert_eq!(inherited, during);
            drop(pinned);
            assert_eq!(allowed(), before);
            // Distinct indices give distinct CPUs while there are any,
            // then wrap.
            let first = Pinned::nth_allowed_cpu(0).expect("pins").cpu;
            let wrapped = Pinned::nth_allowed_cpu(cpus).expect("pins").cpu;
            assert_eq!(first, wrapped);
            if cpus > 1 {
                assert_ne!(Pinned::nth_allowed_cpu(1).expect("pins").cpu, first);
            }
        })
        .join()
        .expect("test thread joins");
    }
}
