//! Process accounting from libc: CPU time, peak resident memory and the
//! load average. Linux only (the `timespec`/`rusage` layouts below are
//! the 64-bit Linux ones).

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals, then fourteen `long` fields of which
/// only `ru_maxrss` (the first) is read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

/// `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn getloadavg(loadavg: *mut f64, nelem: i32) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on. Returns that CPU, or `None` if
/// the affinity could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a valid, writable cpu_set_t of the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return None;
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| 64 * i + word.trailing_zeros() as usize)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid cpu_set_t of the size passed, naming a CPU
    // the thread was already allowed to run on.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (rc == 0).then_some(cpu)
}

/// User + system CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and CLOCK_PROCESS_CPUTIME_ID is a clock every Linux has.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` (same size and
    // field order as the 64-bit Linux definition) for the call's duration.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // Linux reports ru_maxrss in KiB.
    ru.ru_maxrss as f64 / 1024.0
}

/// The 1-, 5- and 15-minute load averages (zeros if unavailable).
pub fn loadavg() -> [f64; 3] {
    let mut avg = [0.0f64; 3];
    // SAFETY: `avg` holds exactly the 3 doubles the call may write.
    let n = unsafe { getloadavg(avg.as_mut_ptr(), 3) };
    if n != 3 {
        return [0.0; 3];
    }
    avg
}

/// Logical CPUs this process may run on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Wall time, in milliseconds, of a fixed integer-mixing loop that
/// touches no memory: a probe of how fast this host runs plain compute
/// right now. The host's speed drifts with its other tenants, so the
/// stamp carries this probe next to the load average.
pub fn calibration_ms() -> f64 {
    let t0 = std::time::Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    1e3 * t0.elapsed().as_secs_f64()
}
