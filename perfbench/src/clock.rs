//! On-CPU time of the calling thread, the clock every host time of the
//! benchmark is read from.
//!
//! The benchmark runs on a few shared vCPUs. A wall-clock reading of a step
//! also counts the time the thread sat preempted or its vCPU was stolen by
//! another tenant; the thread's own CPU time (`CLOCK_THREAD_CPUTIME_ID`,
//! the kernel's `sum_exec_runtime`) leaves both out. It still counts
//! slowdowns while the thread runs, such as a neighbour's cache and memory
//! traffic, which the host-speed gauge (`gauge.rs`) cancels instead. On an
//! idle machine the two clocks agree.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads thread CPU time through 64-bit Linux clock_gettime");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds the calling thread has run so far.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` and the clock id is a
    // constant every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f`; returns its result and the CPU seconds the thread spent in it.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = thread_cpu_s();
    let value = f();
    (value, thread_cpu_s() - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    #[test]
    fn sleeping_costs_no_cpu_time() {
        let ((), cpu) = cpu_timed(|| std::thread::sleep(Duration::from_millis(30)));
        assert!(cpu < 0.01, "{cpu}");
    }

    #[test]
    fn spinning_costs_at_most_its_wall_time() {
        let wall = Instant::now();
        let (_, cpu) = cpu_timed(|| {
            let mut x = 0u64;
            while wall.elapsed() < Duration::from_millis(30) {
                x = black_box(x.wrapping_add(1));
            }
            x
        });
        // The thread may be preempted for part of the spin, never more.
        assert!(
            cpu > 0.0 && cpu <= wall.elapsed().as_secs_f64() + 1e-3,
            "{cpu}"
        );
    }
}
