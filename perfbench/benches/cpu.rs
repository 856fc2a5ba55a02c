//! The clock the gated sweep timings use: CPU time of the calling thread,
//! scaled by the CPU's current speed (see `speed`).
//!
//! Every sweep workload runs its trials on the calling thread (one worker,
//! no pool). Its wall time also counts the time the thread sat runnable
//! while other processes, or the hypervisor, held the CPU, and on a shared
//! host that time comes and goes with the neighbours' load.
//! `CLOCK_THREAD_CPUTIME_ID` counts only the time the thread itself ran, in
//! user and kernel mode (store appends and lease writes included); on a
//! guest kernel with paravirtual steal accounting, time stolen by the host
//! is left out too. What it does not count is time the thread slept or
//! blocked, so the wall-clock figures are printed beside every rate.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

/// `struct timespec` on Linux targets whose `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Seconds of CPU time the calling thread has used so far.
pub fn thread_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` and the clock id is valid
    // on every Linux kernel; the call writes nothing else.
    // lint:allow(unsafe-code): reading the thread CPU clock needs the libc call; std exposes no CPU clock
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and thread-CPU time since `start`.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: thread_cpu_seconds(),
        }
    }

    /// `(wall seconds, CPU seconds)` since the start.
    pub fn elapsed(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            thread_cpu_seconds() - self.cpu,
        )
    }
}

/// `reference_rate()` on the machine this benchmark was sized on (a
/// 2-vCPU Intel Xeon VM), in the slower of its two usual states.
const REFERENCE_RATE: f64 = 3.0e6;

/// How fast the CPU runs the calling thread right now, against the
/// machine the benchmark was sized on: `reference_rate() / REFERENCE_RATE`.
///
/// On a shared host the CPU itself runs faster or slower with the load
/// beside it (a neighbour on the same physical core takes execution units,
/// caches and branch predictors), and thread CPU time counts those slower
/// cycles: the same trial cost up to 1.6× more CPU time from one minute to
/// the next. Dividing a CPU-time rate by this factor gives the rate on the
/// reference machine. The reference loop formats integers, floats and
/// booleans into JSON-like strings: dynamic dispatch through `core::fmt`,
/// data-dependent branches and small allocations, the mix of work a trial
/// is made of. Measured right after each sweep, it moved with the sweeps'
/// CPU-time rate (about 0.8 of their swing, in logs). It is this
/// benchmark's own code and the standard library's, so no change to the
/// program can move it.
pub fn speed() -> f64 {
    reference_rate() / REFERENCE_RATE
}

/// Formatting calls per CPU second of the fixed reference loop.
fn reference_rate() -> f64 {
    const CALLS: u64 = 6_000;
    let started = Stopwatch::start();
    let mut bytes = 0usize;
    for i in 0..CALLS {
        let line = format!(
            "{{\"seed\":{i},\"rounds\":{},\"rate\":{:.6},\"ok\":{}}}",
            i * 37,
            i as f64 / 7.0,
            i % 3 == 0
        );
        bytes += line.len();
    }
    let (_, cpu) = started.elapsed();
    std::hint::black_box(bytes);
    CALLS as f64 / cpu
}
