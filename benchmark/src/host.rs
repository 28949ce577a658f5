//! What the benchmark asks of the host: one CPU to stay on, process CPU time,
//! peak resident memory, hypervisor steal, and a reference kernel that uses
//! no program code so a moved host can be told from a moved program.

use std::ffi::c_long;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    seconds: c_long,
    nanos: c_long,
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// CPU it is running on; returns that CPU, or `None` when the host refused.
///
/// A closed loop of one client and one worker has one runnable thread at a
/// time.  Left to the scheduler the pair sometimes shares a core (a hand-off
/// is a context switch) and sometimes sits on two (a hand-off is an IPI to a
/// halted virtual CPU, through the hypervisor): on this host the same binary
/// then serves 85k or 14k hits per second, and which one is decided per run.
/// One core makes it the first, every run.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads thread state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `mask` is 128 readable bytes and that size is what is passed;
    // pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (status == 0).then_some(cpu)
}

/// On-CPU nanoseconds of every thread of this process, from
/// `CLOCK_PROCESS_CPUTIME_ID`.
///
/// `/proc/self/task/*/schedstat` would do for the service workloads, whose
/// threads switch every few microseconds, but a thread that runs alone has its
/// run time posted there once per scheduler tick only: with 4 ms ticks the CPU
/// of a 115 ms `cold_solve` slice came out as 111.99 or 115.97 ms and nothing
/// in between.  The clock adds the running thread's time since the last tick.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec { seconds: 0, nanos: 0 };
    // SAFETY: `now` is a live, writable `timespec` (two C longs on 64-bit
    // Linux, as declared) and the call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    if status == 0 {
        now.seconds as u64 * 1_000_000_000 + now.nanos as u64
    } else {
        0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// `(steal, total)` jiffies of the whole machine from the `cpu` line of
/// `/proc/stat`.
fn machine_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted inside user/nice.
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Measures the share of machine time the hypervisor took away between
/// construction and [`StealMeter::fraction`].
pub struct StealMeter {
    start: (u64, u64),
}

impl StealMeter {
    /// Starts measuring now.
    pub fn start() -> StealMeter {
        StealMeter { start: machine_jiffies() }
    }

    /// Steal jiffies over total jiffies since [`StealMeter::start`].
    pub fn fraction(&self) -> f64 {
        let (steal, total) = machine_jiffies();
        let elapsed = total.saturating_sub(self.start.1);
        if elapsed == 0 {
            0.0
        } else {
            steal.saturating_sub(self.start.0) as f64 / elapsed as f64
        }
    }
}

/// Slices of the reference kernel run before and again after a workload.
const CALIB_SLICES: usize = 24;

/// One slice of the reference kernel: a fixed integer-mixing walk over a
/// 256 KiB table (L2-resident), about 4 ms of work.  Pure Rust, no program
/// code, no allocation after the first call.
fn calib_slice(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..1_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & mask;
        table[slot] = table[slot].wrapping_add(x).rotate_left(9);
        x = x.wrapping_add(table[slot]);
    }
    x
}

/// Runs the reference kernel and appends each slice's milliseconds to `out`.
pub fn calibrate(out: &mut Vec<f64>) {
    let mut table = vec![1u64; 32 * 1024];
    for _ in 0..CALIB_SLICES {
        let start = Instant::now();
        black_box(calib_slice(black_box(&mut table)));
        out.push(start.elapsed().as_secs_f64() * 1e3);
    }
}
