//! The host-speed gauge: a fixed reference computation timed in a short
//! burst before a workload step and after it, so that the step's wall time
//! can be stated at a reference host speed.
//!
//! The measuring hosts are small shared virtual machines whose speed moves
//! with their neighbours' load, by a fifth from one second to the next and
//! by a third over minutes; the guest sees no steal time, and CPU time moves
//! with wall time. Ten runs of the same binary on the same input spread by
//! 10–25% (first to third quartile), and sets of ten runs a few minutes
//! apart differed in their medians by up to 30%. The two virtual cores
//! slow down largely independently (the kernel's times on the two,
//! measured at once, correlate 0.5 over one-second windows), so the gauge
//! runs on the workload's own thread, between its steps: the harness reads
//! it before and after every pass, and a workload reads it between the
//! parts of a pass (each model's sweep, each what-if step, each
//! branch-and-bound solve). Replaying a 15-minute trace of `fig7-grid` and
//! `bnb-small` passes as sets of ten 10-second runs, the spread of the
//! median pass time fell from 0.14–0.32 to 0.04–0.16 with this scaling,
//! and the ratio of consecutive sets' medians from 0.73–1.25 to 0.93–1.09.
//!
//! The kernel lives here, not in a library crate, so no change to the code
//! under test can move it. Its shape follows the scheduler's: random task
//! graphs, longest-path priorities and a heap-driven list schedule onto a
//! few machines — small working sets, data-dependent branches and
//! short-lived allocations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::metrics::quantile;
use crate::{splitmix64, Pass};

/// The kernel time (s) that defines the reference host speed: about the
/// median of one call on the 2-vCPU Intel Xeon virtual machine the
/// benchmark was built on. Only its constancy matters; a step's time at
/// the reference speed is its wall time × this / the mean of the gauge
/// readings on either side of it.
pub const REFERENCE_KERNEL_S: f64 = 0.5e-3;

/// Kernel calls per reading; a reading is their median time.
const BURST: usize = 24;

/// Tasks per graph.
const TASKS: usize = 1_024;

/// Machines of the list schedule.
const MACHINES: usize = 3;

/// Graphs per kernel call.
const GRAPHS: u64 = 2;

/// The makespan of one random graph's list schedule.
fn schedule(graph: u64) -> u64 {
    let draw = |i: usize, k: u64| splitmix64((graph << 40) ^ ((i as u64) << 4) ^ k);
    let duration: Vec<u64> = (0..TASKS).map(|i| 1 + draw(i, 0) % 97).collect();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); TASKS];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); TASKS];
    for (i, preds_i) in preds.iter_mut().enumerate().skip(1) {
        for k in 0..draw(i, 1) % 4 {
            let p = (draw(i, 2 + k) % i as u64) as usize;
            if !preds_i.contains(&p) {
                preds_i.push(p);
                succs[p].push(i);
            }
        }
    }
    // Longest path to a sink: the list schedule's priority.
    let mut tail = vec![0u64; TASKS];
    for i in (0..TASKS).rev() {
        tail[i] = duration[i] + succs[i].iter().map(|&s| tail[s]).max().unwrap_or(0);
    }
    let mut waiting: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut earliest = vec![0u64; TASKS];
    let mut ready: BinaryHeap<(u64, Reverse<usize>)> = (0..TASKS)
        .filter(|&i| waiting[i] == 0)
        .map(|i| (tail[i], Reverse(i)))
        .collect();
    let mut free = [0u64; MACHINES];
    let mut makespan = 0;
    while let Some((_, Reverse(task))) = ready.pop() {
        let m = (0..MACHINES).min_by_key(|&m| free[m]).unwrap_or(0);
        let end = free[m].max(earliest[task]) + duration[task];
        free[m] = end;
        makespan = makespan.max(end);
        for &s in &succs[task] {
            earliest[s] = earliest[s].max(end);
            waiting[s] -= 1;
            if waiting[s] == 0 {
                ready.push((tail[s], Reverse(s)));
            }
        }
    }
    makespan
}

/// Runs the reference computation once: [`GRAPHS`] list schedules.
/// Returns a checksum of their makespans, the same on every call.
#[must_use]
pub fn kernel() -> u64 {
    (0..GRAPHS)
        .map(schedule)
        .fold(0, |acc, m| acc.rotate_left(7) ^ m)
}

/// A `cpu_set_t`: one bit per core, 1024 cores.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's set of allowed cores, or `None` where unavailable.
fn allowed_cores() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut set = CpuSet::default();
        // SAFETY: `sched_getaffinity` takes a `pid_t` (i32), the size of a
        // set and a pointer to it, and writes at most that many bytes
        // through the pointer; it points to `set`, a live, writable array
        // of exactly that size. Pid 0 names the calling thread.
        let status = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
        (status == 0).then_some(set)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Sets the calling thread's allowed cores; whether that succeeded.
fn allow_cores(set: &CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `sched_setaffinity` takes a `pid_t` (i32), the size of a
        // set and a pointer to it, and reads that many bytes through the
        // pointer; it points to `set`, a live array of exactly that size.
        // Pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(set), set.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = set;
        false
    }
}

/// Confinement of the calling thread, and of every thread and process it
/// starts meanwhile, to the core it was running on, so that the gauge's
/// readings and the work they scale come from the same core. Dropping it
/// allows the thread every core it was allowed before.
#[derive(Debug)]
pub struct CorePin {
    before: CpuSet,
}

impl CorePin {
    /// Pins the calling thread to its current core; `None` (and no change)
    /// where that is not possible.
    #[must_use]
    pub fn current_core() -> Option<CorePin> {
        let before = allowed_cores()?;
        #[cfg(target_os = "linux")]
        // SAFETY: `sched_getcpu` takes no arguments and only returns the
        // number of the calling thread's core, or -1.
        let cpu = unsafe { sched_getcpu() };
        #[cfg(not(target_os = "linux"))]
        let cpu = -1;
        let cpu = usize::try_from(cpu).ok()?;
        let mut only = CpuSet::default();
        *only.get_mut(cpu / 64)? = 1 << (cpu % 64);
        allow_cores(&only).then_some(CorePin { before })
    }
}

impl Drop for CorePin {
    fn drop(&mut self) {
        let _ = allow_cores(&self.before);
    }
}

/// Times one burst of kernel calls and returns their median time (s).
fn burst() -> f64 {
    let calls: Vec<f64> = (0..BURST)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(kernel());
            t.elapsed().as_secs_f64()
        })
        .collect();
    quantile(&calls, 0.5)
}

/// The factor that states a step's time at the reference speed, given the
/// readings (s) before and after it.
fn to_reference(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_KERNEL_S / (before + after)
}

/// The gauge of one run: the last reading, and where the step being timed
/// began.
#[derive(Debug, Clone)]
pub struct Gauge {
    last: f64,
    since: Instant,
    /// Operations of the current pass already stated at the reference
    /// speed.
    ops_done: usize,
    /// Every reading so far (s).
    pub readings: Vec<f64>,
}

impl Gauge {
    /// Takes the first reading; the first step begins after it.
    #[must_use]
    pub fn start() -> Gauge {
        let last = burst();
        Gauge {
            last,
            since: Instant::now(),
            ops_done: 0,
            readings: vec![last],
        }
    }

    /// Begins timing a new pass (or set-up) now.
    pub fn begin(&mut self) {
        self.since = Instant::now();
        self.ops_done = 0;
    }

    /// Ends the current step of `pass` and takes a reading: adds the
    /// step's wall time to `pass.seconds`, and that time and the latencies
    /// of the operations the step added, stated at the reference speed, to
    /// `pass.reference_seconds` and `pass.reference_op_seconds`. The next
    /// step begins after the reading.
    pub fn split(&mut self, pass: &mut Pass) {
        let wall = self.since.elapsed().as_secs_f64();
        let reading = burst();
        let k = to_reference(self.last, reading);
        pass.seconds += wall;
        pass.reference_seconds += wall * k;
        let ops = pass.op_seconds.get(self.ops_done..).unwrap_or_default();
        pass.reference_op_seconds.extend(ops.iter().map(|s| s * k));
        self.ops_done = pass.op_seconds.len();
        self.last = reading;
        self.readings.push(reading);
        self.since = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_not_trivial() {
        assert_eq!(kernel(), kernel());
        assert!((0..GRAPHS).all(|g| schedule(g) > 1_000));
    }

    #[test]
    fn a_split_states_its_step_and_new_operations_at_reference_speed() {
        // Readings of twice the reference time on both sides halve a step.
        assert_eq!(
            to_reference(2.0 * REFERENCE_KERNEL_S, 2.0 * REFERENCE_KERNEL_S),
            0.5
        );
        let mut gauge = Gauge::start();
        gauge.last = 2.0 * REFERENCE_KERNEL_S;
        let mut pass = Pass {
            op_seconds: vec![0.25],
            ..Pass::default()
        };
        gauge.split(&mut pass);
        let k = to_reference(2.0 * REFERENCE_KERNEL_S, gauge.readings[1]);
        assert!(k > 0.0 && k.is_finite());
        assert_eq!(pass.reference_seconds, pass.seconds * k);
        assert_eq!(pass.reference_op_seconds, vec![0.25 * k]);
        // The next split scales only the operations added since.
        pass.op_seconds.push(0.5);
        gauge.split(&mut pass);
        assert_eq!(pass.reference_op_seconds.len(), 2);
        assert_eq!(gauge.readings.len(), 3);
        // A new pass starts counting its operations afresh.
        gauge.begin();
        let mut next = Pass {
            op_seconds: vec![1.0],
            ..Pass::default()
        };
        gauge.split(&mut next);
        assert_eq!(next.reference_op_seconds.len(), 1);
    }
}
