//! Where the threads of a socket workload run, and keeping those cores awake.
//!
//! The benchmark runs on a few virtual cores of a shared host, and two
//! things the program has no part in used to decide a socket workload's
//! median latency:
//!
//! * **Placement.** A request that wakes a sleeping shard thread on the
//!   generator's own core is answered in 13 µs (the wake is a function
//!   call away); on the other core it takes an inter-processor interrupt
//!   and 27–40 µs. Which one a run gets is the scheduler's history, and
//!   runs minutes apart read 14 µs and 40 µs for the same code.
//! * **Halting.** A guest core with nothing to run halts, and what it costs
//!   to wake it — the hypervisor polls for a while before it gives the core
//!   away, and adapts how long from the wake-ups it has seen — is the
//!   host's state.
//!
//! [`Placement::fix`] takes both away. The calling thread (the generator)
//! is pinned to the first core this process may use. The system under test
//! gets the remaining cores, one each and round robin when there are fewer:
//! the other threads of this process share one, and every given child
//! process gets one for all its threads. On each of those cores a thread
//! spinning at `SCHED_IDLE` keeps the core from halting. A thread that
//! becomes runnable preempts the spinner at once, and the spinner gets CPU
//! only when nothing else wants it, so it is not counted against the cores
//! the generator and the shards need. Every wake is then the same thing: an
//! interrupt to a running core and a switch away from the spinner. That
//! switch is charged to the woken thread, so CPU per verdict reads higher
//! than on an idle core (by about 0.9 µs a wake in process, 4 µs across
//! processes) — and the same from run to run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const SCHED_IDLE: i32 = 5;
/// Room for 1024 cores, the kernel's default `cpu_set_t`.
type CpuSet = [u64; 16];

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn gettid() -> i32;
}

fn allowed() -> CpuSet {
    let mut set = [0; 16];
    // SAFETY: `set` is as large as the size passed and lives through the call.
    unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    set
}

/// Pins thread `tid` (0: the calling thread) to `set`; false if refused.
fn pin(tid: i32, set: &CpuSet) -> bool {
    // SAFETY: `set` is as large as the size passed and lives through the call.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set) == 0 }
}

fn cores_of(set: &CpuSet) -> Vec<usize> {
    (0..set.len() * 64)
        .filter(|c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

fn set_of(cores: &[usize]) -> CpuSet {
    let mut set = [0; 16];
    for c in cores {
        set[c / 64] |= 1 << (c % 64);
    }
    set
}

/// Pins every thread of `pid` but the calling one to `set`.
fn pin_others(pid: u32, set: &CpuSet) {
    // SAFETY: no arguments, no memory touched.
    let me = unsafe { gettid() };
    for tid in crate::procfs::task_ids(pid) {
        if tid as i32 != me {
            pin(tid as i32, set);
        }
    }
}

/// The fixed placement; dropping it stops the spinners and gives the
/// threads of this process their cores back.
pub struct Placement {
    before: CpuSet,
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl Placement {
    /// See the module text. `children` are the process ids of the system
    /// under test when it runs outside this process. With a single core
    /// there is nothing to separate and nothing is changed.
    pub fn fix(children: &[u32]) -> Placement {
        let before = allowed();
        let cores = cores_of(&before);
        let mut placement = Placement {
            before,
            stop: Arc::new(AtomicBool::new(false)),
            spinners: Vec::new(),
        };
        let Some((&generator, system)) = cores.split_first().filter(|(_, rest)| !rest.is_empty())
        else {
            return placement;
        };
        let system = &system[..system.len().min(1 + children.len())];
        let processes = [std::process::id()]
            .into_iter()
            .chain(children.iter().copied());
        for (i, pid) in processes.enumerate() {
            pin_others(pid, &set_of(&[system[i % system.len()]]));
        }
        pin(0, &set_of(&[generator]));
        for &core in system {
            let stop = Arc::clone(&placement.stop);
            let spinner = std::thread::Builder::new()
                .name(format!("keep-awake-{core}"))
                .spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // A spinner that cannot lower its own policy or reach
                    // its core exits instead of competing with the system.
                    // SAFETY: pid 0 is the calling thread and `param`
                    // outlives the call.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0
                        || !pin(0, &set_of(&[core]))
                    {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                });
            placement.spinners.extend(spinner);
        }
        placement
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.spinners.drain(..) {
            let _ = t.join();
        }
        pin_others(std::process::id(), &self.before);
        pin(0, &self.before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_sets_round_trip() {
        let set = set_of(&[0, 3, 64, 1023]);
        assert_eq!(cores_of(&set), vec![0, 3, 64, 1023]);
        assert_eq!((set[0], set[1], set[15]), (0b1001, 1, 1 << 63));
    }

    #[test]
    fn placement_pins_the_caller_and_restores_it() {
        // On a thread of its own, so that the test's thread is "the generator".
        std::thread::spawn(|| {
            let before = cores_of(&allowed());
            let placement = Placement::fix(&[]);
            if before.len() > 1 {
                assert_eq!(cores_of(&allowed()), vec![before[0]]);
                assert_eq!(placement.spinners.len(), 1);
            }
            drop(placement);
            assert_eq!(cores_of(&allowed()), before);
        })
        .join()
        .unwrap();
    }
}
