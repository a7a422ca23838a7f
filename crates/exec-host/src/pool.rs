//! Persistent gang worker pool with a low-overhead fork-join barrier.
//!
//! A *launch* runs a kernel body over `gangs` contiguous z-slabs of
//! `[0, n)`. The slab map is a pure function of `(n, gangs, g)` — see
//! [`slab_bounds`] — so results are bitwise independent of which worker
//! executes which slab, and a launch over 16 gangs on a 2-core machine
//! produces exactly the bits of a sequential sweep.
//!
//! ## Why not `std::thread::scope` per launch
//!
//! The propagator drivers issue one launch per kernel per time step; a
//! production run is millions of launches. Spawning and joining OS threads
//! for each one costs hundreds of microseconds — comparable to the kernel
//! body itself on small and medium grids. The pool parks its workers on a
//! condvar between launches; a launch bumps a generation counter, wakes
//! them, and they claim slabs from an atomic counter until none remain.
//! The steady-state cost of a launch is one mutex lock, one `notify_all`,
//! and two atomics per slab — and **zero heap allocation**, which is what
//! the counting-allocator test in `rtm-core` pins down.
//!
//! ## Concurrency discipline
//!
//! One launch runs at a time per pool. Concurrent callers (e.g. shots
//! running in parallel on `mpi-sim` ranks, each issuing gang launches) do
//! not queue: a caller that finds the pool busy simply executes its own
//! slabs inline, sequentially, in slab order — the deterministic slab map
//! makes that fall-back bit-identical, and shot-level threads already own
//! the cores. The same inline path serves nested launches and single-gang
//! launches.

use std::cell::UnsafeCell;

/// Synchronization primitives, swappable for `loom`'s model-checked
/// versions: build with `RUSTFLAGS="--cfg loom"` and the pool's barrier
/// protocol runs under bounded schedule exploration (see
/// `tests/loom_pool.rs`) instead of real threads.
#[cfg(not(loom))]
mod sys {
    pub use std::sync::atomic::{AtomicUsize, Ordering};
    pub use std::sync::{Condvar, Mutex};
    pub use std::thread;

    /// Fork-join spin budget before parking on the condvar.
    pub const SPIN_LIMIT: u32 = 1 << 14;
}

#[cfg(loom)]
mod sys {
    pub use loom::sync::atomic::{AtomicUsize, Ordering};
    pub use loom::sync::{Condvar, Mutex};
    pub use loom::thread;

    /// Spinning never makes progress under the serialized model scheduler
    /// (no other thread runs while we spin), so park immediately.
    pub const SPIN_LIMIT: u32 = 0;
}

use sys::{thread, AtomicUsize, Condvar, Mutex, Ordering, SPIN_LIMIT};

#[cfg(not(loom))]
use std::sync::OnceLock;

// Wall-clock profiling hooks. They read only the calling thread's capture,
// never branch the schedule, and are inert in the loom model (no thread
// there starts a capture).
use crate::prof;

type JoinHandle = thread::JoinHandle<()>;

/// Bounds `(z0, z1)` of slab `g` when `[0, n)` is split over `gangs`
/// contiguous chunks, remainder spread over the leading gangs — the same
/// partition the sequential reference loop produces.
#[inline]
pub fn slab_bounds(n: usize, gangs: usize, g: usize) -> (usize, usize) {
    debug_assert!(g < gangs);
    let base = n / gangs;
    let rem = n % gangs;
    let z0 = g * base + g.min(rem);
    let z1 = z0 + base + usize::from(g < rem);
    (z0, z1)
}

/// The body of one launch: `(gang index, z0, z1)`.
type Body<'a> = &'a (dyn Fn(usize, usize, usize) + Sync);

/// Type-erased job descriptor published to the workers for one launch.
#[derive(Clone)]
struct JobDesc {
    /// Fat pointer to the launch body. Valid only between the epoch bump
    /// that publishes it and the in-flight drain that retires it; the
    /// launching caller blocks across that whole window.
    body: *const (dyn Fn(usize, usize, usize) + Sync),
    n: usize,
    gangs: usize,
    /// The launcher's profiler capture, if it has one: workers record
    /// into it while they run this job, and into nothing otherwise.
    capture: Option<prof::Launch>,
}

/// State guarded by the control mutex.
struct Ctl {
    /// Launch generation; workers run at most one claim loop per epoch.
    epoch: u64,
    /// True while a launch is published and may still hand out slabs.
    active: bool,
    /// Workers currently holding the job pointer (between copy and retire).
    in_flight: usize,
    /// Tells workers to exit (pool drop — test pools only; the global pool
    /// lives for the process).
    shutdown: bool,
}

struct Shared {
    ctl: Mutex<Ctl>,
    /// Workers park here between launches.
    work_cv: Condvar,
    /// The launching caller parks here waiting for slab completion / drain.
    done_cv: Condvar,
    /// Next slab index to claim (may overshoot `gangs`; harmless).
    claim: AtomicUsize,
    /// Slabs fully executed this epoch.
    done: AtomicUsize,
    /// Current job. Written by the caller before the epoch bump, read by
    /// workers under the control mutex only while `active`.
    job: UnsafeCell<Option<JobDesc>>,
}

// SAFETY: `job` is only written while no launch is active (enforced by the
// launch mutex + in-flight drain) and only read under the control mutex by
// workers that observed `active` for a fresh epoch.
unsafe impl Sync for Shared {}
unsafe impl Send for Shared {}

/// A persistent pool of gang workers. See the module docs for the launch
/// protocol. Obtain the process-wide instance with [`GangPool::global`];
/// dedicated instances ([`GangPool::new`]) exist for tests and benches.
pub struct GangPool {
    shared: &'static Shared,
    workers: Vec<JoinHandle>,
    /// Serializes launches; contended callers run inline.
    launch: Mutex<()>,
    /// Total launches that went through the parked-worker path.
    pooled_launches: AtomicUsize,
    /// Total launches executed inline (single gang, busy pool, no workers).
    inline_launches: AtomicUsize,
}

impl GangPool {
    /// Pool with exactly `workers` parked worker threads (the launching
    /// caller always participates as one extra executor).
    pub fn new(workers: usize) -> Self {
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            ctl: Mutex::new(Ctl {
                epoch: 0,
                active: false,
                in_flight: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            claim: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            job: UnsafeCell::new(None),
        }));
        let workers = (0..workers)
            .map(|i| {
                thread::Builder::new()
                    .name(format!("gang-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn gang worker")
            })
            .collect();
        Self {
            shared,
            workers,
            launch: Mutex::new(()),
            pooled_launches: AtomicUsize::new(0),
            inline_launches: AtomicUsize::new(0),
        }
    }

    /// The process-wide pool, created on first use with one worker per
    /// available core beyond the caller's (capped at 15 workers — the
    /// OpenACC gang clamp), so a launch of G gangs uses
    /// `min(G, cores)` threads and queues the rest through the claim
    /// counter.
    #[cfg(not(loom))]
    pub fn global() -> &'static GangPool {
        static POOL: OnceLock<GangPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            GangPool::new(cores.saturating_sub(1).min(15))
        })
    }

    /// Number of parked worker threads (excludes the launching caller).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Thread ids of the parked workers — lets tests verify that
    /// back-to-back launches reuse the same OS threads.
    #[cfg(not(loom))]
    pub fn worker_ids(&self) -> Vec<std::thread::ThreadId> {
        self.workers.iter().map(|h| h.thread().id()).collect()
    }

    /// Launches executed through the parked-worker barrier so far.
    pub fn pooled_launches(&self) -> usize {
        self.pooled_launches.load(Ordering::Relaxed)
    }

    /// Launches executed inline (single gang, contended, or worker-less).
    pub fn inline_launches(&self) -> usize {
        self.inline_launches.load(Ordering::Relaxed)
    }

    /// Run `body(g, z0, z1)` for every slab of `[0, n)` split over `gangs`.
    ///
    /// Bit-identical to the sequential loop `for g in 0..gangs { body(g,
    /// slab_bounds(..)) }` for any body that writes only state owned by its
    /// slab (the `SyncSlice` discipline). Allocation-free after the pool
    /// exists.
    pub fn run(&self, n: usize, gangs: usize, body: Body<'_>) {
        assert!(gangs > 0, "need at least one gang");
        if n == 0 {
            return;
        }
        let gangs = gangs.min(n);
        if gangs == 1 || self.workers.is_empty() {
            self.run_inline(n, gangs, body);
            return;
        }
        // One launch at a time: a busy pool means another thread's gangs own
        // the cores right now, so computing our slabs inline is both correct
        // (deterministic slab map) and the right scheduling call.
        let Ok(_guard) = self.launch.try_lock() else {
            self.run_inline(n, gangs, body);
            return;
        };
        self.pooled_launches.fetch_add(1, Ordering::Relaxed);
        let shared = self.shared;
        // SAFETY: the fat pointer is only dereferenced while this call
        // blocks; the drain below guarantees no worker retains it.
        let erased: *const (dyn Fn(usize, usize, usize) + Sync) = unsafe {
            std::mem::transmute::<Body<'_>, *const (dyn Fn(usize, usize, usize) + Sync)>(body)
        };
        shared.claim.store(0, Ordering::Relaxed);
        shared.done.store(0, Ordering::Relaxed);
        // SAFETY: no launch is active (we hold the launch mutex and the
        // previous launch drained in_flight to zero), so no worker can read
        // `job` concurrently with this write.
        unsafe {
            *shared.job.get() = Some(JobDesc {
                body: erased,
                n,
                gangs,
                capture: prof::Launch::current(),
            });
        }
        {
            let mut ctl = shared.ctl.lock().expect("pool poisoned");
            ctl.epoch += 1;
            ctl.active = true;
            shared.work_cv.notify_all();
        }
        // The caller is an executor too: claim slabs until none remain.
        loop {
            let g = shared.claim.fetch_add(1, Ordering::Relaxed);
            if g >= gangs {
                break;
            }
            let (z0, z1) = slab_bounds(n, gangs, g);
            let t_slab = prof::begin();
            body(g, z0, z1);
            prof::end(t_slab, prof::EventKind::Slab, g as u32, (z1 - z0) as u32);
            shared.done.fetch_add(1, Ordering::Release);
        }
        // Fork-join barrier: spin briefly (slabs are usually comparable in
        // cost), then park on the condvar.
        let t_barrier = prof::begin();
        let mut spins = 0u32;
        while shared.done.load(Ordering::Acquire) < gangs {
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                let mut ctl = shared.ctl.lock().expect("pool poisoned");
                while shared.done.load(Ordering::Acquire) < gangs {
                    ctl = shared.done_cv.wait(ctl).expect("pool poisoned");
                }
                break;
            }
        }
        prof::end(t_barrier, prof::EventKind::BarrierWait, gangs as u32, 0);
        // Retire the job: wait until every worker that saw this epoch has
        // dropped the pointer, then clear it. A straggler that claimed
        // nothing exits its (empty) claim loop in nanoseconds.
        {
            let mut ctl = shared.ctl.lock().expect("pool poisoned");
            ctl.active = false;
            while ctl.in_flight > 0 {
                ctl = shared.done_cv.wait(ctl).expect("pool poisoned");
            }
            // SAFETY: in_flight == 0 and active is false — no reader left.
            unsafe {
                *shared.job.get() = None;
            }
        }
    }

    /// Sequential in-caller execution with the same slab map.
    fn run_inline(&self, n: usize, gangs: usize, body: Body<'_>) {
        self.inline_launches.fetch_add(1, Ordering::Relaxed);
        for g in 0..gangs {
            let (z0, z1) = slab_bounds(n, gangs, g);
            let t_slab = prof::begin();
            body(g, z0, z1);
            prof::end(t_slab, prof::EventKind::Slab, g as u32, (z1 - z0) as u32);
        }
    }
}

impl Drop for GangPool {
    fn drop(&mut self) {
        {
            let mut ctl = self.shared.ctl.lock().expect("pool poisoned");
            ctl.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The leaked Shared stays alive; pools are few and long-lived.
    }
}

/// Parked-worker loop of worker `index` (its profiler slot is `index + 1`).
fn worker_loop(shared: &'static Shared, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let desc = {
            let mut ctl = shared.ctl.lock().expect("pool poisoned");
            loop {
                if ctl.shutdown {
                    return;
                }
                if ctl.active && ctl.epoch != seen_epoch {
                    seen_epoch = ctl.epoch;
                    ctl.in_flight += 1;
                    // SAFETY: read under the control mutex while active.
                    break unsafe { (*shared.job.get()).clone() }.expect("active launch has a job");
                }
                ctl = shared.work_cv.wait(ctl).expect("pool poisoned");
            }
        };
        // SAFETY: the caller blocks until in_flight drains, so the body
        // outlives this claim loop.
        let body: Body<'_> = unsafe { &*desc.body };
        {
            // Record into the launcher's capture (if any) for this job
            // only, starting with the wake latency since the launcher
            // published it. The guard leaves the capture before the job
            // retires, so all its events are in the capture by the time
            // the launcher returns.
            let _joined = desc.capture.as_ref().map(|c| c.join(seen_epoch, index));
            loop {
                let g = shared.claim.fetch_add(1, Ordering::Relaxed);
                if g >= desc.gangs {
                    break;
                }
                let (z0, z1) = slab_bounds(desc.n, desc.gangs, g);
                let t_slab = prof::begin();
                body(g, z0, z1);
                prof::end(t_slab, prof::EventKind::Slab, g as u32, (z1 - z0) as u32);
                if shared.done.fetch_add(1, Ordering::Release) + 1 == desc.gangs {
                    let _ctl = shared.ctl.lock().expect("pool poisoned");
                    shared.done_cv.notify_all();
                }
            }
        }
        {
            let mut ctl = shared.ctl.lock().expect("pool poisoned");
            ctl.in_flight -= 1;
            if ctl.in_flight == 0 {
                shared.done_cv.notify_all();
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn slab_bounds_partition_exactly() {
        for n in [0usize, 1, 2, 3, 7, 64, 103, 1000] {
            for gangs in [1usize, 2, 3, 7, 16] {
                if n == 0 {
                    continue;
                }
                let gangs = gangs.min(n);
                let mut z = 0usize;
                for g in 0..gangs {
                    let (z0, z1) = slab_bounds(n, gangs, g);
                    assert_eq!(z0, z, "n={n} gangs={gangs} g={g}");
                    assert!(z1 > z0);
                    z = z1;
                }
                assert_eq!(z, n);
            }
        }
    }

    #[test]
    fn covers_range_exactly_once_through_pool() {
        let pool = GangPool::new(3);
        let n = 103;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, 7, &|_, z0, z1| {
            for h in &hits[z0..z1] {
                h.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn many_back_to_back_launches() {
        let pool = GangPool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run(32, 4, &|_, z0, z1| {
                total.fetch_add(z1 - z0, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 500 * 32);
    }

    /// Back-to-back launches run on the same parked workers: no worker is
    /// spawned after construction, and every non-caller thread id observed
    /// during either launch belongs to the pool's original worker set.
    #[test]
    fn launches_reuse_the_same_workers() {
        let pool = GangPool::new(2);
        let allowed: HashSet<_> = pool.worker_ids().into_iter().collect();
        assert_eq!(pool.worker_count(), 2);
        let seen = StdMutex::new(Vec::<HashSet<std::thread::ThreadId>>::new());
        for _ in 0..2 {
            let ids = StdMutex::new(HashSet::new());
            pool.run(64, 8, &|_, _, _| {
                ids.lock().unwrap().insert(std::thread::current().id());
                // Give parked workers time to wake and claim a slab.
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            seen.lock().unwrap().push(ids.into_inner().unwrap());
        }
        let caller = std::thread::current().id();
        for ids in seen.lock().unwrap().iter() {
            for id in ids {
                assert!(
                    *id == caller || allowed.contains(id),
                    "launch ran on a thread outside the persistent pool"
                );
            }
        }
        // Still the same two workers — nothing was spawned per launch.
        assert_eq!(pool.worker_count(), 2);
        assert_eq!(
            allowed,
            pool.worker_ids().into_iter().collect::<HashSet<_>>()
        );
        assert_eq!(pool.pooled_launches(), 2);
    }

    /// A caller that finds the pool busy falls back to inline execution and
    /// still covers its range exactly.
    #[test]
    fn contended_launches_fall_back_inline() {
        let pool: &'static GangPool = Box::leak(Box::new(GangPool::new(1)));
        let sum = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        pool.run(64, 4, &|_, z0, z1| {
                            sum.fetch_add(z1 - z0, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4 * 50 * 64);
    }

    #[test]
    fn zero_rows_is_a_no_op_and_gangs_clamp() {
        let pool = GangPool::new(1);
        pool.run(0, 4, &|_, _, _| panic!("must not run"));
        let count = AtomicUsize::new(0);
        pool.run(3, 16, &|_, z0, z1| {
            assert_eq!(z1 - z0, 1);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    /// Nested launches (a body that launches again) run inline rather than
    /// deadlocking on the launch mutex.
    #[test]
    fn nested_launch_runs_inline() {
        let pool: &'static GangPool = Box::leak(Box::new(GangPool::new(1)));
        let count = AtomicUsize::new(0);
        pool.run(4, 2, &|_, _, _| {
            pool.run(4, 2, &|_, z0, z1| {
                count.fetch_add(z1 - z0, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }
}
