//! Wall-clock host-engine profiler, scoped to one capture.
//!
//! The simulated-device stack (`accel-sim`/`acc-obs`) times everything in
//! *modeled* seconds; this module records what the real gang engine does
//! — sweeps, slab claims, barrier waits, worker wake latency, tile
//! batches, RTM phases — with `Instant` timestamps, at a cost low enough
//! to leave compiled in.
//!
//! ## Capture scoping
//!
//! There is no process-wide switch. A run is profiled by wrapping it in a
//! [`Capture`]:
//!
//! ```
//! let cap = exec_host::prof::Capture::start();
//! // ... run the workload on this thread ...
//! let profile: exec_host::HostProfile = cap.finish();
//! ```
//!
//! A capture records the thread that started it plus the slabs of every
//! pool launch that thread makes: `GangPool::run` hands the launcher's
//! capture to the workers inside the job descriptor, and a worker records
//! into that capture only while it runs that job. Nothing else lands in
//! it — not other threads' launches, not other captures running at the
//! same time through the same pool. The capture owns its per-thread event
//! buffers, and slot numbers are fixed: the launcher is slot 0 and pool
//! worker `i` is slot `i + 1`, however many launches or other captures
//! come between. Two captures never share state, and slots never run out
//! across the life of the process. (A capture that launches on two
//! different pools merges their same-index workers into one slot; the
//! engine itself only launches on the global pool.)
//!
//! * **No capture** on the current thread (the default), every record
//!   site is one thread-local load and a predictable branch — the
//!   overhead budget test in `bench_host --overhead` holds this below 1%
//!   of a modeling run.
//! * **Capturing**, each span costs two `Instant::now()` calls and one
//!   push onto the thread's own buffer (an uncontended lock; no
//!   allocation after the buffer exists); the same budget test holds the
//!   end-to-end cost below 5%.
//! * **Compiled out**: building this crate with
//!   `--no-default-features` (dropping the `measure` feature) turns every
//!   record site into a literal no-op, and a capture returns an empty
//!   [`HostProfile`].
//!
//! A thread's buffer holds [`RING_CAP`] events; later events are dropped
//! and counted, never waited for. Workers with an index of
//! [`MAX_SLOTS`] − 1 or more drop their events and count them.
//! Timestamps are nanoseconds since the capture started, so events from
//! different threads share one monotonic timebase (`Instant` is monotonic
//! across threads on every platform the pool supports).
//!
//! Recording **never** touches the physics: no field, no RNG, no
//! scheduling decision reads profiler state, so captured and uncaptured
//! runs are bitwise identical (pinned by `integration_host_prof`).

use std::marker::PhantomData;
use std::time::Instant;

/// What one recorded event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// One gang launch (`par_slabs`) end to end, on the launching thread.
    /// `arg0` = gangs, `arg1` = rows `n`.
    Sweep,
    /// One slab execution. `arg0` = gang index, `arg1` = rows in slab.
    Slab,
    /// The launching caller waiting on the fork-join barrier (claim loop
    /// exhausted → all slabs done + job retired). `arg0` = gangs.
    BarrierWait,
    /// Worker wake latency: epoch publish (caller clock) → job pickup
    /// (worker clock). `arg0` = low 32 bits of the pool epoch.
    Wake,
    /// One x-tile batch over a row interval (instant event).
    /// `arg0` = tiles in the batch, `arg1` = tile width.
    TileBatch,
    /// One RTM driver phase. `arg0` = [`PHASE_FORWARD`] /
    /// [`PHASE_BACKWARD`] / [`PHASE_IMAGING`].
    Phase,
}

/// Phase id for the forward-modeling loop.
pub const PHASE_FORWARD: u32 = 0;
/// Phase id for the backward (receiver back-propagation) loop.
pub const PHASE_BACKWARD: u32 = 1;
/// Phase id for the imaging-condition application (nested inside
/// backward; subtract to get exclusive backward time).
pub const PHASE_IMAGING: u32 = 2;

/// Human label of a phase id.
pub fn phase_name(id: u32) -> &'static str {
    match id {
        PHASE_FORWARD => "forward",
        PHASE_BACKWARD => "backward",
        PHASE_IMAGING => "imaging",
        _ => "phase?",
    }
}

/// One recorded interval, timestamps in ns since the capture started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Event kind.
    pub kind: EventKind,
    /// Kind-specific argument (gang index, gangs, tiles, phase id).
    pub arg0: u32,
    /// Kind-specific argument (rows, tile width).
    pub arg1: u32,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch (== start for instant events).
    pub end_ns: u64,
}

impl Event {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread slots one capture records: the launcher plus workers `0..31`;
/// higher workers drop their events (counted in
/// [`HostProfile::thread_overflow`]). The global pool's at most 15 workers
/// fit comfortably.
pub const MAX_SLOTS: usize = 32;

/// Events one thread's buffer holds before dropping (per capture).
pub const RING_CAP: usize = 1 << 15;

/// The events of one thread slot, in record order.
#[derive(Debug, Clone)]
pub struct SlotEvents {
    /// Slot index within the capture (0 = the thread that started it).
    pub slot: u32,
    /// Completed events, oldest first.
    pub events: Vec<Event>,
}

/// Everything one [`Capture`] recorded.
#[derive(Debug, Clone, Default)]
pub struct HostProfile {
    /// Per-slot event streams (slots with no events are omitted).
    pub slots: Vec<SlotEvents>,
    /// Events dropped because a thread's buffer was full.
    pub dropped: u64,
    /// Events dropped because their worker index had no slot
    /// (see [`MAX_SLOTS`]).
    pub thread_overflow: u64,
}

/// Per-slot roll-up derived from a [`HostProfile`] (dependency-free; the
/// JSON/track rendering lives in `acc-obs::wallclock`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Thread slot.
    pub slot: u32,
    /// Slabs executed.
    pub slabs: u64,
    /// Rows executed (sum of slab widths).
    pub rows: u64,
    /// Tiles executed (sum of tile-batch counts).
    pub tiles: u64,
    /// Time inside slab bodies, ns.
    pub busy_ns: u64,
    /// Time the launching caller spent waiting on the join barrier, ns.
    pub barrier_wait_ns: u64,
    /// Wake latency total (publish → pickup), ns.
    pub wake_ns: u64,
    /// Sweeps launched from this thread.
    pub sweeps: u64,
}

impl HostProfile {
    /// Total completed events.
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.events.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-slot totals.
    pub fn worker_summaries(&self) -> Vec<WorkerSummary> {
        self.slots
            .iter()
            .map(|s| {
                let mut w = WorkerSummary {
                    slot: s.slot,
                    ..Default::default()
                };
                for e in &s.events {
                    match e.kind {
                        EventKind::Slab => {
                            w.slabs += 1;
                            w.rows += u64::from(e.arg1);
                            w.busy_ns += e.dur_ns();
                        }
                        EventKind::BarrierWait => w.barrier_wait_ns += e.dur_ns(),
                        EventKind::Wake => w.wake_ns += e.dur_ns(),
                        EventKind::TileBatch => w.tiles += u64::from(e.arg0),
                        EventKind::Sweep => w.sweeps += 1,
                        EventKind::Phase => {}
                    }
                }
                w
            })
            .collect()
    }

    /// Total ns per phase id `[forward, backward, imaging]`, summed over
    /// every `Phase` event. Imaging events are nested inside backward, so
    /// exclusive backward time is `backward − imaging`.
    pub fn phase_totals_ns(&self) -> [u64; 3] {
        let mut out = [0u64; 3];
        for s in &self.slots {
            for e in &s.events {
                if e.kind == EventKind::Phase {
                    if let Some(t) = out.get_mut(e.arg0 as usize) {
                        *t += e.dur_ns();
                    }
                }
            }
        }
        out
    }

    /// `[min, max]` event timestamps, ns (0,0 when empty).
    pub fn time_bounds_ns(&self) -> (u64, u64) {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for s in &self.slots {
            for e in &s.events {
                lo = lo.min(e.start_ns);
                hi = hi.max(e.end_ns);
            }
        }
        if lo == u64::MAX {
            (0, 0)
        } else {
            (lo, hi)
        }
    }
}

#[cfg(feature = "measure")]
mod imp {
    use super::{Event, EventKind, HostProfile, SlotEvents, MAX_SLOTS, RING_CAP};
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    /// One thread's events within one capture. Only that thread pushes,
    /// so the lock is uncontended until the capture finishes.
    struct Buf {
        events: Vec<Event>,
        dropped: u64,
    }

    /// The state one capture owns.
    struct Inner {
        /// Timestamps are ns since this instant.
        epoch: Instant,
        /// Slot 0 is the thread that started the capture, slot `i + 1`
        /// pool worker `i`.
        bufs: [OnceLock<Mutex<Buf>>; MAX_SLOTS],
        thread_overflow: AtomicU64,
    }

    impl Inner {
        fn ns(&self, t: Instant) -> u64 {
            t.checked_duration_since(self.epoch)
                .map_or(0, |d| d.as_nanos() as u64)
        }

        fn push(&self, slot: usize, ev: Event) {
            let Some(cell) = self.bufs.get(slot) else {
                self.thread_overflow.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let buf = cell.get_or_init(|| {
                Mutex::new(Buf {
                    events: Vec::with_capacity(RING_CAP),
                    dropped: 0,
                })
            });
            let mut buf = buf.lock().unwrap_or_else(|e| e.into_inner());
            if buf.events.len() < RING_CAP {
                buf.events.push(ev);
            } else {
                buf.dropped += 1;
            }
        }

        fn collect(&self) -> HostProfile {
            let mut profile = HostProfile {
                thread_overflow: self.thread_overflow.load(Ordering::Relaxed),
                ..HostProfile::default()
            };
            for (slot, cell) in self.bufs.iter().enumerate() {
                let Some(buf) = cell.get() else { continue };
                let mut buf = buf.lock().unwrap_or_else(|e| e.into_inner());
                profile.dropped += buf.dropped;
                if !buf.events.is_empty() {
                    profile.slots.push(SlotEvents {
                        slot: slot as u32,
                        events: std::mem::take(&mut buf.events),
                    });
                }
            }
            profile
        }
    }

    /// The capture a thread records into, and its slot there.
    struct Tap {
        inner: Arc<Inner>,
        slot: usize,
    }

    thread_local! {
        static CURRENT: RefCell<Option<Tap>> = const { RefCell::new(None) };
        /// `CURRENT.is_some()`, kept in a plain cell so the record sites
        /// of an uncaptured thread cost one thread-local load.
        static RECORDING: Cell<bool> = const { Cell::new(false) };
    }

    /// Make `tap` the calling thread's capture; returns the previous one.
    fn set_current(tap: Option<Tap>) -> Option<Tap> {
        RECORDING.set(tap.is_some());
        CURRENT.replace(tap)
    }

    fn with_tap(f: impl FnOnce(&Tap)) {
        if !recording() {
            return;
        }
        CURRENT.with_borrow(|c| {
            if let Some(tap) = c {
                f(tap)
            }
        })
    }

    pub struct Capture {
        inner: Arc<Inner>,
        /// The capture this one displaced on its thread, restored on drop.
        outer: Option<Tap>,
    }

    impl Capture {
        pub fn start() -> Self {
            let inner = Arc::new(Inner {
                epoch: Instant::now(),
                bufs: [const { OnceLock::new() }; MAX_SLOTS],
                thread_overflow: AtomicU64::new(0),
            });
            let outer = set_current(Some(Tap {
                inner: Arc::clone(&inner),
                slot: 0,
            }));
            Self { inner, outer }
        }

        pub fn finish(self) -> HostProfile {
            self.inner.collect()
        }
    }

    impl Drop for Capture {
        fn drop(&mut self) {
            set_current(self.outer.take());
        }
    }

    #[derive(Clone)]
    pub struct Launch {
        inner: Arc<Inner>,
        publish_ns: u64,
    }

    impl Launch {
        /// The calling thread's capture, stamped with the publish time for
        /// the workers' wake latency; `None` when it is not capturing.
        pub fn current() -> Option<Self> {
            CURRENT.with_borrow(|c| {
                c.as_ref().map(|tap| Launch {
                    inner: Arc::clone(&tap.inner),
                    publish_ns: tap.inner.ns(Instant::now()),
                })
            })
        }

        /// Record into this capture on pool worker `worker` (slot
        /// `worker + 1`) until the guard drops, starting with a `Wake` span
        /// from the publish stamp.
        pub fn join(&self, epoch: u64, worker: usize) -> Joined {
            let inner = &self.inner;
            let slot = worker + 1;
            let now = inner.ns(Instant::now());
            inner.push(
                slot,
                Event {
                    kind: EventKind::Wake,
                    arg0: epoch as u32,
                    arg1: 0,
                    start_ns: self.publish_ns.min(now),
                    end_ns: now,
                },
            );
            Joined {
                outer: set_current(Some(Tap {
                    inner: Arc::clone(inner),
                    slot,
                })),
            }
        }
    }

    pub struct Joined {
        outer: Option<Tap>,
    }

    impl Drop for Joined {
        fn drop(&mut self) {
            set_current(self.outer.take());
        }
    }

    #[inline]
    pub fn recording() -> bool {
        RECORDING.get()
    }

    #[inline]
    pub fn begin() -> Option<Instant> {
        recording().then(Instant::now)
    }

    #[inline]
    pub fn end(t0: Option<Instant>, kind: EventKind, arg0: u32, arg1: u32) {
        let Some(t0) = t0 else { return };
        let t1 = Instant::now();
        with_tap(|tap| {
            let start_ns = tap.inner.ns(t0);
            let end_ns = tap.inner.ns(t1).max(start_ns);
            tap.inner.push(
                tap.slot,
                Event {
                    kind,
                    arg0,
                    arg1,
                    start_ns,
                    end_ns,
                },
            );
        });
    }

    #[inline]
    pub fn instant(kind: EventKind, arg0: u32, arg1: u32) {
        with_tap(|tap| {
            let ns = tap.inner.ns(Instant::now());
            tap.inner.push(
                tap.slot,
                Event {
                    kind,
                    arg0,
                    arg1,
                    start_ns: ns,
                    end_ns: ns,
                },
            );
        });
    }

    /// Record a span from explicit capture-relative timestamps (tests).
    #[cfg(all(test, not(loom)))]
    pub fn span_ns(kind: EventKind, arg0: u32, arg1: u32, start_ns: u64, end_ns: u64) {
        with_tap(|tap| {
            tap.inner.push(
                tap.slot,
                Event {
                    kind,
                    arg0,
                    arg1,
                    start_ns,
                    end_ns: end_ns.max(start_ns),
                },
            );
        });
    }
}

#[cfg(not(feature = "measure"))]
mod imp {
    //! Compile-out path: every record site is a literal no-op and a
    //! capture returns an empty profile.
    use super::{EventKind, HostProfile};
    use std::time::Instant;

    pub struct Capture;

    impl Capture {
        pub fn start() -> Self {
            Capture
        }

        pub fn finish(self) -> HostProfile {
            HostProfile::default()
        }
    }

    /// Never constructed: without `measure` no thread is capturing.
    #[derive(Clone)]
    pub enum Launch {}

    impl Launch {
        pub fn current() -> Option<Self> {
            None
        }

        pub fn join(&self, _epoch: u64, _worker: usize) -> Joined {
            match *self {}
        }
    }

    pub struct Joined;

    #[inline(always)]
    pub fn recording() -> bool {
        false
    }

    #[inline(always)]
    pub fn begin() -> Option<Instant> {
        None
    }

    #[inline(always)]
    pub fn end(_t0: Option<Instant>, _kind: EventKind, _arg0: u32, _arg1: u32) {}

    #[inline(always)]
    pub fn instant(_kind: EventKind, _arg0: u32, _arg1: u32) {}
}

/// A profile of one run: records the thread that started it and the pool
/// launches that thread makes, until [`Capture::finish`].
///
/// Captures on one thread nest (the innermost records); finish them
/// innermost first. A capture stays on the thread that started it.
#[must_use = "a capture records until it is finished or dropped"]
pub struct Capture {
    imp: imp::Capture,
    _thread: PhantomData<*const ()>,
}

impl Capture {
    /// Start recording on the calling thread.
    pub fn start() -> Self {
        Self {
            imp: imp::Capture::start(),
            _thread: PhantomData,
        }
    }

    /// Stop recording and return every event the capture holds.
    pub fn finish(self) -> HostProfile {
        self.imp.finish()
    }
}

/// A launching thread's capture, carried to the pool's workers inside a
/// job (see `GangPool::run`).
pub(crate) use imp::Launch;

/// True when the calling thread records into a capture (one thread-local
/// load — the whole cost of a record site on an uncaptured thread,
/// besides a branch).
#[inline]
pub(crate) fn recording() -> bool {
    imp::recording()
}

/// Start a span: `Some(now)` when recording, `None` otherwise. Pass the
/// result to [`end`] — a `None` start makes `end` free.
#[inline]
pub fn begin() -> Option<Instant> {
    imp::begin()
}

/// Close a span opened by [`begin`] and record it.
#[inline]
pub fn end(t0: Option<Instant>, kind: EventKind, arg0: u32, arg1: u32) {
    imp::end(t0, kind, arg0, arg1)
}

/// Record an instant (zero-duration) event.
#[inline]
pub fn instant(kind: EventKind, arg0: u32, arg1: u32) {
    imp::instant(kind, arg0, arg1)
}

#[cfg(all(test, not(loom), feature = "measure"))]
mod tests {
    use super::*;
    use crate::GangPool;
    use imp::span_ns;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn disabled_records_nothing() {
        // No capture on this thread: record sites are inert.
        assert!(!recording());
        assert!(begin().is_none());
        end(begin(), EventKind::Slab, 0, 8);
        instant(EventKind::TileBatch, 4, 64);
        span_ns(EventKind::Phase, PHASE_FORWARD, 0, 0, 10);
        // ...and nothing leaks into a capture started afterwards.
        let cap = Capture::start();
        assert!(recording());
        assert!(cap.finish().is_empty());
        assert!(!recording(), "finishing a capture stops recording");
    }

    #[test]
    fn spans_round_trip_with_args_and_order() {
        let cap = Capture::start();
        let t0 = begin();
        std::thread::sleep(std::time::Duration::from_millis(1));
        end(t0, EventKind::Slab, 3, 17);
        instant(EventKind::TileBatch, 5, 128);
        let p = cap.finish();
        assert_eq!(p.len(), 2);
        assert_eq!(p.slots[0].slot, 0, "the capturing thread is slot 0");
        let evs = &p.slots[0].events;
        assert_eq!(evs[0].kind, EventKind::Slab);
        assert_eq!((evs[0].arg0, evs[0].arg1), (3, 17));
        assert!(evs[0].dur_ns() >= 1_000_000, "slept 1ms: {:?}", evs[0]);
        assert_eq!(evs[1].kind, EventKind::TileBatch);
        assert!(evs[1].start_ns >= evs[0].end_ns);
        assert_eq!(evs[1].dur_ns(), 0);
        assert_eq!(p.dropped, 0);
    }

    /// Every thread that runs a slab of a captured launch records into its
    /// own slot of that capture. Each slab waits until all four have
    /// started, so the caller and all three workers must take one each.
    #[test]
    fn concurrent_threads_get_distinct_slots() {
        let pool = GangPool::new(3);
        let started = AtomicUsize::new(0);
        let cap = Capture::start();
        pool.run(4, 4, &|_, _, _| {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            for i in 0..100u32 {
                instant(EventKind::TileBatch, i, 1);
            }
        });
        let p = cap.finish();
        assert_eq!(p.slots.len(), 4, "threads must not share one slot");
        for s in &p.slots {
            let kinds = |k| s.events.iter().filter(|e| e.kind == k).count();
            assert_eq!(kinds(EventKind::TileBatch), 100, "slot {}", s.slot);
            assert_eq!(kinds(EventKind::Slab), 1, "slot {}", s.slot);
            // Per-slot streams are in record order.
            let tiles: Vec<_> = s
                .events
                .iter()
                .filter(|e| e.kind == EventKind::TileBatch)
                .collect();
            for w in tiles.windows(2) {
                assert!(w[0].start_ns <= w[1].start_ns && w[0].arg0 < w[1].arg0);
            }
        }
        assert_eq!(p.thread_overflow, 0);
    }

    /// Two captures whose launches alternate on one pool keep one slot per
    /// thread: a worker that returns to a capture after running the other
    /// one's job records into the slot it had, so 40 launches each through
    /// a 3-worker pool fill exactly 4 slots per capture and overflow none.
    #[test]
    fn alternating_captures_keep_fixed_slots() {
        const LAUNCHES: usize = 40;
        let pool = GangPool::new(3);
        let turn = AtomicUsize::new(0);
        let launch = |me: usize| {
            let cap = Capture::start();
            for i in 0..LAUNCHES {
                while turn.load(Ordering::SeqCst) != 2 * i + me {
                    std::thread::yield_now();
                }
                // Every slab waits for all four, so each launch engages
                // the launcher and all three workers.
                let started = AtomicUsize::new(0);
                pool.run(4, 4, &|_, _, _| {
                    started.fetch_add(1, Ordering::SeqCst);
                    while started.load(Ordering::SeqCst) < 4 {
                        std::thread::yield_now();
                    }
                });
                turn.fetch_add(1, Ordering::SeqCst);
            }
            cap.finish()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| launch(0));
            let b = s.spawn(|| launch(1));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(pool.pooled_launches(), 2 * LAUNCHES, "no launch ran inline");
        for p in [a, b] {
            assert_eq!(p.thread_overflow, 0);
            let slots: Vec<u32> = p.slots.iter().map(|s| s.slot).collect();
            assert_eq!(slots, vec![0, 1, 2, 3], "launcher + one slot per worker");
            for s in &p.slots {
                let slabs = s.events.iter().filter(|e| e.kind == EventKind::Slab);
                assert_eq!(slabs.count(), LAUNCHES, "slot {}", s.slot);
            }
        }
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let cap = Capture::start();
        for _ in 0..RING_CAP + 10 {
            instant(EventKind::TileBatch, 1, 64);
        }
        let p = cap.finish();
        assert_eq!(p.len(), RING_CAP);
        assert_eq!(p.dropped, 10);
        // A new capture starts with empty buffers.
        let cap = Capture::start();
        instant(EventKind::TileBatch, 1, 64);
        let p = cap.finish();
        assert_eq!(p.len(), 1);
        assert_eq!(p.dropped, 0);
    }

    /// Slots belong to a capture, not to the process: any number of
    /// distinct threads, one after another, each record everything.
    #[test]
    fn slots_never_run_out_across_threads() {
        for t in 0..40u32 {
            let p = std::thread::spawn(move || {
                let cap = Capture::start();
                instant(EventKind::TileBatch, t, 1);
                cap.finish()
            })
            .join()
            .unwrap();
            assert_eq!(p.len(), 1, "thread {t} lost its event");
            assert_eq!(p.thread_overflow, 0, "thread {t} ran out of slots");
        }
    }

    #[test]
    fn nested_capture_records_until_it_finishes() {
        let outer = Capture::start();
        instant(EventKind::TileBatch, 1, 1);
        let inner = Capture::start();
        instant(EventKind::TileBatch, 2, 1);
        let p_inner = inner.finish();
        instant(EventKind::TileBatch, 3, 1);
        let p_outer = outer.finish();
        let args =
            |p: &HostProfile| -> Vec<u32> { p.slots[0].events.iter().map(|e| e.arg0).collect() };
        assert_eq!(args(&p_inner), vec![2]);
        assert_eq!(args(&p_outer), vec![1, 3]);
    }

    #[test]
    fn summaries_and_phase_totals() {
        let cap = Capture::start();
        span_ns(EventKind::Phase, PHASE_FORWARD, 0, 0, 3_000);
        span_ns(EventKind::Phase, PHASE_BACKWARD, 0, 3_000, 9_000);
        span_ns(EventKind::Phase, PHASE_IMAGING, 0, 4_000, 5_000);
        span_ns(EventKind::Slab, 0, 10, 100, 200);
        span_ns(EventKind::Slab, 1, 12, 200, 350);
        span_ns(EventKind::BarrierWait, 2, 0, 350, 400);
        span_ns(EventKind::Wake, 0, 0, 90, 120);
        instant(EventKind::TileBatch, 7, 64);
        let p = cap.finish();
        let totals = p.phase_totals_ns();
        assert_eq!(totals, [3_000, 6_000, 1_000]);
        let w = &p.worker_summaries()[0];
        assert_eq!(w.slabs, 2);
        assert_eq!(w.rows, 22);
        assert_eq!(w.busy_ns, 100 + 150);
        assert_eq!(w.barrier_wait_ns, 50);
        assert_eq!(w.wake_ns, 30);
        assert_eq!(w.tiles, 7);
        let (lo, hi) = p.time_bounds_ns();
        assert_eq!(lo, 0);
        assert!(hi >= 9_000);
    }
}

/// Without the `measure` feature a capture records nothing.
#[cfg(all(test, not(feature = "measure")))]
mod compiled_out_tests {
    use super::*;

    #[test]
    fn capture_returns_an_empty_profile() {
        let cap = Capture::start();
        assert!(!recording());
        end(begin(), EventKind::Slab, 0, 8);
        instant(EventKind::TileBatch, 4, 64);
        let pool = crate::GangPool::new(1);
        pool.run(8, 2, &|_, _, _| instant(EventKind::TileBatch, 1, 1));
        let p = cap.finish();
        assert!(p.is_empty());
        assert_eq!((p.dropped, p.thread_overflow), (0, 0));
    }
}
