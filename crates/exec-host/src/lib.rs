//! # exec-host
//!
//! The host execution engine: the machinery that makes *real* (wall-clock)
//! execution of the physics as fast as the hardware allows, independent of
//! the simulated-device timing model (`accel-sim`), which it never touches.
//!
//! The paper's optimization study is entirely about kernel scheduling and
//! memory-hierarchy efficiency on the accelerator; this crate applies the
//! same discipline to the host side that actually computes the wavefields:
//!
//! * [`pool`] — a persistent, lazily-initialized gang worker pool with a
//!   low-overhead fork-join barrier. It replaces per-launch
//!   `std::thread::scope` spawns (hundreds of microseconds per kernel
//!   launch) with parked threads that are woken by a generation counter and
//!   claim deterministically-partitioned slabs. Slab partitioning is a pure
//!   function of `(n, gangs, g)`, so parallel output is bit-identical to
//!   sequential regardless of which worker executes which slab.
//! * [`arena`] — reusable buffer pools ([`Arena`]) that eliminate
//!   steady-state allocation from time loops: wavefield states, replay
//!   snapshots, and checkpoint slots are taken from and returned to an
//!   arena instead of being freshly allocated every segment/retry.
//! * [`tile`] — the cache-blocking tuner: picks an x-tile width for the
//!   z-slab × x-tile loop schedule of the stencil sweeps from the stencil
//!   footprint and a cache budget (à la the paper's loop-schedule
//!   experiments).
//! * [`prof`] — the wall-clock host profiler: a [`prof::Capture`] records
//!   sweep/slab/barrier/wake/tile/phase events with `Instant` timestamps
//!   for the thread that started it and the pool jobs that thread
//!   launches, into buffers the capture owns, and returns them as a
//!   [`HostProfile`] for the `acc-obs` wall-clock tracks. Threads without
//!   a capture pay one thread-local load per record site; the `measure`
//!   feature compiles recording out entirely.
//!
//! Everything here is `std`-only and dependency-free; `openacc-sim`
//! re-exports this crate as its gang execution backend.

pub mod arena;
pub mod pool;
pub mod prof;
pub mod tile;

pub use arena::Arena;
pub use pool::{slab_bounds, GangPool};
pub use prof::{Capture, HostProfile, WorkerSummary};
pub use tile::{tiles, Tiling};
