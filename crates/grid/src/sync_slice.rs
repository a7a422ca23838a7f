//! Shared-mutable field views for slab-parallel kernels.
//!
//! Every propagator kernel updates grid points independently (leapfrog and
//! staggered updates read a point's neighbourhood from *other* fields and
//! write only that point, or read-then-write the same location). The
//! parallel executors (`openacc-sim` gangs, `mpi-sim` ranks-in-process)
//! therefore partition the interior z-range into disjoint slabs and run the
//! same kernel on each slab concurrently.
//!
//! [`SyncSlice`] is the narrow unsafe surface that makes this expressible:
//! a `Send + Sync` view of a `&mut [f32]` whose writes are unchecked-by-type
//! but governed by the documented contract — **concurrent users must write
//! disjoint index sets**. All kernels in `seismic-prop` uphold this by
//! construction (each slab writes only rows in its own z-range), and the
//! test-suite cross-checks parallel against sequential execution bit-for-bit.
//!
//! Every propagator store goes through [`SyncSlice::set`] or
//! [`SyncSlice::add`], so this module is also where the amplitude floor
//! lives: both flush `|v| <` [`AMPLITUDE_FLOOR`] to `+0.0`. Wavefront tails
//! otherwise decay into the subnormal range, where x86 cores take a
//! microcode assist on every arithmetic operation that touches them.

use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// Amplitudes below this magnitude are stored as `+0.0`.
///
/// Far above `f32::MIN_POSITIVE` (≈1.2e-38), so no stored value is ever
/// subnormal, and far below the rounding of field amplitudes, which are
/// O(1) at the source: `f32` resolves about 6e-8 of a value's magnitude.
pub const AMPLITUDE_FLOOR: f32 = 1e-30;

/// `v`, or `+0.0` when `|v| <` [`AMPLITUDE_FLOOR`]. NaN and ±∞ pass through.
#[inline(always)]
pub fn flush_subfloor(v: f32) -> f32 {
    if v.abs() < AMPLITUDE_FLOOR {
        0.0
    } else {
        v
    }
}

/// A `Send + Sync` view over a mutable `f32` slice for slab-disjoint writes.
///
/// # Safety contract
///
/// * [`SyncSlice::set`] and [`SyncSlice::add`] are `unsafe`: callers must
///   guarantee no other thread concurrently reads or writes the same index.
/// * [`SyncSlice::get`] is safe **within the kernel discipline**: a slab only
///   reads indices that no concurrent slab writes (its own rows, or rows of
///   fields that are read-only during the current kernel phase).
#[derive(Clone, Copy)]
pub struct SyncSlice<'a> {
    ptr: *const UnsafeCell<f32>,
    len: usize,
    _marker: PhantomData<&'a mut [f32]>,
}

unsafe impl Send for SyncSlice<'_> {}
unsafe impl Sync for SyncSlice<'_> {}

impl<'a> SyncSlice<'a> {
    /// Wrap an exclusive slice. The borrow keeps the underlying field
    /// exclusively borrowed for the view's lifetime, so no *safe* alias can
    /// exist while slabs are running.
    pub fn new(slice: &'a mut [f32]) -> Self {
        let len = slice.len();
        let ptr = slice.as_mut_ptr() as *const UnsafeCell<f32>;
        Self {
            ptr,
            len,
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read index `i`.
    ///
    /// Bounds-checked in debug builds only — hot-kernel discipline.
    #[inline(always)]
    pub fn get(&self, i: usize) -> f32 {
        debug_assert!(i < self.len);
        unsafe { *(*self.ptr.add(i)).get() }
    }

    /// Write [`flush_subfloor`]`(v)` to index `i`.
    ///
    /// # Safety
    /// No other thread may access index `i` concurrently.
    #[inline(always)]
    pub unsafe fn set(&self, i: usize, v: f32) {
        debug_assert!(i < self.len);
        *(*self.ptr.add(i)).get() = flush_subfloor(v);
    }

    /// Add `v` to index `i`, storing [`flush_subfloor`] of the sum
    /// (read-modify-write, same contract as `set`).
    ///
    /// # Safety
    /// No other thread may access index `i` concurrently.
    #[inline(always)]
    pub unsafe fn add(&self, i: usize, v: f32) {
        debug_assert!(i < self.len);
        let p = (*self.ptr.add(i)).get();
        *p = flush_subfloor(*p + v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut v = vec![0.0f32; 8];
        let s = SyncSlice::new(&mut v);
        unsafe {
            s.set(3, 2.5);
            s.add(3, 0.5);
        }
        assert_eq!(s.get(3), 3.0);
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        assert_eq!(v[3], 3.0);
    }

    /// What `set(v)` stores, and what `add(v)` stores onto a zero.
    fn stored(v: f32) -> [f32; 2] {
        let mut buf = vec![0.0f32; 2];
        let s = SyncSlice::new(&mut buf);
        // Safety: one thread, no other view of `buf`.
        unsafe {
            s.set(0, v);
            s.add(1, v);
        }
        [buf[0], buf[1]]
    }

    #[test]
    fn sub_floor_values_store_positive_zero() {
        let f = AMPLITUDE_FLOOR;
        let tiny = [
            f32::from_bits(f.to_bits() - 1), // largest value below the floor
            f * 0.5,
            1e-35,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest subnormal
            0.0,
        ];
        for v in tiny {
            for x in [v, -v] {
                for got in stored(x) {
                    assert_eq!(got.to_bits(), 0.0f32.to_bits(), "{x:e} stored {got:e}");
                }
            }
        }
    }

    #[test]
    fn values_at_or_above_floor_store_bit_unchanged() {
        let f = AMPLITUDE_FLOOR;
        let kept = [
            f,
            f32::from_bits(f.to_bits() + 1),
            1e-20,
            0.25,
            1.0,
            f32::MAX,
        ];
        for v in kept {
            for x in [v, -v] {
                for got in stored(x) {
                    assert_eq!(got.to_bits(), x.to_bits(), "{x:e} stored {got:e}");
                }
            }
        }
    }

    #[test]
    fn non_finite_values_pass_through() {
        for x in [f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(stored(x), [x, x]);
        }
        let nan = f32::from_bits(0x7fc0_1234); // quiet NaN with a payload
        let [a, b] = stored(nan);
        assert_eq!(a.to_bits(), nan.to_bits());
        assert!(b.is_nan());
    }

    #[test]
    fn add_flushes_the_sum_not_the_addend() {
        let mut buf = vec![1e-29f32; 2];
        let s = SyncSlice::new(&mut buf);
        // Safety: one thread, no other view of `buf`.
        unsafe {
            s.add(0, -9.5e-30); // sum 5e-31 < floor
            s.add(1, 1e-31); // sub-floor addend, sum above floor
        }
        assert_eq!(buf[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(buf[1], 1e-29f32 + 1e-31);
    }

    #[test]
    fn disjoint_parallel_writes_are_deterministic() {
        let n = 1024;
        let mut v = vec![0.0f32; n];
        let s = SyncSlice::new(&mut v);
        std::thread::scope(|scope| {
            for chunk in 0..4 {
                scope.spawn(move || {
                    let lo = chunk * n / 4;
                    let hi = (chunk + 1) * n / 4;
                    for i in lo..hi {
                        // Safety: each thread owns a disjoint index range.
                        unsafe { s.set(i, i as f32) };
                    }
                });
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as f32);
        }
    }
}
