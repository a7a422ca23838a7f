//! Dense 3D `f32` field with halo.

use crate::Extent3;

/// A dense 3D scalar field stored flat, x fastest, z slowest.
///
/// 3D analogue of [`crate::Field2`]; see that type for the indexing
/// conventions. 3D fields are the memory hogs of the workspace — a single
/// 520³ field is ~560 MB — so the container never copies implicitly and the
/// propagators mutate it in place through the raw slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    extent: Extent3,
    data: Vec<f32>,
}

impl Field3 {
    /// Zero-filled field of the given extent.
    pub fn zeros(extent: Extent3) -> Self {
        Self {
            extent,
            data: vec![0.0; extent.len()],
        }
    }

    /// Field with every allocated point set to `value`.
    pub fn filled(extent: Extent3, value: f32) -> Self {
        Self {
            extent,
            data: vec![value; extent.len()],
        }
    }

    /// Build a field by evaluating `f(ix, iy, iz)` at every interior point.
    pub fn from_fn(extent: Extent3, mut f: impl FnMut(usize, usize, usize) -> f32) -> Self {
        let mut out = Self::zeros(extent);
        for iz in 0..extent.nz {
            for iy in 0..extent.ny {
                for ix in 0..extent.nx {
                    let v = f(ix, iy, iz);
                    out.data[extent.idx(ix, iy, iz)] = v;
                }
            }
        }
        out
    }

    /// Extent of this field.
    #[inline(always)]
    pub fn extent(&self) -> Extent3 {
        self.extent
    }

    /// Flat interior index helper.
    #[inline(always)]
    pub fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        self.extent.idx(ix, iy, iz)
    }

    /// Interior read.
    #[inline(always)]
    pub fn get(&self, ix: usize, iy: usize, iz: usize) -> f32 {
        self.data[self.extent.idx(ix, iy, iz)]
    }

    /// Interior write.
    #[inline(always)]
    pub fn set(&mut self, ix: usize, iy: usize, iz: usize, v: f32) {
        let i = self.extent.idx(ix, iy, iz);
        self.data[i] = v;
    }

    /// Full backing slice, halo included.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Full mutable backing slice, halo included.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Zero every allocated value.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Swap storage with another field of the same extent (time-level swap).
    pub fn swap(&mut self, other: &mut Self) {
        assert_eq!(self.extent, other.extent, "swap requires equal extents");
        std::mem::swap(&mut self.data, &mut other.data);
    }

    /// Overwrite the whole allocation (halo included) from `other` — the
    /// allocation-free replacement for `clone()` when a recycled field of
    /// the same extent is at hand (snapshot slots, arena buffers).
    pub fn copy_from(&mut self, other: &Field3) {
        assert_eq!(
            self.extent, other.extent,
            "copy_from requires equal extents"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Maximum absolute interior value.
    pub fn max_abs(&self) -> f32 {
        let mut m = 0.0f32;
        for iz in 0..self.extent.nz {
            for iy in 0..self.extent.ny {
                for ix in 0..self.extent.nx {
                    m = m.max(self.get(ix, iy, iz).abs());
                }
            }
        }
        m
    }

    /// Number of subnormal values, halo included (numerics health: each
    /// costs a microcode assist per x86 arithmetic operation that reads it).
    pub fn subnormal_count(&self) -> usize {
        self.data.iter().filter(|v| v.is_subnormal()).count()
    }

    /// Sum of squared interior values.
    pub fn energy(&self) -> f64 {
        let mut s = 0.0f64;
        for iz in 0..self.extent.nz {
            for iy in 0..self.extent.ny {
                for ix in 0..self.extent.nx {
                    let v = self.get(ix, iy, iz) as f64;
                    s += v * v;
                }
            }
        }
        s
    }

    /// Extract the 2D x–z plane at interior `iy` (diagnostics / rendering).
    pub fn slice_y(&self, iy: usize) -> crate::Field2 {
        let e = self.extent;
        let e2 = crate::Extent2::new(e.nx, e.nz, e.halo);
        crate::Field2::from_fn(e2, |ix, iz| self.get(ix, iy, iz))
    }

    /// [`slice_y`](Self::slice_y) into a caller-owned plane without
    /// allocating. Only the interior is written (halos are left alone), so
    /// the result matches `slice_y` exactly when `out` started zeroed.
    pub fn write_slice_y_into(&self, iy: usize, out: &mut crate::Field2) {
        let e = self.extent;
        let e2 = out.extent();
        assert_eq!(
            (e2.nx, e2.nz, e2.halo),
            (e.nx, e.nz, e.halo),
            "plane extent mismatch"
        );
        for iz in 0..e.nz {
            for ix in 0..e.nx {
                out.set(ix, iz, self.get(ix, iy, iz));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext() -> Extent3 {
        Extent3::new(5, 4, 3, 2)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut f = Field3::zeros(ext());
        f.set(4, 3, 2, -2.5);
        assert_eq!(f.get(4, 3, 2), -2.5);
        assert_eq!(f.as_slice().len(), ext().len());
    }

    #[test]
    fn from_fn_matches_get() {
        let f = Field3::from_fn(ext(), |ix, iy, iz| (ix + 10 * iy + 100 * iz) as f32);
        assert_eq!(f.get(2, 3, 1), 132.0);
        assert_eq!(f.as_slice()[0], 0.0); // halo untouched
    }

    #[test]
    fn swap_and_energy() {
        let mut a = Field3::zeros(ext());
        let mut b = Field3::zeros(ext());
        a.set(0, 0, 0, 3.0);
        b.set(0, 0, 0, 4.0);
        a.swap(&mut b);
        assert_eq!(a.get(0, 0, 0), 4.0);
        assert_eq!(a.energy(), 16.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn slice_y_extracts_plane() {
        let f = Field3::from_fn(ext(), |ix, iy, iz| (ix * 100 + iy * 10 + iz) as f32);
        let p = f.slice_y(2);
        assert_eq!(p.get(3, 1), 321.0);
        assert_eq!(p.extent().nx, ext().nx);
        assert_eq!(p.extent().nz, ext().nz);
    }

    #[test]
    fn subnormal_count_covers_interior_and_halo() {
        let mut f = Field3::zeros(ext());
        f.set(1, 1, 1, 1e-40);
        f.set(2, 2, 2, f32::MIN_POSITIVE); // smallest normal
        f.as_mut_slice()[0] = -1e-42; // halo corner
        assert_eq!(f.subnormal_count(), 2);
    }
}
