//! Isotropic constant-density propagator, 3D (25-point Laplacian).
//!
//! Same scheme as [`crate::iso2d`] extended to three dimensions. The kernel
//! variants mirror Figures 6/7, which the paper ran on the 3D isotropic
//! modeling case specifically.

use crate::IsoPmlVariant;
use exec_host::tiles;
use seismic_grid::fd::f32c;
use seismic_grid::{Extent3, Field3, SyncSlice, STENCIL_HALF};
use seismic_model::IsoModel3;
use seismic_pml::DampProfile;

/// Wavefield state: two time levels, swapped every step.
#[derive(Debug, Clone)]
pub struct Iso3State {
    /// Previous time level; overwritten with the next level each step.
    pub u_prev: Field3,
    /// Current time level.
    pub u_cur: Field3,
}

impl Iso3State {
    /// Quiescent initial state.
    pub fn new(extent: Extent3) -> Self {
        Self {
            u_prev: Field3::zeros(extent),
            u_cur: Field3::zeros(extent),
        }
    }

    /// Advance one time step over the full interior and swap time levels.
    pub fn step(&mut self, model: &IsoModel3, damp: &[DampProfile; 3], variant: IsoPmlVariant) {
        let e = self.u_cur.extent();
        let nz = e.nz;
        let u = SyncSlice::new(self.u_prev.as_mut_slice());
        step_slab(
            u,
            self.u_cur.as_slice(),
            model.vp.as_slice(),
            e,
            [model.geom.dx, model.geom.dy, model.geom.dz],
            model.geom.dt,
            damp,
            variant,
            0,
            nz,
        );
        self.u_prev.swap(&mut self.u_cur);
    }

    /// Inject a source sample scaled by `Δt²·vp²`.
    pub fn inject(&mut self, model: &IsoModel3, ix: usize, iy: usize, iz: usize, f: f32) {
        let dt = model.geom.dt;
        let vp = model.vp.get(ix, iy, iz);
        let v = self.u_cur.get(ix, iy, iz) + dt * dt * vp * vp * f;
        self.u_cur.set(ix, iy, iz, v);
    }

    /// Overwrite this state from `other` without allocating (both time
    /// levels; extents must match).
    pub fn copy_from(&mut self, other: &Self) {
        self.u_prev.copy_from(&other.u_prev);
        self.u_cur.copy_from(&other.u_cur);
    }
}

#[inline(always)]
fn lap3(u: &[f32], c: usize, fnx: usize, fnxy: usize, r2: [f32; 3]) -> f32 {
    let mut acc = f32c::C2[0] * u[c] * (r2[0] + r2[1] + r2[2]);
    for k in 1..=STENCIL_HALF {
        acc += f32c::C2[k] * ((u[c + k] + u[c - k]) * r2[0]);
        acc += f32c::C2[k] * ((u[c + k * fnx] + u[c - k * fnx]) * r2[1]);
        acc += f32c::C2[k] * ((u[c + k * fnxy] + u[c - k * fnxy]) * r2[2]);
    }
    acc
}

/// One time step over interior z rows `[z0, z1)`.
#[allow(clippy::too_many_arguments)]
pub fn step_slab(
    u: SyncSlice,
    u_cur: &[f32],
    vp: &[f32],
    e: Extent3,
    h: [f32; 3],
    dt: f32,
    damp: &[DampProfile; 3],
    variant: IsoPmlVariant,
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    assert_eq!(u.len(), e.len());
    let fnx = e.full_nx();
    let fnxy = fnx * e.full_ny();
    let dt2 = dt * dt;
    let r2 = [
        1.0 / (h[0] * h[0]),
        1.0 / (h[1] * h[1]),
        1.0 / (h[2] * h[2]),
    ];
    let [dpx, dpy, dpz] = damp;
    let w = dpx.width();
    // x-tile blocking over the y/z row sweeps (bitwise-free; single tile
    // on small grids — see the 2D kernel).
    let tiling = tiles(e.nx, 3, (2 * STENCIL_HALF + 1) * (2 * STENCIL_HALF + 1));

    // Shared per-point bodies; branch structure differs per variant.
    let plain = |c: usize| {
        let v = vp[c];
        let next = 2.0 * u_cur[c] - u.get(c) + dt2 * v * v * lap3(u_cur, c, fnx, fnxy, r2);
        unsafe { u.set(c, next) };
    };
    let damped = |c: usize, sigma: f32| {
        let v = vp[c];
        let next = (2.0 * u_cur[c] - (1.0 - sigma * dt) * u.get(c)
            + dt2 * v * v * lap3(u_cur, c, fnx, fnxy, r2))
            / (1.0 + sigma * dt);
        unsafe { u.set(c, next) };
    };

    match variant {
        IsoPmlVariant::OriginalIfs => {
            for (x0, x1) in tiling.ranges(0, e.nx) {
                for iz in z0..z1 {
                    for iy in 0..e.ny {
                        for ix in x0..x1 {
                            let c = e.idx(ix, iy, iz);
                            if dpx.in_layer(ix) || dpy.in_layer(iy) || dpz.in_layer(iz) {
                                damped(c, dpx.sigma(ix) + dpy.sigma(iy) + dpz.sigma(iz));
                            } else {
                                plain(c);
                            }
                        }
                    }
                }
            }
        }
        IsoPmlVariant::RestructuredIndices => {
            for iz in z0..z1 {
                let z_in = dpz.in_layer(iz);
                let sz = dpz.sigma(iz);
                for iy in 0..e.ny {
                    let y_in = dpy.in_layer(iy);
                    let sy = dpy.sigma(iy);
                    if z_in || y_in {
                        for ix in 0..e.nx {
                            let c = e.idx(ix, iy, iz);
                            damped(c, dpx.sigma(ix) + sy + sz);
                        }
                    } else {
                        for ix in 0..w {
                            let c = e.idx(ix, iy, iz);
                            damped(c, dpx.sigma(ix));
                        }
                        for ix in w..e.nx - w {
                            plain(e.idx(ix, iy, iz));
                        }
                        for ix in e.nx - w..e.nx {
                            let c = e.idx(ix, iy, iz);
                            damped(c, dpx.sigma(ix));
                        }
                    }
                }
            }
        }
        IsoPmlVariant::PmlEverywhere => {
            for (x0, x1) in tiling.ranges(0, e.nx) {
                for iz in z0..z1 {
                    let sz = dpz.sigma(iz);
                    for iy in 0..e.ny {
                        let sy = dpy.sigma(iy);
                        for ix in x0..x1 {
                            let c = e.idx(ix, iy, iz);
                            damped(c, dpx.sigma(ix) + sy + sz);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::iso3_constant;
    use seismic_model::{extent3, Geometry};
    use seismic_source::ricker;

    fn setup(n: usize, width: usize) -> (IsoModel3, [DampProfile; 3]) {
        let e = extent3(n, n, n);
        let h = 10.0;
        let vmax = 2000.0;
        let dt = stable_dt(8, 3, vmax, h, 0.8);
        let m = iso3_constant(e, vmax, Geometry::uniform(h, dt));
        let dp = DampProfile::new(n, e.halo, width, vmax, h, 1e-4);
        (m, [dp.clone(), dp.clone(), dp])
    }

    fn run(variant: IsoPmlVariant, n: usize, steps: usize) -> Iso3State {
        let (m, damp) = setup(n, 6);
        let mut s = Iso3State::new(m.vp.extent());
        for t in 0..steps {
            s.step(&m, &damp, variant);
            s.inject(
                &m,
                n / 2,
                n / 2,
                n / 2,
                ricker(30.0, t as f32 * m.geom.dt - 0.04),
            );
        }
        s
    }

    #[test]
    fn variants_are_bitwise_identical() {
        let a = run(IsoPmlVariant::OriginalIfs, 36, 30);
        let b = run(IsoPmlVariant::RestructuredIndices, 36, 30);
        let c = run(IsoPmlVariant::PmlEverywhere, 36, 30);
        assert_eq!(a.u_cur, b.u_cur);
        assert_eq!(a.u_cur, c.u_cur);
    }

    #[test]
    fn propagates_spherically_symmetric() {
        let s = run(IsoPmlVariant::OriginalIfs, 40, 40);
        let c = 20;
        let m = s.u_cur.max_abs();
        assert!(m.is_finite() && m > 0.0);
        // Constant model + center source ⇒ axis symmetry.
        let a = s.u_cur.get(c + 8, c, c);
        let b = s.u_cur.get(c, c + 8, c);
        let d = s.u_cur.get(c, c, c + 8);
        assert!((a - b).abs() < 1e-4 * m.max(1.0), "{a} vs {b}");
        assert!((a - d).abs() < 1e-4 * m.max(1.0), "{a} vs {d}");
    }

    #[test]
    fn energy_decays_after_source_stops() {
        let (m, damp) = setup(36, 8);
        let mut s = Iso3State::new(m.vp.extent());
        let mut peak = 0.0f64;
        for t in 0..300 {
            s.step(&m, &damp, IsoPmlVariant::PmlEverywhere);
            if t < 40 {
                s.inject(&m, 18, 18, 18, ricker(30.0, t as f32 * m.geom.dt - 0.04));
            }
            peak = peak.max(s.u_cur.energy());
        }
        let fin = s.u_cur.energy();
        assert!(fin < peak * 0.1, "final {fin} vs peak {peak}");
    }

    #[test]
    fn slab_split_matches_sequential() {
        let (m, damp) = setup(28, 6);
        let e = m.vp.extent();
        let mut seq = Iso3State::new(e);
        let mut par = Iso3State::new(e);
        for t in 0..20 {
            seq.step(&m, &damp, IsoPmlVariant::OriginalIfs);
            {
                let u = SyncSlice::new(par.u_prev.as_mut_slice());
                for (z0, z1) in [(0usize, 9usize), (9, 20), (20, 28)] {
                    step_slab(
                        u,
                        par.u_cur.as_slice(),
                        m.vp.as_slice(),
                        e,
                        [m.geom.dx, m.geom.dy, m.geom.dz],
                        m.geom.dt,
                        &damp,
                        IsoPmlVariant::OriginalIfs,
                        z0,
                        z1,
                    );
                }
                par.u_prev.swap(&mut par.u_cur);
            }
            let amp = ricker(30.0, t as f32 * m.geom.dt - 0.04);
            seq.inject(&m, 14, 14, 14, amp);
            par.inject(&m, 14, 14, 14, amp);
        }
        assert_eq!(seq.u_cur, par.u_cur);
    }
}
