//! Isotropic constant-density propagator, 2D.
//!
//! Solves Equation 1 of the paper — the 2nd-order scalar wave equation
//! `u⁺ = 2u − u⁻ + Δt²·vp²·∇²u` with an 8th-order (17-point in 2D)
//! Laplacian and a damping-layer PML:
//! `u⁺ = (2u − (1−σΔt)u⁻ + Δt²vp²∇²u)/(1+σΔt)`, `σ = σx + σz`.
//!
//! Three kernel variants reproduce the paper's Figure 6/7 restructurings.
//! They are *numerically identical* (σ ≡ 0 in the interior, and IEEE
//! multiplication/division by exactly 1.0 is exact); what differs is control
//! flow — per-point branches vs separate perfectly-nested loops vs uniform
//! "PML everywhere" — which is what the GPU mapping model prices.

use crate::IsoPmlVariant;
use exec_host::tiles;
use seismic_grid::fd::f32c;
use seismic_grid::{Extent2, Field2, SyncSlice, STENCIL_HALF};
use seismic_model::IsoModel2;
use seismic_pml::DampProfile;

/// Wavefield state: two time levels, updated leapfrog-style in place.
#[derive(Debug, Clone)]
pub struct Iso2State {
    /// Previous time level; overwritten with the next level each step.
    pub u_prev: Field2,
    /// Current time level.
    pub u_cur: Field2,
}

impl Iso2State {
    /// Quiescent state (`u⁻¹ = u⁰ = 0`, as in Equation 1).
    pub fn new(extent: Extent2) -> Self {
        Self {
            u_prev: Field2::zeros(extent),
            u_cur: Field2::zeros(extent),
        }
    }

    /// Advance one time step sequentially over the full interior, then swap
    /// time levels so `u_cur` is the newest field.
    pub fn step(
        &mut self,
        model: &IsoModel2,
        damp_x: &DampProfile,
        damp_z: &DampProfile,
        variant: IsoPmlVariant,
    ) {
        let e = self.u_cur.extent();
        let nz = e.nz;
        let u = SyncSlice::new(self.u_prev.as_mut_slice());
        step_slab(
            u,
            self.u_cur.as_slice(),
            model.vp.as_slice(),
            e,
            model.geom.dx,
            model.geom.dz,
            model.geom.dt,
            damp_x,
            damp_z,
            variant,
            0,
            nz,
        );
        self.u_prev.swap(&mut self.u_cur);
    }

    /// Add a source sample at an interior point, scaled the way Equation 1
    /// injects the point term: `Δt²·vp²·f`.
    pub fn inject(&mut self, model: &IsoModel2, ix: usize, iz: usize, f: f32) {
        let dt = model.geom.dt;
        let vp = model.vp.get(ix, iz);
        let v = self.u_cur.get(ix, iz) + dt * dt * vp * vp * f;
        self.u_cur.set(ix, iz, v);
    }

    /// Overwrite this state from `other` without allocating (both time
    /// levels; extents must match). Checkpoint/restart and arena reuse go
    /// through this instead of `clone()`.
    pub fn copy_from(&mut self, other: &Self) {
        self.u_prev.copy_from(&other.u_prev);
        self.u_cur.copy_from(&other.u_cur);
    }
}

/// The 17-point Laplacian at flat index `c`.
#[inline(always)]
fn lap2(u: &[f32], c: usize, fnx: usize, rdx2: f32, rdz2: f32) -> f32 {
    let mut acc = f32c::C2[0] * u[c] * (rdx2 + rdz2);
    // Manually indexed like the Fortran original; k = 1..=4.
    for k in 1..=STENCIL_HALF {
        acc += f32c::C2[k] * ((u[c + k] + u[c - k]) * rdx2);
        acc += f32c::C2[k] * ((u[c + k * fnx] + u[c - k * fnx]) * rdz2);
    }
    acc
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn plain_update(
    u: &SyncSlice,
    u_cur: &[f32],
    vp: &[f32],
    c: usize,
    fnx: usize,
    dt2: f32,
    rdx2: f32,
    rdz2: f32,
) {
    let v = vp[c];
    let lap = lap2(u_cur, c, fnx, rdx2, rdz2);
    let next = 2.0 * u_cur[c] - u.get(c) + dt2 * v * v * lap;
    // Safety: each slab writes only its own rows (disjoint c).
    unsafe { u.set(c, next) };
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn damped_update(
    u: &SyncSlice,
    u_cur: &[f32],
    vp: &[f32],
    c: usize,
    fnx: usize,
    dt: f32,
    dt2: f32,
    rdx2: f32,
    rdz2: f32,
    sigma: f32,
) {
    let v = vp[c];
    let lap = lap2(u_cur, c, fnx, rdx2, rdz2);
    let next =
        (2.0 * u_cur[c] - (1.0 - sigma * dt) * u.get(c) + dt2 * v * v * lap) / (1.0 + sigma * dt);
    // Safety: each slab writes only its own rows.
    unsafe { u.set(c, next) };
}

/// One time step over interior rows `[z0, z1)`.
///
/// `u` aliases the *previous* time level and receives the next one (the
/// per-point read of `u.get(c)` happens before the write — no cross-point
/// dependency exists, which is also why the paper's OpenACC `independent`
/// clause is legal on this loop nest).
#[allow(clippy::too_many_arguments)]
pub fn step_slab(
    u: SyncSlice,
    u_cur: &[f32],
    vp: &[f32],
    e: Extent2,
    dx: f32,
    dz: f32,
    dt: f32,
    damp_x: &DampProfile,
    damp_z: &DampProfile,
    variant: IsoPmlVariant,
    z0: usize,
    z1: usize,
) {
    assert!(z1 <= e.nz && z0 <= z1);
    assert_eq!(u.len(), e.len());
    assert_eq!(u_cur.len(), e.len());
    let fnx = e.full_nx();
    let dt2 = dt * dt;
    let rdx2 = 1.0 / (dx * dx);
    let rdz2 = 1.0 / (dz * dz);
    let w = damp_x.width();
    // x-tile × z-row blocking: keeps the vertical stencil neighbors of a
    // tile resident across rows on wide grids. Point updates are
    // independent, so the schedule is bitwise-free (single tile on small
    // grids — the exact original loop).
    let tiling = tiles(e.nx, 3, 2 * STENCIL_HALF + 1);

    match variant {
        IsoPmlVariant::OriginalIfs => {
            // The paper's original kernel: one loop nest, per-point branch.
            for (x0, x1) in tiling.ranges(0, e.nx) {
                for iz in z0..z1 {
                    for ix in x0..x1 {
                        let c = e.idx(ix, iz);
                        if damp_x.in_layer(ix) || damp_z.in_layer(iz) {
                            let sigma = damp_x.sigma(ix) + damp_z.sigma(iz);
                            damped_update(&u, u_cur, vp, c, fnx, dt, dt2, rdx2, rdz2, sigma);
                        } else {
                            plain_update(&u, u_cur, vp, c, fnx, dt2, rdx2, rdz2);
                        }
                    }
                }
            }
        }
        IsoPmlVariant::RestructuredIndices => {
            // First approach of Section 5.2: change loop indices so every
            // loop body is branch-free and perfectly nested.
            for iz in z0..z1 {
                if damp_z.in_layer(iz) {
                    // Whole row lies in the z strip: damped everywhere.
                    for ix in 0..e.nx {
                        let sigma = damp_x.sigma(ix) + damp_z.sigma(iz);
                        let c = e.idx(ix, iz);
                        damped_update(&u, u_cur, vp, c, fnx, dt, dt2, rdx2, rdz2, sigma);
                    }
                } else {
                    for ix in 0..w {
                        let sigma = damp_x.sigma(ix);
                        let c = e.idx(ix, iz);
                        damped_update(&u, u_cur, vp, c, fnx, dt, dt2, rdx2, rdz2, sigma);
                    }
                    for ix in w..e.nx - w {
                        let c = e.idx(ix, iz);
                        plain_update(&u, u_cur, vp, c, fnx, dt2, rdx2, rdz2);
                    }
                    for ix in e.nx - w..e.nx {
                        let sigma = damp_x.sigma(ix);
                        let c = e.idx(ix, iz);
                        damped_update(&u, u_cur, vp, c, fnx, dt, dt2, rdx2, rdz2, sigma);
                    }
                }
            }
        }
        IsoPmlVariant::PmlEverywhere => {
            // Second approach: evaluate the damped form at every point.
            // σ = 0 in the interior makes this exact (1±0·dt = 1.0).
            for (x0, x1) in tiling.ranges(0, e.nx) {
                for iz in z0..z1 {
                    let sz = damp_z.sigma(iz);
                    for ix in x0..x1 {
                        let sigma = damp_x.sigma(ix) + sz;
                        let c = e.idx(ix, iz);
                        damped_update(&u, u_cur, vp, c, fnx, dt, dt2, rdx2, rdz2, sigma);
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
    use seismic_model::builder::iso2_constant;
    use seismic_model::{extent2, Geometry};
    use seismic_pml::DampProfile;
    use seismic_source::ricker;

    fn setup(n: usize, width: usize) -> (IsoModel2, DampProfile, DampProfile) {
        let e = extent2(n, n);
        let h = 10.0;
        let vmax = 2000.0;
        let dt = stable_dt(8, 2, vmax, h, 0.8);
        let m = iso2_constant(e, vmax, Geometry::uniform(h, dt));
        let dx = DampProfile::new(n, e.halo, width, vmax, h, 1e-4);
        let dz = DampProfile::new(n, e.halo, width, vmax, h, 1e-4);
        (m, dx, dz)
    }

    fn run(variant: IsoPmlVariant, n: usize, steps: usize) -> Iso2State {
        let (m, dpx, dpz) = setup(n, 12);
        let mut s = Iso2State::new(m.vp.extent());
        for t in 0..steps {
            s.step(&m, &dpx, &dpz, variant);
            let amp = ricker(25.0, t as f32 * m.geom.dt - 0.048);
            s.inject(&m, n / 2, n / 2, amp);
        }
        s
    }

    /// The three PML variants must be bitwise identical — that is the whole
    /// premise of the paper's "compute PML everywhere" restructuring.
    #[test]
    fn variants_are_bitwise_identical() {
        let a = run(IsoPmlVariant::OriginalIfs, 64, 60);
        let b = run(IsoPmlVariant::RestructuredIndices, 64, 60);
        let c = run(IsoPmlVariant::PmlEverywhere, 64, 60);
        assert_eq!(a.u_cur, b.u_cur);
        assert_eq!(a.u_cur, c.u_cur);
    }

    /// A stable run must not blow up and must actually propagate energy.
    #[test]
    fn stable_run_propagates() {
        let s = run(IsoPmlVariant::OriginalIfs, 96, 120);
        let m = s.u_cur.max_abs();
        assert!(m.is_finite() && m > 0.0, "max = {m}");
        assert!(m < 100.0, "unexpected growth: {m}");
        // Wave must have reached away from the source.
        assert!(s.u_cur.get(48 + 20, 48).abs() > 0.0);
    }

    /// Violating the CFL bound must blow up (sanity of the stability limit).
    #[test]
    fn cfl_violation_blows_up() {
        let e = extent2(48, 48);
        let h = 10.0;
        let vmax = 2000.0;
        let dt = stable_dt(8, 2, vmax, h, 0.8) * 3.0; // ~3x over the limit
        let m = iso2_constant(e, vmax, Geometry::uniform(h, dt));
        let dpx = DampProfile::new(48, e.halo, 8, vmax, h, 1e-4);
        let dpz = DampProfile::new(48, e.halo, 8, vmax, h, 1e-4);
        let mut s = Iso2State::new(e);
        for t in 0..200 {
            s.step(&m, &dpx, &dpz, IsoPmlVariant::OriginalIfs);
            s.inject(&m, 24, 24, ricker(25.0, t as f32 * dt - 0.048));
            if !s.u_cur.max_abs().is_finite() || s.u_cur.max_abs() > 1e6 {
                return; // blew up as expected
            }
        }
        panic!("unstable dt did not blow up");
    }

    /// The wavefront must travel at the model velocity: after time T the
    /// peak along a ray from the source sits near radius vp·T.
    #[test]
    fn wavefront_speed_matches_velocity() {
        let n = 160;
        let (m, dpx, dpz) = setup(n, 16);
        let mut s = Iso2State::new(m.vp.extent());
        let steps = 140;
        let f = 25.0;
        let t0 = 1.2 / f;
        for t in 0..steps {
            s.step(&m, &dpx, &dpz, IsoPmlVariant::PmlEverywhere);
            s.inject(&m, n / 2, n / 2, ricker(f, t as f32 * m.geom.dt - t0));
        }
        let elapsed = steps as f32 * m.geom.dt - t0; // since wavelet peak
        let expect_r = 2000.0 * elapsed / m.geom.dx; // in grid points
                                                     // Scan along +x from the source for the absolute peak.
        let mut best = (0usize, 0.0f32);
        for r in 5..n / 2 - 2 {
            let v = s.u_cur.get(n / 2 + r, n / 2).abs();
            if v > best.1 {
                best = (r, v);
            }
        }
        let err = (best.0 as f32 - expect_r).abs();
        assert!(
            err <= 4.0,
            "wavefront at r = {} points, expected ~{expect_r}",
            best.0
        );
    }

    /// With absorbing boundaries, total field energy must decay after the
    /// source stops — spurious reflections would keep it high.
    #[test]
    fn damping_layer_absorbs_energy() {
        let n = 96;
        let (m, dpx, dpz) = setup(n, 16);
        let mut s = Iso2State::new(m.vp.extent());
        let mut peak = 0.0f64;
        // Source active for 80 steps, then free propagation.
        for t in 0..600 {
            s.step(&m, &dpx, &dpz, IsoPmlVariant::OriginalIfs);
            if t < 80 {
                s.inject(&m, n / 2, n / 2, ricker(25.0, t as f32 * m.geom.dt - 0.048));
            }
            peak = peak.max(s.u_cur.energy());
        }
        let final_e = s.u_cur.energy();
        assert!(
            final_e < peak * 0.05,
            "energy not absorbed: final {final_e} vs peak {peak}"
        );
    }

    /// Slab-parallel decomposition must agree with the sequential sweep.
    #[test]
    fn slab_split_matches_sequential() {
        let (m, dpx, dpz) = setup(64, 12);
        let e = m.vp.extent();
        let mut seq = Iso2State::new(e);
        let mut par = Iso2State::new(e);
        for t in 0..40 {
            seq.step(&m, &dpx, &dpz, IsoPmlVariant::OriginalIfs);
            // Manual 3-slab split of the same kernel.
            {
                let u = SyncSlice::new(par.u_prev.as_mut_slice());
                for (z0, z1) in [(0usize, 20usize), (20, 43), (43, 64)] {
                    step_slab(
                        u,
                        par.u_cur.as_slice(),
                        m.vp.as_slice(),
                        e,
                        m.geom.dx,
                        m.geom.dz,
                        m.geom.dt,
                        &dpx,
                        &dpz,
                        IsoPmlVariant::OriginalIfs,
                        z0,
                        z1,
                    );
                }
                par.u_prev.swap(&mut par.u_cur);
            }
            let amp = ricker(25.0, t as f32 * m.geom.dt - 0.048);
            seq.inject(&m, 32, 32, amp);
            par.inject(&m, 32, 32, amp);
        }
        assert_eq!(seq.u_cur, par.u_cur);
    }
}
