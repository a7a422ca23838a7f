//! Real-execution 3D seismic modeling driver.
//!
//! 3D counterpart of [`crate::modeling`]: the same Algorithm-1 forward
//! phase over the volumetric propagators, with gang-parallel slab execution
//! along z. 3D runs are what the paper's headline table rows measure; here
//! they execute for real at laptop scale (the production-scale timing goes
//! through [`crate::gpu_time`]).

use crate::case::OptimizationConfig;
use openacc_sim::exec::par_slabs;
use seismic_grid::{Extent3, Field3, SyncSlice};
use seismic_model::{AcousticModel3, ElasticModel3, IsoModel3};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_prop::{acoustic3d, elastic3d, iso3d};
use seismic_source::{Acquisition3, Seismogram, Wavelet};

/// A 3D medium: model + matching absorbing boundary.
pub enum Medium3 {
    /// Isotropic constant-density.
    Iso {
        /// Earth model.
        model: IsoModel3,
        /// Damping profiles along x, y, z.
        damp: [DampProfile; 3],
    },
    /// Acoustic variable-density.
    Acoustic {
        /// Earth model.
        model: AcousticModel3,
        /// C-PML coefficients for x, y, z.
        cpml: [CpmlAxis; 3],
    },
    /// Elastic isotropic.
    Elastic {
        /// Earth model.
        model: ElasticModel3,
        /// C-PML coefficients for x, y, z.
        cpml: [CpmlAxis; 3],
    },
}

impl Medium3 {
    /// Grid extent.
    pub fn extent(&self) -> Extent3 {
        match self {
            Medium3::Iso { model, .. } => model.vp.extent(),
            Medium3::Acoustic { model, .. } => model.vp.extent(),
            Medium3::Elastic { model, .. } => model.rho.extent(),
        }
    }

    /// Time step.
    pub fn dt(&self) -> f32 {
        match self {
            Medium3::Iso { model, .. } => model.geom.dt,
            Medium3::Acoustic { model, .. } => model.geom.dt,
            Medium3::Elastic { model, .. } => model.geom.dt,
        }
    }
}

/// Wavefield state matching a [`Medium3`].
pub enum State3 {
    /// Isotropic two-level state.
    Iso(iso3d::Iso3State),
    /// Acoustic staggered state.
    Acoustic(acoustic3d::Ac3State),
    /// Elastic velocity–stress state.
    Elastic(elastic3d::El3State),
}

impl State3 {
    /// Quiescent state for a medium.
    pub fn new(medium: &Medium3) -> Self {
        let e = medium.extent();
        match medium {
            Medium3::Iso { .. } => State3::Iso(iso3d::Iso3State::new(e)),
            Medium3::Acoustic { .. } => State3::Acoustic(acoustic3d::Ac3State::new(e)),
            Medium3::Elastic { .. } => State3::Elastic(elastic3d::El3State::new(e)),
        }
    }

    /// The pressure-like field sampled by receivers and snapshots.
    pub fn sample(&self, ix: usize, iy: usize, iz: usize) -> f32 {
        match self {
            State3::Iso(s) => s.u_cur.get(ix, iy, iz),
            State3::Acoustic(s) => s.p.get(ix, iy, iz),
            State3::Elastic(s) => {
                (s.sxx.get(ix, iy, iz) + s.syy.get(ix, iy, iz) + s.szz.get(ix, iy, iz)) / 3.0
            }
        }
    }

    /// A full snapshot of the pressure-like field (3D volumes are large —
    /// callers usually prefer [`State3::slice_y`]).
    pub fn wavefield(&self) -> Field3 {
        match self {
            State3::Iso(s) => s.u_cur.clone(),
            State3::Acoustic(s) => s.p.clone(),
            State3::Elastic(s) => {
                let e = s.sxx.extent();
                Field3::from_fn(e, |ix, iy, iz| self.sample(ix, iy, iz))
            }
        }
    }

    /// The x–z plane of the pressure-like field at interior `iy`.
    pub fn slice_y(&self, iy: usize) -> seismic_grid::Field2 {
        match self {
            State3::Iso(s) => s.u_cur.slice_y(iy),
            State3::Acoustic(s) => s.p.slice_y(iy),
            State3::Elastic(s) => {
                let e = s.sxx.extent();
                let e2 = seismic_grid::Extent2::new(e.nx, e.nz, e.halo);
                seismic_grid::Field2::from_fn(e2, |ix, iz| self.sample(ix, iy, iz))
            }
        }
    }

    /// [`wavefield`](Self::wavefield) into a caller-owned volume without
    /// allocating — the steady-state snapshot path (for the elastic
    /// formulation only the interior is written, so `out` should start
    /// zeroed to match `wavefield` bitwise).
    pub fn write_wavefield_into(&self, out: &mut Field3) {
        match self {
            State3::Iso(s) => out.copy_from(&s.u_cur),
            State3::Acoustic(s) => out.copy_from(&s.p),
            State3::Elastic(s) => {
                let e = s.sxx.extent();
                assert_eq!(out.extent(), e, "wavefield extent mismatch");
                for iz in 0..e.nz {
                    for iy in 0..e.ny {
                        for ix in 0..e.nx {
                            out.set(ix, iy, iz, self.sample(ix, iy, iz));
                        }
                    }
                }
            }
        }
    }

    /// [`slice_y`](Self::slice_y) into a caller-owned plane without
    /// allocating — the steady-state snapshot path (interior writes only,
    /// so `out` should start zeroed to match `slice_y` bitwise).
    pub fn write_slice_y_into(&self, iy: usize, out: &mut seismic_grid::Field2) {
        match self {
            State3::Iso(s) => s.u_cur.write_slice_y_into(iy, out),
            State3::Acoustic(s) => s.p.write_slice_y_into(iy, out),
            State3::Elastic(s) => {
                let e = s.sxx.extent();
                let e2 = out.extent();
                assert_eq!(
                    (e2.nx, e2.nz, e2.halo),
                    (e.nx, e.nz, e.halo),
                    "plane extent mismatch"
                );
                for iz in 0..e.nz {
                    for ix in 0..e.nx {
                        out.set(ix, iz, self.sample(ix, iy, iz));
                    }
                }
            }
        }
    }

    /// Overwrite this state from `other` without allocating. Both must be
    /// the same formulation on the same extent — the checkpoint-slot and
    /// arena-reuse path.
    pub fn copy_from(&mut self, other: &Self) {
        match (self, other) {
            (State3::Iso(d), State3::Iso(s)) => d.copy_from(s),
            (State3::Acoustic(d), State3::Acoustic(s)) => d.copy_from(s),
            (State3::Elastic(d), State3::Elastic(s)) => d.copy_from(s),
            _ => panic!("state/state formulation mismatch"),
        }
    }

    /// Pressure-like source injection at an interior point.
    pub fn inject(&mut self, medium: &Medium3, ix: usize, iy: usize, iz: usize, amp: f32) {
        match (self, medium) {
            (State3::Iso(s), Medium3::Iso { model, .. }) => s.inject(model, ix, iy, iz, amp),
            (State3::Acoustic(s), Medium3::Acoustic { model, .. }) => {
                s.inject(model, ix, iy, iz, amp)
            }
            (State3::Elastic(s), Medium3::Elastic { model, .. }) => {
                s.inject(model, ix, iy, iz, amp * 1e6)
            }
            _ => panic!("state/medium formulation mismatch"),
        }
    }

    /// Advance one time step on `gangs` host threads.
    pub fn step(&mut self, medium: &Medium3, config: &OptimizationConfig, gangs: usize) {
        let e = medium.extent();
        let nz = e.nz;
        match (self, medium) {
            (State3::Iso(s), Medium3::Iso { model, damp }) => {
                {
                    let u = SyncSlice::new(s.u_prev.as_mut_slice());
                    let cur = s.u_cur.as_slice();
                    par_slabs(nz, gangs, |z0, z1| {
                        iso3d::step_slab(
                            u,
                            cur,
                            model.vp.as_slice(),
                            e,
                            [model.geom.dx, model.geom.dy, model.geom.dz],
                            model.geom.dt,
                            damp,
                            config.iso_pml,
                            z0,
                            z1,
                        );
                    });
                }
                s.u_prev.swap(&mut s.u_cur);
            }
            (State3::Acoustic(s), Medium3::Acoustic { model, cpml }) => {
                acoustic3_velocity_phase(s, model, cpml, e, gangs, model.geom.dt);
                acoustic3_pressure_phase(s, model, cpml, e, gangs, model.geom.dt, config, false);
            }
            (State3::Elastic(s), Medium3::Elastic { model, cpml }) => {
                // The elastic step has six kernels with ψ-array ownership
                // spread across the psi vector; reuse the sequential step
                // for z-slabs by partitioning inside each kernel call.
                // (El3State::step already runs the kernels over the full
                // range; parallelise by calling its kernels per slab.)
                elastic_step_gangs(s, model, cpml, gangs);
            }
            _ => panic!("state/medium formulation mismatch"),
        }
    }

    /// Undo one [`State3::step`] through a **lossless** medium (transparent
    /// absorbers) — the 3-D counterpart of [`crate::modeling::State2::step_reverse`],
    /// with the same contract: leapfrog states reverse by stepping forward
    /// from swapped levels; staggered states run their phases in reverse
    /// order with `−dt` (the fissioned acoustic pressure phase additionally
    /// reverses its per-axis loop, since the three axis updates accumulate
    /// into `p` sequentially). Callers remove the source injection first.
    pub fn step_reverse(&mut self, medium: &Medium3, config: &OptimizationConfig, gangs: usize) {
        let e = medium.extent();
        match (&mut *self, medium) {
            (State3::Iso(_), Medium3::Iso { .. }) => {
                if let State3::Iso(s) = self {
                    s.u_prev.swap(&mut s.u_cur);
                }
                self.step(medium, config, gangs);
                if let State3::Iso(s) = self {
                    s.u_prev.swap(&mut s.u_cur);
                }
            }
            (State3::Acoustic(s), Medium3::Acoustic { model, cpml }) => {
                acoustic3_pressure_phase(s, model, cpml, e, gangs, -model.geom.dt, config, true);
                acoustic3_velocity_phase(s, model, cpml, e, gangs, -model.geom.dt);
            }
            (State3::Elastic(s), Medium3::Elastic { model, cpml }) => {
                elastic3_stress_gangs(s, model, cpml, gangs, -model.geom.dt);
                elastic3_velocity_gangs(s, model, cpml, gangs, -model.geom.dt);
            }
            _ => panic!("state/medium formulation mismatch"),
        }
    }
}

/// Acoustic 3-D phase 1: particle velocities from the pressure gradient
/// (`q += dt·D(p)` per axis, one fused kernel). `dt` is signed.
fn acoustic3_velocity_phase(
    s: &mut acoustic3d::Ac3State,
    model: &AcousticModel3,
    cpml: &[CpmlAxis; 3],
    e: Extent3,
    gangs: usize,
    dt: f32,
) {
    let h = [model.geom.dx, model.geom.dy, model.geom.dz];
    let qx = SyncSlice::new(s.qx.as_mut_slice());
    let qy = SyncSlice::new(s.qy.as_mut_slice());
    let qz = SyncSlice::new(s.qz.as_mut_slice());
    let px = SyncSlice::new(s.psi_px.as_mut_slice());
    let py = SyncSlice::new(s.psi_py.as_mut_slice());
    let pz = SyncSlice::new(s.psi_pz.as_mut_slice());
    let p = s.p.as_slice();
    par_slabs(e.nz, gangs, |z0, z1| {
        acoustic3d::velocity_slab(
            qx,
            qy,
            qz,
            px,
            py,
            pz,
            p,
            model.rho.as_slice(),
            e,
            h,
            dt,
            cpml,
            z0,
            z1,
        );
    });
}

/// Acoustic 3-D phase 2: pressure from the velocity divergence, in the
/// configured fused/fissioned form. The fissioned form updates `p` three
/// times in sequence (once per axis), so the reverse sweep must visit the
/// axes in the opposite order (`axes_reversed`); the fused form is a single
/// update and ignores the flag.
#[allow(clippy::too_many_arguments)]
fn acoustic3_pressure_phase(
    s: &mut acoustic3d::Ac3State,
    model: &AcousticModel3,
    cpml: &[CpmlAxis; 3],
    e: Extent3,
    gangs: usize,
    dt: f32,
    config: &OptimizationConfig,
    axes_reversed: bool,
) {
    let h = [model.geom.dx, model.geom.dy, model.geom.dz];
    match config.fission {
        seismic_prop::FissionVariant::Fused => {
            let p = SyncSlice::new(s.p.as_mut_slice());
            let sx = SyncSlice::new(s.psi_qx.as_mut_slice());
            let sy = SyncSlice::new(s.psi_qy.as_mut_slice());
            let sz = SyncSlice::new(s.psi_qz.as_mut_slice());
            let (qx, qy, qz) = (s.qx.as_slice(), s.qy.as_slice(), s.qz.as_slice());
            par_slabs(e.nz, gangs, |z0, z1| {
                acoustic3d::pressure_fused_slab(
                    p,
                    sx,
                    sy,
                    sz,
                    qx,
                    qy,
                    qz,
                    model.vp.as_slice(),
                    model.rho.as_slice(),
                    e,
                    h,
                    dt,
                    cpml,
                    z0,
                    z1,
                );
            });
        }
        seismic_prop::FissionVariant::Fissioned => {
            let order: [usize; 3] = if axes_reversed { [2, 1, 0] } else { [0, 1, 2] };
            for axis in order {
                let p = SyncSlice::new(s.p.as_mut_slice());
                let (psi, q) = match axis {
                    0 => (SyncSlice::new(s.psi_qx.as_mut_slice()), s.qx.as_slice()),
                    1 => (SyncSlice::new(s.psi_qy.as_mut_slice()), s.qy.as_slice()),
                    _ => (SyncSlice::new(s.psi_qz.as_mut_slice()), s.qz.as_slice()),
                };
                par_slabs(e.nz, gangs, |z0, z1| {
                    acoustic3d::pressure_axis_slab(
                        p,
                        psi,
                        q,
                        model.vp.as_slice(),
                        model.rho.as_slice(),
                        e,
                        axis,
                        h[axis],
                        dt,
                        &cpml[axis],
                        z0,
                        z1,
                    );
                });
            }
        }
    }
}

/// Gang-parallel elastic 3D step: each of the six kernels is run
/// slab-parallel in turn (same phase structure as the sequential
/// [`elastic3d::El3State::step`]).
fn elastic_step_gangs(
    s: &mut elastic3d::El3State,
    model: &ElasticModel3,
    cpml: &[CpmlAxis; 3],
    gangs: usize,
) {
    let dt = model.geom.dt;
    elastic3_velocity_gangs(s, model, cpml, gangs, dt);
    elastic3_stress_gangs(s, model, cpml, gangs, dt);
}

/// Elastic 3-D velocity phase (vx, vy, vz kernels — all read only
/// stresses). `dt` is signed so the reverse sweep can undo the phase.
fn elastic3_velocity_gangs(
    s: &mut elastic3d::El3State,
    model: &ElasticModel3,
    cpml: &[CpmlAxis; 3],
    gangs: usize,
    dt: f32,
) {
    let e = s.vx.extent();
    let nz = e.nz;
    let g = &model.geom;
    let h = [g.dx, g.dy, g.dz];
    {
        let (a, rest) = s.psi.split_at_mut(1);
        let (b, rest2) = rest.split_at_mut(1);
        let vx = SyncSlice::new(s.vx.as_mut_slice());
        let p0 = SyncSlice::new(a[0].as_mut_slice());
        let p1 = SyncSlice::new(b[0].as_mut_slice());
        let p2 = SyncSlice::new(rest2[0].as_mut_slice());
        let (sxx, sxy, sxz) = (s.sxx.as_slice(), s.sxy.as_slice(), s.sxz.as_slice());
        par_slabs(nz, gangs, |z0, z1| {
            elastic3d::vx_slab(
                vx,
                p0,
                p1,
                p2,
                sxx,
                sxy,
                sxz,
                model.rho.as_slice(),
                e,
                h,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }
    {
        let (_, rest) = s.psi.split_at_mut(3);
        let (a, rest2) = rest.split_at_mut(1);
        let (b, rest3) = rest2.split_at_mut(1);
        let vy = SyncSlice::new(s.vy.as_mut_slice());
        let p0 = SyncSlice::new(a[0].as_mut_slice());
        let p1 = SyncSlice::new(b[0].as_mut_slice());
        let p2 = SyncSlice::new(rest3[0].as_mut_slice());
        let (sxy, syy, syz) = (s.sxy.as_slice(), s.syy.as_slice(), s.syz.as_slice());
        par_slabs(nz, gangs, |z0, z1| {
            elastic3d::vy_slab(
                vy,
                p0,
                p1,
                p2,
                sxy,
                syy,
                syz,
                model.rho.as_slice(),
                e,
                h,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }
    {
        let (_, rest) = s.psi.split_at_mut(6);
        let (a, rest2) = rest.split_at_mut(1);
        let (b, rest3) = rest2.split_at_mut(1);
        let vz = SyncSlice::new(s.vz.as_mut_slice());
        let p0 = SyncSlice::new(a[0].as_mut_slice());
        let p1 = SyncSlice::new(b[0].as_mut_slice());
        let p2 = SyncSlice::new(rest3[0].as_mut_slice());
        let (sxz, syz, szz) = (s.sxz.as_slice(), s.syz.as_slice(), s.szz.as_slice());
        par_slabs(nz, gangs, |z0, z1| {
            elastic3d::vz_slab(
                vz,
                p0,
                p1,
                p2,
                sxz,
                syz,
                szz,
                model.rho.as_slice(),
                e,
                h,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }
}

/// Elastic 3-D stress phase (diagonal, sxy/sxz, syz kernels — all read
/// only velocities). `dt` is signed.
fn elastic3_stress_gangs(
    s: &mut elastic3d::El3State,
    model: &ElasticModel3,
    cpml: &[CpmlAxis; 3],
    gangs: usize,
    dt: f32,
) {
    let e = s.vx.extent();
    let nz = e.nz;
    let g = &model.geom;
    let h = [g.dx, g.dy, g.dz];
    {
        let (_, rest) = s.psi.split_at_mut(9);
        let (a, rest2) = rest.split_at_mut(1);
        let (b, rest3) = rest2.split_at_mut(1);
        let sxx = SyncSlice::new(s.sxx.as_mut_slice());
        let syy = SyncSlice::new(s.syy.as_mut_slice());
        let szz = SyncSlice::new(s.szz.as_mut_slice());
        let p0 = SyncSlice::new(a[0].as_mut_slice());
        let p1 = SyncSlice::new(b[0].as_mut_slice());
        let p2 = SyncSlice::new(rest3[0].as_mut_slice());
        let (vx, vy, vz) = (s.vx.as_slice(), s.vy.as_slice(), s.vz.as_slice());
        par_slabs(nz, gangs, |z0, z1| {
            elastic3d::stress_diag_slab(
                sxx,
                syy,
                szz,
                p0,
                p1,
                p2,
                vx,
                vy,
                vz,
                model.lam.as_slice(),
                model.mu.as_slice(),
                e,
                h,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }
    {
        let (_, rest) = s.psi.split_at_mut(12);
        let (a, rest2) = rest.split_at_mut(1);
        let (b, rest3) = rest2.split_at_mut(1);
        let (c, rest4) = rest3.split_at_mut(1);
        let sxy = SyncSlice::new(s.sxy.as_mut_slice());
        let sxz = SyncSlice::new(s.sxz.as_mut_slice());
        let p0 = SyncSlice::new(a[0].as_mut_slice());
        let p1 = SyncSlice::new(b[0].as_mut_slice());
        let p2 = SyncSlice::new(c[0].as_mut_slice());
        let p3 = SyncSlice::new(rest4[0].as_mut_slice());
        let (vx, vy, vz) = (s.vx.as_slice(), s.vy.as_slice(), s.vz.as_slice());
        par_slabs(nz, gangs, |z0, z1| {
            elastic3d::stress_sxy_sxz_slab(
                sxy,
                sxz,
                p0,
                p1,
                p2,
                p3,
                vx,
                vy,
                vz,
                model.mu.as_slice(),
                e,
                h,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }
    {
        let (_, rest) = s.psi.split_at_mut(16);
        let (a, rest2) = rest.split_at_mut(1);
        let syz = SyncSlice::new(s.syz.as_mut_slice());
        let p0 = SyncSlice::new(a[0].as_mut_slice());
        let p1 = SyncSlice::new(rest2[0].as_mut_slice());
        let (vy, vz) = (s.vy.as_slice(), s.vz.as_slice());
        par_slabs(nz, gangs, |z0, z1| {
            elastic3d::stress_syz_slab(
                syz,
                p0,
                p1,
                vy,
                vz,
                model.mu.as_slice(),
                e,
                h,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }
}

/// Output of a 3D modeling run: y-plane snapshots plus the shot record.
pub struct Modeling3Result {
    /// x–z plane snapshots at the source's y index, every `snap_period`.
    pub snapshots: Vec<seismic_grid::Field2>,
    /// The recorded shot record.
    pub seismogram: Seismogram,
}

/// Run 3D forward modeling with plane-snapshot saves.
pub fn run_modeling3(
    medium: &Medium3,
    acq: &Acquisition3,
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    gangs: usize,
) -> Modeling3Result {
    let mut state = State3::new(medium);
    let mut seismogram = Seismogram::zeros(acq.n_receivers(), steps);
    // Plane-snapshot storage is sized up front so the time loop itself
    // performs no allocation.
    let e = medium.extent();
    let e2 = seismic_grid::Extent2::new(e.nx, e.nz, e.halo);
    let n_snaps = steps.div_ceil(snap_period);
    let mut snapshots: Vec<seismic_grid::Field2> = (0..n_snaps)
        .map(|_| seismic_grid::Field2::zeros(e2))
        .collect();
    let dt = medium.dt();
    // Wall-clock forward phase (no-op unless the host profiler is on).
    let t_phase = exec_host::prof::begin();
    for t in 0..steps {
        state.step(medium, config, gangs);
        state.inject(
            medium,
            acq.src_ix,
            acq.src_iy,
            acq.src_iz,
            wavelet.sample(t as f32 * dt),
        );
        for (r, rcv) in acq.receivers.iter().enumerate() {
            seismogram.record(r, t, state.sample(rcv.ix, rcv.iy, rcv.iz));
        }
        if t % snap_period == 0 {
            state.write_slice_y_into(acq.src_iy, &mut snapshots[t / snap_period]);
        }
    }
    exec_host::prof::end(
        t_phase,
        exec_host::prof::EventKind::Phase,
        exec_host::prof::PHASE_FORWARD,
        0,
    );
    Modeling3Result {
        snapshots,
        seismogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{
        acoustic3_layered, elastic3_layered, iso3_layered, standard_layers,
    };
    use seismic_model::{extent3, Geometry};

    fn media(n: usize) -> Vec<(&'static str, Medium3)> {
        let e = extent3(n, n, n);
        let h = 10.0;
        let vmax = 3200.0;
        let geom = |safety| Geometry::uniform(h, stable_dt(8, 3, vmax, h, safety));
        let layers = standard_layers(n);
        let d = DampProfile::new(n, e.halo, 6, vmax, h, 1e-4);
        let cp = CpmlAxis::new(n, e.halo, 6, stable_dt(8, 3, vmax, h, 0.5), vmax, h, 1e-4);
        vec![
            (
                "iso",
                Medium3::Iso {
                    model: iso3_layered(e, &layers, geom(0.7)),
                    damp: [d.clone(), d.clone(), d],
                },
            ),
            (
                "acoustic",
                Medium3::Acoustic {
                    model: acoustic3_layered(e, &layers, geom(0.55)),
                    cpml: [cp.clone(), cp.clone(), cp.clone()],
                },
            ),
            (
                "elastic",
                Medium3::Elastic {
                    model: elastic3_layered(e, &layers, geom(0.5)),
                    cpml: [cp.clone(), cp.clone(), cp],
                },
            ),
        ]
    }

    #[test]
    fn all_formulations_model_stably_3d() {
        let n = 28;
        for (name, medium) in media(n) {
            let acq = Acquisition3::surface_patch(n, n, (n / 2, n / 2, 6), 3, 8);
            let r = run_modeling3(
                &medium,
                &acq,
                &Wavelet::ricker(25.0),
                &OptimizationConfig::default(),
                50,
                10,
                4,
            );
            assert_eq!(r.snapshots.len(), 5, "{name}");
            assert!(r.seismogram.rms() > 0.0, "{name}");
            let peak = r.snapshots.last().unwrap().max_abs();
            assert!(peak.is_finite(), "{name}: {peak}");
        }
    }

    /// Gang-count invariance in 3D, including the six-kernel elastic path.
    #[test]
    fn gang_invariance_3d() {
        let n = 24;
        for (name, medium) in media(n) {
            let acq = Acquisition3::surface_patch(n, n, (n / 2, n / 2, n / 2), 3, 12);
            let cfg = OptimizationConfig::default();
            let w = Wavelet::ricker(25.0);
            let a = run_modeling3(&medium, &acq, &w, &cfg, 25, 5, 1);
            let b = run_modeling3(&medium, &acq, &w, &cfg, 25, 5, 6);
            assert_eq!(a.seismogram, b.seismogram, "{name}");
            assert_eq!(a.snapshots, b.snapshots, "{name}");
        }
    }

    /// The 3D fission knob is physics-preserving through the driver too.
    #[test]
    fn fission_variants_agree_through_driver() {
        let n = 24;
        let medium = &media(n)[1].1;
        let acq = Acquisition3::surface_patch(n, n, (n / 2, n / 2, 6), 3, 12);
        let w = Wavelet::ricker(25.0);
        let fused = run_modeling3(
            medium,
            &acq,
            &w,
            &OptimizationConfig {
                fission: seismic_prop::FissionVariant::Fused,
                ..OptimizationConfig::default()
            },
            30,
            6,
            4,
        );
        let fiss = run_modeling3(medium, &acq, &w, &OptimizationConfig::default(), 30, 6, 4);
        // Reassociated accumulation: tight tolerance, not bitwise.
        let scale = fused.seismogram.rms().max(1e-30);
        for r in 0..acq.n_receivers() {
            for t in 0..30 {
                let d = (fused.seismogram.get(r, t) - fiss.seismogram.get(r, t)).abs() as f64;
                assert!(d < 1e-3 * scale, "r={r} t={t}");
            }
        }
    }

    /// 3-D counterpart of the 2-D reversibility test: through transparent
    /// boundaries, `inject(−s_t); step_reverse()` reconstructs every forward
    /// wavefield to f32 roundoff — for all three formulations, and for the
    /// acoustic path under *both* fission variants (the fissioned reverse
    /// must re-visit the per-axis updates in the opposite order).
    #[test]
    fn step_reverse_reconstructs_forward_states_3d() {
        let n = 20;
        let e = extent3(n, n, n);
        let h = 10.0;
        let vmax = 3200.0;
        let geom = |safety| Geometry::uniform(h, stable_dt(8, 3, vmax, h, safety));
        let layers = standard_layers(n);
        let tr_d = || DampProfile::transparent(n, e.halo);
        let tr_c = || CpmlAxis::transparent(n, e.halo);
        let media: Vec<(&str, Medium3)> = vec![
            (
                "iso",
                Medium3::Iso {
                    model: iso3_layered(e, &layers, geom(0.7)),
                    damp: [tr_d(), tr_d(), tr_d()],
                },
            ),
            (
                "acoustic",
                Medium3::Acoustic {
                    model: acoustic3_layered(e, &layers, geom(0.55)),
                    cpml: [tr_c(), tr_c(), tr_c()],
                },
            ),
            (
                "elastic",
                Medium3::Elastic {
                    model: elastic3_layered(e, &layers, geom(0.5)),
                    cpml: [tr_c(), tr_c(), tr_c()],
                },
            ),
        ];
        let w = Wavelet::ricker(25.0);
        let steps = 30;
        for (name, medium) in &media {
            let variants: &[seismic_prop::FissionVariant] = if *name == "acoustic" {
                &[
                    seismic_prop::FissionVariant::Fused,
                    seismic_prop::FissionVariant::Fissioned,
                ]
            } else {
                &[seismic_prop::FissionVariant::Fissioned]
            };
            for &fission in variants {
                let cfg = OptimizationConfig {
                    fission,
                    ..OptimizationConfig::default()
                };
                let dt = medium.dt();
                let mut s = State3::new(medium);
                let mut stored = Vec::new();
                let mut peak = 0.0f32;
                for t in 0..steps {
                    s.step(medium, &cfg, 3);
                    s.inject(medium, n / 2, n / 2, n / 2, w.sample(t as f32 * dt));
                    let mut f = Field3::zeros(e);
                    s.write_wavefield_into(&mut f);
                    peak = peak.max(f.max_abs());
                    stored.push(f);
                }
                let mut recon = Field3::zeros(e);
                for t in (1..steps).rev() {
                    s.inject(medium, n / 2, n / 2, n / 2, -w.sample(t as f32 * dt));
                    s.step_reverse(medium, &cfg, 3);
                    recon.fill_zero();
                    s.write_wavefield_into(&mut recon);
                    let max_d = recon
                        .as_slice()
                        .iter()
                        .zip(stored[t - 1].as_slice())
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f32, f32::max);
                    assert!(
                        max_d / peak < 1e-3,
                        "{name}/{fission:?} step {t}: error {max_d} vs peak {peak}"
                    );
                }
            }
        }
    }

    /// Every field of a state, the C-PML memory variables included.
    fn state_fields(s: &State3) -> Vec<&Field3> {
        match s {
            State3::Iso(s) => vec![&s.u_prev, &s.u_cur],
            State3::Acoustic(s) => vec![
                &s.p, &s.qx, &s.qy, &s.qz, &s.psi_px, &s.psi_py, &s.psi_pz, &s.psi_qx, &s.psi_qy,
                &s.psi_qz,
            ],
            State3::Elastic(s) => {
                let mut f = vec![
                    &s.vx, &s.vy, &s.vz, &s.sxx, &s.syy, &s.szz, &s.sxy, &s.sxz, &s.syz,
                ];
                f.extend(&s.psi);
                f
            }
        }
    }

    /// The 3D counterpart of the 2D subnormal-shell test: no state field,
    /// ψ memory included, may store a subnormal while the stencil's leading
    /// edge decays through that range, under both acoustic fission forms.
    #[test]
    fn wavefront_tails_leave_no_subnormals_3d() {
        let n = 32;
        let w = Wavelet::ricker(25.0);
        for (name, medium) in media(n) {
            for fission in [
                seismic_prop::FissionVariant::Fused,
                seismic_prop::FissionVariant::Fissioned,
            ] {
                let cfg = OptimizationConfig {
                    fission,
                    ..OptimizationConfig::default()
                };
                let dt = medium.dt();
                let mut s = State3::new(&medium);
                for t in 0..12 {
                    s.step(&medium, &cfg, 2);
                    s.inject(&medium, n / 2, n / 2, n / 2, w.sample(t as f32 * dt));
                    for (i, f) in state_fields(&s).iter().enumerate() {
                        assert_eq!(
                            f.subnormal_count(),
                            0,
                            "{name}/{fission:?}: field {i} at step {t}"
                        );
                    }
                }
                let tail = state_fields(&s)
                    .iter()
                    .flat_map(|f| f.as_slice())
                    .any(|v| *v != 0.0 && v.abs() < 1e-25);
                assert!(tail, "{name}/{fission:?}: no wavefront tail near the floor");
            }
        }
    }
}
