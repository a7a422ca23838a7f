//! Real-execution 2D seismic modeling driver.
//!
//! The forward phase of Algorithm 1, executed for real on host gangs:
//! at each step it exchanges nothing (single domain), advances the
//! wavefield with the configured kernel variant, injects the source,
//! records the seismogram, and saves a snapshot each `snap_period` — the
//! outputs being the movie-of-snapshots (Figure 3) and the shot record the
//! RTM backward phase consumes.

use crate::case::OptimizationConfig;
use openacc_sim::exec::par_slabs;
use seismic_grid::{Extent2, Field2, SyncSlice};
use seismic_model::{AcousticModel2, ElasticModel2, IsoModel2, VtiModel2};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_prop::{acoustic2d, elastic2d, iso2d, vti2d};
use seismic_source::{Acquisition2, Seismogram, Wavelet};

/// A 2D medium: model + matching absorbing boundary.
pub enum Medium2 {
    /// Isotropic constant-density.
    Iso {
        /// Earth model.
        model: IsoModel2,
        /// Damping profile along x.
        damp_x: DampProfile,
        /// Damping profile along z.
        damp_z: DampProfile,
    },
    /// Acoustic variable-density.
    Acoustic {
        /// Earth model.
        model: AcousticModel2,
        /// C-PML coefficients for x and z.
        cpml: [CpmlAxis; 2],
    },
    /// Elastic isotropic.
    Elastic {
        /// Earth model.
        model: ElasticModel2,
        /// C-PML coefficients for x and z.
        cpml: [CpmlAxis; 2],
    },
    /// Acoustic VTI (anisotropic) — the paper's future-work formulation.
    Vti {
        /// Earth model with Thomsen parameters.
        model: VtiModel2,
        /// Damping profile along x.
        damp_x: DampProfile,
        /// Damping profile along z.
        damp_z: DampProfile,
    },
}

impl Medium2 {
    /// Grid extent.
    pub fn extent(&self) -> Extent2 {
        match self {
            Medium2::Iso { model, .. } => model.vp.extent(),
            Medium2::Acoustic { model, .. } => model.vp.extent(),
            Medium2::Elastic { model, .. } => model.rho.extent(),
            Medium2::Vti { model, .. } => model.vp.extent(),
        }
    }

    /// Time step of the medium's geometry.
    pub fn dt(&self) -> f32 {
        match self {
            Medium2::Iso { model, .. } => model.geom.dt,
            Medium2::Acoustic { model, .. } => model.geom.dt,
            Medium2::Elastic { model, .. } => model.geom.dt,
            Medium2::Vti { model, .. } => model.geom.dt,
        }
    }
}

/// Wavefield state matching a [`Medium2`].
///
/// Variant sizes differ by their field-handle counts (the data itself is
/// heap-allocated); boxing would only add indirection to the hot path.
#[allow(clippy::large_enum_variant)]
pub enum State2 {
    /// Isotropic two-level state.
    Iso(iso2d::Iso2State),
    /// Acoustic staggered state.
    Acoustic(acoustic2d::Ac2State),
    /// Elastic velocity–stress state.
    Elastic(elastic2d::El2State),
    /// VTI coupled pseudo-acoustic state.
    Vti(vti2d::Vti2State),
}

impl State2 {
    /// Quiescent state for a medium.
    pub fn new(medium: &Medium2) -> Self {
        let e = medium.extent();
        match medium {
            Medium2::Iso { .. } => State2::Iso(iso2d::Iso2State::new(e)),
            Medium2::Acoustic { .. } => State2::Acoustic(acoustic2d::Ac2State::new(e)),
            Medium2::Elastic { .. } => State2::Elastic(elastic2d::El2State::new(e)),
            Medium2::Vti { .. } => State2::Vti(vti2d::Vti2State::new(e)),
        }
    }

    /// The pressure-like field sampled by receivers and snapshots:
    /// `u` (iso), `p` (acoustic), `(σxx+σzz)/2` (elastic).
    pub fn sample(&self, ix: usize, iz: usize) -> f32 {
        match self {
            State2::Iso(s) => s.u_cur.get(ix, iz),
            State2::Acoustic(s) => s.p.get(ix, iz),
            State2::Elastic(s) => 0.5 * (s.sxx.get(ix, iz) + s.szz.get(ix, iz)),
            State2::Vti(s) => s.p_cur.get(ix, iz),
        }
    }

    /// Snapshot of the pressure-like field.
    pub fn wavefield(&self) -> Field2 {
        match self {
            State2::Iso(s) => s.u_cur.clone(),
            State2::Acoustic(s) => s.p.clone(),
            State2::Elastic(s) => {
                let e = s.sxx.extent();
                Field2::from_fn(e, |ix, iz| 0.5 * (s.sxx.get(ix, iz) + s.szz.get(ix, iz)))
            }
            State2::Vti(s) => s.p_cur.clone(),
        }
    }

    /// [`wavefield`](Self::wavefield) into a caller-owned field without
    /// allocating — the steady-state snapshot path (extents must match).
    pub fn write_wavefield_into(&self, out: &mut Field2) {
        match self {
            State2::Iso(s) => out.copy_from(&s.u_cur),
            State2::Acoustic(s) => out.copy_from(&s.p),
            State2::Elastic(s) => {
                assert_eq!(out.extent(), s.sxx.extent(), "wavefield extent mismatch");
                for (d, (a, b)) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(s.sxx.as_slice().iter().zip(s.szz.as_slice()))
                {
                    *d = 0.5 * (a + b);
                }
            }
            State2::Vti(s) => out.copy_from(&s.p_cur),
        }
    }

    /// Overwrite this state from `other` without allocating. Both must be
    /// the same formulation on the same extent — the checkpoint-slot and
    /// arena-reuse path (a clone allocates every field; this recycles them).
    pub fn copy_from(&mut self, other: &Self) {
        match (self, other) {
            (State2::Iso(d), State2::Iso(s)) => d.copy_from(s),
            (State2::Acoustic(d), State2::Acoustic(s)) => d.copy_from(s),
            (State2::Elastic(d), State2::Elastic(s)) => d.copy_from(s),
            (State2::Vti(d), State2::Vti(s)) => d.copy_from(s),
            _ => panic!("state/state formulation mismatch"),
        }
    }

    /// Pressure-like source injection at an interior point.
    pub fn inject(&mut self, medium: &Medium2, ix: usize, iz: usize, amp: f32) {
        match (self, medium) {
            (State2::Iso(s), Medium2::Iso { model, .. }) => s.inject(model, ix, iz, amp),
            (State2::Acoustic(s), Medium2::Acoustic { model, .. }) => s.inject(model, ix, iz, amp),
            (State2::Elastic(s), Medium2::Elastic { model, .. }) => {
                s.inject(model, ix, iz, amp * 1e6)
            }
            (State2::Vti(s), Medium2::Vti { model, .. }) => s.inject(model, ix, iz, amp),
            _ => panic!("state/medium formulation mismatch"),
        }
    }

    /// Advance one time step on `gangs` host threads.
    pub fn step(&mut self, medium: &Medium2, config: &OptimizationConfig, gangs: usize) {
        let e = medium.extent();
        let nz = e.nz;
        match (self, medium) {
            (
                State2::Iso(s),
                Medium2::Iso {
                    model,
                    damp_x,
                    damp_z,
                },
            ) => {
                {
                    let u = SyncSlice::new(s.u_prev.as_mut_slice());
                    let cur = s.u_cur.as_slice();
                    par_slabs(nz, gangs, |z0, z1| {
                        iso2d::step_slab(
                            u,
                            cur,
                            model.vp.as_slice(),
                            e,
                            model.geom.dx,
                            model.geom.dz,
                            model.geom.dt,
                            damp_x,
                            damp_z,
                            config.iso_pml,
                            z0,
                            z1,
                        );
                    });
                }
                s.u_prev.swap(&mut s.u_cur);
            }
            (State2::Acoustic(s), Medium2::Acoustic { model, cpml }) => {
                acoustic_velocity_phase(s, model, cpml, e, gangs, model.geom.dt);
                acoustic_pressure_phase(s, model, cpml, e, gangs, model.geom.dt);
            }
            (State2::Elastic(s), Medium2::Elastic { model, cpml }) => {
                // Sequential per-kernel (4 kernels), each slab-parallel.
                elastic_velocity_phase(s, model, cpml, e, gangs, model.geom.dt);
                elastic_stress_phase(s, model, cpml, e, gangs, model.geom.dt);
            }
            (
                State2::Vti(s),
                Medium2::Vti {
                    model,
                    damp_x,
                    damp_z,
                },
            ) => {
                {
                    let p = SyncSlice::new(s.p_prev.as_mut_slice());
                    let q = SyncSlice::new(s.q_prev.as_mut_slice());
                    let (pc, qc) = (s.p_cur.as_slice(), s.q_cur.as_slice());
                    par_slabs(nz, gangs, |z0, z1| {
                        vti2d::step_slab(
                            p,
                            q,
                            pc,
                            qc,
                            model.vp.as_slice(),
                            model.epsilon.as_slice(),
                            model.delta.as_slice(),
                            e,
                            model.geom.dx,
                            model.geom.dz,
                            model.geom.dt,
                            damp_x,
                            damp_z,
                            z0,
                            z1,
                        );
                    });
                }
                s.p_prev.swap(&mut s.p_cur);
                s.q_prev.swap(&mut s.q_cur);
            }
            _ => panic!("state/medium formulation mismatch"),
        }
    }

    /// Swap the two time levels of a leapfrog state (no-op field renaming;
    /// staggered states have a single time level and panic).
    fn swap_levels(&mut self) {
        match self {
            State2::Iso(s) => s.u_prev.swap(&mut s.u_cur),
            State2::Vti(s) => {
                s.p_prev.swap(&mut s.p_cur);
                s.q_prev.swap(&mut s.q_cur);
            }
            _ => panic!("swap_levels is only defined for two-level states"),
        }
    }

    /// Undo one [`State2::step`]: advance the wavefield *backward* one step
    /// through a **lossless** medium (σ ≡ 0 damping / transparent C-PML, as
    /// built by [`crate::rand_boundary::randomize_medium2`]).
    ///
    /// * Leapfrog states (iso, VTI): the update `u⁺ = 2u − u⁻ + A(u)` is
    ///   symmetric in time when σ = 0 (the `(1 ∓ σdt)` factors are exactly
    ///   1.0), so stepping *forward* from swapped levels recovers the
    ///   previous level: swap, [`State2::step`], swap.
    /// * Staggered states (acoustic, elastic): each phase is an in-place
    ///   `field += dt·F(other fields)` update, so running the phases in
    ///   reverse order with `−dt` undoes them one by one. The ψ memory
    ///   variables stay identically zero under transparent C-PML (their
    ///   recursion is `ψ ← 1·ψ + 0·∂u`), so no dissipative history is lost.
    ///
    /// The inverse is exact in real arithmetic and deterministic (but not
    /// bit-exact — floating-point addition does not cancel perfectly) in
    /// `f32`; callers must have removed the step's source injection first.
    /// Calling this on a dissipative medium silently diverges instead of
    /// reconstructing — the random-boundary driver owns that contract.
    pub fn step_reverse(&mut self, medium: &Medium2, config: &OptimizationConfig, gangs: usize) {
        let e = medium.extent();
        match (&mut *self, medium) {
            (State2::Iso(_), Medium2::Iso { .. }) | (State2::Vti(_), Medium2::Vti { .. }) => {
                self.swap_levels();
                self.step(medium, config, gangs);
                self.swap_levels();
            }
            (State2::Acoustic(s), Medium2::Acoustic { model, cpml }) => {
                acoustic_pressure_phase(s, model, cpml, e, gangs, -model.geom.dt);
                acoustic_velocity_phase(s, model, cpml, e, gangs, -model.geom.dt);
            }
            (State2::Elastic(s), Medium2::Elastic { model, cpml }) => {
                elastic_stress_phase(s, model, cpml, e, gangs, -model.geom.dt);
                elastic_velocity_phase(s, model, cpml, e, gangs, -model.geom.dt);
            }
            _ => panic!("state/medium formulation mismatch"),
        }
    }
}

/// Acoustic staggered phase 1: particle velocities from the pressure
/// gradient, `q += dt·D(p)`. `dt` is signed so the reverse sweep can undo it.
fn acoustic_velocity_phase(
    s: &mut acoustic2d::Ac2State,
    model: &AcousticModel2,
    cpml: &[CpmlAxis; 2],
    e: Extent2,
    gangs: usize,
    dt: f32,
) {
    let qx = SyncSlice::new(s.qx.as_mut_slice());
    let qz = SyncSlice::new(s.qz.as_mut_slice());
    let px = SyncSlice::new(s.psi_px.as_mut_slice());
    let pz = SyncSlice::new(s.psi_pz.as_mut_slice());
    let p = s.p.as_slice();
    par_slabs(e.nz, gangs, |z0, z1| {
        acoustic2d::velocity_slab(
            qx,
            qz,
            px,
            pz,
            p,
            model.rho.as_slice(),
            e,
            model.geom.dx,
            model.geom.dz,
            dt,
            cpml,
            z0,
            z1,
        );
    });
}

/// Acoustic staggered phase 2: pressure from the velocity divergence,
/// `p += dt·E(q)`.
fn acoustic_pressure_phase(
    s: &mut acoustic2d::Ac2State,
    model: &AcousticModel2,
    cpml: &[CpmlAxis; 2],
    e: Extent2,
    gangs: usize,
    dt: f32,
) {
    let p = SyncSlice::new(s.p.as_mut_slice());
    let sx = SyncSlice::new(s.psi_qx.as_mut_slice());
    let sz = SyncSlice::new(s.psi_qz.as_mut_slice());
    let qx = s.qx.as_slice();
    let qz = s.qz.as_slice();
    par_slabs(e.nz, gangs, |z0, z1| {
        acoustic2d::pressure_slab(
            p,
            sx,
            sz,
            qx,
            qz,
            model.vp.as_slice(),
            model.rho.as_slice(),
            e,
            model.geom.dx,
            model.geom.dz,
            dt,
            cpml,
            z0,
            z1,
        );
    });
}

/// Elastic phase 1: particle velocities from stress divergence (vx then vz;
/// both read only stresses, so their order is immaterial).
fn elastic_velocity_phase(
    s: &mut elastic2d::El2State,
    model: &ElasticModel2,
    cpml: &[CpmlAxis; 2],
    e: Extent2,
    gangs: usize,
    dt: f32,
) {
    {
        let vx = SyncSlice::new(s.vx.as_mut_slice());
        let p1 = SyncSlice::new(s.psi_sxx_x.as_mut_slice());
        let p2 = SyncSlice::new(s.psi_sxz_z.as_mut_slice());
        let (sxx, sxz) = (s.sxx.as_slice(), s.sxz.as_slice());
        par_slabs(e.nz, gangs, |z0, z1| {
            elastic2d::vx_slab(
                vx,
                p1,
                p2,
                sxx,
                sxz,
                model.rho.as_slice(),
                e,
                model.geom.dx,
                model.geom.dz,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }
    {
        let vz = SyncSlice::new(s.vz.as_mut_slice());
        let p1 = SyncSlice::new(s.psi_sxz_x.as_mut_slice());
        let p2 = SyncSlice::new(s.psi_szz_z.as_mut_slice());
        let (sxz, szz) = (s.sxz.as_slice(), s.szz.as_slice());
        par_slabs(e.nz, gangs, |z0, z1| {
            elastic2d::vz_slab(
                vz,
                p1,
                p2,
                sxz,
                szz,
                model.rho.as_slice(),
                e,
                model.geom.dx,
                model.geom.dz,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }
}

/// Elastic phase 2: stresses from velocity gradients (diagonal then shear;
/// both read only velocities).
fn elastic_stress_phase(
    s: &mut elastic2d::El2State,
    model: &ElasticModel2,
    cpml: &[CpmlAxis; 2],
    e: Extent2,
    gangs: usize,
    dt: f32,
) {
    {
        let sxx = SyncSlice::new(s.sxx.as_mut_slice());
        let szz = SyncSlice::new(s.szz.as_mut_slice());
        let p1 = SyncSlice::new(s.psi_vx_x.as_mut_slice());
        let p2 = SyncSlice::new(s.psi_vz_z.as_mut_slice());
        let (vx, vz) = (s.vx.as_slice(), s.vz.as_slice());
        par_slabs(e.nz, gangs, |z0, z1| {
            elastic2d::stress_diag_slab(
                sxx,
                szz,
                p1,
                p2,
                vx,
                vz,
                model.lam.as_slice(),
                model.mu.as_slice(),
                e,
                model.geom.dx,
                model.geom.dz,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }
    {
        let sxz = SyncSlice::new(s.sxz.as_mut_slice());
        let p1 = SyncSlice::new(s.psi_vx_z.as_mut_slice());
        let p2 = SyncSlice::new(s.psi_vz_x.as_mut_slice());
        let (vx, vz) = (s.vx.as_slice(), s.vz.as_slice());
        par_slabs(e.nz, gangs, |z0, z1| {
            elastic2d::stress_shear_slab(
                sxz,
                p1,
                p2,
                vx,
                vz,
                model.mu.as_slice(),
                e,
                model.geom.dx,
                model.geom.dz,
                dt,
                cpml,
                z0,
                z1,
            );
        });
    }
}

/// Output of a modeling run.
pub struct ModelingResult {
    /// Snapshots saved every `snap_period` steps.
    pub snapshots: Vec<Field2>,
    /// The recorded shot record.
    pub seismogram: Seismogram,
}

/// Run forward modeling: `steps` time steps with source injection, receiver
/// recording, and snapshot saves.
pub fn run_modeling(
    medium: &Medium2,
    acq: &Acquisition2,
    wavelet: &Wavelet,
    config: &OptimizationConfig,
    steps: usize,
    snap_period: usize,
    gangs: usize,
) -> ModelingResult {
    let mut state = State2::new(medium);
    let mut seismogram = Seismogram::zeros(acq.n_receivers(), steps);
    // Snapshot storage is sized up front so the time loop itself performs
    // no allocation — every step only writes into preexisting buffers.
    let n_snaps = steps.div_ceil(snap_period);
    let mut snapshots: Vec<Field2> = (0..n_snaps)
        .map(|_| Field2::zeros(medium.extent()))
        .collect();
    let dt = medium.dt();
    // Wall-clock forward phase (no-op unless the host profiler is on).
    let t_phase = exec_host::prof::begin();
    for t in 0..steps {
        state.step(medium, config, gangs);
        state.inject(
            medium,
            acq.src_ix,
            acq.src_iz,
            wavelet.sample(t as f32 * dt),
        );
        for (r, rcv) in acq.receivers.iter().enumerate() {
            seismogram.record(r, t, state.sample(rcv.ix, rcv.iz));
        }
        if t % snap_period == 0 {
            state.write_wavefield_into(&mut snapshots[t / snap_period]);
        }
    }
    exec_host::prof::end(
        t_phase,
        exec_host::prof::EventKind::Phase,
        exec_host::prof::PHASE_FORWARD,
        0,
    );
    ModelingResult {
        snapshots,
        seismogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_grid::cfl::stable_dt;
    use seismic_model::builder::{acoustic2_layered, iso2_constant, standard_layers};
    use seismic_model::{extent2, Geometry};

    fn acoustic_medium(n: usize) -> Medium2 {
        let e = extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, 3200.0, h, 0.6);
        let model = acoustic2_layered(e, &standard_layers(n), Geometry::uniform(h, dt));
        let c = CpmlAxis::new(n, e.halo, 12, dt, 3200.0, h, 1e-4);
        Medium2::Acoustic {
            model,
            cpml: [c.clone(), c],
        }
    }

    fn iso_medium(n: usize) -> Medium2 {
        let e = extent2(n, n);
        let h = 10.0;
        let dt = stable_dt(8, 2, 2000.0, h, 0.8);
        let model = iso2_constant(e, 2000.0, Geometry::uniform(h, dt));
        let d = DampProfile::new(n, e.halo, 12, 2000.0, h, 1e-4);
        Medium2::Iso {
            model,
            damp_x: d.clone(),
            damp_z: d,
        }
    }

    #[test]
    fn acoustic_modeling_produces_snapshots_and_records() {
        let n = 72;
        let medium = acoustic_medium(n);
        let acq = Acquisition2::surface_line(n, n / 2, 4, 2, 4);
        let r = run_modeling(
            &medium,
            &acq,
            &Wavelet::ricker(20.0),
            &OptimizationConfig::default(),
            120,
            10,
            3,
        );
        assert_eq!(r.snapshots.len(), 12);
        assert_eq!(r.seismogram.nt(), 120);
        assert!(r.seismogram.rms() > 0.0, "receivers recorded energy");
        // Later snapshots carry the expanding wavefront.
        assert!(r.snapshots.last().unwrap().max_abs() > 0.0);
    }

    /// Gang count must not change results (the OpenACC gang ↔ host thread
    /// mapping is bitwise-deterministic).
    #[test]
    fn gang_count_invariance() {
        let n = 48;
        for mk in [iso_medium as fn(usize) -> Medium2, acoustic_medium] {
            let medium = mk(n);
            let acq = Acquisition2::surface_line(n, n / 2, n / 2, 2, 8);
            let cfg = OptimizationConfig::default();
            let w = Wavelet::ricker(22.0);
            let a = run_modeling(&medium, &acq, &w, &cfg, 40, 8, 1);
            let b = run_modeling(&medium, &acq, &w, &cfg, 40, 8, 5);
            assert_eq!(a.seismogram, b.seismogram);
            assert_eq!(a.snapshots.last(), b.snapshots.last());
        }
    }

    /// Nearest receivers record the direct arrival earliest.
    #[test]
    fn direct_arrival_order() {
        let n = 96;
        let medium = iso_medium(n);
        // Receivers along the surface, source at center-depth below.
        let acq = Acquisition2::surface_line(n, n / 2, n / 2, 4, 8);
        let r = run_modeling(
            &medium,
            &acq,
            &Wavelet::ricker(25.0),
            &OptimizationConfig::default(),
            200,
            50,
            4,
        );
        // Receiver closest to source x records the biggest peak earliest.
        let n_rcv = acq.n_receivers();
        let center = (0..n_rcv)
            .min_by_key(|&r_| (acq.receivers[r_].ix as isize - (n / 2) as isize).unsigned_abs())
            .unwrap();
        let edge = 0usize;
        assert!(
            r.seismogram.peak_time(center) < r.seismogram.peak_time(edge),
            "center {} vs edge {}",
            r.seismogram.peak_time(center),
            r.seismogram.peak_time(edge)
        );
    }

    #[test]
    #[should_panic(expected = "formulation mismatch")]
    fn mismatched_state_and_medium_panics() {
        let iso = iso_medium(32);
        let ac = acoustic_medium(32);
        let mut s = State2::new(&iso);
        s.step(&ac, &OptimizationConfig::default(), 1);
    }

    /// All four media of size n, either with 12-cell absorbing boundaries
    /// or lossless (transparent) — the configuration under which
    /// `step_reverse` must undo `step`.
    fn four_media(n: usize, absorbing: bool) -> Vec<Medium2> {
        let e = extent2(n, n);
        let h = 10.0;
        let damp = |v_max| {
            if absorbing {
                DampProfile::new(n, e.halo, 12, v_max, h, 1e-4)
            } else {
                DampProfile::transparent(n, e.halo)
            }
        };
        let cpml = |v_max, dt| {
            let c = if absorbing {
                CpmlAxis::new(n, e.halo, 12, dt, v_max, h, 1e-4)
            } else {
                CpmlAxis::transparent(n, e.halo)
            };
            [c.clone(), c]
        };
        let iso = Medium2::Iso {
            model: iso2_constant(
                e,
                2000.0,
                Geometry::uniform(h, stable_dt(8, 2, 2000.0, h, 0.8)),
            ),
            damp_x: damp(2000.0),
            damp_z: damp(2000.0),
        };
        let dt = stable_dt(8, 2, 3200.0, h, 0.6);
        let ac = Medium2::Acoustic {
            model: acoustic2_layered(e, &standard_layers(n), Geometry::uniform(h, dt)),
            cpml: cpml(3200.0, dt),
        };
        let dt = stable_dt(8, 2, 3000.0, h, 0.5);
        let el = Medium2::Elastic {
            model: seismic_model::ElasticModel2::from_velocities(
                &Field2::filled(e, 3000.0),
                &Field2::filled(e, 1700.0),
                &Field2::filled(e, 2200.0),
                Geometry::uniform(h, dt),
            ),
            cpml: cpml(3000.0, dt),
        };
        let v_max = 2500.0 * (1.0f32 + 2.0 * 0.2).sqrt();
        let vti = Medium2::Vti {
            model: seismic_model::VtiModel2::constant(
                e,
                2500.0,
                0.2,
                0.1,
                Geometry::uniform(h, stable_dt(8, 2, v_max, h, 0.5)),
            ),
            damp_x: damp(v_max),
            damp_z: damp(v_max),
        };
        vec![iso, ac, el, vti]
    }

    /// Every field of a state, the C-PML memory variables included.
    fn state_fields(s: &State2) -> Vec<&Field2> {
        match s {
            State2::Iso(s) => vec![&s.u_prev, &s.u_cur],
            State2::Acoustic(s) => vec![
                &s.p, &s.qx, &s.qz, &s.psi_px, &s.psi_pz, &s.psi_qx, &s.psi_qz,
            ],
            State2::Elastic(s) => vec![
                &s.vx,
                &s.vz,
                &s.sxx,
                &s.szz,
                &s.sxz,
                &s.psi_sxx_x,
                &s.psi_sxz_z,
                &s.psi_sxz_x,
                &s.psi_szz_z,
                &s.psi_vx_x,
                &s.psi_vz_z,
                &s.psi_vx_z,
                &s.psi_vz_x,
            ],
            State2::Vti(s) => vec![&s.p_prev, &s.p_cur, &s.q_prev, &s.q_cur],
        }
    }

    /// A Ricker wavefront's leading edge decays through the subnormal range
    /// on its way to zero. The amplitude floor of every propagator store
    /// must keep that shell out of every state field, ψ memory included.
    #[test]
    fn wavefront_tails_leave_no_subnormals() {
        let n = 64;
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        for (name, medium) in ["iso", "acoustic", "elastic", "vti"]
            .into_iter()
            .zip(four_media(n, true))
        {
            let dt = medium.dt();
            let mut s = State2::new(&medium);
            // Short enough that the stencil's leading edge is still inside
            // the grid, decaying through the subnormal range.
            for t in 0..20 {
                s.step(&medium, &cfg, 2);
                s.inject(&medium, n / 2, n / 2, w.sample(t as f32 * dt));
                for (i, f) in state_fields(&s).iter().enumerate() {
                    assert_eq!(f.subnormal_count(), 0, "{name}: field {i} at step {t}");
                }
            }
            // The tail must reach down to the floor, or the check is vacuous.
            let tail = state_fields(&s)
                .iter()
                .flat_map(|f| f.as_slice())
                .any(|v| *v != 0.0 && v.abs() < 1e-25);
            assert!(tail, "{name}: no wavefront tail near the floor");
        }
    }

    /// The random-boundary contract: through a lossless medium,
    /// `inject(−s_t); step_reverse()` walks the forward trajectory
    /// backwards, reconstructing every intermediate wavefield to
    /// f32-roundoff accuracy (exact in real arithmetic, deterministic but
    /// not bit-exact in floating point).
    #[test]
    fn step_reverse_reconstructs_forward_states() {
        let n = 48;
        let e = extent2(n, n);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let steps = 60;
        for medium in four_media(n, false) {
            let dt = medium.dt();
            let mut s = State2::new(&medium);
            let mut stored = Vec::new();
            let mut peak = 0.0f32;
            for t in 0..steps {
                s.step(&medium, &cfg, 3);
                s.inject(&medium, n / 2, n / 2, w.sample(t as f32 * dt));
                let mut f = Field2::zeros(e);
                s.write_wavefield_into(&mut f);
                peak = peak.max(f.max_abs());
                stored.push(f);
            }
            let mut recon = Field2::zeros(e);
            for t in (1..steps).rev() {
                s.inject(&medium, n / 2, n / 2, -w.sample(t as f32 * dt));
                s.step_reverse(&medium, &cfg, 3);
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
                    "step {t}: reconstruction error {max_d} vs peak {peak}"
                );
            }
        }
    }

    /// Reversing through a *dissipative* medium must not silently work —
    /// this pins the lossless-medium contract of `step_reverse` (energy the
    /// absorber removed cannot come back).
    #[test]
    fn step_reverse_diverges_through_absorbing_boundaries() {
        let n = 48;
        let e = extent2(n, n);
        let cfg = OptimizationConfig::default();
        let w = Wavelet::ricker(20.0);
        let medium = iso_medium(n); // real damping layer
        let steps = 200; // long enough for the wavefront to hit the absorber
        let dt = medium.dt();
        let mut s = State2::new(&medium);
        let mut first = Field2::zeros(e);
        for t in 0..steps {
            s.step(&medium, &cfg, 2);
            s.inject(&medium, n / 2, n / 2, w.sample(t as f32 * dt));
            if t == 0 {
                s.write_wavefield_into(&mut first);
            }
        }
        for t in (1..steps).rev() {
            s.inject(&medium, n / 2, n / 2, -w.sample(t as f32 * dt));
            s.step_reverse(&medium, &cfg, 2);
        }
        let mut recon = Field2::zeros(e);
        s.write_wavefield_into(&mut recon);
        let max_d = recon
            .as_slice()
            .iter()
            .zip(first.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_d / first.max_abs().max(1e-20) > 1e-2,
            "a damped medium reconstructed cleanly (max_d {max_d}) — the \
             transparent-boundary requirement would be vacuous"
        );
    }
}
