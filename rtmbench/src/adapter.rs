//! The one place where the benchmark calls into the program.
//!
//! Every model builder, boundary profile, driver, gang-pool and server call
//! the benchmark makes goes through a function here, so a signature change
//! in the program (a driver becoming fallible, a type being renamed) is
//! absorbed in this file alone. Only driver-level entry points are used;
//! nothing here touches the host profiler, the engine switch, the SIMD
//! registry or single-step state methods.
//!
//! Every driver call runs under [`guarded`]: a panic becomes an `Err`, so a
//! broken shot is counted as failed instead of aborting the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use acc_serve::Tenant;
use acc_serve::{JobCost, JobSpec, Payload, RtmJob, Scenario, Server, ServerConfig, Submission};
use accel_sim::fault::{FaultPlan, FaultRates, FleetFaultPlan};
use rtm_core::case::OptimizationConfig;
use rtm_core::{modeling, modeling3, rand_boundary, rtm, rtm3};
use seismic_model::builder::{self, Layer};
use seismic_model::{AcousticModel2, ElasticModel2, Geometry, IsoModel2, IsoModel3};
use seismic_pml::{CpmlAxis, DampProfile, RandomBoundarySpec};

pub use rtm_core::modeling::Medium2;
pub use rtm_core::modeling3::Medium3;
pub use seismic_grid::{Field2, Field3};
pub use seismic_source::{Acquisition2, Acquisition3, Seismogram, Wavelet};

/// Result of one call into the program: `Err` carries the error or panic
/// message.
pub type Run<T> = Result<T, String>;

/// Grid spacing of every benchmark model (m).
const H: f32 = 10.0;
/// Half-width of the finite-difference stencil (halo cells per side).
const HALO: usize = seismic_grid::STENCIL_HALF;

/// Run `f`, turning a panic into an `Err`.
fn guarded<T>(f: impl FnOnce() -> T) -> Run<T> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

fn config() -> OptimizationConfig {
    OptimizationConfig::default()
}

/// The three 2D formulations the paper ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    Iso,
    Acoustic,
    Elastic,
}

// ---------------------------------------------------------------- set-up

/// Interface depths (interior z index) of the layered models.
pub fn interfaces(nz: usize) -> Vec<usize> {
    builder::standard_layers(nz)
        .iter()
        .map(|l| l.z_top)
        .filter(|&z| z > 0)
        .collect()
}

/// Two-way vertical travel time (s) from the surface to interior depth
/// `z` of the layered `nz`-deep models.
pub fn two_way_time(nz: usize, z: usize) -> f32 {
    let layers = builder::standard_layers(nz);
    let one_way: f32 = (0..z)
        .map(|iz| {
            let l = layers
                .iter()
                .rev()
                .find(|l| l.z_top <= iz)
                .unwrap_or(&layers[0]);
            H / l.vp
        })
        .sum();
    2.0 * one_way
}

/// Largest velocity of the layered models (m/s).
pub fn v_max() -> f32 {
    builder::standard_layers(3)
        .iter()
        .map(|l| l.vp)
        .fold(0.0, f32::max)
}

/// Stable time step for a `dims`-D grid with peak velocity `v_max`.
pub fn stable_dt(dims: usize, v_max: f32, safety: f32) -> f32 {
    seismic_grid::cfl::stable_dt(8, dims, v_max, H, safety)
}

/// A 2D earth model before its absorbing boundary is attached.
pub enum Model2 {
    Iso(IsoModel2),
    Acoustic(AcousticModel2),
    Elastic(ElasticModel2),
}

/// Layered `n × n` model of formulation `form` whose interior velocity is
/// multiplied by `1 + amp·ξ`, ξ uniform in [−1, 1] drawn from `seed`.
pub fn model2(form: Form, n: usize, dt: f32, amp: f32, seed: u64) -> Model2 {
    let e = seismic_model::extent2(n, n);
    let layers = builder::standard_layers(n);
    let geom = Geometry::uniform(H, dt);
    match form {
        Form::Iso => {
            let mut m = builder::iso2_layered(e, &layers, geom);
            builder::perturb2(&mut m.vp, amp, seed);
            Model2::Iso(m)
        }
        Form::Acoustic => {
            let mut m = builder::acoustic2_layered(e, &layers, geom);
            builder::perturb2(&mut m.vp, amp, seed);
            Model2::Acoustic(m)
        }
        Form::Elastic => {
            let mut vp = builder::iso2_layered(e, &layers, geom).vp;
            builder::perturb2(&mut vp, amp, seed);
            let shear: Vec<Layer> = layers.iter().map(|l| Layer { vp: l.vs, ..*l }).collect();
            let vs = builder::iso2_layered(e, &shear, geom).vp;
            let rho = builder::acoustic2_layered(e, &layers, geom).rho;
            Model2::Elastic(ElasticModel2::from_velocities(&vp, &vs, &rho, geom))
        }
    }
}

/// Layered isotropic model, `n × n` laterally and `nz` deep.
pub fn model3(n: usize, nz: usize, dt: f32) -> IsoModel3 {
    let e = seismic_model::extent3(n, n, nz);
    builder::iso3_layered(e, &builder::standard_layers(nz), Geometry::uniform(H, dt))
}

/// Absorbing boundary of one axis: a damping profile (isotropic) or C-PML
/// coefficients (staggered formulations).
pub enum Boundary {
    Damp(DampProfile),
    Cpml(CpmlAxis),
}

/// Boundary of an `n`-cell axis, `width` cells deep.
pub fn boundary(form: Form, n: usize, width: usize, dt: f32) -> Boundary {
    match form {
        Form::Iso => Boundary::Damp(DampProfile::new(n, HALO, width, v_max(), H, 1e-4)),
        _ => Boundary::Cpml(CpmlAxis::new(n, HALO, width, dt, v_max(), H, 1e-4)),
    }
}

/// Attach a boundary to a model (square grid: one profile serves every
/// axis).
pub fn medium2(model: Model2, b: Boundary) -> Run<Medium2> {
    Ok(match (model, b) {
        (Model2::Iso(model), Boundary::Damp(d)) => Medium2::Iso {
            model,
            damp_x: d.clone(),
            damp_z: d,
        },
        (Model2::Acoustic(model), Boundary::Cpml(c)) => Medium2::Acoustic {
            model,
            cpml: [c.clone(), c],
        },
        (Model2::Elastic(model), Boundary::Cpml(c)) => Medium2::Elastic {
            model,
            cpml: [c.clone(), c],
        },
        _ => return Err("boundary does not match the formulation".into()),
    })
}

/// Attach damping profiles to an isotropic 3D model: `lateral` serves
/// x and y, `vertical` serves z.
pub fn medium3(model: IsoModel3, lateral: Boundary, vertical: Boundary) -> Run<Medium3> {
    match (lateral, vertical) {
        (Boundary::Damp(d), Boundary::Damp(z)) => Ok(Medium3::Iso {
            model,
            damp: [d.clone(), d, z],
        }),
        _ => Err("isotropic 3D needs damping profiles".into()),
    }
}

/// Surface line: source at (`src_ix`, `src_iz`), receivers every `spacing`
/// cells at depth `rcv_iz`.
pub fn acquisition2(
    nx: usize,
    src_ix: usize,
    src_iz: usize,
    rcv_iz: usize,
    spacing: usize,
) -> Acquisition2 {
    Acquisition2::surface_line(nx, src_ix, src_iz, rcv_iz, spacing)
}

/// Surface patch over an `n × n` plane.
pub fn acquisition3(
    n: usize,
    src: (usize, usize, usize),
    rcv_iz: usize,
    spacing: usize,
) -> Acquisition3 {
    Acquisition3::surface_patch(n, n, src, rcv_iz, spacing)
}

/// Random-boundary spec of the checkpoint-free migration.
pub fn random_boundary(width: usize, seed: u64) -> RandomBoundarySpec {
    RandomBoundarySpec::new(width, seed)
}

// ---------------------------------------------------------------- kernels

/// Computed bytes one time step moves per interior grid point: the sum of
/// `bytes_per_point` over the step's kernels at the default configuration.
/// The restructured isotropic pair counts its interior kernel only (the
/// PML kernel covers the boundary strips, not every point).
pub fn bytes_per_point(form: Form, dims3: bool) -> f64 {
    use seismic_prop::desc;
    let cfg = config();
    let descs = match (form, dims3) {
        (Form::Iso, false) => desc::iso2d(cfg.iso_pml),
        (Form::Iso, true) => desc::iso3d(cfg.iso_pml),
        (Form::Acoustic, false) => desc::acoustic2d(cfg.transpose),
        (Form::Acoustic, true) => desc::acoustic3d(cfg.fission),
        (Form::Elastic, false) => desc::elastic2d(),
        (Form::Elastic, true) => desc::elastic3d(),
    };
    let descs = if form == Form::Iso {
        &descs[..1]
    } else {
        &descs[..]
    };
    descs.iter().map(|d| d.bytes_per_point()).sum()
}

// ---------------------------------------------------------------- gang pool

/// One empty-body gang launch over `n` rows.
pub fn empty_launch(n: usize, gangs: usize) {
    openacc_sim::exec::par_slabs(n, gangs, |z0, z1| {
        std::hint::black_box((z0, z1));
    });
}

/// `(pooled, inline)` launch counters of the process-wide gang pool.
pub fn pool_counters() -> (usize, usize) {
    let p = exec_host::GangPool::global();
    (p.pooled_launches(), p.inline_launches())
}

// ---------------------------------------------------------------- drivers

/// Forward modeling output: snapshots and the shot record.
pub struct Forward {
    pub snapshots: Vec<Field2>,
    pub seismogram: Seismogram,
}

/// `run_modeling`.
pub fn modeling2(
    m: &Medium2,
    acq: &Acquisition2,
    w: &Wavelet,
    steps: usize,
    snap: usize,
    gangs: usize,
) -> Run<Forward> {
    guarded(|| {
        let r = modeling::run_modeling(m, acq, w, &config(), steps, snap, gangs);
        Forward {
            snapshots: r.snapshots,
            seismogram: r.seismogram,
        }
    })
}

/// `run_modeling3` (y-plane snapshots through the source).
pub fn modeling3(
    m: &Medium3,
    acq: &Acquisition3,
    w: &Wavelet,
    steps: usize,
    snap: usize,
    gangs: usize,
) -> Run<Forward> {
    guarded(|| {
        let r = modeling3::run_modeling3(m, acq, w, &config(), steps, snap, gangs);
        Forward {
            snapshots: r.snapshots,
            seismogram: r.seismogram,
        }
    })
}

/// An image and the (muted) shot record it was migrated from.
pub struct Image<F> {
    pub image: F,
    pub seismogram: Seismogram,
}

/// `run_rtm`: one dense-snapshot 2D RTM shot.
pub fn rtm2(
    m: &Medium2,
    acq: &Acquisition2,
    w: &Wavelet,
    steps: usize,
    snap: usize,
    gangs: usize,
) -> Run<Image<Field2>> {
    guarded(|| {
        let r = rtm::run_rtm(m, acq, w, &config(), steps, snap, gangs);
        Image {
            image: r.image,
            seismogram: r.seismogram,
        }
    })
}

/// Mute inputs `run_rtm` uses: spacing, velocity at the source, and dt.
fn surface_params(m: &Medium2, acq: &Acquisition2) -> (f32, f32, f32) {
    let (ix, iz) = (acq.src_ix, acq.src_iz);
    match m {
        Medium2::Iso { model, .. } => (model.geom.dx, model.vp.get(ix, iz), model.geom.dt),
        Medium2::Acoustic { model, .. } => (model.geom.dx, model.vp.get(ix, iz), model.geom.dt),
        Medium2::Elastic { model, .. } => {
            let vp = ((model.lam.get(ix, iz) + 2.0 * model.mu.get(ix, iz)) / model.rho.get(ix, iz))
                .sqrt();
            (model.geom.dx, vp, model.geom.dt)
        }
        Medium2::Vti { model, .. } => {
            let v = model.vp.get(ix, iz) * (1.0 + 2.0 * model.epsilon.get(ix, iz)).sqrt();
            (model.geom.dx, v, model.geom.dt)
        }
    }
}

/// `mute_direct` with the parameters `run_rtm` applies.
pub fn mute2(m: &Medium2, acq: &Acquisition2, w: &Wavelet, seis: &Seismogram) -> Run<Seismogram> {
    guarded(|| {
        let (h, v, dt) = surface_params(m, acq);
        rtm::mute_direct(seis, acq, h, v, dt, 2.4 / w.f_peak())
    })
}

/// `migrate_shot`: backward propagation and imaging against stored
/// snapshots.
pub fn migrate2(
    m: &Medium2,
    acq: &Acquisition2,
    muted: &Seismogram,
    snapshots: &[Field2],
    steps: usize,
    snap: usize,
    gangs: usize,
) -> Run<Field2> {
    guarded(|| rtm::migrate_shot(m, acq, muted, snapshots, &config(), steps, snap, gangs).image)
}

/// `run_rtm3`: dense volume-snapshot 3D RTM.
pub fn rtm3_dense(
    m: &Medium3,
    acq: &Acquisition3,
    w: &Wavelet,
    steps: usize,
    snap: usize,
    gangs: usize,
) -> Run<Image<Field3>> {
    guarded(|| {
        let r = rtm3::run_rtm3(m, acq, w, &config(), steps, snap, gangs);
        Image {
            image: r.image,
            seismogram: r.seismogram,
        }
    })
}

/// `run_rtm_random_boundary3`: checkpoint-free 3D RTM.
#[allow(clippy::too_many_arguments)]
pub fn rtm3_random_boundary(
    m: &Medium3,
    acq: &Acquisition3,
    w: &Wavelet,
    steps: usize,
    snap: usize,
    spec: &RandomBoundarySpec,
    gangs: usize,
) -> Run<Image<Field3>> {
    guarded(|| {
        rand_boundary::run_rtm_random_boundary3(m, acq, w, &config(), steps, snap, spec, gangs)
    })
    .and_then(|r| r.map_err(|e| e.to_string()))
    .map(|r| Image {
        image: r.image,
        seismogram: r.seismogram,
    })
}

/// `randomize_medium3`.
pub fn randomize3(m: &Medium3, spec: &RandomBoundarySpec) -> Run<Medium3> {
    guarded(|| rand_boundary::randomize_medium3(m, spec))
}

/// `migrate_random_boundary3`: checkpoint-free migration of a muted record.
#[allow(clippy::too_many_arguments)]
pub fn migrate3_random_boundary(
    m: &Medium3,
    acq: &Acquisition3,
    muted: &Seismogram,
    w: &Wavelet,
    steps: usize,
    snap: usize,
    spec: &RandomBoundarySpec,
    gangs: usize,
) -> Run<Field3> {
    guarded(|| {
        rand_boundary::migrate_random_boundary3(
            m,
            acq,
            muted,
            w,
            &config(),
            steps,
            snap,
            spec,
            gangs,
        )
    })
    .and_then(|r| r.map_err(|e| e.to_string()))
}

// ---------------------------------------------------------------- checks

/// Normalised depth profile of the Laplacian-filtered 2D image.
pub fn depth_profile2(image: &Field2) -> Vec<f32> {
    rtm::depth_profile(&rtm::laplacian_filter(image, H, H))
}

/// Normalised depth profile of the Laplacian-filtered 3D image, skipping
/// `margin` lateral cells.
pub fn depth_profile3(image: &Field3, margin: usize) -> Vec<f32> {
    rtm3::depth_profile3(&rtm3::laplacian_filter3(image, H, H, H), margin)
}

// ---------------------------------------------------------------- server

/// A survey job ready to serve: one closed batch submitted at t = 0.
pub struct Survey {
    job: Arc<RtmJob>,
    scenario: Scenario,
    server: Server,
}

/// What one serve produced.
pub struct Served {
    pub stack: Field2,
    pub jobs_completed: usize,
}

/// Build the survey: every shot of `shots` migrated by `run_rtm` at
/// `gangs` per shot, served on `n_devices` fault-free devices.
#[allow(clippy::too_many_arguments)]
pub fn survey(
    medium: Medium2,
    shots: Vec<Acquisition2>,
    wavelet: Wavelet,
    steps: usize,
    snap: usize,
    gangs: usize,
    n_devices: usize,
) -> Survey {
    let n_shots = shots.len();
    let job = Arc::new(RtmJob {
        medium,
        shots,
        wavelet,
        config: config(),
        steps,
        snap_period: snap,
        gangs,
    });
    let scenario = Scenario {
        tenants: vec![Tenant::new("survey", 1)],
        jobs: vec![Submission {
            arrival_s: 0.0,
            spec: JobSpec {
                tenant: 0,
                priority: 1,
                deadline_s: None,
                n_shots,
                cost: JobCost::FixedShotCost(1.0),
                payload: Payload::Rtm2(Arc::clone(&job)),
            },
        }],
    };
    let server = Server::new(
        ServerConfig {
            n_devices,
            queue_capacity_cost_s: 1e9,
            tenant_quota_cost_s: 1e9,
            ..ServerConfig::default()
        },
        FleetFaultPlan::single(FaultPlan::generate(0, n_devices, 1e9, FaultRates::none())),
    );
    Survey {
        job,
        scenario,
        server,
    }
}

impl Survey {
    /// Shared earth model.
    pub fn medium(&self) -> &Medium2 {
        &self.job.medium
    }
    /// Shots in submission order.
    pub fn shots(&self) -> &[Acquisition2] {
        &self.job.shots
    }
    pub fn wavelet(&self) -> &Wavelet {
        &self.job.wavelet
    }
    pub fn steps(&self) -> usize {
        self.job.steps
    }
    pub fn snap(&self) -> usize {
        self.job.snap_period
    }
}

/// `Server::run` over the survey; fails unless the job completed with a
/// stacked image.
pub fn serve(s: &Survey) -> Run<Served> {
    let report = guarded(|| s.server.run(&s.scenario, None))?.map_err(|e| e.to_string())?;
    if !report.outcomes.iter().all(|o| o.is_completed()) {
        return Err(format!("job not completed: {:?}", report.outcomes));
    }
    let stack = report
        .images
        .into_iter()
        .next()
        .flatten()
        .ok_or("completed survey returned no image")?;
    Ok(Served {
        stack,
        jobs_completed: report.jobs_completed,
    })
}
