//! Model-vs-measured calibration: the host engine against the GPU
//! timing model.
//!
//! The repo carries two notions of "how long does a case take":
//!
//! * **measured** — a real run of the numerical kernels on the host
//!   execution engine (`exec-host` pool, wall-clock seconds, with the
//!   [`exec_host::prof`] profiler supplying the per-phase split), and
//! * **modeled** — [`rtm_core::gpu_time`]'s roofline pricing of the same
//!   schedule on one of the paper's two GPUs.
//!
//! The two are *not* expected to agree in absolute terms: the model
//! prices a Tesla on the paper's production grids, the measurement runs
//! a laptop-scale grid on host cores. What a healthy model must get
//! right is the *structure*: the relative ordering of the six cases, and
//! a per-case measured/modeled ratio that stays stable rather than
//! drifting by orders of magnitude between formulations. This module
//! runs all six propagator cases for real on the host engine (same small
//! workload fed to both sides), prices each on both devices, and emits
//! the 12-row model-vs-measured table plus per-device Spearman rank
//! correlations — the calibration artifact CI regenerates
//! (`calibration.json`, and the table in EXPERIMENTS.md).
//!
//! Rows the model refuses to price (the device-memory ledger rejects the
//! footprint — at production scale this is elastic 3D on the 6 GB M2090)
//! are carried as "X" cells and excluded from the correlation, mirroring
//! the paper's own table conventions.

use crate::accprof::{case_name, DeviceChoice};
use acc_obs::wallclock::{self, HostReport};
use rtm_core::case::{OptimizationConfig, SeismicCase, Workload};
use rtm_core::gpu_time::rtm_time;
use rtm_core::modeling::Medium2;
use rtm_core::modeling3::Medium3;
use rtm_core::rtm::run_rtm;
use rtm_core::rtm3::run_rtm3;
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{
    acoustic2_layered, acoustic3_layered, elastic2_layered, elastic3_layered, iso2_constant,
    iso3_layered, standard_layers,
};
use seismic_model::footprint::Dims;
use seismic_model::{extent2, extent3, Geometry};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_source::{Acquisition2, Acquisition3, Wavelet};
use std::time::Instant;

/// Grid spacing shared by every calibration medium.
const H: f32 = 10.0;
/// Velocity cap of [`standard_layers`] media, used for CFL-stable dt.
const VMAX: f32 = 3200.0;
/// Gangs used for the measured runs.
const GANGS: usize = 4;

/// One measured host run of a case.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The workload actually run (also fed to the model verbatim).
    pub w: Workload,
    /// End-to-end wall-clock seconds of the RTM driver.
    pub wall_s: f64,
    /// Measured throughput in giga-points per second
    /// (`points × steps / wall_s / 1e9`).
    pub gp_per_s: f64,
    /// Profiler-derived phase seconds `[forward, backward, imaging]`;
    /// backward *includes* the nested imaging phase.
    pub phases_s: [f64; 3],
    /// The full derived gang report of the run.
    pub report: HostReport,
}

/// One row of the 12-row calibration table.
#[derive(Debug, Clone)]
pub struct CalRow {
    /// The seismic case.
    pub case: SeismicCase,
    /// The device the model priced.
    pub device: DeviceChoice,
    /// Measured host wall-clock seconds.
    pub measured_s: f64,
    /// Measured throughput (Gpoints/s).
    pub measured_gp_s: f64,
    /// Measured phase split `[forward, backward incl. imaging, imaging]`.
    pub phases_s: [f64; 3],
    /// Modeled seconds on the device, `None` when the model's memory
    /// ledger rejects the footprint (an "X" cell).
    pub predicted_s: Option<f64>,
}

impl CalRow {
    /// `measured / predicted` — the calibration ratio. >1 means the host
    /// run is slower than the modeled GPU (the expected regime).
    pub fn ratio(&self) -> Option<f64> {
        self.predicted_s.map(|p| self.measured_s / p.max(1e-12))
    }
}

/// The full calibration artifact.
#[derive(Debug, Clone)]
pub struct CalReport {
    /// Whether this was a smoke-scale run.
    pub smoke: bool,
    /// Gangs used for the measured runs.
    pub gangs: usize,
    /// All 12 rows in `SeismicCase::all()` × `[M2090, K40]` order.
    pub rows: Vec<CalRow>,
    /// Per-device Spearman rank correlation between measured and modeled
    /// orderings of the priceable cases: `(device, rho, n_cases)`.
    pub spearman: Vec<(DeviceChoice, f64, usize)>,
}

/// The small per-case workload: big enough that the phase structure is
/// visible in the profile, small enough that all six cases run in
/// seconds. The *same* workload is handed to the model so the comparison
/// is apples-to-apples.
pub fn calibration_workload(case: &SeismicCase, smoke: bool) -> Workload {
    match case.dims {
        Dims::Two => {
            let (n, steps) = if smoke { (48, 30) } else { (160, 220) };
            Workload {
                nx: n,
                ny: 1,
                nz: n,
                steps,
                snap_period: 6,
                n_receivers: n.div_ceil(4),
            }
        }
        Dims::Three => {
            let (n, steps) = if smoke { (14, 12) } else { (32, 60) };
            Workload {
                nx: n,
                ny: n,
                nz: n,
                steps,
                snap_period: 4,
                n_receivers: n.div_ceil(4) * n.div_ceil(4),
            }
        }
    }
}

fn medium2(case: &SeismicCase, n: usize) -> Medium2 {
    use seismic_model::footprint::Formulation::*;
    let e = extent2(n, n);
    match case.formulation {
        Isotropic => {
            let dt = stable_dt(8, 2, 2000.0, H, 0.8);
            let d = DampProfile::new(n, e.halo, 10, 2000.0, H, 1e-4);
            Medium2::Iso {
                model: iso2_constant(e, 2000.0, Geometry::uniform(H, dt)),
                damp_x: d.clone(),
                damp_z: d,
            }
        }
        Acoustic => {
            let dt = stable_dt(8, 2, VMAX, H, 0.6);
            let c = CpmlAxis::new(n, e.halo, 10, dt, VMAX, H, 1e-4);
            Medium2::Acoustic {
                model: acoustic2_layered(e, &standard_layers(n), Geometry::uniform(H, dt)),
                cpml: [c.clone(), c],
            }
        }
        Elastic => {
            let dt = stable_dt(8, 2, VMAX, H, 0.5);
            let c = CpmlAxis::new(n, e.halo, 10, dt, VMAX, H, 1e-4);
            Medium2::Elastic {
                model: elastic2_layered(e, &standard_layers(n), Geometry::uniform(H, dt)),
                cpml: [c.clone(), c],
            }
        }
    }
}

fn medium3(case: &SeismicCase, n: usize) -> Medium3 {
    use seismic_model::footprint::Formulation::*;
    let e = extent3(n, n, n);
    let geom = |safety: f32| Geometry::uniform(H, stable_dt(8, 3, VMAX, H, safety));
    let cp = CpmlAxis::new(n, e.halo, 6, stable_dt(8, 3, VMAX, H, 0.5), VMAX, H, 1e-4);
    match case.formulation {
        Isotropic => {
            let d = DampProfile::new(n, e.halo, 6, VMAX, H, 1e-4);
            Medium3::Iso {
                model: iso3_layered(e, &standard_layers(n), geom(0.7)),
                damp: [d.clone(), d.clone(), d],
            }
        }
        Acoustic => Medium3::Acoustic {
            model: acoustic3_layered(e, &standard_layers(n), geom(0.55)),
            cpml: [cp.clone(), cp.clone(), cp],
        },
        Elastic => Medium3::Elastic {
            model: elastic3_layered(e, &standard_layers(n), geom(0.5)),
            cpml: [cp.clone(), cp.clone(), cp],
        },
    }
}

/// One unprofiled/untimed execution of a case's RTM driver.
fn run_once(case: &SeismicCase, w: &Workload, cfg: &OptimizationConfig, gangs: usize) {
    let wavelet = Wavelet::ricker(15.0);
    match case.dims {
        Dims::Two => {
            let m = medium2(case, w.nx);
            let acq = Acquisition2::surface_line(w.nx, w.nx / 2, 2, 1, 4);
            let r = run_rtm(&m, &acq, &wavelet, cfg, w.steps, w.snap_period, gangs);
            assert!(r.snapshots_saved > 0);
        }
        Dims::Three => {
            let m = medium3(case, w.nx);
            let acq = Acquisition3::surface_patch(w.nx, w.ny, (w.nx / 2, w.ny / 2, 2), 1, 4);
            let r = run_rtm3(&m, &acq, &wavelet, cfg, w.steps, w.snap_period, gangs);
            assert!(r.snapshots_saved > 0);
        }
    }
}

/// Run one case for real on the pooled host engine under a wall-clock
/// profiler capture, returning wall time, throughput, and the phase split.
/// One untimed warm-up spins up the worker pool and faults in the model
/// fields; the reported run is the fastest of the timed reps (min over
/// reps filters scheduler noise the same way `bench_host`'s median does).
pub fn measure_case(case: &SeismicCase, smoke: bool, gangs: usize) -> Measured {
    let w = calibration_workload(case, smoke);
    let cfg = OptimizationConfig::default();
    let reps = if smoke { 1 } else { 3 };

    run_once(case, &w, &cfg, gangs); // warm-up, unprofiled

    let mut best: Option<(f64, exec_host::HostProfile)> = None;
    for _ in 0..reps {
        let cap = exec_host::Capture::start();
        let t0 = Instant::now();
        run_once(case, &w, &cfg, gangs);
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        let profile = cap.finish();
        if best.as_ref().is_none_or(|(b, _)| wall < *b) {
            best = Some((wall, profile));
        }
    }

    let (wall_s, profile) = best.expect("at least one rep");
    let report = wallclock::report(&profile);
    let gp_per_s = (w.points() as f64) * (w.steps as f64) / wall_s / 1e9;
    Measured {
        phases_s: report.phases_s,
        w,
        wall_s,
        gp_per_s,
        report,
    }
}

/// One smoke-scale profiled host run, returning the raw per-slot event
/// profile (the `accprof --host` entry point: the caller ingests the
/// profile into its own [`acc_obs::ObsSession`] so the wall-clock tracks
/// join the simulated-time trace).
pub fn profiled_host_run(
    case: &SeismicCase,
    gangs: usize,
) -> (Workload, f64, exec_host::HostProfile) {
    let w = calibration_workload(case, true);
    let cfg = OptimizationConfig::default();
    let cap = exec_host::Capture::start();
    let t0 = Instant::now();
    run_once(case, &w, &cfg, gangs);
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    (w, wall_s, cap.finish())
}

/// Spearman rank correlation between two equal-length series (no-tie
/// formula: `1 − 6Σd²/(n(n²−1))`; f64 timings never tie in practice).
pub fn spearman_rho(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let ranks = |xs: &[f64]| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&i, &j| xs[i].total_cmp(&xs[j]));
        let mut r = vec![0usize; xs.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank;
        }
        r
    };
    let (ra, rb) = (ranks(a), ranks(b));
    let d2: f64 = ra
        .iter()
        .zip(&rb)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum();
    1.0 - 6.0 * d2 / (n as f64 * ((n * n - 1) as f64))
}

/// Run the full calibration: six measured host runs, twelve model
/// pricings, per-device rank correlations.
pub fn run_calibration(smoke: bool) -> CalReport {
    let cfg = OptimizationConfig::default();
    let devices = [DeviceChoice::M2090, DeviceChoice::K40];

    let mut rows = Vec::with_capacity(12);
    for case in SeismicCase::all() {
        let m = measure_case(&case, smoke, GANGS);
        for device in devices {
            let predicted_s = rtm_time(&case, &cfg, device.compiler(), device.cluster(), &m.w)
                .ok()
                .map(|run| run.breakdown.total_s);
            rows.push(CalRow {
                case,
                device,
                measured_s: m.wall_s,
                measured_gp_s: m.gp_per_s,
                phases_s: m.phases_s,
                predicted_s,
            });
        }
    }

    let spearman = devices
        .iter()
        .map(|&device| {
            let (meas, pred): (Vec<f64>, Vec<f64>) = rows
                .iter()
                .filter(|r| r.device == device)
                .filter_map(|r| r.predicted_s.map(|p| (r.measured_s, p)))
                .unzip();
            (device, spearman_rho(&meas, &pred), meas.len())
        })
        .collect();

    CalReport {
        smoke,
        gangs: GANGS,
        rows,
        spearman,
    }
}

fn fmt_s(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.1}", s * 1e3).to_string() + "m"
    }
}

impl CalReport {
    /// The EXPERIMENTS.md table: one row per (case, device).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| case | device | measured (s) | modeled (s) | meas/model | meas Gp/s | fwd (s) | bwd (s) | img (s) |\n",
        );
        out.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|\n");
        for r in &self.rows {
            let (pred, ratio) = match (r.predicted_s, r.ratio()) {
                (Some(p), Some(q)) => (fmt_s(p), format!("{q:.1}")),
                _ => ("X".to_string(), "X".to_string()),
            };
            // Backward shown exclusive of the nested imaging phase.
            let bwd_excl = (r.phases_s[1] - r.phases_s[2]).max(0.0);
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {:.4} | {} | {} | {} |\n",
                case_name(&r.case),
                r.device.as_str(),
                fmt_s(r.measured_s),
                pred,
                ratio,
                r.measured_gp_s,
                fmt_s(r.phases_s[0]),
                fmt_s(bwd_excl),
                fmt_s(r.phases_s[2]),
            ));
        }
        out.push('\n');
        for (device, rho, n) in &self.spearman {
            out.push_str(&format!(
                "Spearman rank correlation (measured vs modeled, {}): rho = {:.3} over {} cases\n",
                device.as_str(),
                rho,
                n
            ));
        }
        out
    }

    /// The machine-readable `calibration.json` document.
    pub fn to_json(&self) -> String {
        let mut doc = serde_json::Map::new();
        doc.insert("tool", "calibrate");
        doc.insert("smoke", self.smoke);
        doc.insert("gangs", self.gangs as u64);
        doc.insert("clock_measured", "wall");
        doc.insert("clock_modeled", "simulated");
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|r| {
                let mut m = serde_json::Map::new();
                m.insert("case", case_name(&r.case));
                m.insert("device", r.device.as_str());
                m.insert("measured_s", r.measured_s);
                m.insert("measured_gp_s", r.measured_gp_s);
                m.insert("forward_s", r.phases_s[0]);
                m.insert("backward_s", r.phases_s[1]);
                m.insert("imaging_s", r.phases_s[2]);
                match (r.predicted_s, r.ratio()) {
                    (Some(p), Some(q)) => {
                        m.insert("predicted_s", p);
                        m.insert("ratio", q);
                    }
                    _ => {
                        m.insert("predicted_s", serde_json::Value::Null);
                        m.insert("ratio", serde_json::Value::Null);
                    }
                }
                serde_json::Value::Object(m)
            })
            .collect();
        doc.insert("rows", rows);
        let sp: Vec<serde_json::Value> = self
            .spearman
            .iter()
            .map(|(device, rho, n)| {
                let mut m = serde_json::Map::new();
                m.insert("device", device.as_str());
                m.insert("rho", *rho);
                m.insert("cases", *n as u64);
                serde_json::Value::Object(m)
            })
            .collect();
        doc.insert("spearman", sp);
        serde_json::to_string_pretty(&serde_json::Value::Object(doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_agrees_on_known_orderings() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((spearman_rho(&a, &a) - 1.0).abs() < 1e-12);
        let rev = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman_rho(&a, &rev) + 1.0).abs() < 1e-12);
        // One swapped adjacent pair: rho = 1 − 6·2/(4·15) = 0.8.
        let near = [1.0, 3.0, 2.0, 4.0];
        assert!((spearman_rho(&a, &near) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn calibration_workloads_are_laptop_scale() {
        for case in SeismicCase::all() {
            for smoke in [false, true] {
                let w = calibration_workload(&case, smoke);
                // Laptop scale: worst case is the 32-cubed 3D grid.
                assert!(
                    w.points() <= 32 * 32 * 32,
                    "{case:?} too big: {}",
                    w.points()
                );
                assert!(w.steps >= 10);
                assert!(w.n_receivers > 0);
            }
        }
    }

    /// One measured smoke run produces a coherent profile: phases cover
    /// most of the wall time, forward dominates nothing unreasonable, and
    /// throughput is finite.
    #[test]
    fn measured_smoke_run_has_phase_structure() {
        let case = SeismicCase::all()[0]; // iso2d
        let m = measure_case(&case, true, 2);
        assert!(m.wall_s > 0.0 && m.gp_per_s > 0.0);
        assert!(
            m.phases_s[0] > 0.0 && m.phases_s[1] > 0.0 && m.phases_s[2] > 0.0,
            "phases: {:?}",
            m.phases_s
        );
        // Imaging nests inside backward.
        assert!(m.phases_s[2] <= m.phases_s[1] + 1e-9);
        assert!(m.report.sweeps > 0 && m.report.slabs > 0);
    }
}
