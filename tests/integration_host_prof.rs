//! Integration tests for the wall-clock host-engine profiler and the
//! model-vs-measured calibration layer.
//!
//! Four guarantees pinned end-to-end:
//!
//! 1. **Determinism** — capturing a profile must not change a single
//!    bit of the numerics, at any gang count, 2D or 3D.
//! 2. **Isolation** — a capture holds exactly the events of its own run,
//!    even while other runs, captured or not, share the gang pool.
//! 3. **Two clock domains, one timeline** — `accprof --host` merges real
//!    wall-clock worker tracks into the same Chrome trace as the
//!    simulated-time tracks, and the merged trace still validates.
//! 4. **Calibration** — the smoke-scale calibration covers all 12
//!    (case × device) rows with ratios and per-device rank correlations.

use exec_host::prof::EventKind;
use exec_host::{Capture, GangPool, HostProfile};
use repro::accprof::{parse_case, profile, DeviceChoice, ProfileRequest, RunMode};
use repro::calibrate::run_calibration;
use rtm_core::modeling::{run_modeling, Medium2};
use rtm_core::modeling3::Medium3;
use rtm_core::rtm::run_rtm;
use rtm_core::rtm3::run_rtm3;
use rtm_core::OptimizationConfig;
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{acoustic3_layered, iso2_constant, standard_layers};
use seismic_model::{extent2, extent3, Geometry};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_source::{Acquisition2, Acquisition3, Wavelet};

fn iso2d_medium(n: usize) -> Medium2 {
    let e = extent2(n, n);
    let h = 10.0;
    let dt = stable_dt(8, 2, 2000.0, h, 0.8);
    let d = DampProfile::new(n, e.halo, 10, 2000.0, h, 1e-4);
    Medium2::Iso {
        model: iso2_constant(e, 2000.0, Geometry::uniform(h, dt)),
        damp_x: d.clone(),
        damp_z: d,
    }
}

fn ac3d_medium(n: usize) -> Medium3 {
    let e = extent3(n, n, n);
    let h = 10.0;
    let dt = stable_dt(8, 3, 3200.0, h, 0.55);
    let cp = CpmlAxis::new(n, e.halo, 6, dt, 3200.0, h, 1e-4);
    Medium3::Acoustic {
        model: acoustic3_layered(e, &standard_layers(n), Geometry::uniform(h, dt)),
        cpml: [cp.clone(), cp.clone(), cp],
    }
}

/// Profiler on vs off: bitwise-identical 2D RTM images and seismograms
/// across gang counts.
#[test]
fn profiler_does_not_change_2d_numerics() {
    let n = 48;
    let medium = iso2d_medium(n);
    let acq = Acquisition2::surface_line(n, n / 2, 2, 1, 4);
    let w = Wavelet::ricker(18.0);
    let cfg = OptimizationConfig::default();
    for gangs in [1usize, 2, 4] {
        let off = run_rtm(&medium, &acq, &w, &cfg, 40, 4, gangs);

        let cap = Capture::start();
        let on = run_rtm(&medium, &acq, &w, &cfg, 40, 4, gangs);
        let profile = cap.finish();

        assert_eq!(
            off.image.as_slice(),
            on.image.as_slice(),
            "gangs={gangs}: image must be bitwise identical"
        );
        assert_eq!(
            off.seismogram, on.seismogram,
            "gangs={gangs}: seismogram must be bitwise identical"
        );
        // The profiled run must actually have recorded something.
        let events: usize = profile.slots.iter().map(|s| s.events.len()).sum();
        assert!(events > 0, "gangs={gangs}: no events recorded");
    }
}

/// Profiler on vs off: bitwise-identical 3D RTM images across gang
/// counts.
#[test]
fn profiler_does_not_change_3d_numerics() {
    let n = 14;
    let medium = ac3d_medium(n);
    let acq = Acquisition3::surface_patch(n, n, (n / 2, n / 2, 2), 1, 4);
    let w = Wavelet::ricker(18.0);
    let cfg = OptimizationConfig::default();
    for gangs in [1usize, 4] {
        let off = run_rtm3(&medium, &acq, &w, &cfg, 12, 3, gangs);

        let cap = Capture::start();
        let on = run_rtm3(&medium, &acq, &w, &cfg, 12, 3, gangs);
        drop(cap);

        assert_eq!(
            off.image.as_slice(),
            on.image.as_slice(),
            "gangs={gangs}: 3D image must be bitwise identical"
        );
        assert_eq!(off.seismogram, on.seismogram, "gangs={gangs}");
    }
}

/// Events of one kind in a profile.
fn count(p: &HostProfile, kind: EventKind) -> usize {
    p.slots
        .iter()
        .flat_map(|s| &s.events)
        .filter(|e| e.kind == kind)
        .count()
}

/// Two captured runs and one uncaptured run of the same modeling call,
/// at the same time, through the shared global pool: each capture holds
/// exactly the launches, slabs and tile batches of its own run — the
/// counts a capture of the same call records when it runs alone.
#[test]
fn concurrent_captures_stay_isolated() {
    let n = 48;
    let medium = iso2d_medium(n);
    let acq = Acquisition2::surface_line(n, n / 2, 2, 1, 4);
    let w = Wavelet::ricker(18.0);
    let cfg = OptimizationConfig::default();
    let gangs = 2;
    let run = || run_modeling(&medium, &acq, &w, &cfg, 30, 5, gangs).seismogram;

    let cap = Capture::start();
    let alone_seismogram = run();
    let alone = cap.finish();
    let launches = count(&alone, EventKind::Sweep);
    assert!(launches > 0);
    assert_eq!(count(&alone, EventKind::Slab), gangs * launches);

    let start = std::sync::Barrier::new(3);
    let (a, b, c) = std::thread::scope(|s| {
        let captured = || {
            start.wait();
            let cap = Capture::start();
            let seismogram = run();
            (seismogram, Some(cap.finish()))
        };
        let a = s.spawn(captured);
        let b = s.spawn(captured);
        let c = s.spawn(|| {
            start.wait();
            (run(), None)
        });
        (a.join().unwrap(), b.join().unwrap(), c.join().unwrap())
    });
    for (seismogram, _) in [&a, &b, &c] {
        assert_eq!(*seismogram, alone_seismogram);
    }
    for p in [a.1.as_ref(), b.1.as_ref()].map(Option::unwrap) {
        assert_eq!(count(p, EventKind::Sweep), launches, "own launches only");
        assert_eq!(count(p, EventKind::Slab), gangs * launches);
        assert_eq!(
            count(p, EventKind::TileBatch),
            count(&alone, EventKind::TileBatch)
        );
        assert_eq!(count(p, EventKind::Phase), count(&alone, EventKind::Phase));
        assert_eq!((p.dropped, p.thread_overflow), (0, 0));
        assert!(p.slots.len() <= GangPool::global().worker_count() + 1);
    }
}

/// `accprof --host`: the merged trace holds both clock domains — the
/// simulated-time tracks of the priced run AND the wall-clock worker
/// tracks of the real host run — and every wall span is labeled with its
/// clock.
#[test]
fn merged_trace_has_both_clock_domains() {
    let req = ProfileRequest {
        case: parse_case("ac2d").unwrap(),
        mode: RunMode::Rtm,
        device: DeviceChoice::M2090,
        steps: Some(12),
        serve: false,
        host: true,
    };
    let out = profile(&req).expect("host-profiled run succeeds");

    let labels: Vec<String> = out
        .session
        .tracer
        .tracks()
        .iter()
        .map(|t| t.label())
        .collect();
    assert!(labels.iter().any(|l| l == "host"), "{labels:?}");
    assert!(labels.iter().any(|l| l.starts_with("stream")), "{labels:?}");
    assert!(
        labels.iter().any(|l| l.starts_with("wall worker")),
        "{labels:?}"
    );

    // The merged timeline still validates (profile() already ran
    // validate_tracks before returning; re-check explicitly).
    out.session
        .tracer
        .validate_tracks()
        .expect("merged trace valid");

    // Wall spans carry the clock label into the exported Chrome trace.
    assert!(out.trace_json.contains("wall worker"));
    assert!(out.trace_json.contains("\"clock\""));

    // And the standalone artifact exists and is internally consistent.
    let hp = out.host_profile_json.expect("host_profile.json emitted");
    let doc = serde_json::from_str(&hp).expect("valid JSON");
    assert_eq!(doc.get("clock").unwrap().as_str(), Some("wall"));
    let report = doc.get("report").unwrap();
    assert!(report.get("wall_s").unwrap().as_f64().unwrap() > 0.0);
    assert!(!report
        .get("workers")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());
}

/// Smoke-scale calibration: 12 rows, every row priced (no OOM at laptop
/// scale), ratios finite, and a rank correlation per device over all six
/// cases.
#[test]
fn calibration_covers_all_twelve_rows() {
    let report = run_calibration(true);
    assert_eq!(report.rows.len(), 12);
    for row in &report.rows {
        assert!(row.measured_s > 0.0);
        assert!(row.measured_gp_s > 0.0);
        let ratio = row.ratio().expect("laptop-scale rows all priced");
        assert!(ratio.is_finite() && ratio > 0.0);
        // Phase coverage: forward and backward both observed.
        assert!(row.phases_s[0] > 0.0 && row.phases_s[1] > 0.0);
    }
    assert_eq!(report.spearman.len(), 2);
    for (_, rho, n) in &report.spearman {
        assert_eq!(*n, 6);
        assert!((-1.0..=1.0).contains(rho), "rho out of range: {rho}");
    }
    let md = report.to_markdown();
    assert!(md.contains("Spearman rank correlation"));
    assert_eq!(md.matches("| m2090 |").count(), 6);
    assert_eq!(md.matches("| k40 |").count(), 6);
    let json = serde_json::from_str(&report.to_json()).expect("valid calibration JSON");
    assert_eq!(json.get("rows").unwrap().as_array().unwrap().len(), 12);
    assert_eq!(json.get("clock_measured").unwrap().as_str(), Some("wall"));
}
