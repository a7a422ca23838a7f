//! Wall-clock host-engine benchmark: grid-points/sec of the pooled gang
//! engine for representative 2D/3D cases across gang counts, emitted as
//! `BENCH_host.json`.
//!
//! Every gang count's seismogram is asserted bit-identical to the
//! gangs = 1 run (the sequential slab loop) before any number is reported
//! — a speedup that changes the physics is a bug, not a result.
//!
//! After the gated samples, each case also runs once as full RTM (pooled,
//! max gangs) under a wall-clock profiler capture: the per-phase
//! forward/backward/imaging breakdown and the derived gang metrics land
//! in a `phases` section of the JSON. The regression gate reads only
//! `results[]` — the phase columns are informational and never gate.
//!
//! ```text
//! bench_host [--quick] [--out PATH] [--check BASELINE.json] [--overhead]
//! ```
//!
//! * `--quick`    — smaller grids / fewer repetitions (the CI smoke mode)
//! * `--out`      — where to write the JSON (default `BENCH_host.json`)
//! * `--check`    — compare pooled grid-points/sec against a baseline JSON
//!   and exit non-zero if any case regressed by more than 20%
//! * `--overhead` — profiler overhead budget check instead of the
//!   benchmark: interleaved uncaptured/captured runs, exit non-zero if
//!   the captured run costs more than 5% or the uncaptured record sites'
//!   per-call cost projects to more than 1% of the run

use rtm_core::modeling::{run_modeling, Medium2};
use rtm_core::modeling3::{run_modeling3, Medium3};
use rtm_core::rtm::run_rtm;
use rtm_core::rtm3::run_rtm3;
use rtm_core::OptimizationConfig;
use seismic_grid::cfl::stable_dt;
use seismic_model::builder::{acoustic2_layered, iso2_constant, iso3_layered, standard_layers};
use seismic_model::{extent2, extent3, Geometry};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_source::{Acquisition2, Acquisition3, Seismogram, Wavelet};
use std::time::Instant;

/// Tolerated fractional drop of pooled grid-points/sec vs the baseline.
const REGRESSION_TOLERANCE: f64 = 0.20;

struct Sample {
    case: &'static str,
    gangs: usize,
    median_secs: f64,
    gp_per_s: f64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Time `reps` runs of `f` (which must do a full modeling run) and return
/// the median wall-clock seconds plus the last run's seismogram.
fn time_runs(reps: usize, mut f: impl FnMut() -> Seismogram) -> (f64, Seismogram) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let s = f();
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    (median(secs), last.expect("reps >= 1"))
}

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

fn ac2d_medium(n: usize) -> Medium2 {
    let e = extent2(n, n);
    let h = 10.0;
    let dt = stable_dt(8, 2, 3200.0, h, 0.6);
    let c = CpmlAxis::new(n, e.halo, 10, dt, 3200.0, h, 1e-4);
    Medium2::Acoustic {
        model: acoustic2_layered(e, &standard_layers(n), Geometry::uniform(h, dt)),
        cpml: [c.clone(), c],
    }
}

fn iso3d_medium(n: usize) -> Medium3 {
    let e = extent3(n, n, n);
    let h = 10.0;
    let dt = stable_dt(8, 3, 3200.0, h, 0.7);
    let d = DampProfile::new(n, e.halo, 6, 3200.0, h, 1e-4);
    Medium3::Iso {
        model: iso3_layered(e, &standard_layers(n), Geometry::uniform(h, dt)),
        damp: [d.clone(), d.clone(), d],
    }
}

#[allow(clippy::too_many_arguments)]
fn bench_case(
    results: &mut Vec<Sample>,
    case: &'static str,
    points_per_step: usize,
    steps: usize,
    gangs_list: &[usize],
    reps: usize,
    mut run: impl FnMut(usize) -> Seismogram,
) {
    // Sequential reference: one gang runs the slab loop on the caller.
    let reference = run(1);
    for &gangs in gangs_list {
        let (secs, seis) = time_runs(reps, || run(gangs));
        let gp = (points_per_step * steps) as f64 / secs;
        eprintln!("{case:>12}  gangs={gangs}  {secs:>9.4}s  {gp:>12.0} gp/s");
        results.push(Sample {
            case,
            gangs,
            median_secs: secs,
            gp_per_s: gp,
        });
        assert_eq!(
            seis, reference,
            "{case} gangs={gangs}: must be bit-identical to gangs = 1"
        );
    }
}

/// One profiled RTM run of a case (pooled engine), returning the
/// wall-clock phase/gang report as a JSON object for the `phases`
/// section.
fn profiled_phases(case: &'static str, gangs: usize, run: impl FnOnce(usize)) -> serde_json::Value {
    let cap = exec_host::Capture::start();
    let t0 = Instant::now();
    run(gangs);
    let wall = t0.elapsed().as_secs_f64();
    let profile = cap.finish();
    let rep = acc_obs::wallclock::report(&profile);
    eprintln!(
        "{case:>12}  gangs={gangs}  phases fwd={:.4}s bwd={:.4}s img={:.4}s  util={:.2}",
        rep.phases_s[0],
        rep.phases_s[1] - rep.phases_s[2],
        rep.phases_s[2],
        rep.utilization
    );
    let mut m = serde_json::Map::new();
    m.insert("case", case);
    m.insert("gangs", gangs);
    m.insert("engine", "pooled");
    m.insert("clock", "wall");
    m.insert("wall_s", wall);
    m.insert("forward_s", rep.phases_s[0]);
    // Imaging nests inside backward; report backward exclusive.
    m.insert("backward_s", (rep.phases_s[1] - rep.phases_s[2]).max(0.0));
    m.insert("imaging_s", rep.phases_s[2]);
    m.insert("utilization", rep.utilization);
    m.insert("barrier_wait_frac", rep.barrier_wait_frac);
    m.insert("imbalance", rep.imbalance);
    serde_json::Value::Object(m)
}

/// `--overhead`: enforce the profiler's runtime budget.
///
/// Two bounds, both on the same pooled iso2d modeling run:
///
/// * **enabled ≤ 5%** — interleaved uncaptured / captured reps (min-of-N
///   each, interleaving cancels thermal/scheduler drift); the captured
///   minimum must stay within 5% of the uncaptured minimum plus a small
///   absolute slack for timer noise on sub-100ms runs.
/// * **disabled ≤ 1%** — on a thread without a capture a record site is
///   one thread-local load; its per-call cost is measured directly with a
///   hot microloop, projected onto the call count the captured run
///   actually recorded, and that projection must be under 1% of the
///   uncaptured runtime.
fn overhead_check(quick: bool) -> ! {
    let n = if quick { 64 } else { 96 };
    let steps = if quick { 40 } else { 80 };
    let reps = if quick { 5 } else { 9 };
    let gangs = 4;
    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(22.0);
    let medium = iso2d_medium(n);
    let acq = Acquisition2::surface_line(n, n / 2, n / 2, 2, 6);
    let run = || {
        let s = run_modeling(&medium, &acq, &w, &cfg, steps, steps, gangs).seismogram;
        assert!(s.nt() > 0);
    };

    // Warm-up: pool spin-up and first-touch of the model fields.
    run();

    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    let mut events: u64 = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        run();
        off = off.min(t0.elapsed().as_secs_f64());

        let cap = exec_host::Capture::start();
        let t0 = Instant::now();
        run();
        on = on.min(t0.elapsed().as_secs_f64());
        let p = cap.finish();
        let recorded: u64 = p.slots.iter().map(|s| s.events.len() as u64).sum();
        events = events.max(recorded + p.dropped);
    }

    // Disabled fast path: per-call cost of begin() on a thread without a
    // capture, measured hot.
    // Called through an opaque pointer so the optimizer cannot hoist the
    // thread-local load out of the loop; the call overhead this adds makes
    // the figure an upper bound.
    let begin = std::hint::black_box(exec_host::prof::begin as fn() -> Option<Instant>);
    let calls = 2_000_000u64;
    let t0 = Instant::now();
    let mut none_count = 0u64;
    for _ in 0..calls {
        if begin().is_none() {
            none_count += 1;
        }
    }
    let per_call_s = t0.elapsed().as_secs_f64() / calls as f64;
    assert_eq!(none_count, calls, "this thread must not be capturing");

    // Each recorded event is one begin/end pair at a call site.
    let disabled_projection_s = 2.0 * events as f64 * per_call_s;
    let disabled_frac = disabled_projection_s / off;
    let enabled_frac = on / off - 1.0;
    // 5 ms absolute slack: quick-mode runs are tens of ms and a single
    // scheduler preemption would otherwise fail a healthy build.
    let enabled_ok = on <= off * 1.05 + 0.005;
    let disabled_ok = disabled_frac <= 0.01;

    eprintln!("profiler overhead budget (iso2d, {gangs} gangs, {steps} steps, min of {reps}):");
    eprintln!(
        "  disabled run: {off:.4}s   enabled run: {on:.4}s   ({:+.2}% vs budget +5%)",
        enabled_frac * 100.0
    );
    eprintln!(
        "  disabled fast path: {:.1} ns/call x {events} events x 2 = {:.6}s ({:.3}% of run, budget 1%)",
        per_call_s * 1e9,
        disabled_projection_s,
        disabled_frac * 100.0
    );
    if !enabled_ok || !disabled_ok {
        eprintln!("PROFILER OVERHEAD BUDGET EXCEEDED");
        std::process::exit(1);
    }
    eprintln!("overhead budget: ok");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--overhead") {
        overhead_check(quick);
    }
    let arg_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_host.json".into());
    let baseline = arg_value("--check");

    let reps = if quick { 3 } else { 7 };
    let (n2, steps2) = if quick { (64, 30) } else { (96, 60) };
    let (n3, steps3) = if quick { (16, 24) } else { (20, 40) };
    let gangs_list = [1usize, 2, 4, 8];
    let cfg = OptimizationConfig::default();
    let w = Wavelet::ricker(22.0);

    let mut results: Vec<Sample> = Vec::new();

    {
        let medium = iso2d_medium(n2);
        let acq = Acquisition2::surface_line(n2, n2 / 2, n2 / 2, 2, 6);
        bench_case(
            &mut results,
            "iso2d",
            n2 * n2,
            steps2,
            &gangs_list,
            reps,
            |gangs| run_modeling(&medium, &acq, &w, &cfg, steps2, steps2, gangs).seismogram,
        );
    }
    {
        let medium = ac2d_medium(n2);
        let acq = Acquisition2::surface_line(n2, n2 / 2, n2 / 2, 2, 6);
        bench_case(
            &mut results,
            "acoustic2d",
            n2 * n2,
            steps2,
            &gangs_list,
            reps,
            |gangs| run_modeling(&medium, &acq, &w, &cfg, steps2, steps2, gangs).seismogram,
        );
    }
    {
        let medium = iso3d_medium(n3);
        let acq = Acquisition3::surface_patch(n3, n3, (n3 / 2, n3 / 2, n3 / 2), 3, 8);
        bench_case(
            &mut results,
            "iso3d",
            n3 * n3 * n3,
            steps3,
            &gangs_list,
            reps,
            |gangs| run_modeling3(&medium, &acq, &w, &cfg, steps3, steps3, gangs).seismogram,
        );
    }

    // Headline: 3D isotropic modeling at the most gangs the cores can run
    // at once, against 1 gang (more gangs than cores measure
    // oversubscription, not scaling).
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let head_gangs = gangs_list
        .iter()
        .copied()
        .filter(|&g| g <= cores)
        .max()
        .unwrap_or(1);
    let find = |case: &str, gangs: usize| {
        results
            .iter()
            .find(|s| s.case == case && s.gangs == gangs)
            .expect("sample present")
    };
    let speedup = find("iso3d", 1).median_secs / find("iso3d", head_gangs).median_secs;
    eprintln!("\niso3d @ {head_gangs} gangs: {speedup:.2}x the 1-gang run");

    // Per-phase wall-time breakdown: one profiled full-RTM run per case
    // on the pooled engine at the largest gang count. Informational only
    // — the `--check` gate never reads this section.
    let top_gangs = *gangs_list.last().expect("gangs list non-empty");
    let snap = 5usize;
    let mut phases: Vec<serde_json::Value> = Vec::new();
    {
        let medium = iso2d_medium(n2);
        let acq = Acquisition2::surface_line(n2, n2 / 2, n2 / 2, 2, 6);
        phases.push(profiled_phases("iso2d", top_gangs, |g| {
            let r = run_rtm(&medium, &acq, &w, &cfg, steps2, snap, g);
            assert!(r.snapshots_saved > 0);
        }));
    }
    {
        let medium = ac2d_medium(n2);
        let acq = Acquisition2::surface_line(n2, n2 / 2, n2 / 2, 2, 6);
        phases.push(profiled_phases("acoustic2d", top_gangs, |g| {
            let r = run_rtm(&medium, &acq, &w, &cfg, steps2, snap, g);
            assert!(r.snapshots_saved > 0);
        }));
    }
    {
        let medium = iso3d_medium(n3);
        let acq = Acquisition3::surface_patch(n3, n3, (n3 / 2, n3 / 2, n3 / 2), 3, 8);
        phases.push(profiled_phases("iso3d", top_gangs, |g| {
            let r = run_rtm3(&medium, &acq, &w, &cfg, steps3, snap, g);
            assert!(r.snapshots_saved > 0);
        }));
    }

    // Emit BENCH_host.json.
    let mut root = serde_json::Map::new();
    root.insert("quick", quick);
    root.insert("cores", cores);
    let samples: Vec<serde_json::Value> = results
        .iter()
        .map(|s| {
            let mut m = serde_json::Map::new();
            m.insert("case", s.case);
            m.insert("gangs", s.gangs);
            m.insert("engine", "pooled");
            m.insert("median_secs", s.median_secs);
            m.insert("gp_per_s", s.gp_per_s);
            serde_json::Value::Object(m)
        })
        .collect();
    root.insert("results", samples);
    root.insert("phases", phases);
    let mut headline = serde_json::Map::new();
    headline.insert("case", "iso3d");
    headline.insert("gangs", head_gangs);
    headline.insert("speedup_vs_1_gang", speedup);
    headline.insert("bit_identical", true);
    root.insert("headline", headline);
    let json = serde_json::to_string_pretty(&serde_json::Value::Object(root));
    std::fs::write(&out_path, &json).expect("write BENCH_host.json");
    eprintln!("wrote {out_path}");

    // Regression gate: pooled gp/s per (case, gangs) vs the baseline.
    if let Some(path) = baseline {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let base = serde_json::from_str(&text).expect("parse baseline");
        let mut failures = Vec::new();
        for entry in base
            .get("results")
            .and_then(|r| r.as_array())
            .expect("baseline results[]")
        {
            let engine = entry.get("engine").and_then(|v| v.as_str()).unwrap_or("");
            if engine != "pooled" {
                continue;
            }
            let case = entry.get("case").and_then(|v| v.as_str()).expect("case");
            let gangs = entry.get("gangs").and_then(|v| v.as_u64()).expect("gangs") as usize;
            let base_gp = entry
                .get("gp_per_s")
                .and_then(|v| v.as_f64())
                .expect("gp_per_s");
            let Some(cur) = results.iter().find(|s| s.case == case && s.gangs == gangs) else {
                continue; // baseline covers a case this mode didn't run
            };
            let floor = base_gp * (1.0 - REGRESSION_TOLERANCE);
            if cur.gp_per_s < floor {
                failures.push(format!(
                    "{case} gangs={gangs}: {:.0} gp/s < {floor:.0} (baseline {base_gp:.0})",
                    cur.gp_per_s
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!("PERF REGRESSION:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        eprintln!("regression check vs {path}: ok");
    }
}
