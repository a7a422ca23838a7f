//! Host-execution-engine benchmarks: persistent-pool launch overhead vs
//! the sequential slab loop, cache-blocked stencil sweeps, and the full
//! 3D isotropic step at 8 gangs and at 1. The wall-clock companion
//! (`src/bin/bench_host.rs`) produces `BENCH_host.json`; these Criterion
//! groups are for interactive before/after comparison of the same paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use exec_host::slab_bounds;
use openacc_sim::exec::par_slabs;
use rtm_core::modeling3::{Medium3, State3};
use rtm_core::OptimizationConfig;
use seismic_grid::cfl::stable_dt;
use seismic_grid::{deriv, Field2};
use seismic_model::builder::{iso3_layered, standard_layers};
use seismic_model::{extent2, extent3, Geometry};
use seismic_pml::DampProfile;

/// Pure launch overhead: an empty body over 8 gangs, pooled vs the same
/// slabs run one after another on the caller. The gap is what every
/// kernel of every timestep pays for going parallel.
fn launch_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("launch_overhead");
    let gangs = 8;
    g.bench_function("pooled_8g", |b| {
        b.iter(|| {
            par_slabs(64, gangs, |z0, z1| {
                std::hint::black_box((z0, z1));
            })
        });
    });
    g.bench_function("sequential_8g", |b| {
        b.iter(|| {
            for g in 0..gangs {
                std::hint::black_box(slab_bounds(64, gangs, g));
            }
        });
    });
    g.finish();
}

/// Cache-blocked Laplacian sweep on a wide grid (the x-tile loop in
/// `seismic_grid::deriv`).
fn blocked_laplacian(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocked_laplacian");
    let n = 512;
    let e = extent2(n, n);
    let f = Field2::from_fn(e, |ix, iz| ((ix * 7 + iz * 13) % 101) as f32);
    let mut out = Field2::zeros(e);
    g.throughput(Throughput::Elements((n * n) as u64));
    g.bench_function(format!("laplacian2_n{n}"), |b| {
        b.iter(|| deriv::laplacian2(&f, &mut out, 10.0, 10.0));
    });
    g.finish();
}

/// One full 3D isotropic timestep through the driver, 8 gangs vs 1.
fn iso3d_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("iso3d_step");
    let n = 32;
    let e = extent3(n, n, n);
    let h = 10.0;
    let dt = stable_dt(8, 3, 3200.0, h, 0.7);
    let d = DampProfile::new(n, e.halo, 6, 3200.0, h, 1e-4);
    let medium = Medium3::Iso {
        model: iso3_layered(e, &standard_layers(n), Geometry::uniform(h, dt)),
        damp: [d.clone(), d.clone(), d],
    };
    let cfg = OptimizationConfig::default();
    let mut state = State3::new(&medium);
    g.throughput(Throughput::Elements((n * n * n) as u64));
    for gangs in [8, 1] {
        g.bench_function(format!("pooled_{gangs}g_n{n}"), |b| {
            b.iter(|| state.step(&medium, &cfg, gangs));
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = launch_overhead, blocked_laplacian, iso3d_step
}
criterion_main!(benches);
