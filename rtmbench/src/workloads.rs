//! The three workloads: their seeded inputs, one timed pass over their
//! shots, and the per-layer decomposition of the traced run.

use std::time::Instant;

use crate::adapter::{self as acc, Acquisition2, Acquisition3, Field2, Field3, Form, Medium2};
use crate::adapter::{Medium3, Run, Wavelet};
use crate::check;
use crate::trace::Tracer;
use crate::{alloc, Metrics, Tally};

/// Peak frequency of every source wavelet (Hz).
const F_PEAK: f32 = 18.0;
/// Largest relative velocity perturbation of the 2D models.
const PERTURB: f32 = 0.01;

/// `rtm2d`: grid edge, absorbing width, snapshot period.
const N2: usize = 128;
const PML2: usize = 12;
const SNAP2: usize = 3;
/// `rtm3d`: lateral edge, depth, absorbing (and random-boundary) width,
/// period. The model is deeper than wide so the first interface lies
/// below the near-source imaging artifact, and the record stops after that
/// interface's reflection: with a record reaching the second interface, the
/// checkpoint-free image's strongest peak lay off every interface for a few
/// seeds.
const N3: usize = 24;
const NZ3: usize = 60;
const PML3: usize = 6;
const SNAP3: usize = 3;
/// `survey2d`: grid edge, absorbing width, period, shots.
const NS: usize = 64;
const PMLS: usize = 8;
const SNAPS: usize = 4;
const SHOTS: usize = 12;

/// Empty launches per `pool.launch` batch, and batches.
const LAUNCHES: usize = 400;
const LAUNCH_BATCHES: usize = 15;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Rtm2d,
    Rtm3d,
    Survey2d,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Rtm2d, Workload::Rtm3d, Workload::Survey2d];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Rtm2d => "rtm2d",
            Workload::Rtm3d => "rtm3d",
            Workload::Survey2d => "survey2d",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Gangs per propagation: every core for the single-shot workloads,
    /// one for the served survey (its parallelism is across shots).
    pub fn gangs(self, nproc: usize) -> usize {
        match self {
            Workload::Survey2d => 1,
            _ => nproc,
        }
    }
}

/// What the run is parameterised by besides the workload.
#[derive(Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub nproc: usize,
}

/// SplitMix64: the benchmark's own input generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// Time steps for a record that brings back the reflection from interior
/// depth `z` of an `n`-deep model, plus the wavelet.
fn record_steps(n: usize, z: usize, dt: f32) -> usize {
    ((acc::two_way_time(n, z) + 3.0 / F_PEAK) / dt).ceil() as usize
}

/// Depth of the deepest interface of an `n`-deep model.
fn deepest(n: usize) -> usize {
    *acc::interfaces(n).last().expect("layered model")
}

pub struct Shot2 {
    pub case: &'static str,
    pub form: Form,
    pub n: usize,
    pub medium: Medium2,
    pub acq: Acquisition2,
    pub wavelet: Wavelet,
    pub steps: usize,
    pub snap: usize,
}

pub struct Shot3 {
    pub n: usize,
    pub nz: usize,
    pub medium: Medium3,
    pub acq: Acquisition3,
    pub wavelet: Wavelet,
    pub steps: usize,
    pub snap: usize,
    pub spec: seismic_pml::RandomBoundarySpec,
}

pub enum Inputs {
    Rtm2d(Vec<Shot2>),
    Rtm3d(Box<Shot3>),
    Survey2d(acc::Survey),
}

const FORMS: [(&str, Form, f32); 3] = [
    ("iso2d", Form::Iso, 0.8),
    ("ac2d", Form::Acoustic, 0.6),
    ("el2d", Form::Elastic, 0.5),
];

/// Build a workload's inputs from the seed: models, boundaries,
/// acquisitions, and one pool launch (the first pool use).
pub fn setup(w: Workload, ctx: Ctx, tr: &mut Tracer) -> Run<Inputs> {
    let name = w.name();
    let sp = |part: &str| format!("setup.{name}.{part}");
    let gangs = w.gangs(ctx.nproc);
    let mut rng = Rng::new(ctx.seed, w as u64 + 1);
    let v2 = acc::v_max() * (1.0 + PERTURB);
    tr.span(format!("setup.{name}"), |tr| -> Run<Inputs> {
        let inputs = match w {
            Workload::Rtm2d => {
                let dts: Vec<f32> = FORMS.iter().map(|f| acc::stable_dt(2, v2, f.2)).collect();
                let models: Vec<_> = tr.span(sp("model"), |_| {
                    FORMS
                        .iter()
                        .zip(&dts)
                        .map(|(f, &dt)| acc::model2(f.1, N2, dt, PERTURB, ctx.seed))
                        .collect()
                });
                let bounds: Vec<_> = tr.span(sp("boundary"), |_| {
                    FORMS
                        .iter()
                        .zip(&dts)
                        .map(|(f, &dt)| acc::boundary(f.1, N2, PML2, dt))
                        .collect()
                });
                let acqs: Vec<_> = tr.span(sp("acquisition"), |_| {
                    FORMS
                        .iter()
                        .map(|_| {
                            let src = rng.range(N2 / 3, 2 * N2 / 3);
                            let (sz, rz) =
                                (rng.range(PML2 + 1, PML2 + 3), rng.range(PML2 + 1, PML2 + 3));
                            let dx = rng.range(2, 3);
                            (
                                acc::acquisition2(N2, src, sz, rz, dx),
                                Wavelet::ricker(F_PEAK),
                            )
                        })
                        .collect()
                });
                let mut shots = Vec::new();
                for (((f, dt), (m, b)), (acq, wavelet)) in FORMS
                    .iter()
                    .zip(dts)
                    .zip(models.into_iter().zip(bounds))
                    .zip(acqs)
                {
                    shots.push(Shot2 {
                        case: f.0,
                        form: f.1,
                        n: N2,
                        medium: acc::medium2(m, b)?,
                        acq,
                        wavelet,
                        steps: record_steps(N2, deepest(N2), dt),
                        snap: SNAP2,
                    });
                }
                Inputs::Rtm2d(shots)
            }
            Workload::Rtm3d => {
                let dt = acc::stable_dt(3, acc::v_max(), 0.5);
                let model = tr.span(sp("model"), |_| acc::model3(N3, NZ3, dt));
                let (b, bz) = tr.span(sp("boundary"), |_| {
                    let b = |n| acc::boundary(Form::Iso, n, PML3, dt);
                    (b(N3), b(NZ3))
                });
                let (acq, wavelet, spec) = tr.span(sp("acquisition"), |_| {
                    let src = (rng.range(N3 / 3, 2 * N3 / 3), rng.range(N3 / 3, 2 * N3 / 3));
                    let (sz, rz) = (rng.range(PML3 + 1, PML3 + 3), rng.range(PML3 + 1, PML3 + 3));
                    let dx = rng.range(2, 3);
                    (
                        acc::acquisition3(N3, (src.0, src.1, sz), rz, dx),
                        Wavelet::ricker(F_PEAK),
                        acc::random_boundary(PML3, rng.next()),
                    )
                });
                Inputs::Rtm3d(Box::new(Shot3 {
                    n: N3,
                    nz: NZ3,
                    medium: acc::medium3(model, b, bz)?,
                    acq,
                    wavelet,
                    steps: record_steps(NZ3, acc::interfaces(NZ3)[0], dt),
                    snap: SNAP3,
                    spec,
                }))
            }
            Workload::Survey2d => {
                let dt = acc::stable_dt(2, v2, 0.6);
                let model = tr.span(sp("model"), |_| {
                    acc::model2(Form::Acoustic, NS, dt, PERTURB, ctx.seed)
                });
                let b = tr.span(sp("boundary"), |_| {
                    acc::boundary(Form::Acoustic, NS, PMLS, dt)
                });
                let (shots, wavelet) = tr.span(sp("acquisition"), |_| {
                    let (sz, rz) = (rng.range(PMLS + 1, PMLS + 3), rng.range(PMLS + 1, PMLS + 3));
                    let dx = rng.range(2, 3);
                    // Evenly spread sources, each jittered by up to ±2 cells.
                    let stride = (NS - 2 * PMLS) / SHOTS;
                    let shots: Vec<_> = (0..SHOTS)
                        .map(|s| {
                            let x = PMLS + stride * s + stride / 2 + rng.range(0, 4) - 2;
                            acc::acquisition2(NS, x, sz, rz, dx)
                        })
                        .collect();
                    (shots, Wavelet::ricker(F_PEAK))
                });
                let medium = acc::medium2(model, b)?;
                Inputs::Survey2d(acc::survey(
                    medium,
                    shots,
                    wavelet,
                    record_steps(NS, deepest(NS), dt),
                    SNAPS,
                    gangs,
                    ctx.nproc,
                ))
            }
        };
        if gangs > 1 {
            tr.span(sp("pool"), |_| acc::empty_launch(gangs * 64, gangs));
        }
        Ok(inputs)
    })
}

/// Images one pass produced.
pub enum Images {
    Rtm2d(Vec<Run<acc::Image<Field2>>>),
    /// Dense, then checkpoint-free.
    Rtm3d(Vec<Run<acc::Image<Field3>>>),
    Survey2d(Run<acc::Served>),
}

/// One pass over the workload's shots: the time a geophysicist waits for
/// the final image.
pub fn pass(inputs: &Inputs, gangs: usize, tr: &mut Tracer) -> Images {
    match inputs {
        Inputs::Rtm2d(shots) => Images::Rtm2d(
            shots
                .iter()
                .map(|s| {
                    tr.span(format!("rtm.{}", s.case), |_| {
                        acc::rtm2(&s.medium, &s.acq, &s.wavelet, s.steps, s.snap, gangs)
                    })
                })
                .collect(),
        ),
        Inputs::Rtm3d(s) => Images::Rtm3d(vec![
            tr.span("rtm.iso3d.dense", |_| {
                acc::rtm3_dense(&s.medium, &s.acq, &s.wavelet, s.steps, s.snap, gangs)
            }),
            tr.span("rtm.iso3d.rb", |_| {
                acc::rtm3_random_boundary(
                    &s.medium, &s.acq, &s.wavelet, s.steps, s.snap, &s.spec, gangs,
                )
            }),
        ]),
        Inputs::Survey2d(s) => Images::Survey2d(tr.span("serve.run", |_| acc::serve(s))),
    }
}

fn check2(r: &Run<acc::Image<Field2>>, n: usize) -> Result<(), String> {
    let img = r.as_ref()?;
    check::finite(img.image.as_slice())?;
    check::finite_record(&img.seismogram)?;
    check::reflector(&acc::depth_profile2(&img.image), &acc::interfaces(n))
}

fn check3(r: &Run<acc::Image<Field3>>, nz: usize, margin: usize) -> Result<(), String> {
    let img = r.as_ref()?;
    check::finite(img.image.as_slice())?;
    check::finite_record(&img.seismogram)?;
    check::reflector(
        &acc::depth_profile3(&img.image, margin),
        &acc::interfaces(nz),
    )
}

/// Check every image of a pass; each failed shot is reported on stderr
/// and counted.
pub fn check_pass(inputs: &Inputs, images: &Images, tally: &mut Tally) {
    let mut record = |what: &str, r: Result<(), String>, shots: usize| {
        tally.attempted += shots;
        if let Err(e) = r {
            eprintln!("FAILED {what}: {e}");
            tally.failed += shots;
        }
    };
    match (inputs, images) {
        (Inputs::Rtm2d(shots), Images::Rtm2d(imgs)) => {
            for (s, r) in shots.iter().zip(imgs) {
                record(s.case, check2(r, s.n), 1);
            }
        }
        (Inputs::Rtm3d(s), Images::Rtm3d(imgs)) => {
            for (what, r) in ["iso3d dense", "iso3d random-boundary"].iter().zip(imgs) {
                record(what, check3(r, s.nz, PML3), 1);
            }
        }
        (Inputs::Survey2d(s), Images::Survey2d(r)) => {
            let ok = r.as_ref().map_err(Clone::clone).and_then(|served| {
                check::finite(served.stack.as_slice())?;
                check::reflector(&acc::depth_profile2(&served.stack), &acc::interfaces(NS))
            });
            record("survey stack", ok, s.shots().len());
        }
        _ => unreachable!("images come from the same inputs"),
    }
}

// ------------------------------------------------------------ traced run

fn subnormal_frac(snaps: &[Field2]) -> f64 {
    let total: usize = snaps.iter().map(|s| s.as_slice().len()).sum();
    let sub: usize = snaps
        .iter()
        .map(|s| s.as_slice().iter().filter(|v| v.is_subnormal()).count())
        .sum();
    sub as f64 / total.max(1) as f64
}

fn mib(snaps: &[Field2]) -> f64 {
    snaps.iter().map(|s| s.as_slice().len() * 4).sum::<usize>() as f64 / (1u64 << 20) as f64
}

/// Kernel and gang-pool metrics of one case from its gangs = 1 and
/// gangs = `gangs` forward spans.
fn kernel_metrics(m: &mut Metrics, tr: &Tracer, c: &str, points: f64, bpp: f64) {
    let t1 = tr.total(&format!("prop.{c}.forward_g1"));
    let tn = tr.total(&format!("pool.{c}.forward_gN"));
    m.put(format!("prop.{c}.mgp_per_s"), points / t1 / 1e6, "Mgp/s");
    m.put(
        format!("prop.{c}.gbytes_per_s_computed"),
        points * bpp / t1 / 1e9,
        "GB/s",
    );
    m.put(format!("pool.{c}.gang_speedup"), t1 / tn, "x");
}

/// Images the decomposition rebuilt, labelled, in pass order.
type Rebuilt = Vec<(String, Vec<f32>)>;

/// Per-layer decomposition of a workload's shots: each layer's call in
/// its own span, and the images the layers rebuild, which must equal the
/// pass's images bitwise.
fn decompose(
    inputs: &Inputs,
    ctx: Ctx,
    gangs: usize,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Run<Rebuilt> {
    let mut rebuilt = Rebuilt::new();
    match inputs {
        Inputs::Rtm2d(shots) => {
            for s in shots {
                let c = s.case;
                let fwd = |snap, g| acc::modeling2(&s.medium, &s.acq, &s.wavelet, s.steps, snap, g);
                tr.span(format!("prop.{c}.forward_g1"), |_| fwd(s.steps, 1))?;
                tr.span(format!("pool.{c}.forward_gN"), |_| fwd(s.steps, gangs))?;
                let f = tr.span(format!("core.{c}.forward"), |_| fwd(s.snap, gangs))?;
                f.snapshots
                    .iter()
                    .try_for_each(|x| check::finite(x.as_slice()))?;
                let muted = tr.span(format!("core.{c}.mute"), |_| {
                    acc::mute2(&s.medium, &s.acq, &s.wavelet, &f.seismogram)
                })?;
                let image = tr.span(format!("core.{c}.migrate"), |_| {
                    acc::migrate2(
                        &s.medium,
                        &s.acq,
                        &muted,
                        &f.snapshots,
                        s.steps,
                        s.snap,
                        gangs,
                    )
                })?;
                rebuilt.push((
                    format!("{c}: run_modeling + mute_direct + migrate_shot vs run_rtm"),
                    image.as_slice().to_vec(),
                ));
                let points = (s.n * s.n * s.steps) as f64;
                kernel_metrics(m, tr, c, points, acc::bytes_per_point(s.form, false));
                m.put(
                    format!("prop.{c}.subnormal_frac"),
                    subnormal_frac(&f.snapshots),
                    "frac",
                );
                let fwd_s = tr.total(&format!("core.{c}.forward"));
                m.put(format!("core.{c}.forward_s"), fwd_s, "s");
                let plain_s = tr.total(&format!("pool.{c}.forward_gN"));
                m.put(format!("core.{c}.snapshot_s"), fwd_s - plain_s, "s");
                m.put(
                    format!("core.{c}.mute_s"),
                    tr.total(&format!("core.{c}.mute")),
                    "s",
                );
                let migrate_s = tr.total(&format!("core.{c}.migrate"));
                m.put(format!("core.{c}.backward_imaging_s"), migrate_s, "s");
                m.put(format!("core.{c}.snapshot_mib"), mib(&f.snapshots), "MiB");
            }
        }
        Inputs::Rtm3d(s) => {
            let c = "iso3d";
            let fwd = |snap, g| acc::modeling3(&s.medium, &s.acq, &s.wavelet, s.steps, snap, g);
            tr.span(format!("prop.{c}.forward_g1"), |_| fwd(s.steps, 1))?;
            tr.span(format!("pool.{c}.forward_gN"), |_| fwd(s.steps, gangs))?;
            let f = tr.span(format!("core.{c}.forward"), |_| fwd(s.snap, gangs))?;
            f.snapshots
                .iter()
                .try_for_each(|x| check::finite(x.as_slice()))?;
            let base = alloc::live_mib();
            alloc::reset_peak();
            let dense = tr.span("core.iso3d.dense", |_| {
                acc::rtm3_dense(&s.medium, &s.acq, &s.wavelet, s.steps, s.snap, gangs)
            })?;
            m.put("core.iso3d.dense_peak_mib", alloc::peak_mib() - base, "MiB");
            tr.span("core.iso3d.randomize", |_| {
                acc::randomize3(&s.medium, &s.spec)
            })?;
            let base = alloc::live_mib();
            alloc::reset_peak();
            let rb = tr.span("core.iso3d.rb_migrate", |_| {
                let muted = &dense.seismogram;
                acc::migrate3_random_boundary(
                    &s.medium, &s.acq, muted, &s.wavelet, s.steps, s.snap, &s.spec, gangs,
                )
            })?;
            m.put("core.iso3d.rb_peak_mib", alloc::peak_mib() - base, "MiB");
            rebuilt.push((
                "iso3d: run_rtm3 vs pass".into(),
                dense.image.as_slice().to_vec(),
            ));
            rebuilt.push((
                "iso3d: migrate_random_boundary3 of run_rtm3's record vs run_rtm_random_boundary3"
                    .into(),
                rb.as_slice().to_vec(),
            ));
            let points = (s.n * s.n * s.nz * s.steps) as f64;
            kernel_metrics(m, tr, c, points, acc::bytes_per_point(Form::Iso, true));
            m.put(
                format!("prop.{c}.subnormal_frac"),
                subnormal_frac(&f.snapshots),
                "frac",
            );
            for part in ["dense", "randomize", "rb_migrate"] {
                m.put(
                    format!("core.{c}.{part}_s"),
                    tr.total(&format!("core.{c}.{part}")),
                    "s",
                );
            }
        }
        Inputs::Survey2d(s) => {
            let c = "ac2d_small";
            let shot0 = &s.shots()[0];
            let fwd = |snap, g| acc::modeling2(s.medium(), shot0, s.wavelet(), s.steps(), snap, g);
            tr.span(format!("prop.{c}.forward_g1"), |_| fwd(s.steps(), 1))?;
            tr.span(format!("pool.{c}.forward_gN"), |_| {
                fwd(s.steps(), ctx.nproc)
            })?;
            let f = tr.span(format!("core.{c}.forward"), |_| fwd(s.snap(), 1))?;
            f.snapshots
                .iter()
                .try_for_each(|x| check::finite(x.as_slice()))?;
            let images = tr.span("serve.serial", |tr| {
                s.shots()
                    .iter()
                    .map(|acq| {
                        tr.span("serve.serial.shot", |_| {
                            acc::rtm2(s.medium(), acq, s.wavelet(), s.steps(), s.snap(), 1)
                        })
                    })
                    .collect::<Run<Vec<_>>>()
            })?;
            // Stack in shot order, as the server does.
            let mut stack = images[0].image.as_slice().to_vec();
            for img in &images[1..] {
                for (a, v) in stack.iter_mut().zip(img.image.as_slice()) {
                    *a += *v;
                }
            }
            rebuilt.push((
                "survey: shot-order sum of standalone images vs served stack".into(),
                stack,
            ));
            let points = (NS * NS * s.steps()) as f64;
            kernel_metrics(
                m,
                tr,
                c,
                points,
                acc::bytes_per_point(Form::Acoustic, false),
            );
            m.put(
                format!("prop.{c}.subnormal_frac"),
                subnormal_frac(&f.snapshots),
                "frac",
            );
        }
    }
    Ok(rebuilt)
}

/// The image slices of a pass, in the order [`decompose`] rebuilds them.
fn image_slices(images: &Images) -> Vec<Run<&[f32]>> {
    match images {
        Images::Rtm2d(v) => v
            .iter()
            .map(|r| r.as_ref().map(|i| i.image.as_slice()))
            .map(|r| r.map_err(Clone::clone))
            .collect(),
        Images::Rtm3d(v) => v
            .iter()
            .map(|r| r.as_ref().map(|i| i.image.as_slice()))
            .map(|r| r.map_err(Clone::clone))
            .collect(),
        Images::Survey2d(r) => vec![r.as_ref().map(|s| s.stack.as_slice()).map_err(Clone::clone)],
    }
}

/// The traced run of one workload: set-up spans, the per-layer
/// decomposition, then an untraced and a traced pass over the same shots
/// (their ratio is the tracing overhead). The decomposition runs first so
/// that both passes find the allocator, pool and caches warm. Adds its
/// metrics to `m`.
pub fn traced(w: Workload, ctx: Ctx, m: &mut Metrics, tally: &mut Tally) -> Run<()> {
    let name = w.name();
    let gangs = w.gangs(ctx.nproc);
    let mut tr = Tracer::new(true);
    let inputs = setup(w, ctx, &mut tr)?;
    for part in ["model", "boundary", "acquisition"] {
        let s = tr.total(&format!("setup.{name}.{part}"));
        m.put(format!("setup.{name}.{part}_s"), s, "s");
    }
    let rebuilt = decompose(&inputs, ctx, gangs, &mut tr, m)?;

    let t = Instant::now();
    let plain = pass(&inputs, gangs, &mut Tracer::new(false));
    let untraced_s = t.elapsed().as_secs_f64();
    check_pass(&inputs, &plain, tally);
    drop(plain);

    let (p0, i0) = acc::pool_counters();
    let images = tr.span(format!("pass.{name}"), |tr| pass(&inputs, gangs, tr));
    let (p1, i1) = acc::pool_counters();
    check_pass(&inputs, &images, tally);
    m.put(
        format!("pool.{name}.pooled_launches"),
        (p1 - p0) as f64,
        "count",
    );
    m.put(
        format!("pool.{name}.inline_launches"),
        (i1 - i0) as f64,
        "count",
    );
    let traced_s = tr.total(&format!("pass.{name}"));
    m.put(
        format!("trace.{name}.overhead_frac"),
        traced_s / untraced_s - 1.0,
        "frac",
    );

    for ((what, mine), theirs) in rebuilt.iter().zip(image_slices(&images)) {
        tally.attempted += 1;
        if let Err(e) = theirs.and_then(|t| check::identical(what, mine, t)) {
            eprintln!("FAILED {what}: {e}");
            tally.failed += 1;
        }
    }
    if let Images::Survey2d(served) = &images {
        let (Inputs::Survey2d(s), Ok(served)) = (&inputs, served) else {
            return Err("survey serve failed".into());
        };
        let wall = tr.total("serve.run");
        let serial: f64 = tr.child_durs("serve.serial").iter().sum();
        m.put("serve.wall_s", wall, "s");
        m.put("serve.shots_per_s", s.shots().len() as f64 / wall, "1/s");
        m.put("serve.speedup_vs_serial", serial / wall, "x");
        m.put(
            "serve.jobs_completed",
            served.jobs_completed as f64,
            "count",
        );
    }
    eprint!("{}", tr.dump());
    Ok(())
}

/// `pool.launch_us`: median over batches of one empty-body launch at
/// `gangs` gangs.
pub fn launch_cost(gangs: usize, m: &mut Metrics) {
    let mut tr = Tracer::new(true);
    tr.span("pool.launch", |tr| {
        for _ in 0..LAUNCH_BATCHES {
            tr.span("pool.launch.batch", |_| {
                for _ in 0..LAUNCHES {
                    acc::empty_launch(gangs * 64, gangs);
                }
            });
        }
    });
    eprint!("{}", tr.dump());
    let batch = crate::median(tr.child_durs("pool.launch"));
    m.put("pool.launch_us", batch / LAUNCHES as f64 * 1e6, "us");
}
