//! Benchmark of the RTM host engine: end-to-end time to image, set-up
//! time, peak heap and shot success on three workloads, and a traced run
//! that splits the time by layer. See `rtmbench/README.md`.
//!
//! ```text
//! rtmbench --workload <rtm2d|rtm3d|survey2d> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the machine and the run parameters.

mod adapter;
mod alloc;
mod check;
mod meta;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;
use workloads::{Ctx, Workload};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Fewest timed passes per untraced run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// Shots (and identity checks) attempted and failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("malformed arguments: {argv:?}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    };
    if kv.len() != 4 || !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("expected exactly --workload, --seed, --seconds > 0 and --trace".into());
    }
    Ok(args)
}

/// Untraced run: set up several times, then time passes over the shots
/// for `seconds`, checking every image.
fn run_untraced(
    w: Workload,
    ctx: Ctx,
    seconds: f64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> adapter::Run<()> {
    let gangs = w.gangs(ctx.nproc);
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(workloads::setup(w, ctx, &mut Tracer::new(false))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let (mut tti, mut peak) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    // Stop before a pass would overrun `seconds`.
    while tti.len() < MIN_PASSES || t0.elapsed().as_secs_f64() + tti[tti.len() - 1] <= seconds {
        alloc::reset_peak();
        let t = Instant::now();
        let images = workloads::pass(&inputs, gangs, &mut Tracer::new(false));
        tti.push(t.elapsed().as_secs_f64());
        peak.push(alloc::peak_mib());
        workloads::check_pass(&inputs, &images, tally);
    }
    eprintln!("{} passes, time_to_image_s {tti:?}", tti.len());
    m.put("setup_s", median(setup_s), "s");
    m.put("time_to_image_s", median(tti), "s");
    m.put("peak_heap_mib", median(peak), "MiB");
    let ok = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    m.put("ok_frac", ok, "frac");
    Ok(())
}

/// Traced run: every layer of every workload (the per-layer list is the
/// same whichever workload is named), repeated while another repetition
/// fits in `seconds`; each metric is the median over repetitions.
fn run_traced(ctx: Ctx, seconds: f64, m: &mut Metrics, tally: &mut Tally) {
    let t0 = Instant::now();
    let mut reps: Vec<Metrics> = Vec::new();
    while reps.is_empty() || t0.elapsed().as_secs_f64() * (1.0 + 1.0 / reps.len() as f64) <= seconds
    {
        let mut r = Metrics::default();
        workloads::launch_cost(ctx.nproc, &mut r);
        for w in Workload::ALL {
            if let Err(e) = workloads::traced(w, ctx, &mut r, tally) {
                eprintln!("FAILED {} traced run: {e}", w.name());
                tally.attempted += 1;
                tally.failed += 1;
            }
        }
        reps.push(r);
    }
    let names: Vec<String> = reps[0].0.keys().cloned().collect();
    for name in names {
        let unit = reps[0].0[&name].1;
        let vals = reps
            .iter()
            .filter_map(|r| r.0.get(&name).map(|v| v.0))
            .collect();
        m.put(name, median(vals), unit);
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtmbench: {e}");
            eprintln!("usage: rtmbench --workload <rtm2d|rtm3d|survey2d> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let ctx = Ctx {
        seed: args.seed,
        nproc: meta::nproc(),
    };
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    if args.trace {
        run_traced(ctx, args.seconds, &mut m, &mut tally);
    } else if let Err(e) = run_untraced(w, ctx, args.seconds, &mut m, &mut tally) {
        eprintln!("rtmbench: set-up failed: {e}");
        return ExitCode::FAILURE;
    }

    let kib = |l| meta::cache_kib(l).map_or("null".into(), |k| k.to_string());
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {}, \
         \"cpu_model\": \"{}\", \"l2_kib\": {}, \"l3_kib\": {}, \"gangs\": {}, \"serve_devices\": {}, \
         \"build_profile\": \"{}\"}}}}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        ctx.nproc,
        meta::cpu_model().replace('"', "'"),
        kib(2),
        kib(3),
        w.gangs(ctx.nproc),
        ctx.nproc,
        meta::build_profile(),
    );
    if !args.trace {
        let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
        let get = |k: &str| m.0[k].0;
        println!(
            "{}: setup_s={:.6} time_to_image_s={:.6} peak_heap_mib={:.3} failed_frac={} ({} of {} shots)",
            w.name(),
            get("setup_s"),
            get("time_to_image_s"),
            get("peak_heap_mib"),
            failed_frac,
            tally.failed,
            tally.attempted
        );
    }
    let metrics: Vec<String> =
        m.0.iter()
            .map(|(k, (v, u))| {
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
