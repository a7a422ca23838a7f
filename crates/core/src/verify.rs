//! Directive-program extraction for the verifier.
//!
//! `acc-verify` checks a [`Program`]: the ordered data directives, kernel
//! launches, and waits a driver issues. This module builds that program for
//! every seismic case by walking the *same* launch plans
//! ([`crate::plan::step_phases`] and friends) the timing estimator and the
//! real-execution drivers consume, so the verified sequence is the executed
//! sequence. Time loops are unrolled to [`VERIFY_STEPS`] steps — the steps
//! are identical, so two iterations reach the checkers' fixpoint — with the
//! snapshot branch taken on the first step.
//!
//! ## Access declarations
//!
//! Each kernel's footprint is declared over *sub-field slots* of the one
//! mapped block its case uses (`"fields"`, `"forward"`, `"backward"`):
//! slot `k` starts at `k·slot_size + pad` elements, sized so an 8th-order
//! stencil star never crosses a slot boundary. A kernel writes its own
//! slot and reads the slots the previous phase wrote (for the first phase:
//! the last phase's slots — the leapfrog time-level rotation). This is the
//! real data flow of the propagators, and it makes the paper's directives
//! verifiably correct: writes never alias reads within a launch, async
//! phases touch disjoint slots, and the inter-phase `wait` is what keeps
//! cross-queue readers off in-flight writes.

use crate::case::{ImagePlacement, OptimizationConfig, SeismicCase, Workload};
use crate::plan::{self, LaunchSpec, Phase};
use acc_verify::vectorize::VECTOR_ALIGN;
use acc_verify::{Launch, Op, Program};
use openacc_sim::access::{AccessSet, ReduceOp};
use openacc_sim::{Clause, Compiler, ConstructKind, LoopNest};
use seismic_grid::STENCIL_HALF;
use seismic_model::footprint::Formulation;

/// Time steps each program unrolls (the steps are identical; two reach the
/// abstract-interpretation fixpoint).
pub const VERIFY_STEPS: usize = 2;

/// Sub-field slot layout within one mapped array.
#[derive(Debug, Clone, Copy)]
struct SlotLayout {
    /// Elements per innermost row (the z-neighbour stride of the star).
    row: i64,
    /// Halo margin before/after each slot's live range.
    pad: i64,
    /// Elements per slot.
    slot: i64,
}

impl SlotLayout {
    fn new(w: &Workload) -> Self {
        let row = w.nx as i64;
        // Pad and slot size are rounded up to the vector alignment so
        // every slot base lands on a VECTOR_ALIGN boundary: the store
        // streams the vectorization verifier certifies start aligned, and
        // the `misalign_base` mutation is a genuine 0 → nonzero flip.
        let pad = align_up(STENCIL_HALF as i64 * row + STENCIL_HALF as i64);
        SlotLayout {
            row,
            pad,
            slot: align_up(w.alloc_points(STENCIL_HALF) as i64 + 2 * pad),
        }
    }

    fn base(&self, slot: usize) -> i64 {
        slot as i64 * self.slot + self.pad
    }
}

/// Round up to the next multiple of [`VECTOR_ALIGN`].
fn align_up(v: i64) -> i64 {
    (v + VECTOR_ALIGN - 1) / VECTOR_ALIGN * VECTOR_ALIGN
}

/// The FD-star footprint: write `array[out + i]`, read the full 8th-order
/// star around `array[b + i]` for every input base `b`.
fn stencil_access(
    spec: &LaunchSpec,
    array: &str,
    out: i64,
    ins: &[i64],
    lay: &SlotLayout,
) -> AccessSet {
    let trip = spec.nest.points();
    let mut a = AccessSet::new(trip).write(array, out, 1);
    for &b in ins {
        a = a.read(array, b, 1);
        for k in 1..=STENCIL_HALF as i64 {
            for d in [k, -k, k * lay.row, -k * lay.row] {
                a = a.read(array, b + d, 1);
            }
        }
    }
    a
}

fn to_launch(spec: &LaunchSpec, access: AccessSet) -> Launch {
    Launch {
        name: spec.desc.name.to_string(),
        nest: spec.nest.clone(),
        kind: spec.kind,
        clauses: spec.clauses.clone(),
        access,
        regs: spec.desc.regs,
    }
}

fn is_async(spec: &LaunchSpec) -> bool {
    spec.clauses.iter().any(|c| matches!(c, Clause::Async(_)))
}

/// Emit one time step's phases. Slot 0 is the input bank; phase `p` kernel
/// `i` writes slot `phase_slots[p][i]` and reads the previous phase's
/// slots (the last phase's, for `p == 0`).
fn emit_step(
    ops: &mut Vec<Op>,
    phases: &[Phase],
    array: &str,
    lay: &SlotLayout,
    phase_slots: &[Vec<usize>],
) {
    let n = phases.len();
    for (p, phase) in phases.iter().enumerate() {
        let prev: Vec<i64> = if p == 0 && n == 1 {
            vec![lay.base(0)]
        } else {
            phase_slots[(p + n - 1) % n]
                .iter()
                .map(|&s| lay.base(s))
                .collect()
        };
        let mut any_async = false;
        for (i, spec) in phase.iter().enumerate() {
            let out = lay.base(phase_slots[p][i]);
            ops.push(Op::Launch(to_launch(
                spec,
                stencil_access(spec, array, out, &prev, lay),
            )));
            any_async |= is_async(spec);
        }
        if any_async {
            ops.push(Op::Wait);
        }
    }
}

fn assign_slots(phases: &[Phase]) -> (Vec<Vec<usize>>, usize) {
    let mut next = 1; // slot 0 is the input bank
    let mut per_phase = Vec::with_capacity(phases.len());
    for phase in phases {
        let slots: Vec<usize> = (0..phase.len())
            .map(|_| {
                let s = next;
                next += 1;
                s
            })
            .collect();
        per_phase.push(slots);
    }
    (per_phase, next)
}

fn source_op(
    case: &SeismicCase,
    compiler: Compiler,
    config: &OptimizationConfig,
    array: &str,
    lay: &SlotLayout,
    slot: usize,
) -> Op {
    let src = plan::source_injection(case, compiler, config);
    let access = AccessSet::new(src.nest.points()).write(array, lay.base(slot), 0);
    Op::Launch(to_launch(&src, access))
}

/// The per-step QC energy norm: a flat `sum(u[i]²)` sweep over the newest
/// wavefield slot, accumulated with a declared `reduction(+:...)` into a
/// dedicated (aligned) cell of `qc_slot`. This is the drivers' solver-QC
/// / convergence check, and it gives every program a declared FP
/// reduction for the vectorization verifier to judge: lane-private
/// partials are race-free, but a vectorized `+` combine reassociates, so
/// the certificate carries a documented ULP bound instead of `Legal`.
fn qc_norm_op(array: &str, lay: &SlotLayout, in_slot: usize, qc_slot: usize, trip: u64) -> Op {
    Op::Launch(Launch {
        name: "qc_energy_norm".into(),
        nest: LoopNest::new(&[trip]),
        kind: ConstructKind::Kernels,
        clauses: vec![Clause::Independent],
        access: AccessSet::new(trip)
            .read(array, lay.base(in_slot), 1)
            .reduce(array, lay.base(qc_slot), ReduceOp::Sum),
        regs: 16,
    })
}

/// The modeling driver's directive program (mirrors
/// [`crate::gpu_time::modeling_time`]).
pub fn modeling_program(
    case: &SeismicCase,
    config: &OptimizationConfig,
    compiler: Compiler,
    w: &Workload,
) -> Program {
    let lay = SlotLayout::new(w);
    let phases = plan::step_phases(case, config, w, compiler);
    let (slots, n_slots) = assign_slots(&phases);
    let newest_slot = slots.last().and_then(|s| s.last()).copied().unwrap_or(0);
    let qc_trip = (lay.slot - 2 * lay.pad) as u64;
    let mut p = Program::new(format!("{} modeling", case.label()));
    p.push(Op::EnterDataCopyin {
        array: "fields".into(),
    });
    let steps = w.steps.clamp(1, VERIFY_STEPS);
    for step in 0..steps {
        emit_step(&mut p.ops, &phases, "fields", &lay, &slots);
        p.push(source_op(case, compiler, config, "fields", &lay, n_slots));
        p.push(qc_norm_op(
            "fields",
            &lay,
            newest_slot,
            n_slots + 1,
            qc_trip,
        ));
        if step % w.snap_period == 0 {
            p.push(Op::UpdateHost {
                array: "fields".into(),
            })
            .push(Op::HostRead {
                array: "fields".into(),
            });
        }
    }
    p.push(Op::ExitDataDelete {
        array: "fields".into(),
    });
    p
}

/// The RTM driver's directive program (mirrors
/// [`crate::gpu_time::rtm_time`]): forward phase, data-environment swap,
/// backward phase with receiver injection and the imaging condition.
pub fn rtm_program(
    case: &SeismicCase,
    config: &OptimizationConfig,
    compiler: Compiler,
    w: &Workload,
) -> Program {
    let lay = SlotLayout::new(w);
    let phases = plan::step_phases(case, config, w, compiler);
    let (slots, n_slots) = assign_slots(&phases);
    let iso_consistency = case.formulation == Formulation::Isotropic;
    let steps = w.steps.clamp(1, VERIFY_STEPS);
    let src_slot = n_slots;
    let rcv_slot = n_slots + 1;
    let img_slot = n_slots + 2;
    let qc_slot = n_slots + 3;
    let newest_slot = slots.last().and_then(|s| s.last()).copied().unwrap_or(0);
    let qc_trip = (lay.slot - 2 * lay.pad) as u64;

    let mut p = Program::new(format!("{} RTM", case.label()));

    // Step 1/2: forward allocation and forward sweep with snapshot saves.
    p.push(Op::EnterDataCopyin {
        array: "forward".into(),
    });
    for step in 0..steps {
        emit_step(&mut p.ops, &phases, "forward", &lay, &slots);
        p.push(source_op(case, compiler, config, "forward", &lay, src_slot));
        p.push(qc_norm_op("forward", &lay, newest_slot, qc_slot, qc_trip));
        if step % w.snap_period == 0 {
            p.push(Op::UpdateHost {
                array: "forward".into(),
            })
            .push(Op::HostRead {
                array: "forward".into(),
            });
        }
        if iso_consistency {
            // "requires many host-GPU updates ... to keep the variables
            // consistent": host refreshes its slice, mutates, re-uploads.
            p.push(Op::UpdateHost {
                array: "forward".into(),
            })
            .push(Op::HostWrite {
                array: "forward".into(),
            })
            .push(Op::UpdateDevice {
                array: "forward".into(),
            });
        }
    }

    // Step 3: offload forward scratch, upload the backward/imaging set.
    p.push(Op::ExitDataDelete {
        array: "forward".into(),
    })
    .push(Op::EnterDataCopyin {
        array: "forward_wavefield".into(),
    })
    .push(Op::EnterDataCopyin {
        array: "backward".into(),
    });

    // Step 4: backward sweep with receiver injection + imaging condition.
    let rcv = plan::receiver_injection(case, compiler, config, w.n_receivers);
    let img = plan::imaging_kernel(case, compiler, config, w);
    let last_slot = slots.last().and_then(|s| s.last()).copied().unwrap_or(0);
    for step in 0..steps {
        if step % w.snap_period == 0 {
            // The host stages the saved forward snapshot, then uploads it.
            p.push(Op::HostWrite {
                array: "forward_wavefield".into(),
            })
            .push(Op::UpdateDevice {
                array: "forward_wavefield".into(),
            });
            match config.image_placement {
                ImagePlacement::Gpu => {
                    let access = AccessSet::new(img.nest.points())
                        .read("forward_wavefield", lay.pad, 1)
                        .read("backward", lay.base(last_slot), 1)
                        .write("backward", lay.base(img_slot), 1);
                    p.push(Op::Launch(to_launch(&img, access)));
                }
                ImagePlacement::Cpu => {
                    p.push(Op::UpdateHost {
                        array: "backward".into(),
                    })
                    .push(Op::HostRead {
                        array: "backward".into(),
                    });
                }
            }
        }
        emit_step(&mut p.ops, &phases, "backward", &lay, &slots);
        for r in &rcv {
            // Read the recorded trace, scatter into the receiver slot; the
            // offset-by-one strided pair is conflict-free (gcd 7 ∤ 1).
            let base = lay.base(rcv_slot);
            let access = AccessSet::new(r.nest.points())
                .read("backward", base + 1, 7)
                .write("backward", base, 7);
            p.push(Op::Launch(to_launch(r, access)));
        }
        p.push(qc_norm_op("backward", &lay, newest_slot, qc_slot, qc_trip));
        if iso_consistency {
            p.push(Op::UpdateHost {
                array: "backward".into(),
            })
            .push(Op::HostWrite {
                array: "backward".into(),
            })
            .push(Op::UpdateDevice {
                array: "backward".into(),
            });
        }
    }

    // Step 5: store the image, free the device.
    p.push(Op::UpdateHost {
        array: "backward".into(),
    })
    .push(Op::HostRead {
        array: "backward".into(),
    })
    .push(Op::ExitDataDelete {
        array: "backward".into(),
    })
    .push(Op::ExitDataDelete {
        array: "forward_wavefield".into(),
    });
    p
}

/// Both programs of a case, labeled.
pub fn case_programs(
    case: &SeismicCase,
    config: &OptimizationConfig,
    compiler: Compiler,
    w: &Workload,
) -> Vec<Program> {
    vec![
        modeling_program(case, config, compiler, w),
        rtm_program(case, config, compiler, w),
    ]
}

/// Mutation: make the `nth` parallelized stencil launch update *in place*
/// (reads re-aimed at its own write slot) — the classic false-`independent`
/// bug. Returns the op index mutated, or `None` if there is no eligible
/// launch.
pub fn break_kernel_inplace(p: &mut Program, nth: usize) -> Option<usize> {
    let mut seen = 0;
    for (i, op) in p.ops.iter_mut().enumerate() {
        if let Op::Launch(l) = op {
            let parallelized = l.claims_independent() || !l.nest.innermost_dependence;
            let unit_write = l.access.writes.iter().any(|w| w.stride == 1);
            if parallelized && unit_write && !l.access.reads.is_empty() {
                if seen == nth {
                    let w = l.access.writes.iter().find(|w| w.stride == 1).cloned()?;
                    let row = *l.nest.sizes.last().unwrap_or(&1) as i64;
                    l.access = AccessSet::stencil_inplace(
                        l.access.trip,
                        w.array.clone(),
                        w.offset,
                        STENCIL_HALF as i64,
                        row.max(2),
                    );
                    return Some(i);
                }
                seen += 1;
            }
        }
    }
    None
}

/// Count of launches [`break_kernel_inplace`] could target.
pub fn breakable_launches(p: &Program) -> usize {
    p.launches()
        .filter(|(_, l)| {
            (l.claims_independent() || !l.nest.innermost_dependence)
                && l.access.writes.iter().any(|w| w.stride == 1)
                && !l.access.reads.is_empty()
        })
        .count()
}

/// Mutation: remove every `wait`, letting async phases collide — the
/// cross-queue hazard the checker must catch.
pub fn drop_waits(p: &mut Program) -> usize {
    let before = p.ops.len();
    p.ops
        .retain(|op| !matches!(op, Op::Wait | Op::WaitQueue(_)));
    before - p.ops.len()
}

/// Whether a launch is a target for the vector-legality mutations: a
/// parallelized loop with a unit-stride store stream (the shape the
/// verifier certifies at width ≥ 2 on the clean programs).
fn vector_breakable(l: &Launch) -> bool {
    (l.claims_independent() || !l.nest.innermost_dependence)
        && l.access.writes.iter().any(|w| w.stride == 1)
}

/// Mutation: give the `nth` vectorizable launch a distance-1 carried
/// dependence — `u[i] = f(u[i−1])`, the running recurrence — so any two
/// adjacent iterations share an element and no lane width ≥ 2 is legal.
/// Both tiers must flip: the static certificate to `Illegal` with a
/// distance-1 witness, and the chunked lane replay to a conflict in every
/// chunk. Returns the mutated op index.
pub fn break_vector_distance1(p: &mut Program, nth: usize) -> Option<usize> {
    let mut seen = 0;
    for (i, op) in p.ops.iter_mut().enumerate() {
        if let Op::Launch(l) = op {
            if vector_breakable(l) {
                if seen == nth {
                    let w = l.access.writes.iter().find(|w| w.stride == 1).cloned()?;
                    l.access = AccessSet::new(l.access.trip)
                        .write(w.array.clone(), w.offset, 1)
                        .read(w.array, w.offset - 1, 1);
                    return Some(i);
                }
                seen += 1;
            }
        }
    }
    None
}

/// Mutation: shift the `nth` vectorizable launch's unit-stride store
/// bases by one element. Slot bases are [`VECTOR_ALIGN`]-aligned by
/// construction, so this flips the certificate's alignment residue from
/// 0 to 1 — every vector store now straddles an alignment boundary —
/// without introducing any dependence. Returns the mutated op index.
pub fn misalign_base(p: &mut Program, nth: usize) -> Option<usize> {
    let mut seen = 0;
    for (i, op) in p.ops.iter_mut().enumerate() {
        if let Op::Launch(l) = op {
            if vector_breakable(l) {
                if seen == nth {
                    for w in &mut l.access.writes {
                        if w.stride == 1 {
                            w.offset += 1;
                        }
                    }
                    return Some(i);
                }
                seen += 1;
            }
        }
    }
    None
}

/// Mutation: swap the `nth` declared-reduction launch's `reduction(+:...)`
/// for a running prefix recurrence — `acc[i] = acc[i−1] + u[i]` spelled as
/// plain writes/reads. The lane-private-partials exemption no longer
/// applies: the loop now carries a genuine distance-1 dependence, and both
/// tiers must flip from `LegalWithUlp` to illegal. Returns the op index.
pub fn break_reduction_recurrence(p: &mut Program, nth: usize) -> Option<usize> {
    let mut seen = 0;
    for (i, op) in p.ops.iter_mut().enumerate() {
        if let Op::Launch(l) = op {
            if !l.access.reductions.is_empty() {
                if seen == nth {
                    let r = l.access.reductions[0].clone();
                    let mut access = l.access.clone();
                    access.reductions.clear();
                    l.access =
                        access
                            .write(r.array.clone(), r.offset, 1)
                            .read(r.array, r.offset - 1, 1);
                    return Some(i);
                }
                seen += 1;
            }
        }
    }
    None
}

/// Count of launches [`break_vector_distance1`] / [`misalign_base`] could
/// target.
pub fn vector_breakable_launches(p: &Program) -> usize {
    p.launches().filter(|(_, l)| vector_breakable(l)).count()
}

/// Count of launches [`break_reduction_recurrence`] could target.
pub fn reduction_launches(p: &Program) -> usize {
    p.launches()
        .filter(|(_, l)| !l.access.reductions.is_empty())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Cluster;
    use crate::gpu_time::test_workload;
    use acc_verify::{sanitize, Rule, Severity, VerifyContext};
    use openacc_sim::PgiVersion;
    use seismic_model::footprint::Dims;

    const PGI: Compiler = Compiler::Pgi(PgiVersion::V14_6);

    fn ctx() -> VerifyContext {
        VerifyContext {
            compiler: PGI,
            device: Cluster::CrayXc30.device(),
        }
    }

    fn errors_and_warnings(diags: &[acc_verify::Diagnostic]) -> Vec<String> {
        diags
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
            .map(|d| d.render())
            .collect()
    }

    #[test]
    fn all_cases_verify_clean_under_best_config() {
        let cfg = OptimizationConfig::default();
        for case in SeismicCase::all() {
            let w = test_workload(case.dims);
            for prog in case_programs(&case, &cfg, PGI, &w) {
                let diags = acc_verify::verify_program(&prog, &ctx());
                let bad = errors_and_warnings(&diags);
                assert!(bad.is_empty(), "{}: {bad:?}", prog.name);
            }
        }
    }

    #[test]
    fn broken_independent_flagged_and_confirmed_by_sanitizer() {
        let case = SeismicCase {
            formulation: Formulation::Acoustic,
            dims: Dims::Three,
        };
        let w = test_workload(Dims::Three);
        let mut prog = modeling_program(&case, &OptimizationConfig::default(), PGI, &w);
        let op = break_kernel_inplace(&mut prog, 0).expect("an eligible launch");
        let diags = acc_verify::verify_program(&prog, &ctx());
        let race: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::IndependentRace)
            .collect();
        assert!(!race.is_empty(), "{diags:?}");
        assert!(race.iter().any(|d| d.span.op == op));
        // Tier 2 witnesses the same race on a small grid.
        let Op::Launch(l) = &prog.ops[op] else {
            panic!("mutated op must be a launch")
        };
        let cc = sanitize::crosscheck(l);
        assert!(cc.static_race && cc.dynamic.is_race() && cc.agree());
    }

    #[test]
    fn dropped_waits_become_async_hazards() {
        let case = SeismicCase {
            formulation: Formulation::Elastic,
            dims: Dims::Two,
        };
        let w = test_workload(Dims::Two);
        let mut prog = modeling_program(&case, &OptimizationConfig::default(), PGI, &w);
        assert!(drop_waits(&mut prog) > 0, "elastic must have waits");
        let diags = acc_verify::verify_program(&prog, &ctx());
        assert!(
            diags.iter().any(|d| d.rule == Rule::AsyncHazard),
            "{diags:?}"
        );
    }

    #[test]
    fn skipped_update_host_becomes_stale_read() {
        let case = SeismicCase {
            formulation: Formulation::Isotropic,
            dims: Dims::Two,
        };
        let w = test_workload(Dims::Two);
        let mut prog = modeling_program(&case, &OptimizationConfig::default(), PGI, &w);
        let i = prog
            .ops
            .iter()
            .position(|o| matches!(o, Op::UpdateHost { .. }))
            .expect("modeling snapshots");
        prog.ops.remove(i);
        let diags = acc_verify::verify_program(&prog, &ctx());
        assert!(
            diags.iter().any(|d| d.rule == Rule::StaleHostRead),
            "{diags:?}"
        );
    }

    #[test]
    fn naive_config_trips_perf_lints() {
        let case = SeismicCase {
            formulation: Formulation::Acoustic,
            dims: Dims::Three,
        };
        let w = test_workload(Dims::Three);
        let prog = modeling_program(&case, &OptimizationConfig::naive(), PGI, &w);
        let diags = acc_verify::verify_program(&prog, &ctx());
        // The fused 96-register pressure kernel starves occupancy on the
        // uncapped K40 (Figure 10's motivation).
        assert!(
            diags.iter().any(|d| d.rule == Rule::RegisterPressure),
            "{diags:?}"
        );
        // And the naive 2D acoustic sweep is uncoalesced (Figure 13).
        let case2 = SeismicCase {
            formulation: Formulation::Acoustic,
            dims: Dims::Two,
        };
        let prog2 = modeling_program(
            &case2,
            &OptimizationConfig::naive(),
            PGI,
            &test_workload(Dims::Two),
        );
        let diags2 = acc_verify::verify_program(&prog2, &ctx());
        assert!(
            diags2
                .iter()
                .any(|d| d.rule == Rule::UncoalescedAccess && d.severity == Severity::Warning),
            "{diags2:?}"
        );
    }

    #[test]
    fn double_delete_mutation_flagged() {
        let case = SeismicCase {
            formulation: Formulation::Elastic,
            dims: Dims::Three,
        };
        let w = test_workload(Dims::Three);
        let mut prog = rtm_program(&case, &OptimizationConfig::default(), PGI, &w);
        prog.push(Op::ExitDataDelete {
            array: "backward".into(),
        });
        let diags = acc_verify::verify_program(&prog, &ctx());
        assert!(
            diags.iter().any(|d| d.rule == Rule::DoubleDelete),
            "{diags:?}"
        );
    }

    /// Every one of the 12 programs carries the QC reduction kernel, and
    /// every program has at least one innermost loop certified legal at
    /// width ≥ 2 — with the Tier-2 lane replay agreeing on every verdict.
    #[test]
    fn all_programs_get_vector_certificates_with_a_legal_loop() {
        use acc_verify::vectorize;
        let cfg = OptimizationConfig::default();
        for case in SeismicCase::all() {
            let w = test_workload(case.dims);
            for prog in case_programs(&case, &cfg, PGI, &w) {
                let certs = vectorize::certify_program(&prog, &ctx());
                assert!(
                    certs
                        .iter()
                        .any(|c| c.kernel == "qc_energy_norm" && c.ulp_bound > 0),
                    "{}: QC reduction kernel missing or unbounded",
                    prog.name
                );
                assert!(
                    certs.iter().any(|c| c.certified_legal()),
                    "{}: no certified-legal innermost loop: {certs:?}",
                    prog.name
                );
                for cc in vectorize::lane_crosscheck_program(&prog) {
                    assert!(cc.agree(), "{}: tiers disagree: {cc:?}", prog.name);
                }
            }
        }
    }

    /// Seeded mutation 1: a distance-1 carried dependence flips the loop's
    /// verdict in the static tier (certificate → Illegal, width 1) AND in
    /// the dynamic tier (lane replay conflicts at every width ≥ 2).
    #[test]
    fn distance1_mutation_flips_both_tiers() {
        use acc_verify::vectorize;
        let case = SeismicCase {
            formulation: Formulation::Acoustic,
            dims: Dims::Two,
        };
        let w = test_workload(Dims::Two);
        let cfg = OptimizationConfig::default();
        let clean = modeling_program(&case, &cfg, PGI, &w);
        let mut broken = modeling_program(&case, &cfg, PGI, &w);
        assert!(vector_breakable_launches(&clean) > 0);
        let op = break_vector_distance1(&mut broken, 0).expect("an eligible launch");
        let (Op::Launch(before), Op::Launch(after)) = (&clean.ops[op], &broken.ops[op]) else {
            panic!("mutated op must be a launch");
        };
        // Static tier flips.
        let c0 = vectorize::certify_launch(op, before, &ctx());
        let c1 = vectorize::certify_launch(op, after, &ctx());
        assert!(c0.certified_legal(), "{c0:?}");
        assert!(!c1.legality.is_legal() && c1.width == 1, "{c1:?}");
        assert_eq!(c1.min_distance, Some(1));
        // Dynamic tier flips, and both tiers agree before and after.
        let l0 = vectorize::lane_crosscheck(before);
        let l1 = vectorize::lane_crosscheck(after);
        assert!(l0.agree() && l0.per_width.iter().all(|wc| wc.dynamic_safe));
        assert!(l1.agree() && l1.per_width.iter().all(|wc| !wc.dynamic_safe));
        // And the program-level run reports the lane-dependence error.
        let diags = acc_verify::verify_program(&broken, &ctx());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::VectorLaneDependence && d.span.op == op),
            "{diags:?}"
        );
    }

    /// Seeded mutation 2: shifting an aligned store base by one element
    /// flips the alignment residue from 0 to 1 in the certificate, and the
    /// Tier-2 replay observes the same residue (crosscheck still agrees).
    #[test]
    fn misaligned_base_mutation_flips_residue() {
        use acc_verify::vectorize;
        let case = SeismicCase {
            formulation: Formulation::Isotropic,
            dims: Dims::Three,
        };
        let w = test_workload(Dims::Three);
        let cfg = OptimizationConfig::default();
        let clean = modeling_program(&case, &cfg, PGI, &w);
        let mut broken = modeling_program(&case, &cfg, PGI, &w);
        let op = misalign_base(&mut broken, 0).expect("an eligible launch");
        let (Op::Launch(before), Op::Launch(after)) = (&clean.ops[op], &broken.ops[op]) else {
            panic!("mutated op must be a launch");
        };
        let c0 = vectorize::certify_launch(op, before, &ctx());
        let c1 = vectorize::certify_launch(op, after, &ctx());
        assert_eq!(c0.align_residue, 0, "slot bases must start aligned: {c0:?}");
        assert_eq!(c1.align_residue, 1, "{c1:?}");
        // Still legal (no dependence was introduced) — just unaligned.
        assert!(c1.certified_legal(), "{c1:?}");
        let l1 = vectorize::lane_crosscheck(after);
        assert!(
            l1.agree() && l1.residue_agrees,
            "replay must see it: {l1:?}"
        );
        let diags = acc_verify::verify_program(&broken, &ctx());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::VectorMisalignment && d.span.op == op),
            "{diags:?}"
        );
    }

    /// Seeded mutation 3: swapping the declared `reduction(+:...)` for a
    /// running prefix recurrence loses the lane-private exemption — both
    /// tiers flip from LegalWithUlp to a distance-1 illegal verdict.
    #[test]
    fn reduction_recurrence_mutation_flips_both_tiers() {
        use acc_verify::vectorize;
        let case = SeismicCase {
            formulation: Formulation::Elastic,
            dims: Dims::Two,
        };
        let w = test_workload(Dims::Two);
        let cfg = OptimizationConfig::default();
        let clean = rtm_program(&case, &cfg, PGI, &w);
        let mut broken = rtm_program(&case, &cfg, PGI, &w);
        assert!(reduction_launches(&clean) > 0, "QC kernels must be present");
        let op = break_reduction_recurrence(&mut broken, 0).expect("a reduction launch");
        let (Op::Launch(before), Op::Launch(after)) = (&clean.ops[op], &broken.ops[op]) else {
            panic!("mutated op must be a launch");
        };
        let c0 = vectorize::certify_launch(op, before, &ctx());
        let c1 = vectorize::certify_launch(op, after, &ctx());
        assert!(
            matches!(c0.legality, acc_verify::VectorLegality::LegalWithUlp { .. })
                && c0.ulp_bound > 0,
            "{c0:?}"
        );
        assert!(
            !c1.legality.is_legal() && c1.min_distance == Some(1),
            "{c1:?}"
        );
        let l0 = vectorize::lane_crosscheck(before);
        let l1 = vectorize::lane_crosscheck(after);
        assert!(l0.agree() && l0.per_width.iter().all(|wc| wc.dynamic_safe));
        assert!(l1.agree() && l1.per_width.iter().all(|wc| !wc.dynamic_safe));
    }

    #[test]
    fn cray_programs_also_verify_clean() {
        let cfg = OptimizationConfig::default();
        let ctx = VerifyContext {
            compiler: Compiler::Cray,
            device: Cluster::CrayXc30.device(),
        };
        for case in SeismicCase::all() {
            let w = test_workload(case.dims);
            for prog in case_programs(&case, &cfg, Compiler::Cray, &w) {
                let diags = acc_verify::verify_program(&prog, &ctx);
                let bad = errors_and_warnings(&diags);
                assert!(bad.is_empty(), "{}: {bad:?}", prog.name);
            }
        }
    }
}
