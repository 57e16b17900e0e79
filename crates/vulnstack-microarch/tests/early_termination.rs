//! Soundness of pruned early termination at the core level.
//!
//! The pruning engine ends an injected run as Masked the moment the
//! architectural state re-converges with the golden checkpoint at the
//! same cycle (`OooCore::converged_with`). That is only sound if (a) the
//! continuation from a converged state really does retrace the golden
//! run — same `RunStatus`, same output, same already-latched FPM
//! milestones — and (b) the predicate refuses to fire while *anything*
//! the future can observe still differs, memory included, not just
//! registers. Both halves are checked here directly against the core,
//! with no campaign machinery in between.

use vulnstack_compiler::{compile, CompileOpts};
use vulnstack_isa::Isa;
use vulnstack_kernel::{memmap, SystemImage};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::snapshot::GoldenObserver;
use vulnstack_microarch::{
    CheckpointStore, CoreModel, FaultEventKind, FaultTrace, OooCore, RunStatus,
};
use vulnstack_vir::ModuleBuilder;

const INTERVAL: u64 = 256;
const MAX_SNAPSHOTS: usize = 64;
const BUDGET: u64 = 10_000_000;

/// A loop whose per-iteration intermediates are dead one iteration
/// later: `acc` is recomputed from clean inputs every pass and only the
/// final value reaches the output. A flip caught in the short
/// write-to-read window of an intermediate is consumed (FPM latches),
/// corrupts `acc` for exactly one iteration, and is then fully
/// overwritten — the machine state re-converges with the golden run
/// while the run is still far from its end. The zeroed global gives the
/// memory-divergence test a writable, cache-resident address.
fn rollover_image(isa: Isa) -> SystemImage {
    let mut mb = ModuleBuilder::new("t");
    let _pad = mb.global_zeroed("pad", 64, 4);
    let mut f = mb.function("main", 0);
    let acc = f.fresh();
    let a = f.fresh();
    f.set_c(acc, 1);
    f.set_c(a, 40503);
    f.for_range(0, 300, |f, i| {
        let x = f.xor(a, i);
        let y = f.add(x, 3);
        f.set(acc, y);
    });
    let slot = f.stack_slot(4, 4);
    let p = f.slot_addr(slot);
    f.store32(acc, p, 0);
    f.sys_write(p, 4);
    f.sys_exit(0);
    f.ret(None);
    mb.finish_function(f);
    let m = mb.finish().unwrap();
    let c = compile(&m, isa, &CompileOpts::default()).unwrap();
    SystemImage::build(&c, &[]).unwrap()
}

/// Runs one injected core boundary-by-boundary, applying exactly the
/// pruner's gate: probe only while the fault is architecturally visible
/// (`fpm` latched) and a golden snapshot exists at the current cycle.
/// Returns the core frozen at the first converged boundary.
fn probe_until_converged(
    image: &SystemImage,
    store: &CheckpointStore,
    cycle: u64,
    bit: u64,
) -> Option<(OooCore, u64)> {
    let cfg = CoreModel::A72.config();
    let mut core = OooCore::new(&cfg, image);
    core.run_until(cycle);
    if core.ended() || core.cycle() != cycle {
        return None;
    }
    core.enable_fault_trace(256);
    core.inject(HwStructure::RegisterFile, bit);
    loop {
        let boundary = (core.cycle() / store.interval() + 1) * store.interval();
        if boundary >= BUDGET {
            return None;
        }
        core.run_until(boundary);
        if core.ended() {
            return None;
        }
        if core.fpm().is_some() {
            if let Some(golden) = store.at(core.cycle()) {
                if core.converged_with(golden) {
                    let at = core.cycle();
                    return Some((core, at));
                }
            }
        }
        store.at(boundary)?;
    }
}

fn first_visible(trace: &FaultTrace) -> Option<(vulnstack_microarch::ooo::Fpm, u64)> {
    trace.counts().first_visible
}

#[test]
fn early_terminated_run_matches_the_full_run_it_replaces() {
    let image = rollover_image(Isa::Va64);
    let cfg = CoreModel::A72.config();
    let plain = &mut GoldenObserver::new(&[]);
    let (store, golden) =
        CheckpointStore::record(&cfg, &image, INTERVAL, MAX_SNAPSHOTS, BUDGET, plain);
    assert_eq!(golden.sim.status, RunStatus::Exited(0));
    let golden_cycles = golden.sim.cycles;
    assert!(golden_cycles > 2 * store.interval(), "program too short");

    // Deterministic grid search for a site where the pruner's gate
    // fires strictly before the program ends: the fault must have
    // become architecturally visible (FPM latched) *and* the machine
    // must have re-converged with the golden checkpoint.
    let bits = HwStructure::RegisterFile.bits(&cfg);
    let mut hit = None;
    'search: for bit in (0..bits).step_by(7) {
        for cycle in (store.interval()..golden_cycles).step_by(37) {
            if let Some((core, at)) = probe_until_converged(&image, &store, cycle, bit) {
                hit = Some((core, at, cycle, bit));
                break 'search;
            }
        }
    }
    let (core, conv_cycle, cycle, bit) = hit.expect(
        "no register-file site produced a visible-then-reconverged fault; \
         the early-termination path would be dead code",
    );
    assert!(
        conv_cycle < golden_cycles,
        "convergence at {conv_cycle} must beat the golden end {golden_cycles} to save anything"
    );
    assert_eq!(conv_cycle % store.interval(), 0);

    // The early record the pruner would emit at the converged boundary.
    let fpm_early = core.fpm();
    let fpm_cycle_early = core.fpm_cycle();
    assert!(fpm_early.is_some(), "probe is gated on a latched FPM");
    let mut early = core.clone();
    early.note_pruned_extinct();
    let early_trace = early.fault_trace().expect("trace enabled").clone();

    // Continue the *same* converged core to completion: the claim under
    // test is that this continuation retraces the golden run exactly.
    let mut full = core;
    full.run_until(golden_cycles * 8 + 500_000);
    let out = full.finish();
    assert_eq!(
        out.sim.status, golden.sim.status,
        "site (cycle {cycle}, bit {bit}): converged run must end with the golden status"
    );
    assert_eq!(
        out.sim.output, golden.sim.output,
        "site (cycle {cycle}, bit {bit}): converged run must produce the golden output"
    );
    // Milestones already latched at the early stop are final: running to
    // completion must not move or change them.
    assert_eq!(out.fpm, fpm_early);
    assert_eq!(out.fpm_cycle, fpm_cycle_early);
    let full_trace = out.ftrace.expect("trace enabled");
    assert_eq!(first_visible(&full_trace), first_visible(&early_trace));

    // The early trace records *why* the run ended: a PrunedExtinct event
    // at the converged boundary, latching the extinction cycle. The full
    // run never saw one.
    assert!(
        early_trace
            .events()
            .any(|e| e.kind == FaultEventKind::PrunedExtinct && e.cycle == conv_cycle),
        "early trace must carry PrunedExtinct at cycle {conv_cycle}"
    );
    assert_eq!(early_trace.counts().extinct_cycle, Some(conv_cycle));
    assert!(
        !full_trace
            .events()
            .any(|e| e.kind == FaultEventKind::PrunedExtinct),
        "the full run must not claim a pruned extinction"
    );
}

#[test]
fn convergence_refuses_when_memory_differs_even_with_identical_registers() {
    let image = rollover_image(Isa::Va64);
    let cfg = CoreModel::A72.config();
    let mut base = OooCore::new(&cfg, &image);
    base.run_until(512);
    assert!(!base.ended());
    let addr = memmap::USER_DATA; // the zeroed `pad` global

    // Two futures of the same machine perform the *same* access sequence
    // (identical cache/LRU evolution, identical registers and pipeline)
    // but deposit different data. Memory is then the only difference —
    // and it must be enough to veto termination.
    let mut a = base.clone();
    let mut b = base.clone();
    a.mem.store(addr, 4, 0xAAAA_AAAA);
    b.mem.store(addr, 4, 0x5555_5555);
    assert!(
        !a.converged_with(&b),
        "divergent memory with identical registers must block early termination"
    );
    assert!(
        !b.converged_with(&a),
        "the predicate must be symmetric here"
    );

    // Same stores, same values: now nothing differs and the predicate
    // must accept — proving the refusal above was the data, not the
    // store traffic itself.
    let mut c = base.clone();
    c.mem.store(addr, 4, 0xAAAA_AAAA);
    assert!(a.converged_with(&c));
    assert!(base.converged_with(&base.clone()));
}

/// A program whose only heavy work is a single 64 KiB `sys_write`: the
/// kernel's output-copy loop (a direct `beq count, zero` loop in the
/// trap handler, the same code a corrupted count turns into the most
/// expensive hang a campaign can draw) dominates the run, giving the
/// runaway prover a long kernel-mode affine loop to certify against.
fn big_write_image(isa: Isa) -> SystemImage {
    const LEN: i32 = 65_536;
    let mut mb = ModuleBuilder::new("w");
    let buf = mb.global_zeroed("buf", LEN as usize, 4);
    let mut f = mb.function("main", 0);
    let p = f.global_addr(buf);
    f.sys_write(p, LEN);
    f.sys_exit(0);
    f.ret(None);
    mb.finish_function(f);
    let m = mb.finish().unwrap();
    let c = compile(&m, isa, &CompileOpts::default()).unwrap();
    SystemImage::build(&c, &[]).unwrap()
}

#[test]
fn proven_hang_certificate_is_exact_on_the_kernel_copy_loop() {
    let image = big_write_image(Isa::Va64);
    let cfg = CoreModel::A72.config();

    // Reference run: the program is healthy and exits cleanly.
    let mut g = OooCore::new(&cfg, &image);
    g.run_until(BUDGET);
    assert!(g.ended(), "the 64 KiB write must finish within the budget");
    let gout = g.finish();
    assert_eq!(gout.sim.status, RunStatus::Exited(0));
    let end = gout.sim.cycles;

    // Scan the same run for a kernel-mode stop where the prover
    // certifies a deliberately small pseudo-budget: mid-copy, the loop
    // provably cannot finish within the next 30k cycles.
    const PSEUDO: u64 = 30_000;
    let mut core = OooCore::new(&cfg, &image);
    core.enable_fault_trace(16);
    let mut proved = None;
    while core.cycle() + 2_048 < end {
        core.run_until(core.cycle() + 1_024);
        if core.ended() {
            break;
        }
        if core.in_user_mode() {
            continue;
        }
        core.enable_trace(8_192);
        core.run_until(core.cycle() + 512);
        if core.ended() {
            break;
        }
        let budget = core.cycle() + PSEUDO;
        if core.timeout_proven(budget) {
            proved = Some(budget);
            break;
        }
    }
    let pseudo_budget = proved.expect(
        "the kernel copy loop must be certifiable mid-copy; \
         the proven-hang path would be dead code",
    );

    // Same machine state, a budget beyond the loop's real exit: the
    // congruence solver sees the exit inside the horizon and must
    // refuse — the certificate is about the budget, not the program.
    assert!(
        !core.timeout_proven(end + 1_000_000),
        "a budget past the loop's exit must not be certified"
    );

    // The pruner records the proof as a lifetime milestone.
    core.note_proven_hang();
    assert!(core
        .fault_trace()
        .expect("trace enabled")
        .events()
        .any(|e| e.kind == FaultEventKind::ProvenHang));

    // Exactness: the run really cannot end before the certified budget…
    core.run_until(pseudo_budget);
    assert!(
        !core.ended() || core.cycle() >= pseudo_budget,
        "certified Timeout, but the run ended at {} < {pseudo_budget}",
        core.cycle()
    );
    // …and afterwards it still finishes the copy and exits cleanly,
    // confirming nothing the prover touched perturbed the machine.
    core.run_until(BUDGET);
    assert!(core.ended());
    assert_eq!(core.finish().sim.status, RunStatus::Exited(0));
}

#[test]
fn prover_refuses_a_run_that_is_about_to_end() {
    // Mid-way through the 300-iteration user loop: the branch is fed by
    // a compare *result* (outside the affine fragment), and the run ends
    // well inside any certifiable budget. A `true` here would be a
    // soundness bug, which the tail of the test demonstrates directly.
    let image = rollover_image(Isa::Va64);
    let cfg = CoreModel::A72.config();
    let mut core = OooCore::new(&cfg, &image);
    core.run_until(1_024);
    assert!(!core.ended());
    core.enable_trace(8_192);
    core.run_until(core.cycle() + 512);
    assert!(!core.ended());
    let budget = core.cycle() + 1_000_000;
    assert!(
        !core.timeout_proven(budget),
        "a healthy run must never be certified as a hang"
    );
    core.run_until(budget);
    assert!(
        core.ended() && core.cycle() < budget,
        "the run was supposed to end before the probed budget"
    );
}

#[test]
fn frozen_detector_refuses_active_pipelines_and_empty_windows() {
    let image = rollover_image(Isa::Va64);
    let cfg = CoreModel::A72.config();
    let mut core = OooCore::new(&cfg, &image);
    core.run_until(512);
    assert!(!core.ended());
    let anchor = core.clone();
    // An empty window proves nothing: the detector needs strictly
    // elapsed cycles with bit-identical behavioral state.
    assert!(!core.frozen_with(&anchor));
    // A window in which the pipeline committed is the opposite of
    // frozen.
    core.run_until(1_024);
    assert!(!core.ended());
    assert!(!core.frozen_with(&anchor));
}
