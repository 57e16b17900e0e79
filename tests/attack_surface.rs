//! Attack-surface report: golden-file stability and injection-confirmed
//! findings.
//!
//! Two claims are pinned here. First, the kernel syscall path's static
//! attack report is *stable* — its finding lines match a checked-in
//! golden file, so any change to the taint rules, the kernel assembly,
//! or the report format shows up as a reviewable diff (regenerate with
//! `VULNSTACK_UPDATE_GOLDEN=1 cargo test --test attack_surface`).
//! Second, the report is not just plausible text: a reported
//! (site, model) pair is *confirmed by injection* — corrupting exactly
//! the register the report names, at exactly the reported instruction,
//! flips a passing bounds check into a kernel kill. The report also
//! names its models as the injectors do, so every model it lists parses
//! as a [`FaultModel`].

use std::process::Command;

use vulnstack_analyze::attack::FindingKind;
use vulnstack_analyze::{attack_surface, build_kernel_cfg, AttackReport};
use vulnstack_compiler::{compile, CompileOpts};
use vulnstack_core::json::{self, Value};
use vulnstack_isa::{FaultModel, Isa, Reg, TrapCause};
use vulnstack_kernel::SystemImage;
use vulnstack_microarch::func::Mode;
use vulnstack_microarch::{FuncCore, RunStatus};
use vulnstack_vir::ModuleBuilder;

/// The CLI's `analyze attack kernel` pipeline, as a library call.
fn kernel_report(isa: Isa) -> AttackReport {
    attack_surface(&build_kernel_cfg(isa).expect("kernel assembles"), "kernel")
}

#[test]
fn kernel_attack_report_matches_golden_file() {
    let report = kernel_report(Isa::Va64);
    let mut text = report.summary();
    text.push('\n');
    for line in report.finding_lines() {
        text.push_str(&line);
        text.push('\n');
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/kernel_attack_va64.txt"
    );
    if std::env::var_os("VULNSTACK_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing; regenerate with VULNSTACK_UPDATE_GOLDEN=1");
    assert_eq!(
        text, golden,
        "kernel attack report drifted from the golden file; if the change \
         is intended, regenerate with VULNSTACK_UPDATE_GOLDEN=1"
    );
}

#[test]
fn attack_report_model_names_parse_as_fault_models() {
    // `vulnstack analyze attack kernel` names each finding's models in
    // its text report and its JSON; both must be names `--models` and
    // the daemon spec accept, or a finding cannot be replayed as the
    // campaign it describes.
    let json_path =
        std::env::temp_dir().join(format!("vulnstack-attack-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_vulnstack"))
        .args(["analyze", "attack", "kernel", "--json"])
        .arg(&json_path)
        .output()
        .expect("run the CLI");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");
    let mut lists: Vec<String> = stdout
        .lines()
        .filter_map(|l| Some(l.strip_suffix(')')?.rsplit_once("(models: ")?.1.to_string()))
        .collect();
    let text_lists = lists.len();
    let doc = json::parse(&std::fs::read_to_string(&json_path).expect("JSON report"))
        .expect("valid JSON");
    std::fs::remove_file(&json_path).expect("remove the JSON report");
    let Some(Value::Arr(findings)) = doc.get("findings") else {
        panic!("no findings array");
    };
    for f in findings {
        let Some(Value::Arr(models)) = f.get("models") else {
            panic!("finding without a models array: {f:?}");
        };
        let names: Vec<&str> = models
            .iter()
            .map(|m| m.as_str().expect("a model is named by a string"))
            .collect();
        lists.push(names.join(","));
    }
    assert!(text_lists > 0, "the report lists no models");
    assert_eq!(
        lists.len(),
        2 * text_lists,
        "one list per finding in each form"
    );
    for list in &lists {
        FaultModel::parse_list(list).unwrap_or_else(|e| panic!("{list}: {e}"));
    }
}

#[test]
fn kernel_syscall_path_has_subvertible_guards() {
    // The acceptance bar: the report must statically identify at least
    // one skippable guard or corruptible branch condition inside the
    // trap handler (the syscall path) on both ISAs.
    for isa in [Isa::Va32, Isa::Va64] {
        let report = kernel_report(isa);
        let in_trap = |f: &&vulnstack_analyze::AttackFinding| f.func == "ktrap";
        assert!(
            report
                .of_kind(FindingKind::SkippableGuard)
                .any(|f| in_trap(&f))
                && report
                    .of_kind(FindingKind::CorruptibleCondition)
                    .any(|f| in_trap(&f)),
            "{isa:?}: no subvertible guard reported in the trap handler"
        );
    }
}

/// A benign victim program: one valid 4-byte write, then exit 0.
fn victim_image(isa: Isa) -> SystemImage {
    let mut mb = ModuleBuilder::new("victim");
    let mut f = mb.function("main", 0);
    let slot = f.stack_slot(4, 4);
    let p = f.slot_addr(slot);
    let v = f.c(0x5a5a_5a5a_u32 as i32);
    f.store32(v, p, 0);
    f.sys_write(p, 4);
    f.sys_exit(0);
    f.ret(None);
    mb.finish_function(f);
    let m = mb.finish().unwrap();
    let c = compile(&m, isa, &CompileOpts::default()).unwrap();
    SystemImage::build(&c, &[]).unwrap()
}

/// Runs the victim until the core sits at `target_pc` in kernel mode
/// (the first dynamic arrival), or `None` if that instruction is never
/// reached on this program's syscall path.
fn run_to_kernel_pc(img: &SystemImage, target_pc: u64) -> Option<FuncCore> {
    let mut core = FuncCore::new(img);
    while !core.ended() && core.icount() < 50_000_000 {
        if core.mode() == Mode::Kernel && core.pc() == target_pc {
            return Some(core);
        }
        core.step();
    }
    None
}

#[test]
fn reported_corruptible_condition_manifests_under_injection() {
    // End-to-end confirmation of one reported (site, model) pair: take
    // the trap handler's first corruptible-condition finding (the
    // sys_write bounds check), run a benign program to that exact
    // instruction in kernel mode, flip one bit of the register the
    // report names, and watch the passing check become an access-fault
    // kill — the single-bit model realising the reported subversion.
    let isa = Isa::Va64;
    let report = kernel_report(isa);
    let findings: Vec<_> = report
        .of_kind(FindingKind::CorruptibleCondition)
        .filter(|f| f.func == "ktrap")
        .collect();
    assert!(!findings.is_empty(), "no corruptible conditions in ktrap");

    let img = victim_image(isa);

    // Fault-free baseline: the write passes the bounds check.
    let golden = FuncCore::new(&img).run(50_000_000);
    assert_eq!(golden.status, RunStatus::Exited(0));
    assert_eq!(golden.output.len(), 4);

    // For each reported site: stop at that branch in kernel mode, flip
    // one bit of the register the report names, run out, and compare
    // against the golden outcome.
    let mut manifested = Vec::new();
    for finding in &findings {
        let target_pc = finding.word_off as u64 * 4;
        let victim = *finding.regs.first().expect("finding names a register");
        // Not every trap-handler branch is on this program's syscall
        // path (e.g. the read handler's checks).
        let Some(mut core) = run_to_kernel_pc(&img, target_pc) else {
            continue;
        };
        core.inject_reg(victim, 0, FaultModel::BitFlip);
        let out = core.run(50_000_000);
        if out.status != golden.status || out.output != golden.output {
            manifested.push((target_pc, victim, out.status));
        }
    }
    assert!(
        !manifested.is_empty(),
        "no reported corruptible condition manifested under single-bit injection"
    );
    // The sys_write bounds check is among them, and subverting it is an
    // access-fault kill, not a silent corruption.
    assert!(
        manifested
            .iter()
            .any(|&(_, _, s)| s == RunStatus::Crashed(TrapCause::AccessFault.code() as u32)),
        "no subverted guard ended in an access-fault kill: {manifested:x?}"
    );
}

#[test]
fn every_fault_model_reproduces_a_static_finding_dynamically() {
    // The per-model case study: for each dynamic fault model, at least
    // one static finding on the kernel syscall path must be reproducible
    // by actually performing that model's corruption at the reported
    // instruction. The first manifesting (finding, outcome) pair per
    // model is pinned to a golden file, so any drift in the taint rules,
    // the kernel assembly, or the dynamic fault semantics shows up as a
    // reviewable diff (regenerate with VULNSTACK_UPDATE_GOLDEN=1).
    let isa = Isa::Va64;
    let report = kernel_report(isa);
    let img = victim_image(isa);
    let golden = FuncCore::new(&img).run(50_000_000);
    assert_eq!(golden.status, RunStatus::Exited(0));
    assert_eq!(golden.output.len(), 4);

    let mut lines = Vec::new();
    for model in FaultModel::ALL {
        // A skip attacks a guard; the value models attack its condition.
        let kind = if model == FaultModel::InstrSkip {
            FindingKind::SkippableGuard
        } else {
            FindingKind::CorruptibleCondition
        };
        let mut manifested = None;
        for finding in report.of_kind(kind).filter(|f| f.func == "ktrap") {
            assert!(
                finding.models.contains(&model),
                "{model}: static finding does not claim the model: {finding}"
            );
            let target_pc = finding.word_off as u64 * 4;
            let Some(mut core) = run_to_kernel_pc(&img, target_pc) else {
                continue;
            };
            let victim = finding.regs.first().copied();
            core.inject_reg(victim.unwrap_or(Reg(0)), 0, model);
            let out = core.run(50_000_000);
            if out.status != golden.status || out.output != golden.output {
                let rel = (finding.word_off - finding.func_start_word) * 4;
                let reg = victim.map_or("-".to_string(), |r| format!("r{}", r.0));
                manifested = Some(format!(
                    "{model}: ktrap+{rel:#x} [{kind}] reg={reg} -> {:?} output-changed={}",
                    out.status,
                    out.output != golden.output
                ));
                break;
            }
        }
        let line = manifested
            .unwrap_or_else(|| panic!("{model}: no static ktrap finding manifested dynamically"));
        lines.push(line);
    }

    let mut text = lines.join("\n");
    text.push('\n');
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/kernel_attack_dynamic_va64.txt"
    );
    if std::env::var_os("VULNSTACK_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden file");
        return;
    }
    let golden_text = std::fs::read_to_string(path)
        .expect("golden file missing; regenerate with VULNSTACK_UPDATE_GOLDEN=1");
    assert_eq!(
        text, golden_text,
        "per-model dynamic case-study outcomes drifted from the golden file; \
         if the change is intended, regenerate with VULNSTACK_UPDATE_GOLDEN=1"
    );
}
