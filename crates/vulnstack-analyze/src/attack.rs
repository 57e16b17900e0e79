//! Static attack-surface reports: where can a fault *subvert* a program,
//! per fault model, without running it?
//!
//! The injection campaigns measure how often a fault changes the
//! architectural outcome; this module asks the complementary security
//! question — which specific instructions an adversary with an ARMORY
//! fault menu ([`FaultModel`]) would target. The report enumerates, for
//! every reachable instruction:
//!
//! * **Skippable guards** — conditional branches an instruction-skip
//!   fault removes entirely (the classic ARMORY bypass: the bounds check
//!   simply never executes).
//! * **Corruptible conditions / addresses / targets** — operands whose
//!   corruption directly subverts a branch decision, an address
//!   computation, or an indirect control transfer.
//! * **Corruptible syscall arguments** — registers a syscall reads; a
//!   fault here crosses the user/kernel privilege boundary by changing
//!   what the kernel is asked to do.
//! * **Stale values on skip** — definitions whose *old* value is still
//!   consumed by a downstream branch/address/syscall sink if the
//!   defining instruction is skipped (judged with the transient taint of
//!   [`crate::taint`]).
//! * **Lost side effects on skip** — stores, syscalls and system-register
//!   writes that vanish when skipped.
//!
//! Findings use the lint message idiom (`[{kind}] {func}+{off}: ...`) so
//! they diff cleanly in golden files and CI baselines.

use std::fmt;

use vulnstack_core::json::{self, n, ordered, s, Value};
use vulnstack_isa::{CallConv, FaultModel, Isa, Op, Reg, SrcRole};

use crate::cfg::{call_graph, ModuleCfg};
use crate::taint::{module_taint, ModuleTaint, SinkSet};

/// What kind of statically-identified subversion a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A conditional branch removed by an instruction skip.
    SkippableGuard,
    /// A branch whose condition operands can be corrupted.
    CorruptibleCondition,
    /// A load/store whose address operand can be corrupted.
    CorruptibleAddress,
    /// An indirect jump/call target or trap-return address that can be
    /// corrupted.
    CorruptibleTarget,
    /// A syscall whose argument registers can be corrupted.
    CorruptibleSyscallArg,
    /// A definition whose stale prior value still reaches a sink if the
    /// defining instruction is skipped.
    StaleValueOnSkip,
    /// A side-effecting instruction (store/syscall/sysreg write) that an
    /// instruction skip silently drops.
    LostSideEffectOnSkip,
}

impl FindingKind {
    /// Stable kebab-case report name.
    pub fn name(&self) -> &'static str {
        match self {
            FindingKind::SkippableGuard => "skippable-guard",
            FindingKind::CorruptibleCondition => "corruptible-condition",
            FindingKind::CorruptibleAddress => "corruptible-address",
            FindingKind::CorruptibleTarget => "corruptible-target",
            FindingKind::CorruptibleSyscallArg => "corruptible-syscall-arg",
            FindingKind::StaleValueOnSkip => "stale-value-on-skip",
            FindingKind::LostSideEffectOnSkip => "lost-side-effect-on-skip",
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One statically-identified attack point.
#[derive(Debug, Clone)]
pub struct AttackFinding {
    /// Containing function name.
    pub func: String,
    /// Word offset of the function's first instruction.
    pub func_start_word: u32,
    /// Absolute word offset of the instruction.
    pub word_off: u32,
    /// Finding category.
    pub kind: FindingKind,
    /// Fault models that realise this finding.
    pub models: Vec<FaultModel>,
    /// Registers an adversary would corrupt (empty for pure-skip
    /// findings).
    pub regs: Vec<Reg>,
    /// Sinks the corruption reaches (for value-corruption findings).
    pub sinks: SinkSet,
    /// Human-readable disassembly/context.
    pub message: String,
}

impl AttackFinding {
    fn rel(&self) -> u32 {
        (self.word_off - self.func_start_word) * 4
    }
}

impl fmt::Display for AttackFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let models: Vec<&str> = self.models.iter().map(|m| m.name()).collect();
        write!(
            f,
            "[{}] {}+{:#x}: {} (models: {})",
            self.kind,
            self.func,
            self.rel(),
            self.message,
            models.join(",")
        )
    }
}

/// Per-function attack-surface densities: how many (instruction,
/// register) points can reach each sink kind.
#[derive(Debug, Clone)]
pub struct FuncAttackStats {
    /// Function name.
    pub name: String,
    /// Reachable, decodable instructions.
    pub reachable_instrs: u32,
    /// Transient-model reach points per sink: `[branch, addr, sysarg]`.
    pub reach_points: [u64; 3],
    /// Stuck-at reach points per sink (a superset of the transient
    /// counts — persistence only grows reachability).
    pub stuck_reach_points: [u64; 3],
}

/// The full static attack-surface report for one module.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Module name (workload or image label).
    pub module: String,
    /// The ISA the module was compiled for.
    pub isa: Isa,
    /// All findings, sorted by word offset then kind name.
    pub findings: Vec<AttackFinding>,
    /// Per-function densities, in text layout order.
    pub funcs: Vec<FuncAttackStats>,
}

impl AttackReport {
    /// Findings of one kind.
    pub fn of_kind(&self, kind: FindingKind) -> impl Iterator<Item = &AttackFinding> {
        self.findings.iter().filter(move |f| f.kind == kind)
    }

    /// Stable one-finding-per-line rendering (golden-file friendly).
    pub fn finding_lines(&self) -> Vec<String> {
        self.findings.iter().map(|f| f.to_string()).collect()
    }

    /// Short human summary: counts per finding kind.
    pub fn summary(&self) -> String {
        let kinds = [
            FindingKind::SkippableGuard,
            FindingKind::CorruptibleCondition,
            FindingKind::CorruptibleAddress,
            FindingKind::CorruptibleTarget,
            FindingKind::CorruptibleSyscallArg,
            FindingKind::StaleValueOnSkip,
            FindingKind::LostSideEffectOnSkip,
        ];
        let mut parts = Vec::new();
        for k in kinds {
            let n = self.of_kind(k).count();
            if n > 0 {
                parts.push(format!("{k}: {n}"));
            }
        }
        format!(
            "attack surface [{} {}]: {} findings ({})",
            self.module,
            self.isa,
            self.findings.len(),
            parts.join(", ")
        )
    }

    /// Serializes the report as a JSON object, newline-terminated.
    pub fn to_json(&self) -> String {
        let num_arr = |xs: &[u64]| Value::Arr(xs.iter().map(|&x| n(x)).collect());
        let findings = self.findings.iter().map(|f| {
            ordered(vec![
                ("kind", s(f.kind.name())),
                ("func", s(&f.func)),
                ("word_off", n(f.word_off.into())),
                ("rel_off", n(f.rel().into())),
                (
                    "models",
                    Value::Arr(f.models.iter().map(|m| s(m.name())).collect()),
                ),
                (
                    "regs",
                    Value::Arr(f.regs.iter().map(|r| n(r.0.into())).collect()),
                ),
                ("sinks", Value::Str(f.sinks.to_string())),
                ("message", s(&f.message)),
            ])
        });
        let funcs = self.funcs.iter().map(|st| {
            ordered(vec![
                ("name", s(&st.name)),
                ("reachable_instrs", n(st.reachable_instrs.into())),
                ("reach_points", num_arr(&st.reach_points)),
                ("stuck_reach_points", num_arr(&st.stuck_reach_points)),
            ])
        });
        json::write(&ordered(vec![
            ("module", s(&self.module)),
            ("isa", s(self.isa.name())),
            ("findings", Value::Arr(findings.collect())),
            ("funcs", Value::Arr(funcs.collect())),
        ])) + "\n"
    }
}

const VALUE_MODELS: [FaultModel; 3] = [
    FaultModel::BitFlip,
    FaultModel::ByteCorrupt,
    FaultModel::StuckAt,
];

/// Computes the static attack surface of `cfg` under every fault model.
///
/// `module` labels the report (workload name, `kernel`, ...).
pub fn attack_surface(cfg: &ModuleCfg, module: &str) -> AttackReport {
    let isa = cfg.isa;
    let cc = CallConv::new(isa);
    let zero = isa.zero();
    let cg = call_graph(cfg);
    let transient: ModuleTaint = module_taint(cfg, &cg, false);
    let stuck: ModuleTaint = module_taint(cfg, &cg, true);

    let mut findings = Vec::new();
    let mut funcs = Vec::new();

    for (fi, f) in cfg.funcs.iter().enumerate() {
        let t = &transient.funcs[fi];
        let s = &stuck.funcs[fi];
        let mut stats = FuncAttackStats {
            name: f.name.clone(),
            reachable_instrs: 0,
            reach_points: [0; 3],
            stuck_reach_points: [0; 3],
        };
        for (i, dw) in f.instrs.iter().enumerate() {
            let Some(instr) = &dw.instr else { continue };
            if !f.instr_reachable(i) {
                continue;
            }
            stats.reachable_instrs += 1;
            let point_sinks = [
                SinkSet::BRANCH_COND,
                SinkSet::MEM_ADDR,
                SinkSet::SYSCALL_ARG,
            ];
            for r in 0..isa.num_regs() as usize {
                if zero.map(|z| z.0 as usize == r) == Some(true) {
                    continue;
                }
                for (k, &sink) in point_sinks.iter().enumerate() {
                    if t.before[i][r].contains(sink) {
                        stats.reach_points[k] += 1;
                    }
                    if s.before[i][r].contains(sink) {
                        stats.stuck_reach_points[k] += 1;
                    }
                }
            }

            let corruptible = |r: &Reg| -> bool { zero != Some(*r) };
            let mut push = |kind: FindingKind,
                            models: Vec<FaultModel>,
                            regs: Vec<Reg>,
                            sinks: SinkSet,
                            message: String| {
                findings.push(AttackFinding {
                    func: f.name.clone(),
                    func_start_word: f.start_word,
                    word_off: dw.word_off,
                    kind,
                    models,
                    regs,
                    sinks,
                    message,
                });
            };

            let fmt = instr.op.format();
            if fmt == vulnstack_isa::op::Format::B {
                push(
                    FindingKind::SkippableGuard,
                    vec![FaultModel::InstrSkip],
                    Vec::new(),
                    SinkSet::empty(),
                    format!("guard `{instr}` never executes if skipped"),
                );
                let regs: Vec<Reg> = instr.regs_read().into_iter().filter(&corruptible).collect();
                if !regs.is_empty() {
                    push(
                        FindingKind::CorruptibleCondition,
                        VALUE_MODELS.to_vec(),
                        regs,
                        SinkSet::BRANCH_COND,
                        format!("condition of `{instr}` decided by corruptible registers"),
                    );
                }
            }

            for (r, role) in instr.regs_read().into_iter().zip(instr.src_roles()) {
                if !corruptible(&r) {
                    continue;
                }
                match role {
                    SrcRole::MemBase => push(
                        FindingKind::CorruptibleAddress,
                        VALUE_MODELS.to_vec(),
                        vec![r],
                        SinkSet::MEM_ADDR,
                        format!("address of `{instr}` computed from corruptible base"),
                    ),
                    SrcRole::JumpTarget | SrcRole::SysregData => push(
                        FindingKind::CorruptibleTarget,
                        VALUE_MODELS.to_vec(),
                        vec![r],
                        SinkSet::BRANCH_COND,
                        format!("control target of `{instr}` held in corruptible register"),
                    ),
                    _ => {}
                }
            }

            match instr.op {
                Op::Syscall => {
                    let mut regs: Vec<Reg> = cc.args();
                    regs.push(cc.syscall_num());
                    regs.retain(|r| corruptible(r));
                    push(
                        FindingKind::CorruptibleSyscallArg,
                        VALUE_MODELS.to_vec(),
                        regs,
                        SinkSet::SYSCALL_ARG,
                        "syscall arguments cross the privilege boundary".to_string(),
                    );
                    push(
                        FindingKind::LostSideEffectOnSkip,
                        vec![FaultModel::InstrSkip],
                        Vec::new(),
                        SinkSet::empty(),
                        "skipping `syscall` drops the requested kernel service".to_string(),
                    );
                }
                Op::Mtsr => push(
                    FindingKind::LostSideEffectOnSkip,
                    vec![FaultModel::InstrSkip],
                    Vec::new(),
                    SinkSet::empty(),
                    format!("skipping `{instr}` drops a system-register write"),
                ),
                _ if fmt == vulnstack_isa::op::Format::Store => push(
                    FindingKind::LostSideEffectOnSkip,
                    vec![FaultModel::InstrSkip],
                    Vec::new(),
                    SinkSet::empty(),
                    format!("skipping `{instr}` drops a memory write"),
                ),
                _ => {}
            }

            // A skipped definition leaves the destination's *previous*
            // value live; dangerous iff that stale value still reaches a
            // sink downstream (per the transient taint after this
            // instruction).
            let mut stale = SinkSet::empty();
            let mut stale_regs = Vec::new();
            for r in instr.regs_written(isa) {
                if !corruptible(&r) {
                    continue;
                }
                let reach = t.after[i][r.0 as usize];
                if !reach.is_empty() {
                    stale |= reach;
                    stale_regs.push(r);
                }
            }
            if !stale_regs.is_empty() && fmt != vulnstack_isa::op::Format::B {
                push(
                    FindingKind::StaleValueOnSkip,
                    vec![FaultModel::InstrSkip],
                    stale_regs,
                    stale,
                    format!("skipping `{instr}` leaves a stale value feeding {stale}"),
                );
            }
        }
        funcs.push(stats);
    }

    findings.sort_by(|a, b| {
        a.word_off
            .cmp(&b.word_off)
            .then_with(|| a.kind.name().cmp(b.kind.name()))
    });

    AttackReport {
        module: module.to_string(),
        isa,
        findings,
        funcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use vulnstack_compiler::CompiledModule;
    use vulnstack_isa::{Instr, Isa};

    fn module_of(instrs: &[Instr], isa: Isa) -> ModuleCfg {
        let text: Vec<u32> = instrs.iter().map(|i| i.encode(isa).unwrap()).collect();
        let entry = text.len() as u32;
        let m = CompiledModule {
            isa,
            text,
            data: Vec::new(),
            global_addrs: Vec::new(),
            func_offsets: vec![0],
            func_names: vec!["f".to_string()],
            entry_offset: entry,
            data_size: 0,
            func_sizes: vec![instrs.len() as u32],
        };
        build_cfg(&m)
    }

    #[test]
    fn guard_and_condition_findings_on_a_bounds_check() {
        let isa = Isa::Va32;
        // The canonical guard shape: compare, branch, fallthrough work.
        let prog = [
            Instr::alu_rr(Op::Sltu, Reg(3), Reg(0), Reg(2)),
            Instr::branch(Op::Bne, Reg(3), Reg(4), 8),
            Instr::store(Op::Sw, Reg(0), Reg(5), 0),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let report = attack_surface(&module_of(&prog, isa), "toy");
        assert_eq!(report.of_kind(FindingKind::SkippableGuard).count(), 1);
        let cond = report
            .of_kind(FindingKind::CorruptibleCondition)
            .next()
            .expect("branch condition finding");
        assert!(cond.regs.contains(&Reg(3)));
        assert!(cond.models.contains(&FaultModel::StuckAt));
        // The store base is a corruptible address; the store itself a
        // skippable side effect.
        assert_eq!(report.of_kind(FindingKind::CorruptibleAddress).count(), 1);
        assert!(report.of_kind(FindingKind::LostSideEffectOnSkip).count() >= 1);
        // The Sltu defines the branch condition: skipping it leaves a
        // stale value feeding the branch.
        let stale = report
            .of_kind(FindingKind::StaleValueOnSkip)
            .next()
            .expect("stale value finding");
        assert!(stale.sinks.contains(SinkSet::BRANCH_COND));
    }

    #[test]
    fn syscall_arguments_are_reported() {
        let isa = Isa::Va64;
        let prog = [Instr::sys(Op::Syscall), Instr::jump_reg(Op::Jmpr, isa.lr())];
        let report = attack_surface(&module_of(&prog, isa), "toy");
        let f = report
            .of_kind(FindingKind::CorruptibleSyscallArg)
            .next()
            .expect("syscall finding");
        assert!(f.regs.contains(&CallConv::new(isa).syscall_num()));
    }

    #[test]
    fn zero_register_is_never_a_corruptible_operand() {
        let isa = Isa::Va64;
        let z = isa.zero().unwrap();
        let prog = [
            Instr::branch(Op::Bne, Reg(4), z, 8),
            Instr::sys(Op::Halt),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let report = attack_surface(&module_of(&prog, isa), "toy");
        for f in &report.findings {
            assert!(!f.regs.contains(&z), "zero reg leaked into: {f}");
        }
    }

    #[test]
    fn json_parses_with_module_and_finding_kinds() {
        let isa = Isa::Va32;
        let prog = [
            Instr::branch(Op::Beq, Reg(1), Reg(2), 4),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let report = attack_surface(&module_of(&prog, isa), "toy");
        let doc = json::parse(&report.to_json()).expect("attack JSON parses");
        assert_eq!(doc.get("module").and_then(Value::as_str), Some("toy"));
        assert_eq!(doc.get("isa").and_then(Value::as_str), Some("va32"));
        let Some(Value::Arr(findings)) = doc.get("findings") else {
            panic!("no findings array: {doc:?}");
        };
        assert_eq!(findings.len(), report.findings.len());
        let kinds: Vec<&str> = findings
            .iter()
            .map(|f| {
                f.get("kind")
                    .and_then(Value::as_str)
                    .expect("a finding has a kind")
            })
            .collect();
        assert!(kinds.contains(&"skippable-guard"), "{kinds:?}");
    }
}
