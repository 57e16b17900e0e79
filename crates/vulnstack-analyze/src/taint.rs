//! Fault-model-aware taint/reachability analysis.
//!
//! For every program point and architectural register, this pass answers
//! the InjectV-style security question: *if a fault corrupts this
//! register's value here, can the corruption reach a branch condition,
//! an address computation, or a syscall argument before being
//! overwritten?* The answer is a backward may-reach dataflow (an
//! instance of the generic solver in [`crate::dataflow`]): sinks
//! *generate* taint on the operands that feed them, value flow carries a
//! destination's taint back onto its sources, and — for transient fault
//! models — a redefinition *kills* taint, because the corrupt value is
//! replaced.
//!
//! The fault-model menu ([`FaultModel`](vulnstack_isa::FaultModel),
//! shared with every injector) follows ARMORY's instruction-level fault
//! taxonomy. The models fall into three analysis classes:
//!
//! * **Transient value corruption** (`BitFlip`, `ByteCorrupt`) — one-shot
//!   corruption of a register value; killed by redefinition. Both models
//!   share one reachability (they differ in *how much* of the value
//!   corrupts, not in where the corruption can flow), so they share one
//!   dataflow instance.
//! * **Persistent corruption** (`StuckAt`) — a stuck bit re-corrupts the
//!   register after every rewrite, so the kill term disappears and
//!   reachability grows accordingly.
//! * **Instruction skip** (`InstrSkip`) — not a value fault at all;
//!   handled per-instruction by the attack-surface report
//!   ([`crate::attack`]), which consults the transient reachability to
//!   judge whether a skipped definition's *stale* value matters.
//!
//! Calls are interprocedural when the call graph resolves them: a
//! callee's entry-taint summary tells the caller which argument
//! registers can reach which sinks inside the callee, iterated to a
//! fixed point from the empty summary (a monotone *increasing* chain, in
//! contrast to the liveness layer's decreasing one). Unresolved calls
//! pessimistically send every argument register to every sink.

use std::collections::HashMap;
use std::fmt;

use vulnstack_isa::{CallConv, Isa, Op, SrcRole};

use crate::cfg::{CallGraph, FuncCfg, ModuleCfg};
use crate::dataflow::{self, Direction, Transfer};
use crate::liveness::defs_of;

/// A set of attack-surface sinks a corrupted value can reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SinkSet(u8);

impl SinkSet {
    /// A branch condition or control-transfer target.
    pub const BRANCH_COND: SinkSet = SinkSet(1);
    /// A load/store address computation.
    pub const MEM_ADDR: SinkSet = SinkSet(1 << 1);
    /// A syscall argument (or the syscall number itself).
    pub const SYSCALL_ARG: SinkSet = SinkSet(1 << 2);

    /// The empty set.
    pub fn empty() -> SinkSet {
        SinkSet(0)
    }

    /// Every sink kind.
    pub fn all() -> SinkSet {
        SinkSet::BRANCH_COND | SinkSet::MEM_ADDR | SinkSet::SYSCALL_ARG
    }

    /// True if no sink is reachable.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// True if every sink in `other` is present.
    pub fn contains(&self, other: SinkSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// The sink kinds present, as stable names.
    pub fn names(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.contains(SinkSet::BRANCH_COND) {
            v.push("branch");
        }
        if self.contains(SinkSet::MEM_ADDR) {
            v.push("addr");
        }
        if self.contains(SinkSet::SYSCALL_ARG) {
            v.push("sysarg");
        }
        v
    }
}

impl std::ops::BitOr for SinkSet {
    type Output = SinkSet;
    fn bitor(self, rhs: SinkSet) -> SinkSet {
        SinkSet(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for SinkSet {
    fn bitor_assign(&mut self, rhs: SinkSet) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for SinkSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("-");
        }
        f.write_str(&self.names().join("|"))
    }
}

/// Per-register sink reachability at a program point.
pub type TaintSet = Vec<SinkSet>;

/// Callee entry-taint lookup for a resolved call instruction index.
pub type CallTaint<'a> = &'a dyn Fn(usize) -> Option<TaintSet>;

/// Sink-reachability taint as a [`Transfer`] instance.
struct TaintTransfer<'a> {
    isa: Isa,
    cc: CallConv,
    nregs: usize,
    /// `false` for transient models (redefinition kills), `true` for
    /// stuck-at (no kill).
    persistent: bool,
    call_taint: Option<CallTaint<'a>>,
}

impl TaintTransfer<'_> {
    fn sink_of(role: SrcRole) -> SinkSet {
        match role {
            SrcRole::Value | SrcRole::ShiftAmount | SrcRole::StoreData => SinkSet::empty(),
            SrcRole::MemBase => SinkSet::MEM_ADDR,
            SrcRole::BranchCond => SinkSet::BRANCH_COND,
            // Corrupting an indirect target or a trap-return address
            // hijacks control, like a subverted branch.
            SrcRole::JumpTarget | SrcRole::SysregData => SinkSet::BRANCH_COND,
        }
    }

    /// Whether a corrupted operand of this role also corrupts the
    /// instruction's *result* (a corrupt load base fetches the wrong
    /// word, so it propagates; store data flows to untracked memory).
    fn flows_to_dest(role: SrcRole) -> bool {
        matches!(
            role,
            SrcRole::Value | SrcRole::ShiftAmount | SrcRole::MemBase
        )
    }
}

impl Transfer for TaintTransfer<'_> {
    type Fact = TaintSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self, _f: &FuncCfg) -> TaintSet {
        vec![SinkSet::empty(); self.nregs]
    }

    fn boundary(&self, _f: &FuncCfg) -> TaintSet {
        // Sink reachability past the function exit is not tracked: the
        // return-value flow into a caller sink is approximated at the
        // call site instead (see the `Call` arm below).
        vec![SinkSet::empty(); self.nregs]
    }

    fn join(&self, dst: &mut TaintSet, src: &TaintSet) -> bool {
        let mut changed = false;
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            if !d.contains(s) {
                *d |= s;
                changed = true;
            }
        }
        changed
    }

    fn transfer(&self, f: &FuncCfg, i: usize, fact: &mut TaintSet) {
        let Some(instr) = &f.instrs[i].instr else {
            return; // trap word: nothing executes beyond it
        };
        let isa = self.isa;
        let cc = &self.cc;
        match instr.op {
            Op::Call | Op::Callr => {
                // The callee's return value may depend on any argument,
                // so a corrupted argument reaches whatever the return
                // value reaches downstream of the call.
                let ret_sinks = fact[cc.ret().0 as usize];
                if !self.persistent {
                    for (r, _) in defs_of(instr, isa, cc) {
                        fact[r.0 as usize] = SinkSet::empty();
                    }
                }
                let callee_entry = self.call_taint.and_then(|ct| ct(i));
                match callee_entry {
                    Some(entry) => {
                        for (d, &s) in fact.iter_mut().zip(entry.iter()) {
                            *d |= s;
                        }
                    }
                    None => {
                        // Unresolved target: any argument may feed any
                        // sink inside the unknown callee.
                        for r in cc.args() {
                            fact[r.0 as usize] |= SinkSet::all();
                        }
                    }
                }
                for r in cc.args() {
                    fact[r.0 as usize] |= ret_sinks;
                }
                // The callee dereferences the stack pointer.
                fact[isa.sp().0 as usize] |= SinkSet::MEM_ADDR;
                if instr.op == Op::Callr {
                    fact[instr.rs1.0 as usize] |= SinkSet::BRANCH_COND;
                }
            }
            Op::Syscall => {
                if !self.persistent {
                    for (r, _) in defs_of(instr, isa, cc) {
                        fact[r.0 as usize] = SinkSet::empty();
                    }
                }
                for r in cc.args() {
                    fact[r.0 as usize] |= SinkSet::SYSCALL_ARG;
                }
                fact[cc.syscall_num().0 as usize] |= SinkSet::SYSCALL_ARG;
            }
            _ => {
                let mut carried = SinkSet::empty();
                for r in instr.regs_written(isa) {
                    carried |= fact[r.0 as usize];
                }
                if !self.persistent {
                    for r in instr.regs_written(isa) {
                        fact[r.0 as usize] = SinkSet::empty();
                    }
                }
                for (r, role) in instr.regs_read().into_iter().zip(instr.src_roles()) {
                    let mut s = Self::sink_of(role);
                    if Self::flows_to_dest(role) {
                        s |= carried;
                    }
                    fact[r.0 as usize] |= s;
                }
            }
        }
        if let Some(z) = isa.zero() {
            // The hardwired zero register reads as a constant: no
            // architectural corruption can enter through it.
            fact[z.0 as usize] = SinkSet::empty();
        }
    }
}

/// Converged taint for one function.
#[derive(Debug, Clone)]
pub struct FuncTaint {
    /// Per-instruction, per-register sink reachability *before* the
    /// instruction (a fault landing here, in this register, can reach
    /// these sinks).
    pub before: Vec<TaintSet>,
    /// Same, *after* the instruction.
    pub after: Vec<TaintSet>,
    /// Reachability at function entry (block 0's entry fact) — the
    /// function's interprocedural summary.
    pub entry: TaintSet,
}

/// Runs the taint fixed point for one function. `persistent` selects the
/// stuck-at (no-kill) variant; `call_taint` supplies callee summaries
/// for resolved direct calls.
pub fn func_taint(
    f: &FuncCfg,
    isa: Isa,
    persistent: bool,
    call_taint: Option<CallTaint<'_>>,
) -> FuncTaint {
    let nregs = isa.num_regs() as usize;
    let analysis = TaintTransfer {
        isa,
        cc: CallConv::new(isa),
        nregs,
        persistent,
        call_taint,
    };
    let facts = dataflow::solve(&analysis, f);
    let entry = facts
        .entry
        .first()
        .cloned()
        .unwrap_or_else(|| vec![SinkSet::empty(); nregs]);
    let (before, after) = dataflow::instr_facts(&analysis, f, &facts);
    FuncTaint {
        before,
        after,
        entry,
    }
}

/// Module-wide taint under one analysis class (transient or
/// persistent), with interprocedural call summaries.
#[derive(Debug, Clone)]
pub struct ModuleTaint {
    /// Per-function taint, parallel to `ModuleCfg::funcs`.
    pub funcs: Vec<FuncTaint>,
}

/// Interprocedural taint: iterates per-function entry summaries over the
/// call graph from the empty summary upward until the least fixed point.
pub fn module_taint(cfg: &ModuleCfg, cg: &CallGraph, persistent: bool) -> ModuleTaint {
    let isa = cfg.isa;
    let nregs = isa.num_regs() as usize;
    let nfuncs = cfg.funcs.len();

    let mut callee_at: Vec<HashMap<usize, usize>> = vec![HashMap::new(); nfuncs];
    for s in &cg.sites {
        if let Some(callee) = s.callee {
            callee_at[s.caller].insert(s.instr, callee);
        }
    }

    let mut summaries: Vec<TaintSet> = vec![vec![SinkSet::empty(); nregs]; nfuncs];
    loop {
        let snap = summaries.clone();
        let mut changed = false;
        for (fi, f) in cfg.funcs.iter().enumerate() {
            let lookup =
                |i: usize| -> Option<TaintSet> { callee_at[fi].get(&i).map(|&c| snap[c].clone()) };
            let t = func_taint(f, isa, persistent, Some(&lookup));
            if t.entry != summaries[fi] {
                summaries[fi] = t.entry;
                changed = true;
            }
        }
        // Summaries only grow within a finite lattice, so this
        // terminates; one quiet round means the fixed point is reached.
        if !changed {
            break;
        }
    }

    let funcs: Vec<FuncTaint> = cfg
        .funcs
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            let lookup = |i: usize| -> Option<TaintSet> {
                callee_at[fi].get(&i).map(|&c| summaries[c].clone())
            };
            func_taint(f, isa, persistent, Some(&lookup))
        })
        .collect();

    ModuleTaint { funcs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use vulnstack_compiler::CompiledModule;
    use vulnstack_isa::{Instr, Reg};

    fn func_of(instrs: &[Instr], isa: Isa) -> FuncCfg {
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
        build_cfg(&m).funcs.into_iter().next().unwrap()
    }

    #[test]
    fn value_flow_reaches_a_branch_condition() {
        let isa = Isa::Va32;
        // 0: addi r4, r1, 1     (r1 feeds r4)
        // 1: bne  r4, r2, +8
        // 2: addi r5, r0, 0
        // 3: jmpr lr
        let prog = [
            Instr::alu_imm(Op::Addi, Reg(4), Reg(1), 1),
            Instr::branch(Op::Bne, Reg(4), Reg(2), 8),
            Instr::alu_imm(Op::Addi, Reg(5), Reg(0), 0),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let f = func_of(&prog, isa);
        let t = func_taint(&f, isa, false, None);
        // A fault in r1 before instr 0 flows through r4 into the branch.
        assert!(t.before[0][1].contains(SinkSet::BRANCH_COND));
        // r4 itself is branch-reaching between def and branch.
        assert!(t.after[0][4].contains(SinkSet::BRANCH_COND));
        // After the branch, r4 reaches nothing.
        assert!(t.after[1][4].is_empty());
    }

    #[test]
    fn redefinition_kills_transient_but_not_stuck_at() {
        let isa = Isa::Va32;
        // 0: addi r4, r1, 1     (kills any earlier r4 corruption)
        // 1: beq  r4, r2, +4
        // 2: jmpr lr
        let prog = [
            Instr::alu_imm(Op::Addi, Reg(4), Reg(1), 1),
            Instr::branch(Op::Beq, Reg(4), Reg(2), 4),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let f = func_of(&prog, isa);
        let transient = func_taint(&f, isa, false, None);
        let stuck = func_taint(&f, isa, true, None);
        // Transient: a flip in r4 before its redefinition is repaired.
        assert!(transient.before[0][4].is_empty());
        // Stuck-at: the write does not clear a stuck bit.
        assert!(stuck.before[0][4].contains(SinkSet::BRANCH_COND));
    }

    #[test]
    fn load_base_and_syscall_args_are_sinks() {
        let isa = Isa::Va32;
        let prog = [
            Instr::load(Op::Lw, Reg(4), Reg(5), 0),
            Instr::sys(Op::Syscall),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let f = func_of(&prog, isa);
        let t = func_taint(&f, isa, false, None);
        assert!(t.before[0][5].contains(SinkSet::MEM_ADDR));
        // Syscall number register (r7 on VA32) and args reach the
        // syscall-argument sink.
        let cc = CallConv::new(isa);
        assert!(t.before[1][cc.syscall_num().0 as usize].contains(SinkSet::SYSCALL_ARG));
        assert!(t.before[1][0].contains(SinkSet::SYSCALL_ARG));
    }

    #[test]
    fn zero_register_never_taints() {
        let isa = Isa::Va64;
        let z = isa.zero().unwrap();
        let prog = [
            Instr::branch(Op::Bne, Reg(4), z, 8),
            Instr::sys(Op::Halt),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let f = func_of(&prog, isa);
        let t = func_taint(&f, isa, false, None);
        assert!(t.before[0][4].contains(SinkSet::BRANCH_COND));
        assert!(t.before[0][z.0 as usize].is_empty());
    }

    #[test]
    fn interprocedural_taint_flows_through_a_resolved_call() {
        let isa = Isa::Va32;
        // f: 0: addi r0, r1, 1    (arg 0)
        //    1: call g
        //    2: jmpr lr
        // g: 3: beq r0, r2, +4    (branches on its argument)
        //    4: jmpr lr
        let instrs = [
            Instr::alu_imm(Op::Addi, Reg(0), Reg(1), 1),
            Instr::jump(Op::Call, 8),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
            Instr::branch(Op::Beq, Reg(0), Reg(2), 4),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let text: Vec<u32> = instrs.iter().map(|i| i.encode(isa).unwrap()).collect();
        let m = CompiledModule {
            isa,
            text,
            data: Vec::new(),
            global_addrs: Vec::new(),
            func_offsets: vec![0, 3],
            func_names: vec!["f".to_string(), "g".to_string()],
            entry_offset: 5,
            data_size: 0,
            func_sizes: vec![3, 2],
        };
        let cfg = build_cfg(&m);
        let cg = crate::cfg::call_graph(&cfg);
        let mt = module_taint(&cfg, &cg, false);
        let f_idx = cfg.funcs.iter().position(|f| f.name == "f").unwrap();
        // The corruption of r1 at f's entry flows into r0, through the
        // call, and into g's branch.
        assert!(mt.funcs[f_idx].before[0][1].contains(SinkSet::BRANCH_COND));
    }
}
