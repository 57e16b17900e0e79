//! The functional full-system core: instruction-at-a-time execution over
//! flat memory.
//!
//! This is the reference executor (golden runs) and the substrate for
//! architecture-level (PVF) fault injection: a [`PvfFault`] flips one bit
//! of *architectural* state — a register, a data byte, or an encoded
//! instruction in the text segment — at a chosen dynamic instant, and the
//! corruption persists until the program naturally overwrites it.
//!
//! A campaign never re-executes the fault-free prefix of an injection:
//! [`FuncCore::record`] snapshots the core along the golden run, and each
//! injection resumes from the nearest snapshot at or before its fault
//! ([`CheckpointStore::restore`]).

use std::collections::HashSet;

use vulnstack_isa::{CowMem, FaultModel, Instr, Isa, Op, Reg, SysReg, Trap, TrapCause};
use vulnstack_kernel::kdata::{off, KStatus};
use vulnstack_kernel::memmap::{self, AccessKind};
use vulnstack_kernel::SystemImage;

use crate::exec;
use crate::outcome::{RunStatus, SimOutcome};
use crate::snapshot::CheckpointStore;

/// Privilege mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unprivileged program execution.
    User,
    /// Kernel execution (boot and trap handling).
    Kernel,
}

/// An architectural-state mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PvfMutation {
    /// Flip `bit` of register `reg`.
    FlipReg {
        /// Target architectural register.
        reg: Reg,
        /// Bit index (0-based, < XLEN).
        bit: u8,
    },
    /// Flip `bit` of the byte at `addr` (data or text).
    FlipMem {
        /// Physical byte address.
        addr: u32,
        /// Bit index (0..8).
        bit: u8,
    },
}

/// A persistent architecture-level fault, applied just before the
/// `at_instr`-th dynamic instruction executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PvfFault {
    /// Dynamic instruction index at which the flip happens.
    pub at_instr: u64,
    /// What to flip.
    pub mutation: PvfMutation,
}

/// Execution profile collected from a golden run, used to sample
/// program-flow fault sites for PVF campaigns.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Distinct data bytes touched (loads and stores, user and kernel).
    pub touched_bytes: Vec<u32>,
    /// Dynamic instructions executed in user mode.
    pub user_instrs: u64,
    /// Dynamic instructions executed in kernel mode.
    pub kernel_instrs: u64,
}

/// Accumulates the golden run's [`Profile`]. Kept outside the core, so a
/// checkpoint never copies it and core equality never sees it.
#[derive(Debug, Default)]
struct Profiler {
    touched: HashSet<u32>,
    user_instrs: u64,
    kernel_instrs: u64,
}

impl Profiler {
    fn touch(&mut self, addr: u64, len: u32) {
        for i in 0..len {
            self.touched.insert(addr as u32 + i);
        }
    }

    fn finish(self) -> Profile {
        let mut touched: Vec<u32> = self.touched.into_iter().collect();
        touched.sort_unstable();
        Profile {
            touched_bytes: touched,
            user_instrs: self.user_instrs,
            kernel_instrs: self.kernel_instrs,
        }
    }
}

/// The functional core. It owns every bit of its architectural state, so
/// `Clone` is a perfect checkpoint and `==` compares whole states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncCore {
    isa: Isa,
    mem: CowMem,
    regs: [u64; 32],
    pc: u64,
    mode: Mode,
    sysregs: [u64; SysReg::COUNT],
    user_text_end: u32,
    icount: u64,
    fault: Option<PvfFault>,
    /// One-shot: the next fetched instruction is replaced by a NOP
    /// ([`FaultModel::InstrSkip`]).
    pending_skip: bool,
    /// Persistent stuck-at cell: `(reg, bit, value)` re-asserted after
    /// every executed instruction.
    stuck_reg: Option<(Reg, u8, bool)>,
    ended: Option<RunStatus>,
}

impl FuncCore {
    /// Creates a core with `image` loaded, at the reset PC in kernel mode.
    pub fn new(image: &SystemImage) -> FuncCore {
        FuncCore {
            isa: image.isa,
            mem: image.memory(),
            regs: [0; 32],
            pc: image.reset_pc as u64,
            mode: Mode::Kernel,
            sysregs: [0; SysReg::COUNT],
            user_text_end: image.user_text_end,
            icount: 0,
            fault: None,
            pending_skip: false,
            stuck_reg: None,
            ended: None,
        }
    }

    /// Runs a fault-free (golden) run of `image` like [`FuncCore::run`],
    /// collecting the execution [`Profile`] and snapshotting the core
    /// every `interval` dynamic instructions (thinned to at most
    /// `max_snapshots`). The snapshots come from this one pass: the
    /// instruction loop only stops at interval boundaries to clone.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0` or `max_snapshots == 0`.
    pub fn record(
        image: &SystemImage,
        interval: u64,
        max_snapshots: usize,
        budget: u64,
    ) -> (CheckpointStore<FuncCore>, SimOutcome, Profile) {
        let mut core = FuncCore::new(image);
        let mut store =
            CheckpointStore::new(core.clone(), interval, max_snapshots, FuncCore::icount);
        let mut prof = Profiler::default();
        while core.ended.is_none() && core.icount < budget {
            let next = store.next_position();
            let stop = next.min(budget);
            while core.icount < stop && core.step_with(Some(&mut prof)) {}
            if core.ended.is_none() && core.icount == next {
                core.mem.share();
                store.push(core.clone());
            }
        }
        (store, core.into_outcome(), prof.finish())
    }

    /// Arms an architecture-level fault.
    ///
    /// # Panics
    ///
    /// Panics if the core has already executed past `fault.at_instr`: the
    /// fault would never fire and the run would look Masked.
    pub fn with_fault(mut self, fault: PvfFault) -> Self {
        assert!(
            fault.at_instr >= self.icount,
            "fault at instruction {} armed on a core already at {}",
            fault.at_instr,
            self.icount
        );
        self.fault = Some(fault);
        self
    }

    /// The current privilege mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Dynamic instructions executed so far.
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// Reads the little-endian value of `len <= 8` bytes at `addr`
    /// without permission checks — test/tooling access.
    pub fn peek(&self, addr: u32, len: u32) -> u64 {
        self.read_le(addr, len)
    }

    /// Flips one bit of memory directly (architecture-level injection of
    /// text or data corruption at a precise dynamic instant).
    pub fn poke_bit(&mut self, addr: u32, bit: u8) {
        if (addr as usize) < self.mem.len() {
            self.mem.xor_byte(addr as usize, 1 << (bit & 7));
        }
    }

    /// Injects a fault of `model` into architectural register `reg`, as
    /// [`OooCore::inject_model`](crate::OooCore::inject_model) does into
    /// a hardware structure. `bit` (taken modulo XLEN) is the bit that
    /// flips, or sticks at its complement, and selects the byte that
    /// [`FaultModel::ByteCorrupt`] inverts. [`FaultModel::InstrSkip`]
    /// ignores `reg` and `bit`: the next instruction this core would
    /// execute is replaced by a NOP (PC advances, nothing else happens).
    pub fn inject_reg(&mut self, reg: Reg, bit: u8, model: FaultModel) {
        let b = u32::from(bit) % self.isa.xlen();
        let delta = match model {
            FaultModel::InstrSkip => {
                self.pending_skip = true;
                return;
            }
            FaultModel::ByteCorrupt => 0xFFu64 << (b & !7),
            FaultModel::BitFlip => 1u64 << b,
            FaultModel::StuckAt => {
                let val = (self.regs[reg.index()] >> b) & 1 == 0;
                self.stuck_reg = Some((reg, b as u8, val));
                1u64 << b
            }
        };
        self.regs[reg.index()] = exec::trunc(self.isa, self.regs[reg.index()] ^ delta);
    }

    /// True once the run has reached a terminal state.
    pub fn ended(&self) -> bool {
        self.ended.is_some()
    }

    /// Produces the outcome of a manually-stepped session.
    pub fn into_outcome(self) -> SimOutcome {
        let status = self.ended.unwrap_or(RunStatus::Timeout);
        SimOutcome {
            status,
            output: self.drain_output(),
            instrs: self.icount,
            cycles: self.icount,
        }
    }

    fn read_le(&self, addr: u32, len: u32) -> u64 {
        self.mem.read_le(addr as usize, len as usize)
    }

    fn write_le(&mut self, addr: u32, len: u32, value: u64) {
        self.mem.write_le(addr as usize, len as usize, value);
    }

    fn access_ok(&self, addr: u64, len: u32, kind: AccessKind) -> bool {
        if addr
            .checked_add(len as u64)
            .is_none_or(|e| e > memmap::MEM_SIZE as u64)
        {
            return false;
        }
        match self.mode {
            Mode::Kernel => true,
            Mode::User => memmap::user_access_ok(addr as u32, len, kind, self.user_text_end),
        }
    }

    fn trap(&mut self, t: Trap) {
        if self.mode == Mode::Kernel {
            self.ended = Some(RunStatus::KernelPanic);
            return;
        }
        self.sysregs[SysReg::Epc.index() as usize] = t.pc;
        self.sysregs[SysReg::Cause.index() as usize] = t.cause.code();
        self.sysregs[SysReg::BadAddr.index() as usize] = t.addr;
        self.mode = Mode::Kernel;
        self.pc = memmap::TRAP_VEC as u64;
    }

    fn reg(&self, r: Reg) -> u64 {
        if self.isa.zero() == Some(r) {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn set_reg(&mut self, r: Reg, v: u64) {
        if self.isa.zero() != Some(r) {
            self.regs[r.index()] = exec::trunc(self.isa, v);
        }
    }

    /// Executes one instruction. Returns `false` once the run has ended.
    pub fn step(&mut self) -> bool {
        self.step_with(None)
    }

    /// [`FuncCore::step`], feeding `prof` when profiling a golden run.
    fn step_with(&mut self, prof: Option<&mut Profiler>) -> bool {
        let live = self.step_inner(prof);
        // Re-assert the stuck cell over whatever the instruction wrote.
        if let Some((r, b, v)) = self.stuck_reg {
            if self.isa.zero() != Some(r) {
                let forced = (self.regs[r.index()] & !(1u64 << b)) | (u64::from(v) << b);
                self.regs[r.index()] = exec::trunc(self.isa, forced);
            }
        }
        live
    }

    fn step_inner(&mut self, mut prof: Option<&mut Profiler>) -> bool {
        if self.ended.is_some() {
            return false;
        }
        // Apply the armed PVF fault at its dynamic instant.
        if let Some(f) = self.fault {
            if f.at_instr == self.icount {
                match f.mutation {
                    PvfMutation::FlipReg { reg, bit } => {
                        self.inject_reg(reg, bit, FaultModel::BitFlip);
                    }
                    PvfMutation::FlipMem { addr, bit } => self.poke_bit(addr, bit),
                }
                self.fault = None;
            }
        }

        let pc = self.pc;
        self.icount += 1;
        if let Some(p) = prof.as_deref_mut() {
            match self.mode {
                Mode::User => p.user_instrs += 1,
                Mode::Kernel => p.kernel_instrs += 1,
            }
        }

        if self.pending_skip {
            // The skipped slot executes as a NOP: the PC advances,
            // nothing else happens.
            self.pending_skip = false;
            self.pc = pc + 4;
            return true;
        }

        // Fetch.
        if !pc.is_multiple_of(4) || !self.access_ok(pc, 4, AccessKind::Fetch) {
            self.trap(Trap::with_addr(TrapCause::FetchFault, pc, pc));
            return self.ended.is_none();
        }
        let word = self.read_le(pc as u32, 4) as u32;
        let instr = match Instr::decode(word, self.isa) {
            Ok(i) => i,
            Err(_) => {
                self.trap(Trap::new(TrapCause::UndefinedInstruction, pc));
                return self.ended.is_none();
            }
        };

        self.execute(pc, &instr, prof);
        self.ended.is_none()
    }

    fn execute(&mut self, pc: u64, instr: &Instr, prof: Option<&mut Profiler>) {
        use vulnstack_isa::op::Format;
        let isa = self.isa;
        let mut next = pc + 4;
        match instr.op.format() {
            Format::R | Format::I | Format::M => {
                let rs1 = self.reg(instr.rs1);
                let rs2 = self.reg(instr.rs2);
                let old = self.reg(instr.rd);
                match exec::alu(instr, rs1, rs2, old, isa) {
                    Ok(v) => {
                        if let Some(d) = instr.dest(isa) {
                            self.set_reg(d, v);
                        }
                    }
                    Err(cause) => {
                        self.trap(Trap::new(cause, pc));
                        return;
                    }
                }
            }
            Format::Load => {
                let addr = exec::trunc(isa, self.reg(instr.rs1).wrapping_add(instr.imm as u64));
                let len = instr.op.access_bytes() as u32;
                if !addr.is_multiple_of(len as u64) {
                    self.trap(Trap::with_addr(TrapCause::MisalignedAccess, pc, addr));
                    return;
                }
                if !self.access_ok(addr, len, AccessKind::Read) {
                    self.trap(Trap::with_addr(TrapCause::AccessFault, pc, addr));
                    return;
                }
                if let Some(p) = prof {
                    p.touch(addr, len);
                }
                let raw = self.read_le(addr as u32, len);
                self.set_reg(instr.rd, exec::load_extend(instr.op, raw, isa));
            }
            Format::Store => {
                let addr = exec::trunc(isa, self.reg(instr.rs1).wrapping_add(instr.imm as u64));
                let len = instr.op.access_bytes() as u32;
                if !addr.is_multiple_of(len as u64) {
                    self.trap(Trap::with_addr(TrapCause::MisalignedAccess, pc, addr));
                    return;
                }
                if !self.access_ok(addr, len, AccessKind::Write) {
                    self.trap(Trap::with_addr(TrapCause::AccessFault, pc, addr));
                    return;
                }
                if let Some(p) = prof {
                    p.touch(addr, len);
                }
                let data = self.reg(instr.rd);
                self.write_le(addr as u32, len, data);
            }
            Format::B => {
                if exec::branch_taken(instr.op, self.reg(instr.rs1), self.reg(instr.rs2), isa) {
                    next = pc.wrapping_add(instr.imm as u64);
                }
            }
            Format::J => {
                if instr.op == Op::Call {
                    self.set_reg(isa.lr(), pc + 4);
                }
                next = pc.wrapping_add(instr.imm as u64);
            }
            Format::Jr => {
                let target = exec::trunc(isa, self.reg(instr.rs1));
                if instr.op == Op::Callr {
                    self.set_reg(isa.lr(), pc + 4);
                }
                next = target;
            }
            Format::Sys => match instr.op {
                Op::Nop => {}
                Op::Syscall => {
                    self.trap(Trap::new(TrapCause::Syscall, pc));
                    return;
                }
                Op::Halt => {
                    if self.mode == Mode::User {
                        self.trap(Trap::new(TrapCause::PrivilegeViolation, pc));
                    } else {
                        self.ended = Some(self.read_kernel_status());
                    }
                    return;
                }
                Op::Eret => {
                    if self.mode == Mode::User {
                        self.trap(Trap::new(TrapCause::PrivilegeViolation, pc));
                        return;
                    }
                    self.mode = Mode::User;
                    next = self.sysregs[SysReg::Epc.index() as usize];
                }
                _ => unreachable!(),
            },
            Format::Mfsr => {
                if self.mode == Mode::User {
                    self.trap(Trap::new(TrapCause::PrivilegeViolation, pc));
                    return;
                }
                let sr = instr.sysreg().expect("decoder validated sysreg");
                let v = self.sysregs[sr.index() as usize];
                self.set_reg(instr.rd, v);
            }
            Format::Mtsr => {
                if self.mode == Mode::User {
                    self.trap(Trap::new(TrapCause::PrivilegeViolation, pc));
                    return;
                }
                let sr = instr.sysreg().expect("decoder validated sysreg");
                self.sysregs[sr.index() as usize] = self.reg(instr.rs1);
            }
        }
        self.pc = next;
    }

    fn read_kernel_status(&self) -> RunStatus {
        let kd = memmap::KERNEL_DATA;
        let status = self.read_le(kd + off::STATUS as u32, 4) as u32;
        let code = self.read_le(kd + off::CODE as u32, 4) as u32;
        match KStatus::from_word(status) {
            Some(KStatus::Exited) => RunStatus::Exited(code as i32),
            Some(KStatus::Detected) => RunStatus::Detected(code as i32),
            Some(KStatus::Crashed) => RunStatus::Crashed(code),
            _ => RunStatus::KernelPanic,
        }
    }

    fn drain_output(&self) -> Vec<u8> {
        let kd = memmap::KERNEL_DATA;
        let outlen = (self.read_le(kd + off::OUTLEN as u32, 4) as u32).min(memmap::OUTPUT_CAP);
        self.mem
            .to_vec(memmap::OUTPUT_BASE as usize, outlen as usize)
    }

    /// Runs until the system halts or `budget` instructions have executed.
    pub fn run(mut self, budget: u64) -> SimOutcome {
        while self.ended.is_none() && self.icount < budget {
            self.step();
        }
        self.into_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_compiler::{compile, CompileOpts};
    use vulnstack_vir::ModuleBuilder;

    fn image_for(build: impl FnOnce(&mut vulnstack_vir::FuncBuilder), isa: Isa) -> SystemImage {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        build(&mut f);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let c = compile(&m, isa, &CompileOpts::default()).unwrap();
        SystemImage::build(&c, &[]).unwrap()
    }

    #[test]
    fn exit_code_roundtrips_through_kernel() {
        for isa in [Isa::Va32, Isa::Va64] {
            let img = image_for(|f| f.sys_exit(42), isa);
            let out = FuncCore::new(&img).run(1_000_000);
            assert_eq!(out.status, RunStatus::Exited(42), "{isa}");
        }
    }

    #[test]
    fn write_syscall_reaches_output_region() {
        for isa in [Isa::Va32, Isa::Va64] {
            let img = image_for(
                |f| {
                    let slot = f.stack_slot(4, 4);
                    let p = f.slot_addr(slot);
                    let v = f.c(0x0403_0201);
                    f.store32(v, p, 0);
                    f.sys_write(p, 4);
                    f.sys_exit(0);
                },
                isa,
            );
            let out = FuncCore::new(&img).run(1_000_000);
            assert_eq!(out.status, RunStatus::Exited(0), "{isa}");
            assert_eq!(out.output, vec![1, 2, 3, 4], "{isa}");
        }
    }

    #[test]
    fn user_fault_crashes_via_kernel() {
        for isa in [Isa::Va32, Isa::Va64] {
            // Load from the kernel data page: user access fault.
            let img = image_for(
                |f| {
                    let p = f.c(0x8000);
                    let v = f.load32(p, 0);
                    f.sys_exit(v);
                },
                isa,
            );
            let out = FuncCore::new(&img).run(1_000_000);
            assert_eq!(
                out.status,
                RunStatus::Crashed(TrapCause::AccessFault.code() as u32),
                "{isa}"
            );
        }
    }

    #[test]
    fn division_by_zero_crashes() {
        let img = image_for(
            |f| {
                let z = f.c(0);
                let d = f.divs(5, z);
                f.sys_exit(d);
            },
            Isa::Va64,
        );
        let out = FuncCore::new(&img).run(1_000_000);
        assert_eq!(
            out.status,
            RunStatus::Crashed(TrapCause::DivideByZero.code() as u32)
        );
    }

    #[test]
    fn infinite_loop_times_out() {
        let img = image_for(
            |f| {
                let spin = f.new_block();
                f.br(spin);
                f.switch_to(spin);
                f.br(spin);
                // unreachable
                let done = f.new_block();
                f.switch_to(done);
                f.sys_exit(0);
            },
            Isa::Va32,
        );
        let out = FuncCore::new(&img).run(10_000);
        assert_eq!(out.status, RunStatus::Timeout);
    }

    #[test]
    fn read_syscall_copies_input() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global_zeroed("buf", 16, 4);
        let mut f = mb.function("main", 0);
        let p = f.global_addr(g);
        let n = f.sys_read(p, 16);
        let b0 = f.load8u(p, 0);
        let s = f.add(n, b0);
        f.sys_exit(s);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        for isa in [Isa::Va32, Isa::Va64] {
            let c = compile(&m, isa, &CompileOpts::default()).unwrap();
            let img = SystemImage::build(&c, &[7, 8, 9]).unwrap();
            let out = FuncCore::new(&img).run(1_000_000);
            // 3 bytes copied + first byte 7 = 10.
            assert_eq!(out.status, RunStatus::Exited(10), "{isa}");
        }
    }

    #[test]
    fn brk_returns_old_break_and_grows() {
        let img = image_for(
            |f| {
                let base = f.sys_brk(64);
                f.store32(0x1234, base, 0);
                let v = f.load32(base, 0);
                f.sys_exit(v);
            },
            Isa::Va64,
        );
        let out = FuncCore::new(&img).run(1_000_000);
        assert_eq!(out.status, RunStatus::Exited(0x1234));
    }

    #[test]
    fn pvf_register_fault_can_corrupt_exit_code() {
        let isa = Isa::Va64;
        let img = image_for(
            |f| {
                let v = f.c(0);
                // Long-ish chain so the value sits in a register.
                let v2 = f.add(v, 0);
                f.sys_exit(v2);
            },
            isa,
        );
        // Golden first.
        let golden = FuncCore::new(&img).run(1_000_000);
        assert_eq!(golden.status, RunStatus::Exited(0));
        // Flip bit 3 of the argument register (which carries the exit
        // code) at every early instant; the flip that lands between the
        // final write and the syscall must surface as a wrong exit code.
        let mut changed = false;
        for at in 0..40 {
            let f = PvfFault {
                at_instr: at,
                mutation: PvfMutation::FlipReg {
                    reg: Reg(0),
                    bit: 3,
                },
            };
            let out = FuncCore::new(&img).with_fault(f).run(1_000_000);
            if out.status == RunStatus::Exited(8) {
                changed = true;
            }
        }
        assert!(
            changed,
            "no register flip surfaced as a corrupted exit code"
        );
    }

    #[test]
    fn pvf_text_fault_can_crash() {
        let isa = Isa::Va64;
        let img = image_for(|f| f.sys_exit(0), isa);
        // Corrupt the first user instruction's opcode field to an invalid
        // opcode: flip the top opcode bit.
        let f = PvfFault {
            at_instr: 0,
            mutation: PvfMutation::FlipMem {
                addr: memmap::USER_TEXT + 3,
                bit: 7,
            },
        };
        let out = FuncCore::new(&img).with_fault(f).run(1_000_000);
        assert!(
            matches!(out.status, RunStatus::Crashed(_) | RunStatus::Timeout),
            "{:?}",
            out.status
        );
    }

    #[test]
    fn profile_counts_kernel_instructions() {
        let img = image_for(
            |f| {
                let slot = f.stack_slot(64, 4);
                let p = f.slot_addr(slot);
                f.sys_write(p, 64);
                f.sys_exit(0);
            },
            Isa::Va64,
        );
        let (_, out, prof) = FuncCore::record(&img, 512, 64, 1_000_000);
        assert_eq!(out.status, RunStatus::Exited(0));
        assert!(prof.kernel_instrs > 64, "write loop runs in kernel mode");
        assert!(prof.user_instrs > 0);
        assert_eq!(prof.user_instrs + prof.kernel_instrs, out.instrs);
        assert!(!prof.touched_bytes.is_empty());
    }

    fn summing_loop(isa: Isa) -> SystemImage {
        image_for(
            |f| {
                let sum = f.fresh();
                f.set_c(sum, 0);
                f.for_range(0, 300, |f, i| {
                    let x = f.mul(i, i);
                    let s = f.add(sum, x);
                    f.set(sum, s);
                });
                let slot = f.stack_slot(4, 4);
                let p = f.slot_addr(slot);
                f.store32(sum, p, 0);
                f.sys_write(p, 4);
                f.sys_exit(0);
            },
            isa,
        )
    }

    #[test]
    fn recording_matches_plain_golden_run() {
        for isa in [Isa::Va32, Isa::Va64] {
            let img = summing_loop(isa);
            let plain = FuncCore::new(&img).run(1_000_000);
            let (store, out, _) = FuncCore::record(&img, 64, 8, 1_000_000);
            assert_eq!(out, plain, "{isa}");
            assert!(
                store.len() >= 2,
                "a multi-thousand-instruction run must snapshot"
            );
            assert!(store.len() <= 8);
            assert!(store.interval() > 64, "a small cap must force doubling");
        }
    }

    #[test]
    fn a_write_to_a_restored_core_never_reaches_its_snapshot() {
        let img = summing_loop(Isa::Va32);
        let (store, _, _) = FuncCore::record(&img, 100, 16, 1_000_000);
        let k = 2 * store.interval();
        let snap = store.nearest(k).clone();
        let mut restored = store.restore(k);
        restored.poke_bit(memmap::USER_TEXT, 0);
        restored.poke_bit(memmap::USER_STACK_TOP - 4, 3);
        restored.inject_reg(Reg(1), 2, FaultModel::BitFlip);
        while restored.icount() < 1_000_000 && restored.step() {}
        assert_eq!(store.nearest(k), &snap);
        assert_ne!(&restored, &snap);
    }

    #[test]
    #[should_panic(expected = "already at")]
    fn arming_a_fault_behind_the_core_panics() {
        let img = summing_loop(Isa::Va64);
        let (store, _, _) = FuncCore::record(&img, 100, 16, 1_000_000);
        let late = store.restore(2 * store.interval());
        let _ = late.with_fault(PvfFault {
            at_instr: store.interval(),
            mutation: PvfMutation::FlipReg {
                reg: Reg(1),
                bit: 0,
            },
        });
    }

    #[test]
    fn output_drain_covers_the_whole_output_region() {
        // Four writes of a 64 KiB buffer fill the 256 KiB output region
        // exactly, across 64 pages of paged memory.
        const CHUNK: usize = 64 * 1024;
        assert_eq!(4 * CHUNK, memmap::OUTPUT_CAP as usize);
        let pattern: Vec<u8> = (0..CHUNK).map(|i| (i % 253) as u8 ^ 0x5A).collect();
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("buf", pattern.clone(), 4);
        let mut f = mb.function("main", 0);
        let p = f.global_addr(g);
        f.for_range(0, 4, |f, _| f.sys_write(p, CHUNK as i32));
        f.sys_exit(0);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let c = compile(&m, Isa::Va64, &CompileOpts::default()).unwrap();
        let img = SystemImage::build(&c, &[]).unwrap();
        let out = FuncCore::new(&img).run(50_000_000);
        assert_eq!(out.status, RunStatus::Exited(0));
        assert_eq!(out.output.len(), memmap::OUTPUT_CAP as usize);
        assert!(out.output == pattern.repeat(4), "drained output differs");
    }
}
