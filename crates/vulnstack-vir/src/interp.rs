//! The VIR interpreter — the execution substrate for software-level (SVF)
//! fault injection.
//!
//! The interpreter runs *user code only* (syscalls are serviced by the host,
//! with no interpreted kernel instructions) which is exactly the visibility
//! LLFI-style software injectors have: they can corrupt the destination
//! value of one dynamic IR instruction, and they never see kernel
//! activity, microarchitectural residency, or escaped faults.
//!
//! All of an interpretation's mutable state lives in one [`InterpState`],
//! memory included (the shared copy-on-write [`CowMem`]), so a campaign
//! can snapshot the golden run ([`Interpreter::run_pausing`]) and start
//! each injection from the nearest snapshot at or before its target
//! ([`Interpreter::resume`]) instead of re-interpreting the prefix.

use std::borrow::Cow;

use vulnstack_isa::{CowMem, FaultModel, Syscall, TrapCause};

use crate::instr::VInstr;
use crate::module::Module;
use crate::types::{BlockId, FuncId, MemWidth, Operand, VReg};

/// Base of the data address space (a null guard page sits below).
pub const MEM_BASE: u32 = 0x1000;
/// Top of the interpreter stack; frames grow downwards from here.
pub const STACK_TOP: u32 = 0x40_0000;
/// Total modelled memory.
pub const MEM_SIZE: u32 = STACK_TOP;
/// Guard gap kept between the heap break and the deepest stack frame.
const STACK_GUARD: u32 = 0x1000;
/// Cap on accumulated program output, bounding memory under faults.
const OUTPUT_CAP: usize = 1 << 22;

/// A single software-level fault: corrupt, under `model`, the
/// destination value of the `target`-th dynamic *injectable*
/// (value-producing) instruction.
///
/// Bit indices are 0..=31 because VIR values have 32-bit semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwFault {
    /// Zero-based dynamic index among injectable instructions.
    pub target: u64,
    /// Bit to corrupt in the 32-bit destination value (selects the
    /// byte for [`FaultModel::ByteCorrupt`]; ignored by
    /// [`FaultModel::InstrSkip`]).
    pub bit: u8,
    /// How the destination is corrupted: a flip or byte inversion of the
    /// value, a skip that drops the destination write (the register
    /// keeps its stale value), or a flip whose register cell then stays
    /// stuck, so every later write to the same register in the same
    /// function re-asserts it.
    pub model: FaultModel,
}

impl SwFault {
    /// The legacy single-bit transient flip.
    pub fn flip(target: u64, bit: u8) -> SwFault {
        SwFault {
            target,
            bit,
            model: FaultModel::BitFlip,
        }
    }
}

/// Terminal status of an interpreted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The program called `exit(code)` or returned from `main`.
    Exited(i32),
    /// A fault-tolerance check called `detect(code)`.
    Detected(i32),
    /// A trap was raised (the software-level analogue of a crash).
    Trapped(TrapCause),
    /// The instruction budget was exhausted (livelock/deadlock analogue).
    Timeout,
}

/// Result of interpreting a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why the run ended.
    pub status: RunStatus,
    /// Bytes the program wrote via the `write` syscall.
    pub output: Vec<u8>,
    /// Dynamic instructions executed.
    pub dyn_instrs: u64,
    /// Dynamic *injectable* (value-producing) instructions executed — the
    /// sampling population for software-level fault injection.
    pub injectable: u64,
    /// Class of the instruction the armed fault actually hit, if it fired.
    pub injected_class: Option<crate::instr::InstrClass>,
    /// Function containing the injected instruction, if the fault fired.
    pub injected_func: Option<FuncId>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    func: FuncId,
    block: BlockId,
    idx: usize,
    regs: Vec<i64>,
    frame_base: u32,
    ret_dst: Option<VReg>,
}

/// Everything an interpretation mutates: memory, call stack, I/O
/// cursors, counters and fault state. A clone is a perfect snapshot, and
/// [`Interpreter::resume`] continues from one exactly as the run that
/// took it would have continued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpState {
    mem: CowMem,
    /// Initial program break: the end of the globals.
    heap_base: u32,
    brk: u32,
    global_addrs: Vec<u32>,
    frames: Vec<Frame>,
    input_pos: usize,
    output: Vec<u8>,
    dyn_instrs: u64,
    injectable: u64,
    fault: Option<SwFault>,
    /// Armed stuck-at cell: `(func, vreg, bit, value)` — re-asserted
    /// over every later commit to that register in that function.
    stuck: Option<(FuncId, VReg, u8, bool)>,
    injected_class: Option<crate::instr::InstrClass>,
    injected_func: Option<FuncId>,
}

impl InterpState {
    /// The state of a fresh interpretation of `module`: globals laid out
    /// and initialised, `main`'s frame on the stack.
    fn boot(module: &Module) -> InterpState {
        let mut mem = CowMem::new(MEM_SIZE as usize);
        let mut global_addrs = Vec::with_capacity(module.globals.len());
        let mut cursor = MEM_BASE;
        for g in &module.globals {
            let a = g.align.max(1);
            cursor = (cursor + a - 1) & !(a - 1);
            global_addrs.push(cursor);
            let end = cursor as usize + g.init.len();
            if end <= mem.len() {
                mem.write(cursor as usize, &g.init);
            }
            cursor = end as u32;
        }
        mem.share();
        let brk = (cursor + 15) & !15;
        let entry = module.entry;
        let entry_fn = &module.functions[entry.0 as usize];
        InterpState {
            mem,
            heap_base: brk,
            brk,
            global_addrs,
            frames: vec![Frame {
                func: entry,
                block: BlockId(0),
                idx: 0,
                regs: vec![0; entry_fn.num_vregs as usize],
                frame_base: STACK_TOP - entry_fn.frame_size(),
                ret_dst: None,
            }],
            input_pos: 0,
            output: Vec::new(),
            dyn_instrs: 0,
            injectable: 0,
            fault: None,
            stuck: None,
            injected_class: None,
            injected_func: None,
        }
    }

    /// Dynamic injectable instructions committed so far: the position
    /// axis of SVF checkpoints.
    pub fn injectable(&self) -> u64 {
        self.injectable
    }
}

/// Interprets a verified [`Module`].
///
/// # Example
///
/// ```
/// use vulnstack_vir::builder::ModuleBuilder;
/// use vulnstack_vir::interp::{Interpreter, RunStatus};
///
/// let mut mb = ModuleBuilder::new("m");
/// let mut f = mb.function("main", 0);
/// f.sys_exit(7);
/// f.ret(None);
/// mb.finish_function(f);
/// let m = mb.finish().unwrap();
/// let out = Interpreter::new(&m).run().unwrap();
/// assert_eq!(out.status, RunStatus::Exited(7));
/// ```
#[derive(Debug)]
pub struct Interpreter<'m> {
    module: &'m Module,
    input: Cow<'m, [u8]>,
    budget: u64,
    st: InterpState,
}

/// Error for interpreter misconfiguration (as opposed to program traps,
/// which are reported through [`RunStatus`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The module's globals do not fit in the modelled memory.
    GlobalsTooLarge { needed: u32, available: u32 },
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::GlobalsTooLarge { needed, available } => {
                write!(f, "globals need {needed} bytes, only {available} available")
            }
        }
    }
}

impl std::error::Error for InterpError {}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter for `module` with an empty input stream and a
    /// default budget of 512M dynamic instructions.
    pub fn new(module: &'m Module) -> Interpreter<'m> {
        Interpreter::resume(module, InterpState::boot(module))
    }

    /// Continues an interpretation of `module` from `state` (a snapshot
    /// taken from a run of the same module), with an empty input stream
    /// and the default budget: supply the run's input and budget again.
    pub fn resume(module: &'m Module, state: InterpState) -> Interpreter<'m> {
        Interpreter {
            module,
            input: Cow::Borrowed(&[]),
            budget: 512_000_000,
            st: state,
        }
    }

    /// A snapshot of the interpretation so far.
    pub fn snapshot(&self) -> InterpState {
        self.st.clone()
    }

    /// Supplies the program input consumed by the `read` syscall.
    pub fn with_input(mut self, input: impl Into<Cow<'m, [u8]>>) -> Self {
        self.input = input.into();
        self
    }

    /// Sets the dynamic-instruction budget after which the run times out.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Arms a software-level fault.
    ///
    /// # Panics
    ///
    /// Panics if the interpretation has already committed past
    /// `fault.target`: the fault would never fire and the run would look
    /// Masked.
    pub fn with_fault(mut self, fault: SwFault) -> Self {
        assert!(
            fault.target >= self.st.injectable,
            "fault on injectable instruction {} armed on a run already at {}",
            fault.target,
            self.st.injectable
        );
        self.st.fault = Some(fault);
        self
    }

    /// The address at which `global` was placed.
    pub fn global_addr(&self, g: crate::types::GlobalId) -> u32 {
        self.st.global_addrs[g.0 as usize]
    }

    fn check_access(&self, addr: i64, len: u64, stack_floor: u32) -> Result<u32, TrapCause> {
        if addr < 0 || addr as u64 + len > u32::MAX as u64 {
            return Err(TrapCause::AccessFault);
        }
        let a = addr as u32;
        if !a.is_multiple_of(len as u32) {
            return Err(TrapCause::MisalignedAccess);
        }
        let end = a + len as u32;
        let in_data = a >= MEM_BASE && end <= self.st.brk;
        let in_stack = a >= stack_floor && end <= STACK_TOP;
        if in_data || in_stack {
            Ok(a)
        } else {
            Err(TrapCause::AccessFault)
        }
    }

    fn load(&self, addr: u32, width: MemWidth) -> i64 {
        let raw = self.st.mem.read_le(addr as usize, width.bytes() as usize);
        match width {
            MemWidth::B => raw as i8 as i64,
            MemWidth::BU => raw as i64,
            MemWidth::H => raw as i16 as i64,
            MemWidth::HU => raw as u16 as i64,
            MemWidth::W => raw as i32 as i64,
        }
    }

    fn store(&mut self, addr: u32, width: MemWidth, value: i64) {
        let len = width.bytes() as usize;
        self.st.mem.write_le(addr as usize, len, value as u64);
    }

    /// Checks that the non-empty span `[addr, addr + len)` lies in the
    /// heap or the live stack, as a syscall buffer must.
    fn check_range(&self, addr: u32, len: u32, stack_floor: u32) -> Result<(), TrapCause> {
        let end = addr.checked_add(len).ok_or(TrapCause::AccessFault)?;
        let in_data = addr >= MEM_BASE && end <= self.st.brk;
        let in_stack = addr >= stack_floor && end <= STACK_TOP;
        if in_data || in_stack {
            Ok(())
        } else {
            Err(TrapCause::AccessFault)
        }
    }

    /// Runs the module to completion.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] only for setup problems; program-level traps
    /// and timeouts are reported in the returned [`RunOutcome`].
    pub fn run(self) -> Result<RunOutcome, InterpError> {
        self.run_pausing(u64::MAX, |_| u64::MAX)
    }

    /// Runs the module to completion like [`Interpreter::run`], pausing
    /// each time the injectable count reaches `stop`: `on_pause` sees the
    /// paused state, its memory pages shared so a clone is cheap, and
    /// returns the next stop. Only the commit of an injectable
    /// instruction compares against the stop, so a golden run records
    /// its snapshots at no per-instruction cost.
    ///
    /// # Errors
    ///
    /// As [`Interpreter::run`].
    pub fn run_pausing(
        mut self,
        mut stop: u64,
        mut on_pause: impl FnMut(&InterpState) -> u64,
    ) -> Result<RunOutcome, InterpError> {
        if self.st.heap_base >= STACK_TOP / 2 {
            return Err(InterpError::GlobalsTooLarge {
                needed: self.st.heap_base - MEM_BASE,
                available: STACK_TOP / 2,
            });
        }
        let status = loop {
            match self.advance(stop) {
                Some(status) => break status,
                None => {
                    self.st.mem.share();
                    stop = on_pause(&self.st);
                }
            }
        };
        Ok(RunOutcome {
            status,
            output: std::mem::take(&mut self.st.output),
            dyn_instrs: self.st.dyn_instrs,
            injectable: self.st.injectable,
            injected_class: self.st.injected_class,
            injected_func: self.st.injected_func,
        })
    }

    /// Interprets until the run ends, returning its status, or until the
    /// injectable count reaches `stop` (> the current count), returning
    /// `None` with the state at that instruction boundary.
    fn advance(&mut self, stop: u64) -> Option<RunStatus> {
        // The step loop borrows the frames apart from the rest of the
        // state; they go back before returning.
        let mut frames = std::mem::take(&mut self.st.frames);
        let status = loop {
            let paused = match self.step(&mut frames, stop) {
                StepResult::Continue => false,
                StepResult::Paused => true,
                StepResult::Finished(s) => break Some(s),
            };
            if self.st.dyn_instrs > self.budget {
                break Some(RunStatus::Timeout);
            }
            if paused {
                break None;
            }
        };
        self.st.frames = frames;
        status
    }

    fn step(&mut self, stack: &mut Vec<Frame>, stop: u64) -> StepResult {
        let frame = stack
            .last_mut()
            .expect("call stack never empty while running");
        let func = &self.module.functions[frame.func.0 as usize];
        let block = &func.blocks[frame.block.0 as usize];
        let ins = &block.instrs[frame.idx];
        self.st.dyn_instrs += 1;

        let stack_floor = frame.frame_base;
        let get = |regs: &[i64], o: &Operand| -> i32 {
            match o {
                Operand::Reg(r) => regs[r.0 as usize] as i32,
                Operand::Imm(v) => *v,
            }
        };

        // Compute the value (if any), detect traps, then commit.
        let mut trap: Option<TrapCause> = None;
        let mut wrote: Option<(VReg, i64)> = None;
        let mut next: Option<BlockId> = None;

        match ins {
            VInstr::Const { dst, value } => wrote = Some((*dst, *value as i64)),
            VInstr::Bin { dst, op, a, b } => {
                let (x, y) = (get(&frame.regs, a), get(&frame.regs, b));
                match op.eval(x, y) {
                    Some(v) => wrote = Some((*dst, v as i64)),
                    None => trap = Some(TrapCause::DivideByZero),
                }
            }
            VInstr::Cmp { dst, pred, a, b } => {
                let v = pred.eval(get(&frame.regs, a), get(&frame.regs, b));
                wrote = Some((*dst, v as i64));
            }
            VInstr::Select { dst, cond, a, b } => {
                let v = if get(&frame.regs, cond) != 0 {
                    get(&frame.regs, a)
                } else {
                    get(&frame.regs, b)
                };
                wrote = Some((*dst, v as i64));
            }
            VInstr::Load {
                dst,
                width,
                base,
                offset,
            } => {
                let addr = get(&frame.regs, base) as i64 + *offset as i64;
                match self.check_access(addr, width.bytes(), stack_floor) {
                    Ok(a) => wrote = Some((*dst, self.load(a, *width))),
                    Err(t) => trap = Some(t),
                }
            }
            VInstr::Store {
                width,
                value,
                base,
                offset,
            } => {
                let addr = get(&frame.regs, base) as i64 + *offset as i64;
                let v = get(&frame.regs, value) as i64;
                match self.check_access(addr, width.bytes(), stack_floor) {
                    Ok(a) => self.store(a, *width, v),
                    Err(t) => trap = Some(t),
                }
            }
            VInstr::GlobalAddr { dst, global } => {
                wrote = Some((*dst, self.st.global_addrs[global.0 as usize] as i64));
            }
            VInstr::SlotAddr { dst, slot } => {
                let off = func.slot_offset(*slot);
                wrote = Some((*dst, (frame.frame_base + off) as i64));
            }
            VInstr::Br { target } => next = Some(*target),
            VInstr::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                next = Some(if get(&frame.regs, cond) != 0 {
                    *then_bb
                } else {
                    *else_bb
                });
            }
            VInstr::Call {
                dst,
                func: callee,
                args,
            } => {
                let callee_fn = &self.module.functions[callee.0 as usize];
                let new_base = frame.frame_base.checked_sub(callee_fn.frame_size());
                let Some(new_base) = new_base else {
                    return StepResult::Finished(RunStatus::Trapped(TrapCause::AccessFault));
                };
                if new_base < self.st.brk + STACK_GUARD {
                    return StepResult::Finished(RunStatus::Trapped(TrapCause::AccessFault));
                }
                let mut regs = vec![0i64; callee_fn.num_vregs as usize];
                for (i, a) in args.iter().enumerate() {
                    regs[i] = get(&frame.regs, a) as i64;
                }
                frame.idx += 1;
                let new_frame = Frame {
                    func: *callee,
                    block: BlockId(0),
                    idx: 0,
                    regs,
                    frame_base: new_base,
                    ret_dst: *dst,
                };
                stack.push(new_frame);
                return StepResult::Continue;
            }
            VInstr::Syscall { dst, sc, args } => {
                let a0 = args.first().map_or(0, |a| get(&frame.regs, a));
                let a1 = args.get(1).map_or(0, |a| get(&frame.regs, a));
                match sc {
                    Syscall::Exit => return StepResult::Finished(RunStatus::Exited(a0)),
                    Syscall::Detect => return StepResult::Finished(RunStatus::Detected(a0)),
                    Syscall::Write => {
                        let (ptr, len) = (a0 as u32, a1 as u32);
                        // An empty write touches no memory, wherever it
                        // points.
                        let checked = match len {
                            0 => Ok(()),
                            _ => self.check_range(ptr, len, stack_floor),
                        };
                        match checked {
                            Ok(()) => {
                                let start = self.st.output.len();
                                let take = (len as usize).min(OUTPUT_CAP.saturating_sub(start));
                                self.st.output.resize(start + take, 0);
                                self.st.mem.read(ptr as usize, &mut self.st.output[start..]);
                            }
                            Err(t) => trap = Some(t),
                        }
                    }
                    Syscall::Read => {
                        let (ptr, len) = (a0 as u32, a1 as u32);
                        let pos = self.st.input_pos;
                        let n = (self.input.len() - pos).min(len as usize);
                        // A read with nothing to copy (end of input or a
                        // zero length) touches no memory, wherever it
                        // points, and returns 0.
                        let checked = match n {
                            0 => Ok(()),
                            _ => self.check_range(ptr, n as u32, stack_floor),
                        };
                        match checked {
                            Ok(()) => {
                                self.st.mem.write(ptr as usize, &self.input[pos..pos + n]);
                                self.st.input_pos += n;
                                if let Some(d) = dst {
                                    wrote = Some((*d, n as i64));
                                }
                            }
                            Err(t) => trap = Some(t),
                        }
                    }
                    Syscall::Brk => {
                        let old = self.st.brk;
                        let delta = a0 as i64;
                        let new = old as i64 + delta;
                        let limit = (stack_floor.saturating_sub(STACK_GUARD)) as i64;
                        if new >= MEM_BASE as i64 && new < limit {
                            self.st.brk = new as u32;
                            if let Some(d) = dst {
                                wrote = Some((*d, old as i64));
                            }
                        } else if let Some(d) = dst {
                            wrote = Some((*d, -1));
                        }
                    }
                }
            }
            VInstr::Ret { value } => {
                let v = value.as_ref().map(|o| get(&frame.regs, o) as i64);
                let ret_dst = frame.ret_dst;
                stack.pop();
                match stack.last_mut() {
                    None => {
                        return StepResult::Finished(RunStatus::Exited(v.unwrap_or(0) as i32));
                    }
                    Some(caller) => {
                        if let Some(d) = ret_dst {
                            caller.regs[d.0 as usize] = v.unwrap_or(0);
                        }
                        return StepResult::Continue;
                    }
                }
            }
        }

        if let Some(t) = trap {
            return StepResult::Finished(RunStatus::Trapped(t));
        }

        // Commit the destination value, applying the armed software fault if
        // this is the chosen dynamic injectable instruction.
        let frame = stack.last_mut().expect("frame");
        let counted = if let Some((dst, mut v)) = wrote {
            let mut suppress = false;
            if let Some(fault) = self.st.fault {
                if self.st.injectable == fault.target {
                    let b = fault.bit & 31;
                    match fault.model {
                        FaultModel::BitFlip => v = ((v as i32) ^ (1i32 << b)) as i64,
                        FaultModel::ByteCorrupt => {
                            v = ((v as i32) ^ (0xFFi32 << (b & !7))) as i64;
                        }
                        FaultModel::InstrSkip => suppress = true,
                        FaultModel::StuckAt => {
                            let val = (v as i32 >> b) & 1 == 0;
                            v = ((v as i32) ^ (1i32 << b)) as i64;
                            self.st.stuck = Some((frame.func, dst, b, val));
                        }
                    }
                    self.st.injected_class = Some(ins.class());
                    self.st.injected_func = Some(frame.func);
                }
            }
            // A stuck cell re-asserts over every commit to its register
            // (idempotent over the arming write itself).
            if let Some((sf, sr, sb, sv)) = self.st.stuck {
                if sf == frame.func && sr == dst {
                    let forced = ((v as i32) & !(1i32 << sb)) | (i32::from(sv) << sb);
                    v = forced as i64;
                }
            }
            if !suppress {
                frame.regs[dst.0 as usize] = v;
            }
            true
        } else {
            // Syscalls with an unused destination still count (LLFI counts
            // the instruction, not the register write).
            ins_counts_injectable(ins)
        };

        match next {
            Some(bb) => {
                frame.block = bb;
                frame.idx = 0;
            }
            None => frame.idx += 1,
        }
        if counted {
            self.st.injectable += 1;
            if self.st.injectable == stop {
                return StepResult::Paused;
            }
        }
        StepResult::Continue
    }
}

fn ins_counts_injectable(ins: &VInstr) -> bool {
    matches!(ins, VInstr::Syscall { dst: Some(_), .. })
}

enum StepResult {
    Continue,
    /// The injectable count reached the stop at this instruction
    /// boundary.
    Paused,
    Finished(RunStatus),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::CmpPred;

    fn run(m: &Module) -> RunOutcome {
        Interpreter::new(m).run().unwrap()
    }

    #[test]
    fn arithmetic_and_exit() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let a = f.c(20);
        let b = f.mul(a, 2);
        let c = f.add(b, 2);
        f.sys_exit(c);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        assert_eq!(run(&m).status, RunStatus::Exited(42));
    }

    #[test]
    fn loop_sums_and_writes_output() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let sum = f.fresh();
        let i = f.fresh();
        f.set_c(sum, 0);
        f.set_c(i, 0);
        let head = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        f.br(head);
        f.switch_to(head);
        let c = f.cmp(CmpPred::SLt, i, 10);
        f.cond_br(c, body, done);
        f.switch_to(body);
        let s2 = f.add(sum, i);
        f.set(sum, s2);
        let i2 = f.add(i, 1);
        f.set(i, i2);
        f.br(head);
        f.switch_to(done);
        let slot = f.stack_slot(4, 4);
        let p = f.slot_addr(slot);
        f.store32(sum, p, 0);
        f.sys_write(p, 4);
        f.sys_exit(0);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let out = run(&m);
        assert_eq!(out.status, RunStatus::Exited(0));
        assert_eq!(out.output, 45i32.to_le_bytes());
    }

    #[test]
    fn function_calls_pass_args_and_return() {
        let mut mb = ModuleBuilder::new("t");
        let sq = mb.declare("square", 1);
        let mut f = mb.function("main", 0);
        let v = f.call(sq, &[Operand::Imm(9)]);
        f.sys_exit(v);
        f.ret(None);
        mb.finish_function(f);
        let mut g = mb.function("square", 1);
        let p = g.param(0);
        let r = g.mul(p, p);
        g.ret(Some(r.into()));
        mb.finish_function(g);
        let m = mb.finish().unwrap();
        assert_eq!(run(&m).status, RunStatus::Exited(81));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let z = f.c(0);
        let d = f.divs(5, z);
        f.sys_exit(d);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        assert_eq!(run(&m).status, RunStatus::Trapped(TrapCause::DivideByZero));
    }

    #[test]
    fn wild_pointer_access_faults() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let p = f.c(0x10); // inside the null guard page
        let v = f.load32(p, 0);
        f.sys_exit(v);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        assert_eq!(run(&m).status, RunStatus::Trapped(TrapCause::AccessFault));
    }

    #[test]
    fn misaligned_access_traps() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global_zeroed("buf", 8, 4);
        let mut f = mb.function("main", 0);
        let p = f.global_addr(g);
        let v = f.load32(p, 2);
        f.sys_exit(v);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        assert_eq!(
            run(&m).status,
            RunStatus::Trapped(TrapCause::MisalignedAccess)
        );
    }

    #[test]
    fn infinite_loop_times_out() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let spin = f.new_block();
        f.br(spin);
        f.switch_to(spin);
        f.br(spin);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let out = Interpreter::new(&m).with_budget(10_000).run().unwrap();
        assert_eq!(out.status, RunStatus::Timeout);
    }

    #[test]
    fn globals_are_initialised_and_read() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global_words("tbl", &[10, 20, 30]);
        let mut f = mb.function("main", 0);
        let p = f.global_addr(g);
        let v = f.load32(p, 8);
        f.sys_exit(v);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        assert_eq!(run(&m).status, RunStatus::Exited(30));
    }

    #[test]
    fn read_syscall_copies_input() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global_zeroed("buf", 16, 4);
        let mut f = mb.function("main", 0);
        let p = f.global_addr(g);
        let n = f.sys_read(p, 16);
        let v = f.load8u(p, 0);
        let s = f.add(n, v);
        f.sys_exit(s);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let out = Interpreter::new(&m)
            .with_input(vec![7, 8, 9])
            .run()
            .unwrap();
        // 3 bytes copied, first byte is 7 -> exit code 10.
        assert_eq!(out.status, RunStatus::Exited(10));
    }

    #[test]
    fn brk_grows_heap() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let base = f.sys_brk(64);
        f.store32(0x1234, base, 0);
        let v = f.load32(base, 0);
        f.sys_exit(v);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        assert_eq!(run(&m).status, RunStatus::Exited(0x1234));
    }

    #[test]
    fn detect_syscall_reports_detected() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        f.sys_detect(3);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        assert_eq!(run(&m).status, RunStatus::Detected(3));
    }

    #[test]
    fn software_fault_flips_destination_bit() {
        // main: a = 0; exit(a). Fault on the Const's destination bit 5 -> 32.
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let a = f.c(0);
        f.sys_exit(a);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let out = Interpreter::new(&m)
            .with_fault(SwFault::flip(0, 5))
            .run()
            .unwrap();
        assert_eq!(out.status, RunStatus::Exited(32));
    }

    #[test]
    fn byte_corrupt_fault_inverts_the_whole_byte() {
        // main: a = 0; exit(a). Byte 1 (bits 8..16) inverted -> 0xFF00.
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let a = f.c(0);
        f.sys_exit(a);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let out = Interpreter::new(&m)
            .with_fault(SwFault {
                target: 0,
                bit: 11,
                model: FaultModel::ByteCorrupt,
            })
            .run()
            .unwrap();
        assert_eq!(out.status, RunStatus::Exited(0xFF00));
    }

    #[test]
    fn instr_skip_fault_keeps_the_stale_value() {
        // main: a = 7; a = 42 (skipped); exit(a) -> 7.
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let a = f.fresh();
        f.set_c(a, 7);
        f.set_c(a, 42);
        f.sys_exit(a);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let out = Interpreter::new(&m)
            .with_fault(SwFault {
                target: 1,
                bit: 0,
                model: FaultModel::InstrSkip,
            })
            .run()
            .unwrap();
        assert_eq!(out.status, RunStatus::Exited(7));
        assert!(out.injected_class.is_some(), "skip still counts as fired");
    }

    #[test]
    fn stuck_at_fault_reasserts_over_later_writes() {
        // main: a = 0 (stuck: bit 3 forced to 1); a = 0 again; exit(a).
        // The second write is re-corrupted, so the exit code stays 8.
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let a = f.fresh();
        f.set_c(a, 0);
        f.set_c(a, 0);
        f.sys_exit(a);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let out = Interpreter::new(&m)
            .with_fault(SwFault {
                target: 0,
                bit: 3,
                model: FaultModel::StuckAt,
            })
            .run()
            .unwrap();
        assert_eq!(out.status, RunStatus::Exited(8));
        // The transient flip of the same site is repaired by the second
        // write instead.
        let transient = Interpreter::new(&m)
            .with_fault(SwFault::flip(0, 3))
            .run()
            .unwrap();
        assert_eq!(transient.status, RunStatus::Exited(0));
    }

    #[test]
    fn injectable_count_is_stable() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let a = f.c(1);
        let b = f.add(a, 2);
        let c = f.xor(b, 3);
        f.sys_exit(c);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let o1 = run(&m);
        let o2 = run(&m);
        assert_eq!(o1.injectable, 3);
        assert_eq!(o1.injectable, o2.injectable);
        assert_eq!(o1.dyn_instrs, o2.dyn_instrs);
    }

    #[test]
    fn an_empty_read_into_a_wild_pointer_returns_zero() {
        // Past the end of input nothing is copied, so even a pointer far
        // beyond the modelled memory reads 0 bytes and the run goes on.
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let p = f.c(0x7FFF_FFF0);
        let n = f.sys_read(p, 16);
        f.sys_exit(n);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        assert_eq!(run(&m).status, RunStatus::Exited(0));
        let out = Interpreter::new(&m).with_input(vec![1, 2]).run().unwrap();
        assert_eq!(out.status, RunStatus::Trapped(TrapCause::AccessFault));
    }

    /// A module whose 8 KiB global spans the page boundary at `0x2000`;
    /// `body` gets the address 6 bytes below the boundary.
    fn straddling(body: impl FnOnce(&mut crate::builder::FuncBuilder, VReg)) -> Module {
        let pattern: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("buf", pattern, 4096);
        let mut f = mb.function("main", 0);
        let base = f.global_addr(g);
        let p = f.add(base, 4096 - 6);
        body(&mut f, p);
        f.sys_exit(0);
        f.ret(None);
        mb.finish_function(f);
        mb.finish().unwrap()
    }

    #[test]
    fn syscall_buffers_straddle_pages() {
        // A write syscall buffer across the boundary.
        let m = straddling(|f, p| f.sys_write(p, 12));
        let interp = Interpreter::new(&m);
        assert_eq!(interp.global_addr(crate::types::GlobalId(0)), 0x1000);
        let out = interp.run().unwrap();
        let want: Vec<u8> = (4090..4102u32).map(|i| (i * 7 % 256) as u8).collect();
        assert_eq!(out.output, want);
        // The read input copy across the boundary, echoed back out.
        let m = straddling(|f, p| {
            let n = f.sys_read(p, 12);
            f.sys_write(p, n);
        });
        let input: Vec<u8> = (100..112).collect();
        let out = Interpreter::new(&m).with_input(&input[..]).run().unwrap();
        assert_eq!(out.status, RunStatus::Exited(0));
        assert_eq!(out.output, input);
    }

    fn counting_loop() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let sum = f.fresh();
        f.set_c(sum, 0);
        f.for_range(0, 50, |f, i| {
            let x = f.mul(i, 3);
            let s = f.add(sum, x);
            f.set(sum, s);
        });
        let slot = f.stack_slot(4, 4);
        let p = f.slot_addr(slot);
        f.store32(sum, p, 0);
        f.sys_write(p, 4);
        f.sys_exit(0);
        f.ret(None);
        mb.finish_function(f);
        mb.finish().unwrap()
    }

    #[test]
    fn pausing_leaves_the_run_unchanged_and_resumes_exactly() {
        let m = counting_loop();
        let plain = run(&m);
        let mut snaps = vec![Interpreter::new(&m).snapshot()];
        let paused = Interpreter::new(&m)
            .run_pausing(7, |s| {
                assert_eq!(s.injectable(), 7 * snaps.len() as u64);
                snaps.push(s.clone());
                s.injectable() + 7
            })
            .unwrap();
        assert_eq!(paused, plain);
        assert!(snaps.len() > 10);
        for snap in &snaps {
            let at = snap.injectable();
            for (k, model) in FaultModel::ALL.into_iter().enumerate() {
                let fault = SwFault {
                    target: at + k as u64,
                    bit: 1 + 3 * k as u8,
                    model,
                };
                // Skipping the loop increment spins: the budget ends it.
                let scratch = Interpreter::new(&m)
                    .with_budget(5_000)
                    .with_fault(fault)
                    .run()
                    .unwrap();
                let resumed = Interpreter::resume(&m, snap.clone())
                    .with_budget(5_000)
                    .with_fault(fault)
                    .run()
                    .unwrap();
                assert_eq!(resumed, scratch, "{fault:?}");
            }
            // Running on from a snapshot leaves the snapshot untouched.
            let before = snap.clone();
            let _ = Interpreter::resume(&m, snap.clone()).run().unwrap();
            assert_eq!(&before, snap);
        }
    }

    #[test]
    #[should_panic(expected = "already at")]
    fn arming_a_fault_behind_the_run_panics() {
        let m = counting_loop();
        let mut late = None;
        Interpreter::new(&m)
            .run_pausing(20, |s| {
                late.get_or_insert_with(|| s.clone());
                u64::MAX
            })
            .unwrap();
        let _ = Interpreter::resume(&m, late.unwrap()).with_fault(SwFault::flip(19, 0));
    }

    #[test]
    fn recursion_overflows_to_access_fault() {
        let mut mb = ModuleBuilder::new("t");
        let rec = mb.declare("rec", 1);
        let mut f = mb.function("main", 0);
        f.call_void(rec, &[Operand::Imm(0)]);
        f.sys_exit(0);
        f.ret(None);
        mb.finish_function(f);
        let mut g = mb.function("rec", 1);
        let _big = g.stack_slot(4096, 4);
        let p = g.param(0);
        let p1 = g.add(p, 1);
        g.call_void(rec, &[p1.into()]);
        g.ret(None);
        mb.finish_function(g);
        let m = mb.finish().unwrap();
        assert_eq!(run(&m).status, RunStatus::Trapped(TrapCause::AccessFault));
    }
}
