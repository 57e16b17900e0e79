//! Control-flow graph recovery from raw encoded text words.
//!
//! The builder never executes anything: it decodes every word of the text
//! section through [`Instr::decode`], partitions each function (as named by
//! [`CompiledModule::symbols`]) into basic blocks, and connects fallthrough
//! and target edges. Indirect jumps through a register other than the link
//! register are over-approximated as "may reach any block of the enclosing
//! function"; `JMPR lr` is recognised as the function-return idiom and gets
//! no intraprocedural successors. Calls do *not* end a block — control
//! returns to the following instruction.
//!
//! Loop structure comes from dominator-based back-edge detection; every
//! block carries its natural-loop nesting depth, which the static PVF
//! estimator turns into a block-frequency weight.

use std::ops::Range;

use vulnstack_compiler::CompiledModule;
use vulnstack_isa::op::Format;
use vulnstack_isa::{Instr, Isa, Op};
use vulnstack_kernel::asm::AsmError;
use vulnstack_kernel::{build_kernel, memmap};

/// One decoded (or undecodable) word of the text section.
#[derive(Debug, Clone)]
pub struct DecodedWord {
    /// Absolute word offset within the text section.
    pub word_off: u32,
    /// The raw encoded word.
    pub raw: u32,
    /// The decoded instruction, or `None` if the word does not decode on
    /// this ISA (the executing core would trap).
    pub instr: Option<Instr>,
}

/// A basic block: a maximal straight-line run of instructions.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// Instruction index range within [`FuncCfg::instrs`].
    pub range: Range<usize>,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
    /// Natural-loop nesting depth (0 = not in any loop).
    pub loop_depth: u32,
    /// Whether the block is reachable from the function entry.
    pub reachable: bool,
}

/// The recovered CFG of one function.
#[derive(Debug, Clone)]
pub struct FuncCfg {
    /// Symbol name (`_start` for the entry stub).
    pub name: String,
    /// Absolute word offset of the first instruction.
    pub start_word: u32,
    /// Every word of the function, in layout order.
    pub instrs: Vec<DecodedWord>,
    /// Basic blocks in layout order; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// Block id containing each instruction index.
    pub block_of: Vec<usize>,
}

impl FuncCfg {
    /// Whether the instruction at local index `i` is in a reachable block.
    pub fn instr_reachable(&self, i: usize) -> bool {
        self.blocks[self.block_of[i]].reachable
    }
}

/// The recovered CFG of a whole compiled module.
#[derive(Debug, Clone)]
pub struct ModuleCfg {
    /// Target ISA.
    pub isa: Isa,
    /// Per-function CFGs, in text layout order.
    pub funcs: Vec<FuncCfg>,
    /// Absolute word offsets of all undecodable words in the text section.
    pub undecodable: Vec<u32>,
}

/// A raw executable text segment, for analysing images that never went
/// through [`CompiledModule`] — e.g. the kernel's boot stub and trap
/// handler, which are authored directly in assembly.
#[derive(Debug, Clone)]
pub struct TextSegment {
    /// Symbol-like name for reports.
    pub name: String,
    /// Absolute word offset of the segment's first instruction (byte
    /// address / 4).
    pub start_word: u32,
    /// Encoded instruction words in layout order.
    pub words: Vec<u32>,
}

/// Recovers a CFG per raw text segment, treating each segment as one
/// function. Branch targets are resolved segment-locally (the kernel's
/// handlers never branch across segments); jumps that leave the segment
/// become exit edges, exactly like [`build_cfg`]'s out-of-symbol case.
pub fn build_cfg_segments(isa: Isa, segments: &[TextSegment]) -> ModuleCfg {
    let mut funcs = Vec::with_capacity(segments.len());
    let mut undecodable = Vec::new();
    for seg in segments {
        let instrs: Vec<DecodedWord> = seg
            .words
            .iter()
            .enumerate()
            .map(|(i, &raw)| DecodedWord {
                word_off: seg.start_word + i as u32,
                raw,
                instr: Instr::decode(raw, isa).ok(),
            })
            .collect();
        for dw in &instrs {
            if dw.instr.is_none() {
                undecodable.push(dw.word_off);
            }
        }
        funcs.push(build_func_cfg(
            seg.name.clone(),
            seg.start_word,
            instrs,
            isa,
        ));
    }
    ModuleCfg {
        isa,
        funcs,
        undecodable,
    }
}

/// The kernel's two hand-written text segments, the boot stub (`kboot`)
/// and the trap handler (`ktrap`), recovered by [`build_cfg_segments`]:
/// the CFG that `vulnstack analyze attack kernel` reports on.
///
/// # Errors
///
/// Returns the kernel assembler's error, raised only by an assembler bug.
pub fn build_kernel_cfg(isa: Isa) -> Result<ModuleCfg, AsmError> {
    let k = build_kernel(isa)?;
    let segs = [
        TextSegment {
            name: "kboot".to_string(),
            start_word: memmap::KERNEL_BOOT / 4,
            words: k.boot,
        },
        TextSegment {
            name: "ktrap".to_string(),
            start_word: memmap::TRAP_VEC / 4,
            words: k.trap,
        },
    ];
    Ok(build_cfg_segments(isa, &segs))
}

/// One call instruction in the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// Index of the calling function in [`ModuleCfg::funcs`].
    pub caller: usize,
    /// Local instruction index of the `CALL`/`CALLR` within the caller.
    pub instr: usize,
    /// Resolved callee function index, or `None` for indirect calls and
    /// direct targets that match no function entry.
    pub callee: Option<usize>,
}

/// The module's call graph, recovered statically from `CALL` immediates.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Every call site in the module, in (caller, instruction) order.
    pub sites: Vec<CallSite>,
    /// Resolved callee indices per caller (deduplicated, sorted).
    pub callees: Vec<Vec<usize>>,
    /// Caller indices per callee (deduplicated, sorted).
    pub callers: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Call sites that could not be resolved to a function entry.
    pub fn unresolved(&self) -> usize {
        self.sites.iter().filter(|s| s.callee.is_none()).count()
    }
}

/// Recovers the call graph: a `CALL`'s target word is its own position
/// plus the encoded byte offset / 4; it resolves to the function whose
/// entry sits exactly there. `CALLR` is always unresolved (the target
/// lives in a register).
pub fn call_graph(m: &ModuleCfg) -> CallGraph {
    let n = m.funcs.len();
    let mut sites = Vec::new();
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (fi, f) in m.funcs.iter().enumerate() {
        for (i, dw) in f.instrs.iter().enumerate() {
            let Some(instr) = &dw.instr else { continue };
            let callee = match instr.op {
                Op::Call => {
                    let target = dw.word_off as i64 + instr.imm / 4;
                    m.funcs
                        .iter()
                        .position(|g| g.start_word as i64 == target && !g.instrs.is_empty())
                }
                Op::Callr => None,
                _ => continue,
            };
            sites.push(CallSite {
                caller: fi,
                instr: i,
                callee,
            });
            if let Some(c) = callee {
                if !callees[fi].contains(&c) {
                    callees[fi].push(c);
                }
                if !callers[c].contains(&fi) {
                    callers[c].push(fi);
                }
            }
        }
    }
    for v in callees.iter_mut().chain(callers.iter_mut()) {
        v.sort_unstable();
    }
    CallGraph {
        sites,
        callees,
        callers,
    }
}

/// How an instruction terminates (or does not terminate) a basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Term {
    /// Not a block terminator (includes calls and syscalls, which return).
    None,
    /// Conditional branch: target local index, plus fallthrough.
    Branch(usize),
    /// Unconditional jump: target local index (`None` if it leaves the
    /// function, treated as an exit edge).
    Jump(Option<usize>),
    /// `JMPR lr` — function return.
    Return,
    /// Indirect jump through a non-`lr` register: over-approximated as
    /// "any block in this function".
    Indirect,
    /// Undecodable word, `HALT`, or `ERET`: execution cannot continue here.
    Trap,
}

/// Classifies instruction `i` of a function body of `len` instructions.
fn terminator(dw: &DecodedWord, i: usize, len: usize, isa: Isa) -> Term {
    let Some(instr) = &dw.instr else {
        return Term::Trap;
    };
    let target = |imm: i64| -> Option<usize> {
        let t = i as i64 + imm / 4;
        (t >= 0 && (t as usize) < len).then_some(t as usize)
    };
    match instr.op {
        Op::Jmp => Term::Jump(target(instr.imm)),
        Op::Jmpr => {
            if instr.rs1 == isa.lr() {
                Term::Return
            } else {
                Term::Indirect
            }
        }
        Op::Halt | Op::Eret => Term::Trap,
        _ if instr.op.format() == Format::B => {
            // Branch target out of function range gets no edge (the word
            // would transfer control outside the symbol; keep fallthrough).
            match target(instr.imm) {
                Some(t) => Term::Branch(t),
                None => Term::None,
            }
        }
        _ => Term::None,
    }
}

/// Recovers the CFG of every function in `compiled` without executing it.
pub fn build_cfg(compiled: &CompiledModule) -> ModuleCfg {
    let isa = compiled.isa;
    let symbols = compiled.symbols();
    let mut funcs = Vec::with_capacity(symbols.len());
    let mut undecodable = Vec::new();

    for (si, &(start, name)) in symbols.iter().enumerate() {
        let end = symbols
            .get(si + 1)
            .map_or(compiled.text.len(), |&(o, _)| o as usize);
        let words = &compiled.text[start as usize..end];
        let instrs: Vec<DecodedWord> = words
            .iter()
            .enumerate()
            .map(|(i, &raw)| DecodedWord {
                word_off: start + i as u32,
                raw,
                instr: Instr::decode(raw, isa).ok(),
            })
            .collect();
        for dw in &instrs {
            if dw.instr.is_none() {
                undecodable.push(dw.word_off);
            }
        }
        funcs.push(build_func_cfg(name.to_string(), start, instrs, isa));
    }

    ModuleCfg {
        isa,
        funcs,
        undecodable,
    }
}

fn build_func_cfg(name: String, start_word: u32, instrs: Vec<DecodedWord>, isa: Isa) -> FuncCfg {
    let n = instrs.len();
    if n == 0 {
        return FuncCfg {
            name,
            start_word,
            instrs,
            blocks: Vec::new(),
            block_of: Vec::new(),
        };
    }
    let terms: Vec<Term> = instrs
        .iter()
        .enumerate()
        .map(|(i, dw)| terminator(dw, i, n, isa))
        .collect();

    // Leaders: entry, every branch/jump target, every instruction after a
    // block terminator.
    let mut leader = vec![false; n];
    leader[0] = true;
    for (i, t) in terms.iter().enumerate() {
        match t {
            Term::Branch(tgt) | Term::Jump(Some(tgt)) => leader[*tgt] = true,
            _ => {}
        }
        if *t != Term::None && i + 1 < n {
            leader[i + 1] = true;
        }
    }

    // Carve blocks.
    let mut blocks: Vec<BasicBlock> = Vec::new();
    let mut block_of = vec![0usize; n];
    let mut bstart = 0usize;
    for (i, &is_leader) in leader.iter().enumerate().take(n) {
        if i > bstart && is_leader {
            blocks.push(new_block(bstart..i));
            bstart = i;
        }
    }
    blocks.push(new_block(bstart..n));
    for (id, b) in blocks.iter().enumerate() {
        for i in b.range.clone() {
            block_of[i] = id;
        }
    }

    // Successor edges from each block's last instruction.
    let nblocks = blocks.len();
    for b in blocks.iter_mut() {
        let last = b.range.end - 1;
        let succs: Vec<usize> = match &terms[last] {
            Term::None => {
                // Block ended because the next instruction is a leader, or
                // the function ran off the end of the symbol.
                if last + 1 < n {
                    vec![block_of[last + 1]]
                } else {
                    Vec::new()
                }
            }
            Term::Branch(tgt) => {
                let mut s = Vec::new();
                if last + 1 < n {
                    s.push(block_of[last + 1]);
                }
                let tb = block_of[*tgt];
                if !s.contains(&tb) {
                    s.push(tb);
                }
                s
            }
            Term::Jump(Some(tgt)) => vec![block_of[*tgt]],
            Term::Jump(None) | Term::Return | Term::Trap => Vec::new(),
            // Over-approximation: an unanalysable indirect jump may reach
            // any block of the enclosing function.
            Term::Indirect => (0..nblocks).collect(),
        };
        b.succs = succs;
    }
    for id in 0..nblocks {
        for s in blocks[id].succs.clone() {
            if !blocks[s].preds.contains(&id) {
                blocks[s].preds.push(id);
            }
        }
    }

    mark_reachable(&mut blocks);
    assign_loop_depths(&mut blocks);

    FuncCfg {
        name,
        start_word,
        instrs,
        blocks,
        block_of,
    }
}

fn new_block(range: Range<usize>) -> BasicBlock {
    BasicBlock {
        range,
        succs: Vec::new(),
        preds: Vec::new(),
        loop_depth: 0,
        reachable: false,
    }
}

fn mark_reachable(blocks: &mut [BasicBlock]) {
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        if blocks[b].reachable {
            continue;
        }
        blocks[b].reachable = true;
        stack.extend(blocks[b].succs.iter().copied());
    }
}

/// Computes natural-loop nesting depths via dominators and back edges.
///
/// Uses the iterative dominator algorithm over a reverse postorder of the
/// reachable subgraph; an edge `u -> h` is a back edge when `h` dominates
/// `u`, and the loop body is everything that reaches `u` backwards without
/// passing through `h`.
fn assign_loop_depths(blocks: &mut [BasicBlock]) {
    let n = blocks.len();
    if n == 0 {
        return;
    }

    // Reverse postorder over reachable blocks.
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    state[0] = 1;
    while let Some(&mut (b, ref mut ci)) = stack.last_mut() {
        if *ci < blocks[b].succs.len() {
            let s = blocks[b].succs[*ci];
            *ci += 1;
            if state[s] == 0 {
                state[s] = 1;
                stack.push((s, 0));
            }
        } else {
            state[b] = 2;
            order.push(b);
            stack.pop();
        }
    }
    order.reverse();
    let mut rpo_index = vec![usize::MAX; n];
    for (i, &b) in order.iter().enumerate() {
        rpo_index[b] = i;
    }

    // Iterative dominators (Cooper–Harvey–Kennedy).
    const UNDEF: usize = usize::MAX;
    let mut idom = vec![UNDEF; n];
    idom[0] = 0;
    let intersect = |idom: &[usize], rpo: &[usize], mut a: usize, mut b: usize| -> usize {
        while a != b {
            while rpo[a] > rpo[b] {
                a = idom[a];
            }
            while rpo[b] > rpo[a] {
                b = idom[b];
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order.iter().skip(1) {
            let mut new_idom = UNDEF;
            for &p in &blocks[b].preds {
                if idom[p] == UNDEF {
                    continue;
                }
                new_idom = if new_idom == UNDEF {
                    p
                } else {
                    intersect(&idom, &rpo_index, new_idom, p)
                };
            }
            if new_idom != UNDEF && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }

    let dominates = |h: usize, mut b: usize, idom: &[usize]| -> bool {
        loop {
            if b == h {
                return true;
            }
            if b == 0 || idom[b] == UNDEF || idom[b] == b {
                return false;
            }
            b = idom[b];
        }
    };

    // Collect natural loop bodies, keyed by header.
    let mut loop_bodies: Vec<(usize, Vec<bool>)> = Vec::new();
    for u in 0..n {
        if !blocks[u].reachable {
            continue;
        }
        for &h in &blocks[u].succs {
            if !dominates(h, u, &idom) {
                continue;
            }
            let body = loop_bodies.iter_mut().find(|(hh, _)| *hh == h);
            let body = match body {
                Some((_, b)) => b,
                None => {
                    let mut b = vec![false; n];
                    b[h] = true;
                    loop_bodies.push((h, b));
                    &mut loop_bodies.last_mut().unwrap().1
                }
            };
            // Everything that reaches u backwards without passing h.
            let mut work = vec![u];
            while let Some(x) = work.pop() {
                if body[x] {
                    continue;
                }
                body[x] = true;
                work.extend(blocks[x].preds.iter().copied());
            }
        }
    }
    for (_, body) in &loop_bodies {
        for (b, &inside) in body.iter().enumerate() {
            if inside {
                blocks[b].loop_depth += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_isa::Reg;

    /// Encodes a sequence of instructions into a single-function module.
    fn module_of(instrs: &[Instr], isa: Isa) -> CompiledModule {
        let text: Vec<u32> = instrs.iter().map(|i| i.encode(isa).unwrap()).collect();
        let entry = text.len() as u32;
        CompiledModule {
            isa,
            text,
            data: Vec::new(),
            global_addrs: Vec::new(),
            func_offsets: vec![0],
            func_names: vec!["f".to_string()],
            entry_offset: entry,
            data_size: 0,
            func_sizes: vec![instrs.len() as u32],
        }
    }

    #[test]
    fn straight_line_is_one_block() {
        let isa = Isa::Va32;
        let prog = [
            Instr::alu_imm(Op::Addi, Reg(1), Reg(0), 1),
            Instr::alu_imm(Op::Addi, Reg(2), Reg(1), 2),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let cfg = build_cfg(&module_of(&prog, isa));
        let f = &cfg.funcs[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].succs, Vec::<usize>::new());
        assert!(f.blocks[0].reachable);
        assert!(cfg.undecodable.is_empty());
    }

    #[test]
    fn branch_splits_blocks_and_adds_edges() {
        let isa = Isa::Va32;
        // 0: beq r1, r2, +8  (-> instr 2)
        // 1: addi r3, r0, 1
        // 2: jmpr lr
        let prog = [
            Instr::branch(Op::Beq, Reg(1), Reg(2), 8),
            Instr::alu_imm(Op::Addi, Reg(3), Reg(0), 1),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let cfg = build_cfg(&module_of(&prog, isa));
        let f = &cfg.funcs[0];
        assert_eq!(f.blocks.len(), 3);
        let mut s0 = f.blocks[0].succs.clone();
        s0.sort_unstable();
        assert_eq!(s0, vec![1, 2]);
        assert_eq!(f.blocks[1].succs, vec![2]);
        assert!(f.blocks.iter().all(|b| b.reachable));
        assert!(f.blocks.iter().all(|b| b.loop_depth == 0));
    }

    #[test]
    fn back_edge_yields_loop_depth() {
        let isa = Isa::Va32;
        // 0: addi r1, r1, -1
        // 1: bne r1, r2, -4   (-> instr 0: back edge)
        // 2: jmpr lr
        let prog = [
            Instr::alu_imm(Op::Addi, Reg(1), Reg(1), -1),
            Instr::branch(Op::Bne, Reg(1), Reg(2), -4),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let cfg = build_cfg(&module_of(&prog, isa));
        let f = &cfg.funcs[0];
        // Blocks: [0..2) is split at instr 0 (branch target) -> actually
        // instr 0 is the entry leader already, so blocks are [0,1], [2].
        assert_eq!(f.blocks.len(), 2);
        assert_eq!(f.blocks[0].loop_depth, 1);
        assert_eq!(f.blocks[1].loop_depth, 0);
    }

    #[test]
    fn unreachable_after_jump_is_detected() {
        let isa = Isa::Va64;
        // 0: jmp +8 (-> instr 2)
        // 1: addi x1, x0, 7   (unreachable)
        // 2: jmpr lr
        let prog = [
            Instr::jump(Op::Jmp, 8),
            Instr::alu_imm(Op::Addi, Reg(1), Reg(0), 7),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let cfg = build_cfg(&module_of(&prog, isa));
        let f = &cfg.funcs[0];
        assert_eq!(f.blocks.len(), 3);
        assert!(!f.blocks[1].reachable);
        assert!(f.blocks[0].reachable && f.blocks[2].reachable);
    }

    #[test]
    fn undecodable_word_is_recorded() {
        let isa = Isa::Va32;
        let mut m = module_of(&[Instr::jump_reg(Op::Jmpr, isa.lr())], isa);
        m.text.insert(0, 0xFFFF_FFFF); // invalid opcode
        m.entry_offset = m.text.len() as u32;
        let cfg = build_cfg(&m);
        assert_eq!(cfg.undecodable, vec![0]);
        // The trap word terminates its block with no successors, so the
        // return below it is unreachable.
        let f = &cfg.funcs[0];
        assert!(!f.blocks[1].reachable);
    }

    #[test]
    fn call_graph_resolves_direct_calls() {
        let isa = Isa::Va32;
        // Two functions: f at word 0 calls g at word 2; g returns.
        // f: 0: call +8 (-> word 2)   1: jmpr lr
        // g: 2: addi r0, r1, 1        3: jmpr lr
        let instrs = [
            Instr::jump(Op::Call, 8),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
            Instr::alu_imm(Op::Addi, Reg(0), Reg(1), 1),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let text: Vec<u32> = instrs.iter().map(|i| i.encode(isa).unwrap()).collect();
        let m = CompiledModule {
            isa,
            text,
            data: Vec::new(),
            global_addrs: Vec::new(),
            func_offsets: vec![0, 2],
            func_names: vec!["f".to_string(), "g".to_string()],
            entry_offset: 4,
            data_size: 0,
            func_sizes: vec![2, 2],
        };
        let cfg = build_cfg(&m);
        let cg = call_graph(&cfg);
        assert_eq!(cg.sites.len(), 1);
        let f_idx = cfg.funcs.iter().position(|f| f.name == "f").unwrap();
        let g_idx = cfg.funcs.iter().position(|f| f.name == "g").unwrap();
        assert_eq!(cg.sites[0].caller, f_idx);
        assert_eq!(cg.sites[0].callee, Some(g_idx));
        assert_eq!(cg.callees[f_idx], vec![g_idx]);
        assert_eq!(cg.callers[g_idx], vec![f_idx]);
        assert_eq!(cg.unresolved(), 0);
    }

    #[test]
    fn callr_is_unresolved() {
        let isa = Isa::Va32;
        let prog = [
            Instr::jump_reg(Op::Callr, Reg(5)),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let cfg = build_cfg(&module_of(&prog, isa));
        let cg = call_graph(&cfg);
        assert_eq!(cg.sites.len(), 1);
        assert_eq!(cg.sites[0].callee, None);
        assert_eq!(cg.unresolved(), 1);
    }

    #[test]
    fn segments_build_standalone_cfgs() {
        let isa = Isa::Va64;
        // A two-instruction segment at a nonzero base, ending in a halt.
        let words = vec![
            Instr::alu_imm(Op::Addi, Reg(1), Reg(2), 1)
                .encode(isa)
                .unwrap(),
            Instr::sys(Op::Halt).encode(isa).unwrap(),
        ];
        let seg = TextSegment {
            name: "kboot".to_string(),
            start_word: 0x100,
            words,
        };
        let cfg = build_cfg_segments(isa, &[seg]);
        assert_eq!(cfg.funcs.len(), 1);
        let f = &cfg.funcs[0];
        assert_eq!(f.name, "kboot");
        assert_eq!(f.start_word, 0x100);
        assert_eq!(f.instrs[0].word_off, 0x100);
        assert!(f.blocks[0].reachable);
        assert!(cfg.undecodable.is_empty());
    }

    #[test]
    fn indirect_jump_over_approximates() {
        let isa = Isa::Va32;
        // 0: jmpr r5 (indirect, not lr)
        // 1: jmpr lr
        let prog = [
            Instr::jump_reg(Op::Jmpr, Reg(5)),
            Instr::jump_reg(Op::Jmpr, isa.lr()),
        ];
        let cfg = build_cfg(&module_of(&prog, isa));
        let f = &cfg.funcs[0];
        assert_eq!(f.blocks.len(), 2);
        let mut s = f.blocks[0].succs.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
        assert!(f.blocks[1].reachable);
    }
}
