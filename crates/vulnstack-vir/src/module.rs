//! Modules, functions, blocks and globals.

use crate::instr::VInstr;
use crate::types::{BlockId, FuncId, GlobalId, SlotId};

/// A basic block: straight-line instructions ending in one terminator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    /// Instructions, the last of which is a terminator once the function is
    /// finished.
    pub instrs: Vec<VInstr>,
}

/// A stack slot in a function frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSlot {
    /// Slot size in bytes.
    pub size: u32,
    /// Required alignment in bytes (power of two).
    pub align: u32,
}

/// A function: parameters arrive in virtual registers `%0..%nparams`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name (diagnostics only).
    pub name: String,
    /// Number of parameters.
    pub num_params: u32,
    /// Total number of virtual registers used (params included).
    pub num_vregs: u32,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Frame slots addressable via [`VInstr::SlotAddr`].
    pub slots: Vec<FrameSlot>,
}

impl Function {
    /// Iterates over `(block id, instruction index, instruction)`.
    pub fn iter_instrs(&self) -> impl Iterator<Item = (BlockId, usize, &VInstr)> {
        self.blocks.iter().enumerate().flat_map(|(b, blk)| {
            blk.instrs
                .iter()
                .enumerate()
                .map(move |(i, ins)| (BlockId(b as u32), i, ins))
        })
    }

    /// Total static instruction count.
    pub fn num_instrs(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Frame size in bytes with each slot aligned, itself rounded up to 16.
    pub fn frame_size(&self) -> u32 {
        let mut off = 0u32;
        for s in &self.slots {
            off = (off + s.align - 1) & !(s.align - 1);
            off += s.size;
        }
        (off + 15) & !15
    }

    /// Byte offset of `slot` within the frame.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot_offset(&self, slot: SlotId) -> u32 {
        let mut off = 0u32;
        for (i, s) in self.slots.iter().enumerate() {
            off = (off + s.align - 1) & !(s.align - 1);
            if i == slot.0 as usize {
                return off;
            }
            off += s.size;
        }
        panic!("slot {slot:?} out of range");
    }
}

/// A module-level global data object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Name (diagnostics only).
    pub name: String,
    /// Initial contents; the global's size equals `init.len()`.
    pub init: Vec<u8>,
    /// Required alignment (power of two).
    pub align: u32,
}

/// A VIR module: functions plus global data. Execution starts at
/// [`Module::entry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Functions; [`FuncId`] indexes this vector.
    pub functions: Vec<Function>,
    /// Globals; [`GlobalId`] indexes this vector.
    pub globals: Vec<Global>,
    /// The entry function (conventionally `main`).
    pub entry: FuncId,
}

impl Module {
    /// Looks up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<(FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// The entry function.
    pub fn entry_function(&self) -> &Function {
        &self.functions[self.entry.0 as usize]
    }

    /// Total static instruction count over all functions.
    pub fn num_instrs(&self) -> usize {
        self.functions.iter().map(|f| f.num_instrs()).sum()
    }

    /// Resolves a global.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_layout_respects_alignment() {
        let f = Function {
            name: "t".into(),
            num_params: 0,
            num_vregs: 0,
            blocks: vec![],
            slots: vec![
                FrameSlot { size: 1, align: 1 },
                FrameSlot { size: 4, align: 4 },
                FrameSlot { size: 8, align: 8 },
            ],
        };
        assert_eq!(f.slot_offset(SlotId(0)), 0);
        assert_eq!(f.slot_offset(SlotId(1)), 4);
        assert_eq!(f.slot_offset(SlotId(2)), 8);
        assert_eq!(f.frame_size(), 16);
    }

    #[test]
    fn frame_size_rounds_to_16() {
        let f = Function {
            name: "t".into(),
            num_params: 0,
            num_vregs: 0,
            blocks: vec![],
            slots: vec![FrameSlot { size: 20, align: 4 }],
        };
        assert_eq!(f.frame_size(), 32);
    }
}

impl std::fmt::Display for Function {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fn {}({} params, {} vregs) {{",
            self.name, self.num_params, self.num_vregs
        )?;
        for (i, s) in self.slots.iter().enumerate() {
            writeln!(f, "  slot{i}: {} bytes align {}", s.size, s.align)?;
        }
        for (b, blk) in self.blocks.iter().enumerate() {
            writeln!(f, "bb{b}:")?;
            for ins in &blk.instrs {
                writeln!(f, "  {ins}")?;
            }
        }
        write!(f, "}}")
    }
}

impl std::fmt::Display for Module {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "module {} ({} functions, {} globals)",
            self.name,
            self.functions.len(),
            self.globals.len()
        )?;
        for (i, g) in self.globals.iter().enumerate() {
            writeln!(
                f,
                "g{i}: {} = {} bytes align {}",
                g.name,
                g.init.len(),
                g.align
            )?;
        }
        for func in &self.functions {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use crate::builder::ModuleBuilder;

    #[test]
    fn module_display_contains_structure() {
        let mut mb = ModuleBuilder::new("demo");
        let _g = mb.global_words("tbl", &[1, 2]);
        let mut f = mb.function("main", 0);
        let a = f.c(1);
        let _ = f.add(a, 2);
        f.sys_exit(0);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let s = m.to_string();
        assert!(s.contains("module demo"));
        assert!(s.contains("fn main"));
        assert!(s.contains("bb0:"));
        assert!(s.contains("const 1"));
        assert!(s.contains("g0: tbl"));
    }
}
