//! # vulnstack-isa
//!
//! Definitions of the two VulnArm instruction-set architectures used across
//! the vulnstack workspace:
//!
//! * **VA32** — a 32-bit, 16-register load/store ISA standing in for Armv7.
//! * **VA64** — a 64-bit, 31-register (plus zero register) ISA standing in
//!   for Armv8.
//!
//! Both ISAs share a fixed 32-bit instruction encoding. The binary encoding
//! is a first-class citizen here because the fault-injection layers flip bits
//! in *encoded* instructions (in the L1 instruction cache, the L2 cache, or
//! the text segment) and the resulting decode — a different-but-valid
//! instruction, a corrupted operand, or an undefined instruction — is exactly
//! what produces the paper's Wrong Instruction (WI) and Wrong Operand or
//! Immediate (WOI) fault propagation models.
//!
//! Every layer depends on this crate, so it also holds what the layers
//! share: the copy-on-write memory ([`CowMem`]) and the fault-model menu
//! ([`FaultModel`]) that every injector and the static analyzer take.
//!
//! # Example
//!
//! ```
//! use vulnstack_isa::{Instr, Isa, Op, Reg};
//!
//! let isa = Isa::Va64;
//! let i = Instr::alu_imm(Op::Addi, Reg(3), Reg(4), 42);
//! let word = i.encode(isa).unwrap();
//! let back = Instr::decode(word, isa).unwrap();
//! assert_eq!(i, back);
//! ```

pub mod abi;
pub mod bits;
pub mod disasm;
pub mod encode;
pub mod fault;
pub mod fields;
pub mod instr;
pub mod isa;
pub mod mem;
pub mod op;
pub mod reg;
pub mod sysreg;
pub mod trap;

pub use abi::{CallConv, Syscall};
pub use fault::FaultModel;
pub use fields::{classify_bit, BitClass};
pub use instr::{Instr, SrcRole};
pub use isa::Isa;
pub use mem::CowMem;
pub use op::Op;
pub use reg::Reg;
pub use sysreg::SysReg;
pub use trap::{Trap, TrapCause};

/// Size of one encoded instruction in bytes (both ISAs use fixed 32-bit
/// encodings).
pub const INSTR_BYTES: u64 = 4;
