//! # vulnstack-workloads
//!
//! The benchmark suite used throughout the vulnerability study: ten
//! MiBench-style workloads re-implemented in VIR so the *same source
//! program* can be (a) interpreted for software-level (SVF) injection,
//! (b) compiled for VA32, and (c) compiled for VA64 — mirroring the paper's
//! requirement that workloads be identical across layers and ISAs.
//!
//! Every workload ships with a deterministic input and a host-computed
//! `expected_output`, so any execution layer can be checked for silent data
//! corruption by byte comparison.
//!
//! | workload | domain | kernel |
//! |---|---|---|
//! | `fft` | signal processing | fixed-point radix-2 FFT, N=128 |
//! | `qsort` | sorting | recursive Lomuto quicksort, 256 ints |
//! | `sha` | crypto hash | SHA-1 over 2 KiB (input via `read`) |
//! | `rijndael` | block cipher | AES-128 ECB encrypt, 512 B |
//! | `smooth` | image | 3×3 mean filter, 48×48 |
//! | `corner` | image | SUSAN-style corner response, 48×48 |
//! | `cjpeg` | codec | 8×8 DCT + quant + zigzag + RLE, 24×24 |
//! | `djpeg` | codec | RLE + dequant + IDCT, 24×24 |
//! | `crc32` | checksum | table-driven CRC-32 over 4 KiB (via `read`) |
//! | `dijkstra` | graph | O(V²) single-source shortest paths, 48 nodes |
//!
//! # Example
//!
//! ```
//! use vulnstack_workloads::WorkloadId;
//! use vulnstack_vir::interp::{Interpreter, RunStatus};
//!
//! let w = WorkloadId::Crc32.build();
//! let out = Interpreter::new(&w.module)
//!     .with_input(w.input.clone())
//!     .run()
//!     .unwrap();
//! assert_eq!(out.status, RunStatus::Exited(0));
//! assert_eq!(out.output, w.expected_output);
//! ```

use vulnstack_vir::Module;

mod cjpeg;
mod corner;
mod crc32;
mod dijkstra;
mod djpeg;
mod fft;
mod qsort;
mod rijndael;
mod sha;
mod smooth;
pub mod util;

/// Identifier of one workload in the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadId {
    /// Fixed-point FFT.
    Fft,
    /// Quicksort.
    Qsort,
    /// SHA-1.
    Sha,
    /// AES-128 encryption.
    Rijndael,
    /// 3×3 mean filter.
    Smooth,
    /// SUSAN-style corner detection.
    Corner,
    /// DCT-based image compression.
    Cjpeg,
    /// DCT-based image decompression.
    Djpeg,
    /// CRC-32 checksum.
    Crc32,
    /// Single-source shortest paths.
    Dijkstra,
}

impl WorkloadId {
    /// All workloads, in the order used by the paper's figures.
    pub const ALL: [WorkloadId; 10] = [
        WorkloadId::Fft,
        WorkloadId::Qsort,
        WorkloadId::Sha,
        WorkloadId::Rijndael,
        WorkloadId::Smooth,
        WorkloadId::Corner,
        WorkloadId::Cjpeg,
        WorkloadId::Djpeg,
        WorkloadId::Crc32,
        WorkloadId::Dijkstra,
    ];

    /// Lowercase benchmark name as used in reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Fft => "fft",
            WorkloadId::Qsort => "qsort",
            WorkloadId::Sha => "sha",
            WorkloadId::Rijndael => "rijndael",
            WorkloadId::Smooth => "smooth",
            WorkloadId::Corner => "corner",
            WorkloadId::Cjpeg => "cjpeg",
            WorkloadId::Djpeg => "djpeg",
            WorkloadId::Crc32 => "crc32",
            WorkloadId::Dijkstra => "dijkstra",
        }
    }

    /// Looks a workload up by its report name.
    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.iter().copied().find(|w| w.name() == name)
    }

    /// Builds the workload: VIR module, input bytes and expected output.
    pub fn build(self) -> Workload {
        match self {
            WorkloadId::Fft => fft::build(),
            WorkloadId::Qsort => qsort::build(),
            WorkloadId::Sha => sha::build(),
            WorkloadId::Rijndael => rijndael::build(),
            WorkloadId::Smooth => smooth::build(),
            WorkloadId::Corner => corner::build(),
            WorkloadId::Cjpeg => cjpeg::build(),
            WorkloadId::Djpeg => djpeg::build(),
            WorkloadId::Crc32 => crc32::build(),
            WorkloadId::Dijkstra => dijkstra::build(),
        }
    }
}

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully-built workload ready to run on any layer of the stack.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload this is.
    pub id: WorkloadId,
    /// The VIR program.
    pub module: Module,
    /// Input bytes consumed by the `read` syscall (may be empty).
    pub input: Vec<u8>,
    /// Golden output computed by a host-side reference implementation; any
    /// run whose output differs is a silent data corruption.
    pub expected_output: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_vir::interp::{Interpreter, RunStatus};

    #[test]
    fn all_names_roundtrip() {
        for id in WorkloadId::ALL {
            assert_eq!(WorkloadId::from_name(id.name()), Some(id));
        }
        assert_eq!(WorkloadId::from_name("nope"), None);
    }

    #[test]
    fn every_workload_matches_its_golden_model() {
        for id in WorkloadId::ALL {
            let w = id.build();
            let out = Interpreter::new(&w.module)
                .with_input(w.input.clone())
                .run()
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(out.status, RunStatus::Exited(0), "{id}: bad exit status");
            assert!(!w.expected_output.is_empty(), "{id}: empty golden output");
            assert_eq!(
                out.output, w.expected_output,
                "{id}: output mismatch vs golden model"
            );
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for id in [WorkloadId::Sha, WorkloadId::Fft] {
            let w1 = id.build();
            let w2 = id.build();
            assert_eq!(w1.input, w2.input);
            assert_eq!(w1.expected_output, w2.expected_output);
            assert_eq!(w1.module, w2.module);
        }
    }

    #[test]
    fn dynamic_sizes_are_within_simulation_budget() {
        // Keep every workload small enough for thousands of
        // microarchitectural injection runs.
        for id in WorkloadId::ALL {
            let w = id.build();
            let out = Interpreter::new(&w.module)
                .with_input(w.input.clone())
                .run()
                .unwrap();
            assert!(
                out.dyn_instrs > 10_000,
                "{id}: suspiciously tiny ({} instrs)",
                out.dyn_instrs
            );
            assert!(
                out.dyn_instrs < 2_000_000,
                "{id}: too large for injection campaigns ({} instrs)",
                out.dyn_instrs
            );
        }
    }
}
