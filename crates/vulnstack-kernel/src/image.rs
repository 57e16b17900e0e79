//! Bootable system images: kernel + compiled user program + input blob.

use std::sync::Arc;

use vulnstack_compiler::CompiledModule;
use vulnstack_isa::{CowMem, DecodedText, Isa};

use crate::kdata::off;
use crate::kernel::build_kernel;
use crate::memmap;

/// A complete memory image ready to load into a simulator.
#[derive(Debug, Clone)]
pub struct SystemImage {
    /// Target ISA.
    pub isa: Isa,
    /// `(address, bytes)` segments; unlisted memory is zero.
    pub segments: Vec<(u32, Vec<u8>)>,
    /// End of the loaded user text (for fetch/write protection).
    pub user_text_end: u32,
    /// Reset PC (kernel boot).
    pub reset_pc: u32,
    /// Number of input bytes loaded.
    pub input_len: u32,
    /// See [`SystemImage::decoded`].
    decoded: Arc<DecodedText>,
}

/// Image construction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// User text does not fit its region.
    TextTooLarge { words: usize },
    /// User data does not fit its region.
    DataTooLarge { bytes: usize },
    /// Input exceeds the input region.
    InputTooLarge { bytes: usize },
    /// The module was compiled with a different data base than the memory
    /// map expects.
    LayoutMismatch { expected: u32, got: u32 },
    /// Kernel assembly failed (internal bug).
    Kernel(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::TextTooLarge { words } => write!(f, "user text too large: {words} words"),
            ImageError::DataTooLarge { bytes } => write!(f, "user data too large: {bytes} bytes"),
            ImageError::InputTooLarge { bytes } => write!(f, "input too large: {bytes} bytes"),
            ImageError::LayoutMismatch { expected, got } => {
                write!(
                    f,
                    "module compiled for data base {got:#x}, expected {expected:#x}"
                )
            }
            ImageError::Kernel(e) => write!(f, "kernel assembly failed: {e}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl SystemImage {
    /// Assembles a bootable image from a compiled module and its input.
    ///
    /// The module must have been compiled with the default
    /// [`CompileOpts`](vulnstack_compiler::CompileOpts) (whose `data_base`
    /// and `stack_top` match the memory map).
    ///
    /// # Errors
    ///
    /// Returns an [`ImageError`] if a section does not fit its region.
    pub fn build(compiled: &CompiledModule, input: &[u8]) -> Result<SystemImage, ImageError> {
        if let Some(&g0) = compiled.global_addrs.first() {
            if !(memmap::USER_DATA..memmap::USER_STACK_LIMIT).contains(&g0) {
                return Err(ImageError::LayoutMismatch {
                    expected: memmap::USER_DATA,
                    got: g0,
                });
            }
        }
        let text_bytes = compiled.text_bytes();
        let text_cap = (memmap::OUTPUT_BASE - memmap::USER_TEXT) as usize;
        if text_bytes.len() > text_cap {
            return Err(ImageError::TextTooLarge {
                words: compiled.text.len(),
            });
        }
        let data_cap = (memmap::USER_STACK_LIMIT - memmap::USER_DATA) as usize;
        if compiled.data.len() > data_cap {
            return Err(ImageError::DataTooLarge {
                bytes: compiled.data.len(),
            });
        }
        if input.len() > memmap::INPUT_CAP as usize {
            return Err(ImageError::InputTooLarge { bytes: input.len() });
        }

        let kernel = build_kernel(compiled.isa).map_err(|e| ImageError::Kernel(e.to_string()))?;
        let boot_bytes: Vec<u8> = kernel.boot.iter().flat_map(|w| w.to_le_bytes()).collect();
        let trap_bytes: Vec<u8> = kernel.trap.iter().flat_map(|w| w.to_le_bytes()).collect();

        // Kernel data page: INLEN and BRK are the only nonzero words.
        let mut kdata = vec![0u8; 64];
        kdata[off::INLEN as usize..off::INLEN as usize + 4]
            .copy_from_slice(&(input.len() as u32).to_le_bytes());
        let brk = memmap::USER_DATA + compiled.data_size;
        kdata[off::BRK as usize..off::BRK as usize + 4].copy_from_slice(&brk.to_le_bytes());

        let user_text_end = memmap::USER_TEXT + text_bytes.len() as u32;
        // User text first, then the trap vector, then boot: a lookup
        // scans the segments in order, and runs execute them in about
        // that order of frequency.
        let decoded = Arc::new(DecodedText::new(
            compiled.isa,
            [
                (memmap::USER_TEXT, text_bytes.as_slice()),
                (memmap::TRAP_VEC, trap_bytes.as_slice()),
                (memmap::KERNEL_BOOT, boot_bytes.as_slice()),
            ],
        ));
        let mut segments = vec![
            (memmap::KERNEL_BOOT, boot_bytes),
            (memmap::TRAP_VEC, trap_bytes),
            (memmap::KERNEL_DATA, kdata),
            (memmap::USER_TEXT, text_bytes),
        ];
        if !compiled.data.is_empty() {
            segments.push((memmap::USER_DATA, compiled.data.clone()));
        }
        if !input.is_empty() {
            segments.push((memmap::INPUT_BASE, input.to_vec()));
        }

        Ok(SystemImage {
            isa: compiled.isa,
            segments,
            user_text_end,
            reset_pc: memmap::KERNEL_BOOT,
            input_len: input.len() as u32,
            decoded,
        })
    }

    /// The decode of every word of the executable segments (user text,
    /// trap vector, kernel boot), built with the image and shared by
    /// every core built from it.
    pub fn decoded(&self) -> &Arc<DecodedText> {
        &self.decoded
    }

    /// A fresh [`memmap::MEM_SIZE`]-byte memory holding the image: only
    /// the pages its segments cover hold storage.
    pub fn memory(&self) -> CowMem {
        let mut mem = CowMem::new(memmap::MEM_SIZE as usize);
        for (addr, bytes) in &self.segments {
            mem.write(*addr as usize, bytes);
        }
        mem.share();
        mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_compiler::{compile, CompileOpts};
    use vulnstack_vir::ModuleBuilder;

    fn tiny_compiled(isa: Isa) -> CompiledModule {
        let mut mb = ModuleBuilder::new("t");
        let _g = mb.global_words("x", &[7]);
        let mut f = mb.function("main", 0);
        f.sys_exit(0);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        compile(&m, isa, &CompileOpts::default()).unwrap()
    }

    #[test]
    fn image_builds_with_expected_segments() {
        for isa in [Isa::Va32, Isa::Va64] {
            let c = tiny_compiled(isa);
            let img = SystemImage::build(&c, b"hello").unwrap();
            assert_eq!(img.reset_pc, memmap::KERNEL_BOOT);
            assert_eq!(img.input_len, 5);
            assert!(img.user_text_end > memmap::USER_TEXT);
            // Segments are inside memory and non-overlapping.
            let mut spans: Vec<(u32, u32)> = img
                .segments
                .iter()
                .map(|(a, b)| (*a, *a + b.len() as u32))
                .collect();
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {spans:?}");
            }
            assert!(spans.last().unwrap().1 <= memmap::MEM_SIZE);
        }
    }

    #[test]
    fn memory_places_input_and_kdata() {
        let c = tiny_compiled(Isa::Va64);
        let img = SystemImage::build(&c, b"abc").unwrap();
        let mem = img.memory();
        assert_eq!(mem.len(), memmap::MEM_SIZE as usize);
        assert_eq!(mem.to_vec(memmap::INPUT_BASE as usize, 3), b"abc");
        let inlen = mem.read_le((memmap::KERNEL_DATA + off::INLEN as u32) as usize, 4);
        assert_eq!(inlen, 3);
        let brk = mem.read_le((memmap::KERNEL_DATA + off::BRK as u32) as usize, 4);
        assert!(brk >= memmap::USER_DATA as u64);
        // Only the pages the segments cover hold storage.
        assert!(mem.resident_pages() < mem.len() / vulnstack_isa::mem::PAGE / 4);
    }

    #[test]
    fn mismatched_layout_is_rejected() {
        let mut mb = ModuleBuilder::new("t");
        let _g = mb.global_words("x", &[7]);
        let mut f = mb.function("main", 0);
        f.sys_exit(0);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let bad = compile(
            &m,
            Isa::Va64,
            &CompileOpts {
                data_base: 0x0000_2000,
                stack_top: memmap::USER_STACK_TOP,
            },
        )
        .unwrap();
        assert!(matches!(
            SystemImage::build(&bad, &[]),
            Err(ImageError::LayoutMismatch { .. })
        ));
    }
}
