//! The decoded-text table both cores consult before decoding a fetched
//! word. For every slot of every workload image, the table must answer
//! with `Instr::decode` of the slot's word and of each of the word's 32
//! one-bit flips (the words a text, L1i or L2 fault makes the core
//! fetch), and for any pc (inside, between or beyond the segments) and
//! any word, the lookup must equal `Instr::decode(word)`.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;
use vulnstack_compiler::{compile, CompileOpts};
use vulnstack_isa::{Instr, Isa};
use vulnstack_kernel::{memmap, SystemImage};
use vulnstack_workloads::WorkloadId;

const ISAS: [Isa; 2] = [Isa::Va32, Isa::Va64];

/// Every workload on both ISAs, plus hardened crc32 on both.
fn images() -> &'static [(String, SystemImage)] {
    static IMAGES: OnceLock<Vec<(String, SystemImage)>> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let builds = WorkloadId::ALL
            .into_iter()
            .map(|id| (id.to_string(), id.build()))
            .chain([(
                "crc32+ft".to_string(),
                vulnstack_ft::workload(WorkloadId::Crc32, true).unwrap(),
            )]);
        builds
            .flat_map(|(name, w)| {
                ISAS.map(|isa| {
                    let c = compile(&w.module, isa, &CompileOpts::default()).unwrap();
                    (
                        format!("{name}/{isa}"),
                        SystemImage::build(&c, &w.input).unwrap(),
                    )
                })
            })
            .collect()
    })
}

/// `(pc, word)` of every whole word of the image's executable segments.
fn text_words(img: &SystemImage) -> BTreeMap<u64, u32> {
    let exec = [memmap::KERNEL_BOOT, memmap::TRAP_VEC, memmap::USER_TEXT];
    img.segments
        .iter()
        .filter(|(base, _)| exec.contains(base))
        .flat_map(|(base, bytes)| {
            bytes.chunks_exact(4).enumerate().map(move |(k, c)| {
                (
                    u64::from(*base) + 4 * k as u64,
                    u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                )
            })
        })
        .collect()
}

#[test]
fn every_slot_decodes_its_word_and_each_one_bit_flip() {
    assert_eq!(images().len(), 2 * (WorkloadId::ALL.len() + 1));
    for (name, img) in images() {
        let table = img.decoded();
        // Exactly the text segments' slots, one per pc, holding the
        // image's words.
        let slots: BTreeMap<u64, u32> = table.words().collect();
        assert_eq!(slots.len(), table.words().count(), "{name}");
        assert_eq!(slots, text_words(img), "{name}");
        for (&pc, &word) in &slots {
            for flip in std::iter::once(0).chain((0..32).map(|b| 1u32 << b)) {
                let w = word ^ flip;
                assert_eq!(
                    table.decode(pc, w),
                    Instr::decode(w, img.isa),
                    "{name}: pc {pc:#x}, word {word:#010x} ^ {flip:#x}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    fn lookup_equals_decode_for_any_pc_and_word(
        which in 0usize..1024,
        place in 0u8..4,
        r in any::<u64>(),
        word in any::<u32>(),
    ) {
        let (name, img) = &images()[which % images().len()];
        let table = img.decoded();
        let slots: Vec<(u64, u32)> = table.words().collect();
        let (pc, word) = match place {
            // A slot, holding its own word or a random one.
            0 => slots[r as usize % slots.len()],
            1 => (slots[r as usize % slots.len()].0, word),
            // Anywhere in memory: mostly between the segments, and
            // misaligned three times in four.
            2 => (r % u64::from(memmap::MEM_SIZE), word),
            // Beyond memory.
            _ => (r, word),
        };
        prop_assert_eq!(
            table.decode(pc, word),
            Instr::decode(word, img.isa),
            "{}: pc {:#x}, word {:#010x}",
            name,
            pc,
            word
        );
    }
}
