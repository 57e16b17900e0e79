//! Write-back cache hierarchy with physical data storage and single-bit
//! fault injection.
//!
//! Lines store real bytes, so an injected bit flip *physically* propagates:
//! a dirty corrupted line writes its corruption back to the next level, a
//! clean corrupted line silently re-reads correct data on the next fill
//! (hardware masking), and a corrupted output byte that is never touched
//! again is picked up by the DMA drain (the paper's ESC class).
//!
//! Alongside the data, the hierarchy tracks which *copies* of one chosen
//! byte are corrupted ([`MemTaint`]), so the campaign layer can classify
//! the first architectural consumption of the fault (WD vs WI/WOI vs ESC).
//!
//! Each cache's line array, like main memory, is stored in copy-on-write
//! pages ([`CowPages`]) of whole sets. A checkpoint of the hierarchy
//! therefore copies page pointers, not the arrays (2.7 MB of lines on
//! the A72-like core), a restored core copies only the pages it then
//! writes, and an access borrows one page for all the ways of its set.

use vulnstack_isa::{CowMem, CowPages};
use vulnstack_kernel::SystemImage;

use crate::config::{CacheConfig, CoreConfig};

/// Fixed line size across the hierarchy.
pub const LINE: u32 = 64;

/// A cache level (or memory) in the hierarchy, used for taint tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// L1 instruction cache.
    L1i,
    /// L1 data cache.
    L1d,
    /// Unified L2.
    L2,
    /// Main memory.
    Mem,
}

impl Level {
    fn idx(self) -> usize {
        match self {
            Level::L1i => 0,
            Level::L1d => 1,
            Level::L2 => 2,
            Level::Mem => 3,
        }
    }
}

/// Which copies of the corrupted byte are currently corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTaint {
    /// The corrupted byte's physical address.
    pub addr: u32,
    /// Bit index (0..8) flipped within that byte.
    pub bit_in_byte: u8,
    at: [bool; 4],
}

impl MemTaint {
    /// True if any corrupted copy still exists anywhere.
    pub fn live(&self) -> bool {
        self.at.iter().any(|&b| b)
    }

    /// True if the copy at `level` is corrupted.
    pub fn at(&self, level: Level) -> bool {
        self.at[level.idx()]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheLine {
    valid: bool,
    dirty: bool,
    tag: u32,
    last_use: u64,
    data: [u8; LINE as usize],
}

impl CacheLine {
    const INVALID: CacheLine = CacheLine {
        valid: false,
        dirty: false,
        tag: 0,
        last_use: 0,
        data: [0; LINE as usize],
    };
}

impl Default for CacheLine {
    fn default() -> Self {
        CacheLine::INVALID
    }
}

/// Lines per copy-on-write page of a cache array: a multiple of every
/// model's associativity (3, 4 and 16 ways), so each set lies within one
/// page and an access borrows one page for all its ways.
const PAGE_LINES: usize = 48;

/// What an absent (never written) page reads as.
static INVALID_PAGE: [CacheLine; PAGE_LINES] = [CacheLine::INVALID; PAGE_LINES];

#[derive(Debug, Clone, PartialEq, Eq)]
struct Cache {
    sets: u32,
    ways: u32,
    latency: u32,
    /// Set-major, then way. The last page may extend past the array;
    /// those lines are never addressed and stay invalid.
    lines: CowPages<CacheLine, PAGE_LINES>,
}

impl Cache {
    fn new(cfg: &CacheConfig) -> Cache {
        assert_eq!(cfg.line, LINE, "hierarchy assumes 64-byte lines");
        assert!(
            PAGE_LINES.is_multiple_of(cfg.ways as usize),
            "a cache page must hold whole sets"
        );
        let sets = cfg.sets();
        Cache {
            sets,
            ways: cfg.ways,
            latency: cfg.latency,
            lines: CowPages::new(((sets * cfg.ways) as usize).div_ceil(PAGE_LINES)),
        }
    }

    fn set_of(&self, addr: u32) -> u32 {
        (addr / LINE) & (self.sets - 1)
    }

    fn tag_of(&self, addr: u32) -> u32 {
        addr / LINE / self.sets
    }

    fn line_addr(&self, set: u32, tag: u32) -> u32 {
        (tag * self.sets + set) * LINE
    }

    /// The page holding `set` and the set's first line within it.
    fn set_at(&self, set: u32) -> (usize, usize) {
        let first = (set * self.ways) as usize;
        (first / PAGE_LINES, first % PAGE_LINES)
    }

    /// The ways of `set`.
    fn set_lines(&self, set: u32) -> &[CacheLine] {
        let (page, off) = self.set_at(set);
        let lines = self.lines.page(page).unwrap_or(&INVALID_PAGE);
        &lines[off..off + self.ways as usize]
    }

    /// The ways of `set`, writable (copying a shared page first).
    fn set_lines_mut(&mut self, set: u32) -> &mut [CacheLine] {
        let (page, off) = self.set_at(set);
        let ways = self.ways as usize;
        &mut self.lines.page_mut(page)[off..off + ways]
    }

    fn lookup(&self, addr: u32) -> Option<u32> {
        let tag = self.tag_of(addr);
        let way = self
            .set_lines(self.set_of(addr))
            .iter()
            .position(|l| l.valid && l.tag == tag)?;
        Some(way as u32)
    }

    fn victim_way(&self, set: u32) -> u32 {
        let lines = self.set_lines(set);
        let way = lines.iter().position(|l| !l.valid).unwrap_or_else(|| {
            let lru = lines.iter().enumerate().min_by_key(|(_, l)| l.last_use);
            lru.expect("ways >= 1").0
        });
        way as u32
    }
}

/// Result of a single-bit cache flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipResult {
    /// True if the targeted line was valid (a flip in an invalid line is
    /// immediately masked).
    pub valid: bool,
    /// Physical address of the corrupted byte (valid lines only).
    pub addr: Option<u32>,
    /// Bit index within the corrupted byte.
    pub bit_in_byte: u8,
    /// The 32-bit word containing the corrupted bit *after* the flip, and
    /// the bit index within it — used for WI/WOI classification of text
    /// corruption.
    pub word_after: Option<(u32, u32)>,
}

/// The full memory system: L1i + L1d + unified L2 + flat memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSystem {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    mem: CowMem,
    mem_latency: u32,
    tick: u64,
    taint: Option<MemTaint>,
}

impl MemSystem {
    /// Builds the hierarchy for `cfg` with `image` loaded into memory.
    pub fn new(cfg: &CoreConfig, image: &SystemImage) -> MemSystem {
        MemSystem {
            l1i: Cache::new(&cfg.l1i),
            l1d: Cache::new(&cfg.l1d),
            l2: Cache::new(&cfg.l2),
            mem: image.memory(),
            mem_latency: cfg.mem_latency,
            tick: 0,
            taint: None,
        }
    }

    /// Makes the pages of the three cache arrays and of main memory
    /// shareable, so that a clone of this hierarchy copies page pointers
    /// (see [`CowPages::share`]).
    pub(crate) fn share(&mut self) {
        self.l1i.lines.share();
        self.l1d.lines.share();
        self.l2.lines.share();
        self.mem.share();
    }

    /// The current taint state, if a fault has been injected.
    pub fn taint(&self) -> Option<&MemTaint> {
        self.taint.as_ref()
    }

    /// True if this (possibly faulty) memory system is *behaviorally
    /// identical* to `golden`: every future access returns the same data
    /// with the same latency in both.
    ///
    /// This is the memory half of the early-termination convergence
    /// check. It compares the behavioral state — the interleaved LRU
    /// clock (`tick`), all three cache arrays (valid/dirty/tag/`last_use`/
    /// data), and main memory — and deliberately *excludes* a **dead**
    /// taint record (`!live()`): once every level's taint flag is clear
    /// no corrupted copy exists anywhere, and taint can only spread from
    /// an existing live copy, so a dead record is inert bookkeeping.
    ///
    /// A **live** taint is an immediate `false`: some copy of the flipped
    /// line still differs from golden (or could be re-exposed by an
    /// eviction), so behavioral identity cannot hold.
    ///
    /// The arrays and memory compare page by page ([`CowPages`]'
    /// equality): a page the faulty run shares with `golden` (neither
    /// run rewrote it since the snapshot it was restored from) is equal
    /// by pointer, so only rewritten pages are compared element by
    /// element.
    pub fn converged_with(&self, golden: &MemSystem) -> bool {
        if self.taint.as_ref().is_some_and(|t| t.live()) {
            return false;
        }
        self.tick == golden.tick
            && self.l1i == golden.l1i
            && self.l1d == golden.l1d
            && self.l2 == golden.l2
            && self.mem == golden.mem
    }

    fn taint_line_overlap(taint: &Option<MemTaint>, line_addr: u32) -> bool {
        taint.is_some_and(|t| t.addr / LINE == line_addr / LINE)
    }

    fn set_taint(&mut self, level: Level, line_addr: u32, value: bool) {
        if let Some(t) = &mut self.taint {
            if t.addr / LINE == line_addr / LINE {
                t.at[level.idx()] = value;
            }
        }
    }

    /// Reads a whole line from L2, filling from memory on a miss.
    /// Returns `(data, latency, copy_is_tainted)`.
    fn l2_get_line(&mut self, line_addr: u32) -> ([u8; LINE as usize], u32, bool) {
        self.tick += 1;
        if let Some(w) = self.l2.lookup(line_addr) {
            let set = self.l2.set_of(line_addr);
            let l = &mut self.l2.set_lines_mut(set)[w as usize];
            l.last_use = self.tick;
            let data = l.data;
            let tainted = self
                .taint
                .is_some_and(|t| t.at(Level::L2) && t.addr / LINE == line_addr / LINE);
            return (data, self.l2.latency, tainted);
        }
        // Fill from memory.
        let mut data = [0u8; LINE as usize];
        self.mem.read(line_addr as usize, &mut data);
        let from_mem_tainted = self
            .taint
            .is_some_and(|t| t.at(Level::Mem) && t.addr / LINE == line_addr / LINE);
        self.install_l2(line_addr, data, false, from_mem_tainted);
        let tainted = from_mem_tainted;
        (data, self.l2.latency + self.mem_latency, tainted)
    }

    fn install_l2(
        &mut self,
        line_addr: u32,
        data: [u8; LINE as usize],
        dirty: bool,
        tainted: bool,
    ) {
        self.tick += 1;
        let set = self.l2.set_of(line_addr);
        let tag = self.l2.tag_of(line_addr);
        let way = self
            .l2
            .lookup(line_addr)
            .unwrap_or_else(|| self.l2.victim_way(set));
        let tick = self.tick;
        let l = &mut self.l2.set_lines_mut(set)[way as usize];
        // Re-installing over an existing copy only happens on a writeback
        // (dirty=true); plain fills always target an absent line.
        let keep_dirty = l.valid && l.tag == tag && l.dirty;
        let victim = std::mem::replace(
            l,
            CacheLine {
                valid: true,
                dirty: dirty || keep_dirty,
                tag,
                last_use: tick,
                data,
            },
        );
        if victim.valid {
            let vaddr = self.l2.line_addr(set, victim.tag);
            if vaddr != line_addr {
                let vtainted = Self::taint_line_overlap(&self.taint, vaddr)
                    && self.taint.is_some_and(|t| t.at(Level::L2));
                if victim.dirty {
                    self.mem.write(vaddr as usize, &victim.data);
                    self.set_taint(Level::Mem, vaddr, vtainted);
                }
                // Corrupted copy dropped (or moved); either way it leaves L2.
                self.set_taint(Level::L2, vaddr, false);
            }
        }
        self.set_taint(Level::L2, line_addr, tainted);
    }

    /// Pulls a line into an L1 cache, returning `(way, latency)`.
    fn l1_fill(&mut self, which: Level, addr: u32) -> (u32, u32) {
        let line_addr = addr & !(LINE - 1);
        let (data, l2lat, tainted) = self.l2_get_line(line_addr);
        self.tick += 1;
        let tick = self.tick;
        let c = self.cache_mut(which);
        let set = c.set_of(line_addr);
        let way = c.victim_way(set);
        let line = CacheLine {
            valid: true,
            dirty: false,
            tag: c.tag_of(line_addr),
            last_use: tick,
            data,
        };
        let victim = std::mem::replace(&mut c.set_lines_mut(set)[way as usize], line);
        let (vaddr, l1lat) = (c.line_addr(set, victim.tag), c.latency);
        if victim.valid {
            let vtainted = self
                .taint
                .is_some_and(|t| t.at(which) && t.addr / LINE == vaddr / LINE);
            // Clear this level's taint for the victim: a clean drop masks
            // the fault, a writeback moves it to L2.
            self.set_taint(which, vaddr, false);
            if victim.dirty {
                self.install_l2(vaddr, victim.data, true, vtainted);
            }
        }
        self.set_taint(which, line_addr, tainted);
        (way, l1lat + l2lat)
    }

    /// Looks `addr` up in an L1 cache, filling its line on a miss, and
    /// marks the line used. Returns the line and the access latency.
    #[inline]
    fn l1_access(&mut self, which: Level, addr: u32) -> (&mut CacheLine, u32) {
        self.tick += 1;
        let (way, lat) = match self.cache(which).lookup(addr) {
            Some(w) => (w, self.cache(which).latency),
            None => self.l1_fill(which, addr),
        };
        let tick = self.tick;
        let c = self.cache_mut(which);
        let set = c.set_of(addr);
        let l = &mut c.set_lines_mut(set)[way as usize];
        l.last_use = tick;
        (l, lat)
    }

    /// Instruction fetch of one 32-bit word. Returns
    /// `(latency, word, served_from_tainted_copy)`.
    pub fn fetch_word(&mut self, addr: u32) -> (u32, u32, bool) {
        let (l, lat) = self.l1_access(Level::L1i, addr);
        let word = read_le(&l.data, addr, 4) as u32;
        let tainted = self.taint.is_some_and(|t| {
            t.at(Level::L1i) && t.addr / LINE == addr / LINE && t.addr >= addr && t.addr < addr + 4
        });
        (lat.max(1), word, tainted)
    }

    /// Data load of `len` bytes (little-endian). Returns
    /// `(latency, value, served_from_tainted_copy)`.
    pub fn load(&mut self, addr: u32, len: u32) -> (u32, u64, bool) {
        debug_assert!(
            len <= 8 && (addr & (LINE - 1)) + len <= LINE,
            "no line-crossing loads"
        );
        let (l, lat) = self.l1_access(Level::L1d, addr);
        let v = read_le(&l.data, addr, len);
        let tainted = self.taint.is_some_and(|t| {
            t.at(Level::L1d)
                && t.addr / LINE == addr / LINE
                && t.addr >= addr
                && t.addr < addr + len
        });
        (lat, v, tainted)
    }

    /// Data store of `len` bytes. Write-allocate, write-back.
    pub fn store(&mut self, addr: u32, len: u32, value: u64) -> u32 {
        debug_assert!(
            len <= 8 && (addr & (LINE - 1)) + len <= LINE,
            "no line-crossing stores"
        );
        let (l, lat) = self.l1_access(Level::L1d, addr);
        l.dirty = true;
        let off = (addr & (LINE - 1)) as usize;
        l.data[off..off + len as usize].copy_from_slice(&value.to_le_bytes()[..len as usize]);
        // A store overwriting the corrupted byte repairs the L1d copy.
        if let Some(t) = &mut self.taint {
            if t.addr >= addr && t.addr < addr + len {
                t.at[Level::L1d.idx()] = false;
            }
        }
        lat
    }

    /// Coherent read without state change: L1d, then L2, then memory.
    /// Returns `(value, read_from_tainted_copy)`. This is the DMA-drain /
    /// debugger view.
    pub fn peek(&self, addr: u32, len: u32) -> (u64, bool) {
        let tainted_at = |level: Level| {
            self.taint.is_some_and(|t| {
                t.at(level)
                    && (level == Level::Mem || t.addr / LINE == addr / LINE)
                    && t.addr >= addr
                    && t.addr < addr + len
            })
        };
        for level in [Level::L1d, Level::L2] {
            let c = self.cache(level);
            if let Some(w) = c.lookup(addr) {
                let l = &c.set_lines(c.set_of(addr))[w as usize];
                return (read_le(&l.data, addr, len), tainted_at(level));
            }
        }
        (
            self.mem.read_le(addr as usize, len as usize),
            tainted_at(Level::Mem),
        )
    }

    fn cache(&self, level: Level) -> &Cache {
        match level {
            Level::L1i => &self.l1i,
            Level::L1d => &self.l1d,
            Level::L2 => &self.l2,
            Level::Mem => panic!("memory is not an injection target"),
        }
    }

    fn cache_mut(&mut self, level: Level) -> &mut Cache {
        match level {
            Level::L1i => &mut self.l1i,
            Level::L1d => &mut self.l1d,
            Level::L2 => &mut self.l2,
            Level::Mem => panic!("memory is not an injection target"),
        }
    }

    /// Flips one bit of a cache's data array, addressed as a flat bit
    /// index over the whole array (set-major, then way, then line bits).
    pub fn flip_bit(&mut self, level: Level, bit_index: u64) -> FlipResult {
        let c = self.cache_mut(level);
        let bits_per_line = (LINE * 8) as u64;
        let line_idx = (bit_index / bits_per_line) as u32;
        let set = line_idx / c.ways;
        let way = line_idx % c.ways;
        let bit_in_line = bit_index % bits_per_line;
        let byte = (bit_in_line / 8) as usize;
        let bit = (bit_in_line % 8) as u8;
        let l = &mut c.set_lines_mut(set)[way as usize];
        l.data[byte] ^= 1 << bit;
        if !l.valid {
            return FlipResult {
                valid: false,
                addr: None,
                bit_in_byte: bit,
                word_after: None,
            };
        }
        // The 32-bit aligned word containing the flipped bit (for WI/WOI
        // classification when the byte holds an instruction).
        let word = read_le(&l.data, (byte & !3) as u32, 4) as u32;
        let tag = l.tag;
        let addr = c.line_addr(set, tag) + byte as u32;
        let bit_in_word = ((byte & 3) * 8) as u32 + bit as u32;
        let mut at = [false; 4];
        at[level.idx()] = true;
        self.taint = Some(MemTaint {
            addr,
            bit_in_byte: bit,
            at,
        });
        FlipResult {
            valid: true,
            addr: Some(addr),
            bit_in_byte: bit,
            word_after: Some((word, bit_in_word)),
        }
    }

    /// Flips the bit at a specific *address* in `level`'s array, if that
    /// address is currently cached there (targeted injection for tests and
    /// case studies). Returns the flip result, or `None` on a cache miss.
    pub fn flip_addr_bit(&mut self, level: Level, addr: u32, bit: u8) -> Option<FlipResult> {
        let c = self.cache(level);
        let way = c.lookup(addr)?;
        let set = c.set_of(addr);
        let line_idx = (set * c.ways + way) as u64;
        let bit_index =
            line_idx * (LINE as u64 * 8) + (addr & (LINE - 1)) as u64 * 8 + (bit & 7) as u64;
        Some(self.flip_bit(level, bit_index))
    }

    /// Total data-array bits of a level (the sampling population).
    pub fn level_bits(&self, level: Level) -> u64 {
        let c = self.cache(level);
        (c.sets * c.ways) as u64 * (LINE * 8) as u64
    }
}

/// The little-endian value of the `len` bytes of a line's `data` from
/// `addr`'s offset in the line on.
fn read_le(data: &[u8; LINE as usize], addr: u32, len: u32) -> u64 {
    let off = (addr & (LINE - 1)) as usize;
    data[off..off + len as usize]
        .iter()
        .rev()
        .fold(0, |v, &b| (v << 8) | b as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreModel;
    use vulnstack_compiler::{compile, CompileOpts};
    use vulnstack_kernel::memmap;
    use vulnstack_vir::ModuleBuilder;

    fn mk() -> MemSystem {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        f.sys_exit(0);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let c = compile(&m, vulnstack_isa::Isa::Va32, &CompileOpts::default()).unwrap();
        let img = SystemImage::build(&c, &[]).unwrap();
        MemSystem::new(&CoreModel::A9.config(), &img)
    }

    const A: u32 = memmap::USER_DATA;

    #[test]
    fn store_then_load_roundtrips() {
        let mut ms = mk();
        ms.store(A, 4, 0xDEADBEEF);
        let (_, v, t) = ms.load(A, 4);
        assert_eq!(v, 0xDEADBEEF);
        assert!(!t);
        ms.store(A + 7, 1, 0x55);
        let (_, v, _) = ms.load(A + 7, 1);
        assert_eq!(v, 0x55);
    }

    #[test]
    fn misses_cost_more_than_hits() {
        let mut ms = mk();
        let (lat_miss, _, _) = ms.load(A, 4);
        let (lat_hit, _, _) = ms.load(A, 4);
        assert!(lat_miss > lat_hit, "{lat_miss} vs {lat_hit}");
    }

    #[test]
    fn dirty_eviction_writes_back_through_l2() {
        let mut ms = mk();
        ms.store(A, 4, 0x1234_5678);
        // Evict the line by touching many lines mapping to the same set.
        // L1d A9: 32K/4way/64B = 128 sets; stride = 128*64 = 8192.
        for i in 1..=8u32 {
            ms.load(A + i * 8192, 4);
        }
        // The line is gone from L1d but peek must still find the data
        // coherently (in L2).
        let (v, _) = ms.peek(A, 4);
        assert_eq!(v, 0x1234_5678);
        // And a re-load still sees it.
        let (_, v, _) = ms.load(A, 4);
        assert_eq!(v, 0x1234_5678);
    }

    #[test]
    fn flip_in_invalid_line_is_masked() {
        let mut ms = mk();
        // Nothing loaded into L1d yet: every line invalid.
        let r = ms.flip_bit(Level::L1d, 12345);
        assert!(!r.valid);
        assert!(r.addr.is_none());
    }

    #[test]
    fn flip_in_valid_line_corrupts_reads() {
        let mut ms = mk();
        ms.store(A, 4, 0);
        // Find the line we just touched: set index of A.
        let set = ms.l1d.set_of(A);
        let way = ms.l1d.lookup(A).unwrap();
        let line_idx = (set * ms.l1d.ways + way) as u64;
        let byte_off = (A & (LINE - 1)) as u64;
        let bit_index = line_idx * (LINE as u64 * 8) + byte_off * 8 + 3;
        let r = ms.flip_bit(Level::L1d, bit_index);
        assert!(r.valid);
        assert_eq!(r.addr, Some(A));
        let (_, v, tainted) = ms.load(A, 4);
        assert_eq!(v, 8); // bit 3 set
        assert!(tainted);
    }

    #[test]
    fn store_over_fault_clears_taint() {
        let mut ms = mk();
        ms.store(A, 4, 0);
        let set = ms.l1d.set_of(A);
        let way = ms.l1d.lookup(A).unwrap();
        let line_idx = (set * ms.l1d.ways + way) as u64;
        let bit_index = line_idx * (LINE as u64 * 8) + (A & (LINE - 1)) as u64 * 8;
        ms.flip_bit(Level::L1d, bit_index);
        ms.store(A, 4, 0xAA);
        let (_, v, tainted) = ms.load(A, 4);
        assert_eq!(v, 0xAA);
        assert!(!tainted);
        assert!(!ms.taint().unwrap().live());
    }

    #[test]
    fn clean_eviction_masks_the_fault() {
        let mut ms = mk();
        // Load (clean) a line, corrupt it in L1d, then evict it.
        let _ = ms.load(A, 4);
        let set = ms.l1d.set_of(A);
        let way = ms.l1d.lookup(A).unwrap();
        let line_idx = (set * ms.l1d.ways + way) as u64;
        let bit_index = line_idx * (LINE as u64 * 8) + (A & (LINE - 1)) as u64 * 8 + 1;
        ms.flip_bit(Level::L1d, bit_index);
        for i in 1..=8u32 {
            ms.load(A + i * 8192, 4);
        }
        // The clean corrupted copy was dropped; a fresh load returns the
        // correct value.
        let (_, v, tainted) = ms.load(A, 4);
        assert_eq!(v, 0);
        assert!(!tainted);
        assert!(!ms.taint().unwrap().live());
    }

    #[test]
    fn dirty_corrupted_line_propagates_to_l2_and_peek_sees_it() {
        let mut ms = mk();
        ms.store(A, 4, 0x10);
        let set = ms.l1d.set_of(A);
        let way = ms.l1d.lookup(A).unwrap();
        let line_idx = (set * ms.l1d.ways + way) as u64;
        let bit_index = line_idx * (LINE as u64 * 8) + (A & (LINE - 1)) as u64 * 8;
        ms.flip_bit(Level::L1d, bit_index);
        // Evict (dirty) -> corruption moves to L2.
        for i in 1..=8u32 {
            ms.load(A + i * 8192, 4);
        }
        let t = ms.taint().unwrap();
        assert!(t.at(Level::L2), "corruption should live in L2 now");
        assert!(!t.at(Level::L1d));
        let (v, tainted) = ms.peek(A, 4);
        assert_eq!(v, 0x11);
        assert!(tainted, "the DMA view reads the corrupted copy (ESC path)");
    }

    #[test]
    fn fetch_path_reads_text() {
        let mut ms = mk();
        let (lat, word, tainted) = ms.fetch_word(memmap::USER_TEXT);
        assert!(lat >= 1);
        assert!(!tainted);
        // _start begins with MOVZ sp — check it decodes.
        assert!(vulnstack_isa::Instr::decode(word, vulnstack_isa::Isa::Va32).is_ok());
        let (lat2, word2, _) = ms.fetch_word(memmap::USER_TEXT);
        assert_eq!(word, word2);
        assert!(lat2 <= lat);
    }

    #[test]
    fn level_bits_match_config() {
        let ms = mk();
        let cfg = CoreModel::A9.config();
        assert_eq!(ms.level_bits(Level::L1d), cfg.l1d.data_bits());
        assert_eq!(ms.level_bits(Level::L2), cfg.l2.data_bits());
    }
}
