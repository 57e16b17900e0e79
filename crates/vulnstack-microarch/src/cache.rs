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

use vulnstack_isa::CowMem;
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

#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheLine {
    valid: bool,
    dirty: bool,
    tag: u32,
    last_use: u64,
    data: [u8; LINE as usize],
}

impl Default for CacheLine {
    fn default() -> Self {
        CacheLine {
            valid: false,
            dirty: false,
            tag: 0,
            last_use: 0,
            data: [0; LINE as usize],
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Cache {
    sets: u32,
    ways: u32,
    latency: u32,
    lines: Vec<CacheLine>,
}

impl Cache {
    fn new(cfg: &CacheConfig) -> Cache {
        assert_eq!(cfg.line, LINE, "hierarchy assumes 64-byte lines");
        let sets = cfg.sets();
        Cache {
            sets,
            ways: cfg.ways,
            latency: cfg.latency,
            lines: vec![CacheLine::default(); (sets * cfg.ways) as usize],
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

    fn slot(&self, set: u32, way: u32) -> usize {
        (set * self.ways + way) as usize
    }

    fn lookup(&self, addr: u32) -> Option<u32> {
        let (set, tag) = (self.set_of(addr), self.tag_of(addr));
        (0..self.ways).find(|&w| {
            let l = &self.lines[self.slot(set, w)];
            l.valid && l.tag == tag
        })
    }

    fn victim_way(&self, set: u32) -> u32 {
        for w in 0..self.ways {
            if !self.lines[self.slot(set, w)].valid {
                return w;
            }
        }
        (0..self.ways)
            .min_by_key(|&w| self.lines[self.slot(set, w)].last_use)
            .expect("ways >= 1")
    }
}

/// Aggregate hierarchy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1i hits / misses.
    pub l1i_hits: u64,
    /// L1i misses.
    pub l1i_misses: u64,
    /// L1d hits.
    pub l1d_hits: u64,
    /// L1d misses.
    pub l1d_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
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
    /// Aggregate statistics.
    pub stats: MemStats,
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
            stats: MemStats::default(),
        }
    }

    /// Makes main memory's pages shareable, so that a clone of this
    /// hierarchy copies page pointers (see [`CowMem::share`]).
    pub(crate) fn share_memory(&mut self) {
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
    /// data), and main memory (`CowMem::eq` compares contents and
    /// short-circuits on shared pages) — and deliberately *excludes* two
    /// observer-only fields:
    ///
    /// * `stats` — hit/miss counters are never read by the simulation, so
    ///   divergent counts cannot change future behavior;
    /// * a **dead** taint record (`!live()`) — once every level's taint
    ///   flag is clear no corrupted copy exists anywhere, and taint can
    ///   only spread from an existing live copy, so a dead record is
    ///   inert bookkeeping.
    ///
    /// A **live** taint is an immediate `false`: some copy of the flipped
    /// line still differs from golden (or could be re-exposed by an
    /// eviction), so behavioral identity cannot hold.
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
            self.stats.l2_hits += 1;
            let set = self.l2.set_of(line_addr);
            let slot = self.l2.slot(set, w);
            self.l2.lines[slot].last_use = self.tick;
            let data = self.l2.lines[slot].data;
            let tainted = self
                .taint
                .is_some_and(|t| t.at(Level::L2) && t.addr / LINE == line_addr / LINE);
            return (data, self.l2.latency, tainted);
        }
        self.stats.l2_misses += 1;
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
        let victim_addr = {
            let l = &self.l2.lines[self.l2.slot(set, way)];
            if l.valid {
                Some((self.l2.line_addr(set, l.tag), l.dirty))
            } else {
                None
            }
        };
        if let Some((vaddr, vdirty)) = victim_addr {
            if vaddr != line_addr {
                let vtainted = Self::taint_line_overlap(&self.taint, vaddr)
                    && self.taint.is_some_and(|t| t.at(Level::L2));
                if vdirty {
                    self.stats.writebacks += 1;
                    let vdata = self.l2.lines[self.l2.slot(set, way)].data;
                    self.mem.write(vaddr as usize, &vdata);
                    self.set_taint(Level::Mem, vaddr, vtainted);
                }
                // Corrupted copy dropped (or moved); either way it leaves L2.
                self.set_taint(Level::L2, vaddr, false);
            }
        }
        let slot = self.l2.slot(set, way);
        let tick = self.tick;
        let l = &mut self.l2.lines[slot];
        // Re-installing over an existing copy only happens on a writeback
        // (dirty=true); plain fills always target an absent line.
        let keep_dirty = l.valid && l.tag == tag && l.dirty;
        l.valid = true;
        l.tag = tag;
        l.dirty = dirty || keep_dirty;
        l.last_use = tick;
        l.data = data;
        self.set_taint(Level::L2, line_addr, tainted);
    }

    /// Pulls a line into an L1 cache, returning `(way, latency)`.
    fn l1_fill(&mut self, which: Level, addr: u32) -> (u32, u32) {
        let line_addr = addr & !(LINE - 1);
        let (data, l2lat, tainted) = self.l2_get_line(line_addr);
        self.tick += 1;
        let tick = self.tick;
        let taint_snapshot = self.taint;
        let c = match which {
            Level::L1i => &mut self.l1i,
            Level::L1d => &mut self.l1d,
            _ => unreachable!(),
        };
        let set = c.set_of(line_addr);
        let way = c.victim_way(set);
        let slot = c.slot(set, way);
        // Evict the victim.
        let mut wb: Option<(u32, [u8; LINE as usize], bool)> = None;
        {
            let l = &c.lines[slot];
            if l.valid {
                let vaddr = c.line_addr(set, l.tag);
                let vtainted =
                    taint_snapshot.is_some_and(|t| t.at(which) && t.addr / LINE == vaddr / LINE);
                if l.dirty {
                    wb = Some((vaddr, l.data, vtainted));
                }
                // Clear this level's taint for the victim: a clean drop
                // masks the fault, a writeback moves it to L2 (below).
                if let Some(t) = &mut self.taint {
                    if t.addr / LINE == vaddr / LINE {
                        t.at[which.idx()] = false;
                    }
                }
            }
        }
        // Re-borrow after taint mutation.
        let c = match which {
            Level::L1i => &mut self.l1i,
            Level::L1d => &mut self.l1d,
            _ => unreachable!(),
        };
        let slot = c.slot(set, way);
        let new_tag = c.tag_of(line_addr);
        let l1lat = c.latency;
        let l = &mut c.lines[slot];
        l.valid = true;
        l.dirty = false;
        l.tag = new_tag;
        l.last_use = tick;
        l.data = data;
        self.set_taint(which, line_addr, tainted);
        if let Some((vaddr, vdata, vtainted)) = wb {
            self.stats.writebacks += 1;
            self.install_l2(vaddr, vdata, true, vtainted);
        }
        (way, l1lat + l2lat)
    }

    /// Instruction fetch of one 32-bit word. Returns
    /// `(latency, word, served_from_tainted_copy)`.
    pub fn fetch_word(&mut self, addr: u32) -> (u32, u32, bool) {
        self.tick += 1;
        let line_addr = addr & !(LINE - 1);
        let (way, mut lat) = match self.l1i.lookup(addr) {
            Some(w) => {
                self.stats.l1i_hits += 1;
                (w, self.l1i.latency)
            }
            None => {
                self.stats.l1i_misses += 1;
                self.l1_fill(Level::L1i, addr)
            }
        };
        let set = self.l1i.set_of(addr);
        let slot = self.l1i.slot(set, way);
        let tick = self.tick;
        self.l1i.lines[slot].last_use = tick;
        let off = (addr & (LINE - 1)) as usize;
        let d = &self.l1i.lines[slot].data;
        let word = u32::from_le_bytes([d[off], d[off + 1], d[off + 2], d[off + 3]]);
        let tainted = self.taint.is_some_and(|t| {
            t.at(Level::L1i)
                && t.addr / LINE == line_addr / LINE
                && t.addr >= addr
                && t.addr < addr + 4
        });
        if lat == 0 {
            lat = 1;
        }
        (lat, word, tainted)
    }

    /// Data load of `len` bytes (little-endian). Returns
    /// `(latency, value, served_from_tainted_copy)`.
    pub fn load(&mut self, addr: u32, len: u32) -> (u32, u64, bool) {
        debug_assert!(
            len <= 8 && (addr & (LINE - 1)) + len <= LINE,
            "no line-crossing loads"
        );
        self.tick += 1;
        let line_addr = addr & !(LINE - 1);
        let (way, lat) = match self.l1d.lookup(addr) {
            Some(w) => {
                self.stats.l1d_hits += 1;
                (w, self.l1d.latency)
            }
            None => {
                self.stats.l1d_misses += 1;
                self.l1_fill(Level::L1d, addr)
            }
        };
        let set = self.l1d.set_of(addr);
        let slot = self.l1d.slot(set, way);
        let tick = self.tick;
        self.l1d.lines[slot].last_use = tick;
        let off = (addr & (LINE - 1)) as usize;
        let d = &self.l1d.lines[slot].data;
        let mut v = 0u64;
        for i in (0..len as usize).rev() {
            v = (v << 8) | d[off + i] as u64;
        }
        let tainted = self.taint.is_some_and(|t| {
            t.at(Level::L1d)
                && t.addr / LINE == line_addr / LINE
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
        self.tick += 1;
        let (way, lat) = match self.l1d.lookup(addr) {
            Some(w) => {
                self.stats.l1d_hits += 1;
                (w, self.l1d.latency)
            }
            None => {
                self.stats.l1d_misses += 1;
                self.l1_fill(Level::L1d, addr)
            }
        };
        let set = self.l1d.set_of(addr);
        let slot = self.l1d.slot(set, way);
        let tick = self.tick;
        let l = &mut self.l1d.lines[slot];
        l.last_use = tick;
        l.dirty = true;
        let off = (addr & (LINE - 1)) as usize;
        for i in 0..len as usize {
            l.data[off + i] = (value >> (8 * i)) as u8;
        }
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
        let line_addr = addr & !(LINE - 1);
        let overlap = |t: &MemTaint| t.addr >= addr && t.addr < addr + len;
        let mut v = 0u64;
        if let Some(w) = self.l1d.lookup(addr) {
            let slot = self.l1d.slot(self.l1d.set_of(addr), w);
            let d = &self.l1d.lines[slot].data;
            let off = (addr & (LINE - 1)) as usize;
            for i in (0..len as usize).rev() {
                v = (v << 8) | d[off + i] as u64;
            }
            let t = self.taint.as_ref().is_some_and(|t| {
                t.at(Level::L1d) && t.addr / LINE == line_addr / LINE && overlap(t)
            });
            return (v, t);
        }
        if let Some(w) = self.l2.lookup(addr) {
            let slot = self.l2.slot(self.l2.set_of(addr), w);
            let d = &self.l2.lines[slot].data;
            let off = (addr & (LINE - 1)) as usize;
            for i in (0..len as usize).rev() {
                v = (v << 8) | d[off + i] as u64;
            }
            let t = self.taint.as_ref().is_some_and(|t| {
                t.at(Level::L2) && t.addr / LINE == line_addr / LINE && overlap(t)
            });
            return (v, t);
        }
        for i in (0..len as usize).rev() {
            v = (v << 8) | self.mem.byte(addr as usize + i) as u64;
        }
        let t = self
            .taint
            .as_ref()
            .is_some_and(|t| t.at(Level::Mem) && overlap(t));
        (v, t)
    }

    /// Flips one bit of a cache's data array, addressed as a flat bit
    /// index over the whole array (set-major, then way, then line bits).
    pub fn flip_bit(&mut self, level: Level, bit_index: u64) -> FlipResult {
        let c = match level {
            Level::L1i => &mut self.l1i,
            Level::L1d => &mut self.l1d,
            Level::L2 => &mut self.l2,
            Level::Mem => panic!("memory is not an injection target"),
        };
        let bits_per_line = (LINE * 8) as u64;
        let line_idx = (bit_index / bits_per_line) as u32;
        let set = line_idx / c.ways;
        let way = line_idx % c.ways;
        let bit_in_line = bit_index % bits_per_line;
        let byte = (bit_in_line / 8) as usize;
        let bit = (bit_in_line % 8) as u8;
        let slot = c.slot(set, way);
        c.lines[slot].data[byte] ^= 1 << bit;
        if !c.lines[slot].valid {
            return FlipResult {
                valid: false,
                addr: None,
                bit_in_byte: bit,
                word_after: None,
            };
        }
        let addr = c.line_addr(set, c.lines[slot].tag) + byte as u32;
        let line = &c.lines[slot];
        // The 32-bit aligned word containing the flipped bit (for WI/WOI
        // classification when the byte holds an instruction).
        let woff = byte & !3;
        let word = u32::from_le_bytes([
            line.data[woff],
            line.data[woff + 1],
            line.data[woff + 2],
            line.data[woff + 3],
        ]);
        let bit_in_word = ((byte & 3) * 8) as u32 + bit as u32;
        self.taint = Some(MemTaint {
            addr,
            bit_in_byte: bit,
            at: [false; 4],
        });
        if let Some(t) = &mut self.taint {
            t.at[level.idx()] = true;
        }
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
        let c = match level {
            Level::L1i => &self.l1i,
            Level::L1d => &self.l1d,
            Level::L2 => &self.l2,
            Level::Mem => panic!("memory is not an injection target"),
        };
        let way = c.lookup(addr)?;
        let set = c.set_of(addr);
        let line_idx = (set * c.ways + way) as u64;
        let bit_index =
            line_idx * (LINE as u64 * 8) + (addr & (LINE - 1)) as u64 * 8 + (bit & 7) as u64;
        Some(self.flip_bit(level, bit_index))
    }

    /// Total data-array bits of a level (the sampling population).
    pub fn level_bits(&self, level: Level) -> u64 {
        let c = match level {
            Level::L1i => &self.l1i,
            Level::L1d => &self.l1d,
            Level::L2 => &self.l2,
            Level::Mem => panic!("memory is not an injection target"),
        };
        (c.sets * c.ways) as u64 * (LINE * 8) as u64
    }
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
        assert_eq!(ms.stats.l1d_misses, 1);
        assert_eq!(ms.stats.l1d_hits, 1);
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
        assert!(ms.stats.writebacks >= 1);
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
