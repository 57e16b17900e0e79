//! Paged copy-on-write memory: the one main-memory type behind every
//! simulator layer (the cycle-level core, the functional core and the
//! VIR interpreter).

use std::sync::Arc;

/// Page size in bytes. A multiple of every cache line size, so
/// line-granular fills and writebacks never straddle a page.
pub const PAGE: usize = 4096;

type Page = [u8; PAGE];

/// One page of a [`CowMem`].
#[derive(Clone)]
enum Slot {
    /// Never written: reads as zeros and holds no storage.
    Absent,
    /// Possibly shared with clones (checkpoints): copied before a write.
    Shared(Arc<Page>),
    /// Owned by this memory alone: written in place, with no reference
    /// count to check. Cloning the memory copies it.
    Owned(Box<Page>),
}

impl Slot {
    fn bytes(&self) -> Option<&Page> {
        match self {
            Slot::Absent => None,
            Slot::Shared(p) => Some(p),
            Slot::Owned(p) => Some(p),
        }
    }
}

/// Flat byte-addressed memory stored as copy-on-write pages.
///
/// Checkpointing clones whole simulator states, and a deep copy of a
/// 4 MiB image would dominate both snapshot and restore cost. Pages make
/// the copy lazy: after [`CowMem::share`], cloning copies one pointer per
/// page, snapshots share every page the run never rewrites, and the first
/// write to a shared page copies just that page into one this memory
/// owns, which later writes update in place. A page nothing has written
/// is absent and reads as zeros, so cloning a mostly empty memory copies
/// a few page pointers and no page.
///
/// Equality compares contents: pages shared by pointer are equal without
/// a comparison, and an absent page equals an all-zero one.
#[derive(Clone)]
pub struct CowMem {
    pages: Vec<Slot>,
}

impl CowMem {
    /// An all-zero memory of `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `len` is a multiple of [`PAGE`].
    pub fn new(len: usize) -> CowMem {
        assert!(len.is_multiple_of(PAGE), "memory size must be whole pages");
        CowMem {
            pages: vec![Slot::Absent; len / PAGE],
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.pages.len() * PAGE
    }

    /// True for a zero-byte memory.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Number of pages that hold storage (written at least once).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.bytes().is_some()).count()
    }

    /// Turns every page this memory owns into a shared one, so that
    /// clones copy page pointers instead of pages. Call it before cloning
    /// a state into a checkpoint: a clone of an owned page is a copy.
    pub fn share(&mut self) {
        for slot in &mut self.pages {
            if let Slot::Owned(p) = slot {
                *slot = Slot::Shared(Arc::new(**p));
            }
        }
    }

    /// The byte at `addr`.
    #[inline]
    pub fn byte(&self, addr: usize) -> u8 {
        self.pages[addr / PAGE]
            .bytes()
            .map_or(0, |p| p[addr % PAGE])
    }

    /// Reads `out.len()` bytes starting at `addr`; the span may cross
    /// pages.
    pub fn read(&self, addr: usize, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let a = addr + done;
            let (page, off) = (a / PAGE, a % PAGE);
            let n = (PAGE - off).min(out.len() - done);
            let dst = &mut out[done..done + n];
            match self.pages[page].bytes() {
                Some(p) => dst.copy_from_slice(&p[off..off + n]),
                None => dst.fill(0),
            }
            done += n;
        }
    }

    /// Copies `len` bytes starting at `addr` out into a vector.
    pub fn to_vec(&self, addr: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read(addr, &mut out);
        out
    }

    /// Writes `data` starting at `addr`, copying each page it touches
    /// first if a snapshot shares it; the span may cross pages.
    pub fn write(&mut self, addr: usize, data: &[u8]) {
        let mut done = 0;
        while done < data.len() {
            let a = addr + done;
            let (page, off) = (a / PAGE, a % PAGE);
            let n = (PAGE - off).min(data.len() - done);
            self.page_mut(page)[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Reads a little-endian value of `len <= 8` bytes at `addr`.
    #[inline]
    pub fn read_le(&self, addr: usize, len: usize) -> u64 {
        debug_assert!(len <= 8);
        let off = addr % PAGE;
        if off + 8 <= PAGE {
            // One 8-byte load, masked to `len` bytes: no variable-length
            // copy on the hot path.
            let Some(p) = self.pages[addr / PAGE].bytes() else {
                return 0;
            };
            let word = u64::from_le_bytes(p[off..off + 8].try_into().expect("8-byte window"));
            return match len {
                8 => word,
                _ => word & ((1u64 << (8 * len)) - 1),
            };
        }
        let mut b = [0u8; 8];
        self.read(addr, &mut b[..len]);
        u64::from_le_bytes(b)
    }

    /// Writes the low `len <= 8` bytes of `value` little-endian at
    /// `addr`.
    #[inline]
    pub fn write_le(&mut self, addr: usize, len: usize, value: u64) {
        debug_assert!(len <= 8);
        let b = value.to_le_bytes();
        let off = addr % PAGE;
        if off + len > PAGE {
            self.write(addr, &b[..len]);
            return;
        }
        let p = self.page_mut(addr / PAGE);
        // Fixed-size copies for the access widths: no variable-length
        // copy on the hot path.
        match len {
            1 => p[off] = b[0],
            2 => p[off..off + 2].copy_from_slice(&b[..2]),
            4 => p[off..off + 4].copy_from_slice(&b[..4]),
            8 => p[off..off + 8].copy_from_slice(&b),
            _ => p[off..off + len].copy_from_slice(&b[..len]),
        }
    }

    /// Flips the bits of `mask` in the byte at `addr`.
    pub fn xor_byte(&mut self, addr: usize, mask: u8) {
        self.page_mut(addr / PAGE)[addr % PAGE] ^= mask;
    }

    /// A writable view of page `page`, materialising an absent page as
    /// zeros and copying a shared one into an owned page first.
    #[inline]
    fn page_mut(&mut self, page: usize) -> &mut Page {
        if !matches!(self.pages[page], Slot::Owned(_)) {
            self.make_owned(page);
        }
        match &mut self.pages[page] {
            Slot::Owned(p) => p,
            _ => unreachable!("the page was just made owned"),
        }
    }

    #[cold]
    fn make_owned(&mut self, page: usize) {
        let slot = &mut self.pages[page];
        let owned = match slot {
            Slot::Shared(p) => Box::new(**p),
            _ => Box::new([0; PAGE]),
        };
        *slot = Slot::Owned(owned);
    }
}

impl PartialEq for CowMem {
    fn eq(&self, other: &Self) -> bool {
        self.pages.len() == other.pages.len()
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| match (a.bytes(), b.bytes()) {
                    (Some(a), Some(b)) => std::ptr::eq(a, b) || a == b,
                    (None, None) => true,
                    (Some(p), None) | (None, Some(p)) => p.iter().all(|&x| x == 0),
                })
    }
}

impl Eq for CowMem {}

impl std::fmt::Debug for CowMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CowMem")
            .field("len", &self.len())
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span from 5 bytes before a page boundary to 5 bytes after it.
    const STRADDLE: usize = 3 * PAGE - 5;

    #[test]
    fn fresh_memory_reads_zero_and_holds_no_page() {
        let m = CowMem::new(16 * PAGE);
        assert_eq!(m.len(), 16 * PAGE);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.read_le(STRADDLE, 8), 0);
        assert_eq!(m.to_vec(STRADDLE, 10), vec![0; 10]);
    }

    #[test]
    fn reads_and_writes_straddle_pages() {
        let mut m = CowMem::new(16 * PAGE);
        let data: Vec<u8> = (1..=10).collect();
        m.write(STRADDLE, &data);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.to_vec(STRADDLE, 10), data);
        assert_eq!(m.byte(STRADDLE + 4), 5);
        assert_eq!(m.byte(STRADDLE + 5), 6);
        // A little-endian word across the boundary, both ways.
        assert_eq!(m.read_le(STRADDLE + 2, 4), 0x0605_0403);
        m.write_le(STRADDLE + 3, 4, 0xAABB_CCDD);
        assert_eq!(m.to_vec(STRADDLE + 3, 4), vec![0xDD, 0xCC, 0xBB, 0xAA]);
        // A span covering several whole pages plus partial ends.
        let long: Vec<u8> = (0..3 * PAGE + 17).map(|i| (i % 251) as u8).collect();
        m.write(PAGE / 2, &long);
        assert_eq!(m.to_vec(PAGE / 2, long.len()), long);
        let mut buf = vec![0u8; 9000];
        m.read(PAGE - 100, &mut buf);
        assert_eq!(&buf[..], &long[PAGE / 2 - 100..PAGE / 2 - 100 + 9000]);
    }

    #[test]
    fn a_write_to_a_clone_never_reaches_the_original() {
        // Owned pages are copied by the clone; shared ones on the write.
        for share in [false, true] {
            let mut snap = CowMem::new(8 * PAGE);
            snap.write(PAGE + 7, b"golden");
            if share {
                snap.share();
            }
            let mut restored = snap.clone();
            restored.write(PAGE + 7, b"faulty");
            restored.write_le(STRADDLE, 8, u64::MAX);
            restored.xor_byte(0, 1);
            assert_eq!(snap.to_vec(PAGE + 7, 6), b"golden");
            assert_eq!(snap.read_le(0, 8), 0);
            assert_eq!(snap.resident_pages(), 1);
            assert_ne!(snap, restored);
            // Undoing the writes makes the copies equal again by content.
            restored.write(PAGE + 7, b"golden");
            restored.write_le(STRADDLE, 8, 0);
            restored.xor_byte(0, 1);
            assert_eq!(snap, restored);
            // And the original keeps writing in place after the clone.
            snap.write(PAGE + 7, b"G");
            assert_eq!(restored.to_vec(PAGE + 7, 6), b"golden");
        }
    }

    #[test]
    fn sharing_keeps_contents() {
        let mut m = CowMem::new(4 * PAGE);
        m.write(2 * PAGE, &[1, 2, 3]);
        let before = m.clone();
        m.share();
        assert_eq!(m, before);
        assert_eq!(m.to_vec(2 * PAGE, 3), vec![1, 2, 3]);
        m.share();
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn an_absent_page_equals_a_zero_page() {
        let a = CowMem::new(4 * PAGE);
        let mut b = CowMem::new(4 * PAGE);
        b.write(2 * PAGE, &[0; 64]);
        assert_eq!(b.resident_pages(), 1);
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.xor_byte(2 * PAGE + 63, 0x80);
        assert_ne!(a, b);
        assert_ne!(CowMem::new(PAGE), CowMem::new(2 * PAGE));
    }
}
