//! Copy-on-write pages ([`CowPages`]) and the paged main memory built on
//! them ([`CowMem`]), the one main-memory type behind every simulator
//! layer (the cycle-level core, the functional core and the VIR
//! interpreter). The cycle-level core's cache arrays are `CowPages` too.

use std::sync::Arc;

/// Page size in bytes. A multiple of every cache line size, so
/// line-granular fills and writebacks never straddle a page.
pub const PAGE: usize = 4096;

/// One page of a [`CowPages`].
#[derive(Clone)]
enum Slot<T, const N: usize> {
    /// Never written: reads as `N` default elements and holds no storage.
    Absent,
    /// Possibly shared with clones (checkpoints): copied before a write.
    Shared(Arc<[T; N]>),
    /// Owned by this container alone: written in place, with no
    /// reference count to check. Cloning the container copies it.
    Owned(Box<[T; N]>),
}

impl<T, const N: usize> Slot<T, N> {
    fn elems(&self) -> Option<&[T; N]> {
        match self {
            Slot::Absent => None,
            Slot::Shared(p) => Some(p),
            Slot::Owned(p) => Some(p),
        }
    }
}

/// A fixed number of `N`-element pages stored copy-on-write.
///
/// Checkpointing clones whole simulator states, and a deep copy of a
/// memory image or a cache array would dominate both snapshot and
/// restore cost. Pages make the copy lazy: after [`CowPages::share`],
/// cloning copies one pointer per page, snapshots share every page the
/// run never rewrites, and the first write to a shared page copies just
/// that page into one this container owns, which later writes update in
/// place. A page nothing has written is absent and reads as default
/// elements, so cloning a mostly untouched container copies a few page
/// pointers and no page.
///
/// Equality compares contents: pages shared by pointer are equal without
/// a comparison, and an absent page equals an all-default one.
#[derive(Clone)]
pub struct CowPages<T, const N: usize> {
    pages: Vec<Slot<T, N>>,
}

impl<T: Copy + Default + Eq, const N: usize> CowPages<T, N> {
    /// `pages` pages of default elements.
    pub fn new(pages: usize) -> CowPages<T, N> {
        CowPages {
            pages: vec![Slot::Absent; pages],
        }
    }

    /// Number of pages.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages that hold storage (written at least once).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.elems().is_some()).count()
    }

    /// Turns every page this container owns into a shared one, so that
    /// clones copy page pointers instead of pages. Call it before cloning
    /// a state into a checkpoint: a clone of an owned page is a copy.
    pub fn share(&mut self) {
        for slot in &mut self.pages {
            if let Slot::Owned(p) = slot {
                *slot = Slot::Shared(Arc::new(**p));
            }
        }
    }

    /// Page `page`, or `None` if nothing has written it (every element
    /// is the default).
    #[inline]
    pub fn page(&self, page: usize) -> Option<&[T; N]> {
        self.pages[page].elems()
    }

    /// A writable view of page `page`, materialising an absent page as
    /// defaults and copying a shared one into an owned page first.
    #[inline]
    pub fn page_mut(&mut self, page: usize) -> &mut [T; N] {
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
            _ => Box::new([T::default(); N]),
        };
        *slot = Slot::Owned(owned);
    }
}

impl<T: Copy + Default + Eq, const N: usize> PartialEq for CowPages<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.pages.len() == other.pages.len()
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| match (a.elems(), b.elems()) {
                    (Some(a), Some(b)) => std::ptr::eq(a, b) || a == b,
                    (None, None) => true,
                    (Some(p), None) | (None, Some(p)) => p.iter().all(|x| *x == T::default()),
                })
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for CowPages<T, N> {}

impl<T: Copy + Default + Eq, const N: usize> std::fmt::Debug for CowPages<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CowPages")
            .field("pages", &self.pages())
            .field("page_len", &N)
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

/// Flat byte-addressed memory stored as copy-on-write [`PAGE`]-byte
/// pages (see [`CowPages`]): a snapshot of it copies page pointers, and
/// a never-written page reads as zeros.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CowMem {
    pages: CowPages<u8, PAGE>,
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
            pages: CowPages::new(len / PAGE),
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.pages.pages() * PAGE
    }

    /// True for a zero-byte memory.
    pub fn is_empty(&self) -> bool {
        self.pages.pages() == 0
    }

    /// Number of pages that hold storage (written at least once).
    pub fn resident_pages(&self) -> usize {
        self.pages.resident_pages()
    }

    /// Turns every page this memory owns into a shared one (see
    /// [`CowPages::share`]).
    pub fn share(&mut self) {
        self.pages.share();
    }

    /// The byte at `addr`.
    #[inline]
    pub fn byte(&self, addr: usize) -> u8 {
        self.pages.page(addr / PAGE).map_or(0, |p| p[addr % PAGE])
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
            match self.pages.page(page) {
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
            self.pages.page_mut(page)[off..off + n].copy_from_slice(&data[done..done + n]);
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
            let Some(p) = self.pages.page(addr / PAGE) else {
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
        let p = self.pages.page_mut(addr / PAGE);
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
        self.pages.page_mut(addr / PAGE)[addr % PAGE] ^= mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A non-byte element: the shape of a cache line's metadata.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct Line {
        valid: bool,
        tag: u32,
        stamp: u64,
    }

    const L: Line = Line {
        valid: true,
        tag: 7,
        stamp: 1,
    };

    #[test]
    fn an_absent_page_equals_a_default_page() {
        let a = CowPages::<Line, 3>::new(4);
        let mut b = a.clone();
        assert_eq!(b.page_mut(2), &[Line::default(); 3]);
        assert_eq!(b.resident_pages(), 1);
        assert!(a.page(2).is_none());
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.page_mut(2)[1].stamp = 9;
        assert_ne!(a, b);
        assert_ne!(CowPages::<Line, 3>::new(1), CowPages::<Line, 3>::new(2));
        // The same for bytes, through the memory built on the pages.
        let m = CowMem::new(4 * PAGE);
        let mut z = CowMem::new(4 * PAGE);
        z.write(2 * PAGE, &[0; 64]);
        assert_eq!((m.resident_pages(), z.resident_pages()), (0, 1));
        assert_eq!(m, z);
        z.xor_byte(2 * PAGE + 63, 0x80);
        assert_ne!(m, z);
        assert_ne!(CowMem::new(PAGE), CowMem::new(2 * PAGE));
    }

    #[test]
    fn a_write_to_a_clone_never_reaches_the_original() {
        // Owned pages are copied by the clone; shared ones on the write.
        for share in [false, true] {
            let mut snap = CowPages::<Line, 3>::new(4);
            snap.page_mut(1)[2] = L;
            if share {
                snap.share();
            }
            let mut restored = snap.clone();
            restored.page_mut(1)[2].tag = 8;
            restored.page_mut(3)[0].valid = true;
            assert_eq!(snap.page(1).map(|p| p[2]), Some(L));
            assert!(snap.page(3).is_none());
            assert_eq!(snap.resident_pages(), 1);
            assert_ne!(snap, restored);
            // Undoing the writes makes the copies equal again by content.
            restored.page_mut(1)[2].tag = 7;
            restored.page_mut(3)[0].valid = false;
            assert_eq!(snap, restored);
            // And the original keeps writing in place after the clone.
            snap.page_mut(1)[0].stamp = 5;
            assert_eq!(restored.page(1).map(|p| p[0]), Some(Line::default()));
        }
    }

    #[test]
    fn sharing_keeps_contents() {
        let mut p = CowPages::<Line, 3>::new(4);
        p.page_mut(2)[1] = L;
        let before = p.clone();
        p.share();
        assert_eq!(p, before);
        assert_eq!(p.page(2).map(|p| p[1]), Some(L));
        p.share();
        assert_eq!(p.resident_pages(), 1);
        // A shared page of a clone is the same allocation until written.
        let clone = p.clone();
        assert!(std::ptr::eq(clone.page(2).unwrap(), p.page(2).unwrap()));
    }

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
    fn byte_writes_to_a_restored_memory_never_reach_its_snapshot() {
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
        }
    }
}
