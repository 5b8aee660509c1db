//! Simulated physical memory with a frame allocator.
//!
//! A [`PhysMem`]'s byte buffer is allocated zeroed and mapped lazily, so
//! each 4 KiB page costs a page fault the first time it is touched. A
//! buffer lives in one place: held by a live memory, or parked in the
//! slot of the [`MemImage`] it was restored from.
//!
//! Each buffer knows where it may differ from what it was handed out
//! as. It carries a *baseline* — all zero, or the image it was restored
//! from — and the set of pages written since, one bit per frame. Every
//! page outside the set reads as the baseline.
//!
//! A restored buffer goes back to its image when it drops. The image
//! keeps one buffer in a slot of its own, and the next
//! [`MemImage::restore`] takes it and zeroes and rewrites only the
//! written pages, so a fork pays for what the last fork wrote, not for
//! what the system holds. Every other buffer is freed when it drops: a
//! baseline-free one (a fresh memory's, a clone of one) and a slot's
//! buffer that a newer one displaces. [`PhysMem::new`], a clone and a
//! restore whose slot is empty each allocate a fresh buffer.
//!
//! Every write path marks the pages it writes — `write_u8/u16/u32/width/
//! bytes`, `copy_within`, and through them NIC DMA and the walked
//! interpreter accesses — except the interpreter's translation-cache
//! hits, which are most of a run's stores and mark nothing: the machine
//! marks a writable frame when it enters the cache instead, and a
//! cloned cache starts empty, so every frame a cached store can reach is
//! marked already.
//!
//! A built system's memory is nearly all zero, so a copy of it is kept
//! as a [`MemImage`]: its non-zero 64-byte lines, in runs indexed by
//! page, and the allocator's state. [`MemImage::restore`] reads exactly
//! as the memory it was taken from.

use std::fmt;
use std::sync::{Arc, Mutex};
use twin_isa::Width;

/// Page size in bytes (4 KiB, matching the paper's x86-32 target).
pub const PAGE_SIZE: u64 = 4096;

const PAGE: usize = PAGE_SIZE as usize;

/// A buffer no memory holds, parked in its image's slot, and the pages
/// where it may differ from that image.
struct Parked {
    bytes: Vec<u8>,
    written: PageSet,
}

impl fmt::Debug for Parked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let written = self.written.union(None).count();
        write!(
            f,
            "Parked({} bytes, {written} pages written)",
            self.bytes.len()
        )
    }
}

/// A set of frames, one bit each.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PageSet(Vec<u64>);

impl PageSet {
    fn new(frames: usize) -> PageSet {
        PageSet(vec![0; frames.div_ceil(64)])
    }

    #[inline]
    fn insert(&mut self, page: usize) {
        self.0[page / 64] |= 1 << (page % 64);
    }

    #[inline]
    fn contains(&self, page: usize) -> bool {
        self.0[page / 64] & (1 << (page % 64)) != 0
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }

    /// The pages in this set or in `also`, ascending.
    fn union<'a>(&'a self, also: Option<&'a PageSet>) -> impl Iterator<Item = usize> + 'a {
        self.0.iter().enumerate().flat_map(move |(i, &word)| {
            let mut word = word | also.map_or(0, |a| a.0[i]);
            std::iter::from_fn(move || {
                let bit = word.trailing_zeros() as usize;
                word &= word.wrapping_sub(1);
                (bit < 64).then_some(i * 64 + bit)
            })
        })
    }
}

/// The frame allocator: one bit per frame, set while the frame is free.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Frames {
    free: Vec<u64>,
    /// No word of `free` below this index has a bit set.
    lowest_free_word: usize,
    free_count: usize,
    total: usize,
}

/// Simulated physical memory: a flat byte array divided into frames, plus a
/// free-frame bitmap.
///
/// Frames are identified by physical frame number (`pfn`); byte `i` of
/// frame `f` lives at physical address `f * PAGE_SIZE + i`.
#[derive(Debug)]
pub struct PhysMem {
    bytes: Vec<u8>,
    /// Pages that may differ from `baseline`: every write path but the
    /// interpreter's cached stores adds the pages it writes, and the
    /// machine adds a writable frame when its translation is cached.
    written: PageSet,
    /// What every page outside `written` holds: zero, or the image this
    /// memory was restored from.
    baseline: Option<Arc<Lines>>,
    frames: Frames,
}

impl PhysMem {
    /// Creates memory with `frames` frames, all free.
    pub fn new(frames: usize) -> PhysMem {
        let mut free = vec![u64::MAX; frames / 64];
        if frames % 64 != 0 {
            free.push((1 << (frames % 64)) - 1);
        }
        PhysMem {
            bytes: vec![0; frames * PAGE],
            written: PageSet::new(frames),
            baseline: None,
            frames: Frames {
                free,
                lowest_free_word: 0,
                free_count: frames,
                total: frames,
            },
        }
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> usize {
        self.frames.total
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> usize {
        self.frames.free_count
    }

    /// The pages that may be non-zero, ascending.
    fn live_pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.written.union(self.baseline.as_ref().map(|b| &b.pages))
    }

    /// This memory as its non-zero 64-byte lines, each run of adjacent
    /// ones within a page kept once, with the allocator's state: what
    /// [`MemImage::restore`] needs to read exactly as this does.
    pub fn image(&self) -> MemImage {
        let mut lines = Lines {
            runs: Vec::new(),
            data: Vec::new(),
            pages: PageSet::new(self.frames.total),
            slot: Mutex::new(None),
        };
        for page in self.live_pages() {
            let start = page * PAGE;
            let page_lines = self.bytes[start..start + PAGE].chunks(Lines::LINE);
            for (at, line) in (start..).step_by(Lines::LINE).zip(page_lines) {
                if line == [0; Lines::LINE] {
                    continue;
                }
                match lines.runs.last_mut() {
                    Some(run) if run.at + run.len == at && at != start => run.len += line.len(),
                    _ => lines.runs.push(Run {
                        at,
                        len: line.len(),
                        data: lines.data.len(),
                    }),
                }
                lines.data.extend_from_slice(line);
                lines.pages.insert(page);
            }
        }
        MemImage {
            lines: Arc::new(lines),
            frames: self.frames.clone(),
        }
    }

    /// [`PhysMem::image`], keeping this memory's buffer in the image's
    /// slot: it reads as the image everywhere, so the first restore
    /// rewrites nothing.
    pub fn into_image(mut self) -> MemImage {
        let image = self.image();
        let own = Parked {
            bytes: std::mem::take(&mut self.bytes),
            written: PageSet::new(self.frames.total),
        };
        if let Ok(mut slot) = image.lines.slot.lock() {
            *slot = Some(own);
        }
        image
    }

    /// Marks the pages of the `len` bytes at `start` written.
    #[inline]
    fn wrote(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        for page in start / PAGE..=(start + len - 1) / PAGE {
            self.written.insert(page);
        }
    }

    /// Marks frame `pfn` written without writing it: what the machine
    /// does as it caches a writable translation, before any
    /// [`PhysMem::write_unmarked`] through it.
    #[inline]
    pub(crate) fn mark(&mut self, pfn: u64) {
        self.written.insert(pfn as usize);
    }

    /// Whether frame `pfn` is marked written.
    pub(crate) fn is_marked(&self, pfn: u64) -> bool {
        self.written.contains(pfn as usize)
    }

    /// Allocates the lowest-numbered free frame, zeroed.
    /// Returns `None` when memory is exhausted.
    pub fn alloc_frame(&mut self) -> Option<u64> {
        let f = &mut self.frames;
        let lowest = f.lowest_free_word;
        let word = lowest + f.free[lowest..].iter().position(|w| *w != 0)?;
        let bit = f.free[word].trailing_zeros();
        f.free[word] &= !(1 << bit);
        f.lowest_free_word = word;
        f.free_count -= 1;
        let pfn = word as u64 * 64 + bit as u64;
        // A frame neither written nor in the baseline reads zero
        // already, and leaving it alone leaves its page unfaulted until
        // something is written there.
        let page = pfn as usize;
        let baseline = self.baseline.as_ref();
        if self.written.contains(page) || baseline.is_some_and(|b| b.pages.contains(page)) {
            self.bytes[page * PAGE..][..PAGE].fill(0);
            self.written.insert(page);
        }
        Some(pfn)
    }

    /// Reads one byte at a physical address.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range physical addresses (simulator bug).
    #[inline]
    pub fn read_u8(&self, paddr: u64) -> u8 {
        self.bytes[paddr as usize]
    }

    /// Writes one byte at a physical address.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range physical addresses (simulator bug).
    #[inline]
    pub fn write_u8(&mut self, paddr: u64, val: u8) {
        self.bytes[paddr as usize] = val;
        self.wrote(paddr as usize, 1);
    }

    /// Reads a little-endian u16 at a physical address.
    #[inline]
    pub fn read_u16(&self, paddr: u64) -> u16 {
        let b = &self.bytes[paddr as usize..paddr as usize + 2];
        u16::from_le_bytes([b[0], b[1]])
    }

    /// Writes a little-endian u16 at a physical address.
    #[inline]
    pub fn write_u16(&mut self, paddr: u64, val: u16) {
        self.bytes[paddr as usize..paddr as usize + 2].copy_from_slice(&val.to_le_bytes());
        self.wrote(paddr as usize, 2);
    }

    /// Reads a little-endian u32 at a physical address.
    #[inline]
    pub fn read_u32(&self, paddr: u64) -> u32 {
        let b = &self.bytes[paddr as usize..paddr as usize + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Writes a little-endian u32 at a physical address.
    #[inline]
    pub fn write_u32(&mut self, paddr: u64, val: u32) {
        self.bytes[paddr as usize..paddr as usize + 4].copy_from_slice(&val.to_le_bytes());
        self.wrote(paddr as usize, 4);
    }

    /// Reads a zero-extended little-endian value of `width` at a physical
    /// address.
    #[inline]
    pub fn read_width(&self, paddr: u64, width: Width) -> u32 {
        match width {
            Width::Byte => self.read_u8(paddr) as u32,
            Width::Word => self.read_u16(paddr) as u32,
            Width::Long => self.read_u32(paddr),
        }
    }

    /// Writes the low `width` of `val`, little-endian, at a physical
    /// address.
    #[inline]
    pub fn write_width(&mut self, paddr: u64, width: Width, val: u32) {
        match width {
            Width::Byte => self.write_u8(paddr, val as u8),
            Width::Word => self.write_u16(paddr, val as u16),
            Width::Long => self.write_u32(paddr, val),
        }
    }

    /// [`PhysMem::write_width`] without marking the page: only for the
    /// interpreter's translation-cache hits, whose frames the machine
    /// marked when it cached them.
    #[inline]
    pub(crate) fn write_unmarked(&mut self, paddr: u64, width: Width, val: u32) {
        let at = paddr as usize;
        match width {
            Width::Byte => self.bytes[at] = val as u8,
            Width::Word => self.bytes[at..at + 2].copy_from_slice(&(val as u16).to_le_bytes()),
            Width::Long => self.bytes[at..at + 4].copy_from_slice(&val.to_le_bytes()),
        }
    }

    /// Copies a byte slice into physical memory at `paddr`.
    pub fn write_bytes(&mut self, paddr: u64, data: &[u8]) {
        self.bytes[paddr as usize..paddr as usize + data.len()].copy_from_slice(data);
        self.wrote(paddr as usize, data.len());
    }

    /// Reads `len` bytes starting at `paddr`.
    pub fn read_bytes(&self, paddr: u64, len: usize) -> &[u8] {
        &self.bytes[paddr as usize..paddr as usize + len]
    }

    /// Copies `len` bytes from `src` to `dst`; the ranges may overlap
    /// (the destination receives what the source held before the copy).
    pub fn copy_within(&mut self, src: u64, dst: u64, len: usize) {
        self.bytes
            .copy_within(src as usize..src as usize + len, dst as usize);
        self.wrote(dst as usize, len);
    }
}

impl Clone for PhysMem {
    /// A copy on a fresh buffer: only the pages that may be non-zero are
    /// copied, and the copy keeps the original's baseline and written
    /// set.
    fn clone(&self) -> PhysMem {
        let mut bytes = vec![0; self.frames.total * PAGE];
        for page in self.live_pages() {
            let at = page * PAGE;
            bytes[at..at + PAGE].copy_from_slice(&self.bytes[at..at + PAGE]);
        }
        PhysMem {
            bytes,
            written: self.written.clone(),
            baseline: self.baseline.clone(),
            frames: self.frames.clone(),
        }
    }
}

impl Drop for PhysMem {
    /// Parks a restored buffer and its written set in its image's slot,
    /// freeing the buffer the slot held, if any. Every other buffer is
    /// freed: a baseline-free one, and a restored one whose slot is
    /// poisoned. An empty buffer (no frames, or one
    /// [`PhysMem::into_image`] kept) parks nothing.
    fn drop(&mut self) {
        if self.bytes.is_empty() {
            return;
        }
        let Some(image) = self.baseline.take() else {
            return;
        };
        let parked = Parked {
            bytes: std::mem::take(&mut self.bytes),
            written: std::mem::replace(&mut self.written, PageSet(Vec::new())),
        };
        // The buffer it displaces is freed here, once the lock is released.
        let _displaced = image.slot.lock().ok().and_then(|mut s| s.replace(parked));
    }
}

/// One run of adjacent non-zero lines, inside one page.
#[derive(Debug)]
struct Run {
    /// Physical address of its first byte.
    at: usize,
    len: usize,
    /// Offset of its bytes in [`Lines::data`].
    data: usize,
}

/// A memory's non-zero lines: shared by the [`MemImage`] and by every
/// buffer restored from it, which is how a dropped buffer finds its
/// image's slot.
#[derive(Debug)]
struct Lines {
    /// In address order; none crosses a page boundary.
    runs: Vec<Run>,
    /// The runs' bytes, back to back.
    data: Vec<u8>,
    /// The pages that hold a run.
    pages: PageSet,
    /// The buffer the last restore dropped, which the next restore
    /// takes: at most one per image, the newest. Nothing else holds a
    /// buffer between two memories.
    slot: Mutex<Option<Parked>>,
}

impl Lines {
    /// Bytes in one line, the unit a run is made of.
    const LINE: usize = 64;

    /// Writes the runs in `runs` into `bytes`.
    fn write(&self, bytes: &mut [u8], runs: &[Run]) {
        for run in runs {
            bytes[run.at..run.at + run.len].copy_from_slice(&self.data[run.data..][..run.len]);
        }
    }

    /// The runs inside page `page`.
    fn runs_of(&self, page: usize) -> &[Run] {
        let first = self.runs.partition_point(|r| r.at < page * PAGE);
        let end = self.runs.partition_point(|r| r.at < (page + 1) * PAGE);
        &self.runs[first..end]
    }
}

/// A [`PhysMem`] kept as its non-zero 64-byte lines and its allocator's
/// state ([`PhysMem::image`]). A built system's memory is almost all
/// zero — four NICs in bulk write a 16 MB prefix that holds about 56 KB
/// of non-zero bytes — so the lines are a few hundred KB where a copy of
/// the prefix would be all of it.
#[derive(Clone, Debug)]
pub struct MemImage {
    lines: Arc<Lines>,
    frames: Frames,
}

impl MemImage {
    /// The memory this image was taken from, with this image as its
    /// baseline: on the buffer in this image's slot, with only the pages
    /// written since zeroed and rewritten; else on a fresh buffer, with
    /// every run written.
    pub fn restore(&self) -> PhysMem {
        let own = self.lines.slot.lock().ok().and_then(|mut slot| slot.take());
        let (bytes, written) = match own {
            Some(mut own) => {
                for page in own.written.union(None) {
                    own.bytes[page * PAGE..][..PAGE].fill(0);
                    self.lines.write(&mut own.bytes, self.lines.runs_of(page));
                }
                own.written.clear();
                (own.bytes, own.written)
            }
            None => {
                let mut bytes = vec![0; self.frames.total * PAGE];
                self.lines.write(&mut bytes, &self.lines.runs);
                (bytes, PageSet::new(self.frames.total))
            }
        };
        PhysMem {
            bytes,
            written,
            baseline: Some(Arc::clone(&self.lines)),
            frames: self.frames.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroes_and_reuses() {
        let mut pm = PhysMem::new(4);
        // Into a frame no allocation reached yet, as rogue DMA lands.
        pm.write_u8(8, 0xab);
        let a = pm.alloc_frame().unwrap();
        assert_eq!(a, 0, "the written frame is handed out");
        assert_eq!(pm.read_u8(8), 0, "frame is zeroed on alloc");
    }

    /// An image of memory dirtied through every write path, restored
    /// onto a fresh buffer, reads as the original: every byte and the
    /// allocator, with nothing written since.
    #[test]
    fn a_restored_image_reads_as_its_original() {
        const FRAMES: usize = 41;
        let mut original = PhysMem::new(FRAMES);
        // A frame written before it is allocated reads zero once it is.
        original.write_bytes(2 * PAGE_SIZE + 40, &[0x3c; 9]);
        let at: Vec<u64> = (0..6)
            .map(|_| original.alloc_frame().unwrap() * PAGE_SIZE)
            .collect();
        assert_eq!(original.read_bytes(at[2] + 40, 9), [0; 9]);
        original.write_u8(at[0] + 3, 0xa5);
        // Across a line boundary, then the next line: one run.
        original.write_u16(at[0] + 63, 0xa5a5);
        original.write_u32(at[1] + 128, 0xa5a5_a5a5);
        original.write_width(at[1] + 192, Width::Word, 0xa5a5);
        original.write_bytes(at[3] + 500, &[0xa5; 300]);
        // A line written back to zero is not kept.
        original.write_u8(at[4] + 9, 0x5a);
        original.write_u8(at[4] + 9, 0);
        original.copy_within(at[3] + 500, at[5] + 4000, 96);
        // Past every allocated frame, as a rogue DMA write lands.
        original.write_u8((FRAMES as u64 - 1) * PAGE_SIZE + 7, 0xa5);
        let restored = original.image().restore();
        assert!(restored.bytes == original.bytes, "the bytes differ");
        assert_eq!(restored.written.union(None).count(), 0, "written since?");
        assert_eq!(restored.frames, original.frames);
    }

    /// A restore dropped after a life of its own goes back to its
    /// image's slot, and the next restore of the image zeroes and
    /// rewrites only the pages that life wrote or marked — a canary on a
    /// page it did neither to survives — and reads as the original.
    #[test]
    fn a_restore_onto_its_own_spare_rewrites_only_the_pages_written_since() {
        const FRAMES: usize = 43;
        let mut original = PhysMem::new(FRAMES);
        let at: Vec<u64> = (0..4)
            .map(|_| original.alloc_frame().unwrap() * PAGE_SIZE)
            .collect();
        // Over a page boundary: the run is kept as two, one per page.
        original.write_bytes(at[0] + 100, &[0xa5; 5000]);
        original.write_u32(at[2] + 8, 0xa5a5_a5a5);
        // Into the next frame to allocate: the image holds it, free.
        let unallocated = 4 * PAGE_SIZE;
        original.write_u32(unallocated + 8, 0xa5a5_a5a5);
        let image = original.image();
        let mut pm = image.restore();
        let buffer = pm.bytes.as_ptr();
        assert!(pm.bytes == original.bytes, "the first restore differs");
        // A baseline byte written back to zero, every other write path
        // on a page no other one writes, a store straddling two frames
        // no allocation reached, a baseline frame handed out (zeroed),
        // and a cached store: its frame marked, then written unmarked.
        pm.write_u8(at[0] + 200, 0);
        pm.write_u16(at[3] + 8, 0x5a5a);
        pm.write_u32(7 * PAGE_SIZE - 2, 0x5a5a_5a5a);
        pm.write_width(at[1] + 16, Width::Byte, 0x5a);
        pm.write_bytes(8 * PAGE_SIZE + 700, &[0x5a; 9]);
        pm.copy_within(at[2] + 8, (FRAMES as u64 - 1) * PAGE_SIZE + 4, 4);
        assert_eq!(pm.alloc_frame(), Some(unallocated / PAGE_SIZE));
        assert_eq!(
            pm.read_u32(unallocated + 8),
            0,
            "a baseline frame handed out"
        );
        pm.mark(9);
        pm.bytes[9 * PAGE + 1] = 0x5a;
        let canary = 20 * PAGE;
        pm.bytes[canary] = 0xcc;
        drop(pm);
        let mut again = image.restore();
        assert_eq!(again.bytes.as_ptr(), buffer, "not on its own buffer");
        assert_eq!(again.bytes[canary], 0xcc, "an unwritten page was rewritten");
        again.bytes[canary] = 0;
        assert!(again.bytes == original.bytes, "the bytes differ");
        assert_eq!(again.frames, original.frames);
    }

    /// A memory of `frames` frames holding `byte` in one run of its first
    /// frame, and its image.
    fn imaged(frames: usize, byte: u8) -> (PhysMem, MemImage) {
        let mut pm = PhysMem::new(frames);
        let at = pm.alloc_frame().unwrap() * PAGE_SIZE;
        pm.write_bytes(at + 64, &[byte; 100]);
        let image = pm.image();
        (pm, image)
    }

    /// Two images of one length restored in turn: each restore lands on
    /// its own image's buffer, so a canary that A's life left on a page
    /// it neither wrote nor holds survives B's restore and life in
    /// between.
    #[test]
    fn interleaved_images_each_restore_onto_their_own_buffer() {
        const FRAMES: usize = 53;
        let (a_original, a) = imaged(FRAMES, 0xaa);
        let (_b_original, b) = imaged(FRAMES, 0xbb);
        let mut pm = a.restore();
        let buffer = pm.bytes.as_ptr();
        pm.write_u32(8, 0x5a5a_5a5a);
        let canary = 20 * PAGE;
        pm.bytes[canary] = 0xcc;
        drop(pm);
        // B's life writes where the canary is: on A's buffer, it would
        // overwrite the canary and the next restore of A zero it.
        let mut other = b.restore();
        other.write_u32(canary as u64, 0x3c3c_3c3c);
        drop(other);
        let mut again = a.restore();
        assert_eq!(again.bytes.as_ptr(), buffer, "not on A's own buffer");
        assert_eq!(again.bytes[canary], 0xcc, "A's buffer was zeroed");
        again.bytes[canary] = 0;
        assert!(again.bytes == a_original.bytes, "the bytes differ");
    }

    #[test]
    fn exhaustion() {
        let mut pm = PhysMem::new(2);
        assert!(pm.alloc_frame().is_some());
        assert!(pm.alloc_frame().is_some());
        assert!(pm.alloc_frame().is_none());
        assert_eq!(pm.free_frames(), 0);
    }

    #[test]
    fn allocation_order_is_lowest_free_frame_first() {
        // 130 frames: two full bitmap words and a partial third.
        let mut pm = PhysMem::new(130);
        let written = [129, 64, 3, 70];
        for pfn in written {
            pm.write_u32(pfn * PAGE_SIZE + 4, 0xa5a5_a5a5);
        }
        let all: Vec<u64> = std::iter::from_fn(|| pm.alloc_frame()).collect();
        assert_eq!(all, (0..130).collect::<Vec<u64>>());
        assert_eq!(pm.free_frames(), 0);
        for pfn in written {
            assert_eq!(pm.read_u32(pfn * PAGE_SIZE + 4), 0, "frame {pfn}");
        }
    }

    #[test]
    fn u32_roundtrip() {
        let mut pm = PhysMem::new(1);
        pm.write_u32(12, 0xdead_beef);
        assert_eq!(pm.read_u32(12), 0xdead_beef);
        assert_eq!(pm.read_u8(12), 0xef, "little endian");
    }

    #[test]
    fn bulk_bytes() {
        let mut pm = PhysMem::new(1);
        pm.write_bytes(100, b"hello");
        assert_eq!(pm.read_bytes(100, 5), b"hello");
    }
}
