//! Simulated physical memory with a frame allocator.
//!
//! A [`PhysMem`]'s byte buffer outlives it: dropping one files the buffer
//! in a small process-wide pool, and the next [`PhysMem::new`] of the
//! same length takes it back. A fresh buffer is mapped lazily, so each
//! 4 KiB page costs a page fault the first time it is touched; a
//! recycled one has its pages already, and building one system after
//! another pays those faults once. A recycled buffer reads exactly as a
//! fresh one would: every write advances a dirty high-water mark, and
//! taking a spare zeroes what lies below its mark.

use std::sync::Mutex;
use twin_isa::Width;

/// Page size in bytes (4 KiB, matching the paper's x86-32 target).
pub const PAGE_SIZE: u64 = 4096;

/// Most spare buffers the pool keeps. A process builds one system after
/// another (the benchmark's passes) or a few at once (one per test
/// thread), so a handful covers both. A spare keeps resident only the
/// pages its systems touched, all below the highest mark one of them
/// reached — about 16 MB for four NICs in bulk — so the cap bounds what
/// a process keeps beyond its live systems.
const SPARE_CAP: usize = 4;

/// Buffers of dropped [`PhysMem`]s, oldest first, each with its dirty
/// mark.
static SPARES: Mutex<Vec<(Vec<u8>, usize)>> = Mutex::new(Vec::new());

/// A spare buffer of `len` bytes, zeroed below its dirty mark, if the
/// pool has one; a poisoned lock means no recycling.
fn take_spare(len: usize) -> Option<Vec<u8>> {
    let (mut bytes, dirty) = {
        let mut spares = SPARES.lock().ok()?;
        let i = spares.iter().position(|(b, _)| b.len() == len)?;
        spares.remove(i)
    };
    bytes[..dirty].fill(0);
    Some(bytes)
}

/// Simulated physical memory: a flat byte array divided into frames, plus a
/// free-frame bitmap.
///
/// Frames are identified by physical frame number (`pfn`); byte `i` of
/// frame `f` lives at physical address `f * PAGE_SIZE + i`.
#[derive(Debug)]
pub struct PhysMem {
    bytes: Vec<u8>,
    /// Every byte at or above this offset is zero: each write that
    /// may store a non-zero byte moves it past its end, and so does
    /// handing out a frame.
    dirty: usize,
    /// One bit per frame, set while the frame is free.
    free: Vec<u64>,
    /// No word of `free` below this index has a bit set.
    lowest_free_word: usize,
    free_frames: usize,
    total_frames: usize,
}

impl PhysMem {
    /// Creates memory with `frames` frames, all free.
    pub fn new(frames: usize) -> PhysMem {
        let mut free = vec![u64::MAX; frames.div_ceil(64)];
        if frames % 64 != 0 {
            *free.last_mut().expect("frames > 0") = (1 << (frames % 64)) - 1;
        }
        let len = frames * PAGE_SIZE as usize;
        PhysMem {
            bytes: take_spare(len).unwrap_or_else(|| vec![0; len]),
            dirty: 0,
            free,
            lowest_free_word: 0,
            free_frames: frames,
            total_frames: frames,
        }
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> usize {
        self.total_frames
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> usize {
        self.free_frames
    }

    /// Advances the dirty mark past a write that ended at `end`.
    #[inline]
    fn wrote(&mut self, end: usize) {
        // A branch, not a `max`: nearly every write lands in a frame
        // `alloc_frame` has already put below the mark, and then the
        // mark is not stored at all.
        if end > self.dirty {
            self.dirty = end;
        }
    }

    /// Allocates the lowest-numbered free frame, zeroed.
    /// Returns `None` when memory is exhausted.
    pub fn alloc_frame(&mut self) -> Option<u64> {
        let word = self.lowest_free_word
            + self.free[self.lowest_free_word..]
                .iter()
                .position(|w| *w != 0)?;
        let bit = self.free[word].trailing_zeros();
        self.free[word] &= !(1 << bit);
        self.lowest_free_word = word;
        self.free_frames -= 1;
        let pfn = word as u64 * 64 + bit as u64;
        let start = (pfn * PAGE_SIZE) as usize;
        let end = start + PAGE_SIZE as usize;
        // Above the mark the frame reads zero already, and leaving it
        // alone leaves its page unfaulted until something is written
        // there.
        if start < self.dirty {
            self.bytes[start..end].fill(0);
        }
        self.wrote(end);
        Some(pfn)
    }

    /// Returns a frame to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already free or out of range (double free is
    /// a bug in the simulator itself, not a modeled driver bug).
    pub fn free_frame(&mut self, pfn: u64) {
        assert!((pfn as usize) < self.total_frames, "pfn {pfn} out of range");
        let (word, bit) = ((pfn / 64) as usize, pfn % 64);
        assert!(
            self.free[word] & (1 << bit) == 0,
            "double free of pfn {pfn}"
        );
        self.free[word] |= 1 << bit;
        self.lowest_free_word = self.lowest_free_word.min(word);
        self.free_frames += 1;
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
        self.wrote(paddr as usize + 1);
    }

    /// Reads a little-endian u16 at a physical address.
    #[inline]
    pub fn read_u16(&self, paddr: u64) -> u16 {
        u16::from_le_bytes(
            self.bytes[paddr as usize..paddr as usize + 2]
                .try_into()
                .expect("2 bytes"),
        )
    }

    /// Writes a little-endian u16 at a physical address.
    #[inline]
    pub fn write_u16(&mut self, paddr: u64, val: u16) {
        self.bytes[paddr as usize..paddr as usize + 2].copy_from_slice(&val.to_le_bytes());
        self.wrote(paddr as usize + 2);
    }

    /// Reads a little-endian u32 at a physical address.
    #[inline]
    pub fn read_u32(&self, paddr: u64) -> u32 {
        u32::from_le_bytes(
            self.bytes[paddr as usize..paddr as usize + 4]
                .try_into()
                .expect("4 bytes"),
        )
    }

    /// Writes a little-endian u32 at a physical address.
    #[inline]
    pub fn write_u32(&mut self, paddr: u64, val: u32) {
        self.bytes[paddr as usize..paddr as usize + 4].copy_from_slice(&val.to_le_bytes());
        self.wrote(paddr as usize + 4);
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

    /// Copies a byte slice into physical memory at `paddr`.
    pub fn write_bytes(&mut self, paddr: u64, data: &[u8]) {
        self.bytes[paddr as usize..paddr as usize + data.len()].copy_from_slice(data);
        self.wrote(paddr as usize + data.len());
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
        self.wrote(dst as usize + len);
    }
}

impl Drop for PhysMem {
    /// Files the buffer in the pool for the next [`PhysMem::new`] of its
    /// length, in place of the oldest spare when the pool is full; frees
    /// it when the pool's lock is poisoned.
    fn drop(&mut self) {
        let spare = (std::mem::take(&mut self.bytes), self.dirty);
        let Ok(mut spares) = SPARES.lock() else {
            return;
        };
        if spares.len() == SPARE_CAP {
            spares.remove(0);
        }
        spares.push(spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroes_and_reuses() {
        let mut pm = PhysMem::new(4);
        let a = pm.alloc_frame().unwrap();
        pm.write_u8(a * PAGE_SIZE, 0xab);
        pm.free_frame(a);
        let b = pm.alloc_frame().unwrap();
        assert_eq!(a, b, "lowest frame is reused");
        assert_eq!(pm.read_u8(b * PAGE_SIZE), 0, "frame is zeroed on alloc");
    }

    /// Each write path in a life of its own, into an allocated frame and
    /// into one no allocation reached (a rogue DMA descriptor's case):
    /// the next `PhysMem` of the length takes the buffer back and reads
    /// all zero, and hands out zeroed frames.
    #[test]
    fn a_recycled_buffer_reads_as_a_fresh_one() {
        // A length no other test here uses, so no other thread takes
        // the spare in between.
        const FRAMES: usize = 37;
        let rogue = (FRAMES as u64 - 1) * PAGE_SIZE;
        let paths: [fn(&mut PhysMem, u64); 6] = [
            |pm, at| pm.write_u8(at, 0xa5),
            |pm, at| pm.write_u16(at, 0xa5a5),
            |pm, at| pm.write_u32(at, 0xa5a5_a5a5),
            |pm, at| pm.write_width(at, Width::Word, 0xa5a5),
            |pm, at| pm.write_bytes(at, &[0xa5; 9]),
            |pm, at| {
                pm.write_u8(0, 0xa5);
                pm.copy_within(0, at, 1);
            },
        ];
        // The next life of the buffer the last one wrote through path `i`.
        let take_back = |last: Option<(*const u8, usize)>| {
            let pm = PhysMem::new(FRAMES);
            if let Some((ptr, i)) = last {
                assert_eq!(pm.bytes.as_ptr(), ptr, "path {i}: not recycled");
                assert!(pm.bytes.iter().all(|&b| b == 0), "path {i}: not zero");
            }
            pm
        };
        let mut last = None;
        for (i, write) in paths.iter().enumerate() {
            let mut pm = take_back(last);
            let frame = pm.alloc_frame().unwrap() * PAGE_SIZE;
            write(&mut pm, frame + 8);
            write(&mut pm, rogue + 8 + i as u64);
            last = Some((pm.bytes.as_ptr(), i));
        }
        let mut pm = take_back(last);
        while let Some(pfn) = pm.alloc_frame() {
            assert_eq!(
                pm.read_bytes(pfn * PAGE_SIZE, PAGE_SIZE as usize),
                [0; 4096]
            );
        }
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
        let all: Vec<u64> = std::iter::from_fn(|| pm.alloc_frame()).collect();
        assert_eq!(all, (0..130).collect::<Vec<u64>>());
        assert_eq!(pm.free_frames(), 0);
        for pfn in [129, 64, 3, 70] {
            pm.free_frame(pfn);
        }
        assert_eq!(pm.free_frames(), 4);
        let again: Vec<u64> = std::iter::from_fn(|| pm.alloc_frame()).collect();
        assert_eq!(again, vec![3, 64, 70, 129]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pm = PhysMem::new(2);
        let a = pm.alloc_frame().unwrap();
        pm.free_frame(a);
        pm.free_frame(a);
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
