//! Byte-addressable memory image used by the functional interpreters.
//!
//! Kernels and applications lay their working sets out in a flat little-endian
//! memory image, just like the traced Alpha binaries of the original study.
//! The image records nothing about timing — the timing simulator only sees the
//! addresses through the dynamic trace.

/// A flat, little-endian, byte-addressable memory image.
///
/// Addresses are `u64` but must fall inside `[base, base + len)`. Reads and
/// writes outside the image panic: a kernel touching unmapped memory is a bug
/// in the kernel builder, not a recoverable condition.
///
/// # Examples
///
/// ```
/// use mom_isa::mem::MemImage;
///
/// let mut mem = MemImage::new(0x1000, 64);
/// mem.write_u32(0x1010, 0xdeadbeef);
/// assert_eq!(mem.read_u32(0x1010), 0xdeadbeef);
/// assert_eq!(mem.read_u8(0x1010), 0xef); // little endian
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemImage {
    base: u64,
    bytes: Vec<u8>,
}

impl MemImage {
    /// Create an image of `len` zero bytes starting at virtual address `base`.
    pub fn new(base: u64, len: usize) -> Self {
        Self { base, bytes: vec![0; len] }
    }

    /// Base virtual address of the image.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size of the image in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Whether `addr..addr+size` lies entirely inside the image.
    pub fn contains(&self, addr: u64, size: usize) -> bool {
        addr >= self.base && addr + size as u64 <= self.base + self.bytes.len() as u64
    }

    fn offset(&self, addr: u64, size: usize) -> usize {
        assert!(
            self.contains(addr, size),
            "memory access {addr:#x}+{size} outside image [{:#x}, {:#x})",
            self.base,
            self.base + self.bytes.len() as u64
        );
        (addr - self.base) as usize
    }

    /// Read one byte.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the image (same for all accessors).
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.bytes[self.offset(addr, 1)]
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let o = self.offset(addr, 1);
        self.bytes[o] = value;
    }

    /// Read a little-endian 16-bit value.
    pub fn read_u16(&self, addr: u64) -> u16 {
        let o = self.offset(addr, 2);
        u16::from_le_bytes([self.bytes[o], self.bytes[o + 1]])
    }

    /// Write a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        let o = self.offset(addr, 2);
        self.bytes[o..o + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Read a little-endian 32-bit value.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let o = self.offset(addr, 4);
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.bytes[o..o + 4]);
        u32::from_le_bytes(b)
    }

    /// Write a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let o = self.offset(addr, 4);
        self.bytes[o..o + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Read a little-endian 64-bit value.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let o = self.offset(addr, 8);
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.bytes[o..o + 8]);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian 64-bit value.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let o = self.offset(addr, 8);
        self.bytes[o..o + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Read a signed value of `size` bytes (1, 2, 4 or 8), sign-extended.
    ///
    /// # Panics
    ///
    /// Panics for unsupported sizes.
    pub fn read_signed(&self, addr: u64, size: usize) -> i64 {
        match size {
            1 => self.read_u8(addr) as i8 as i64,
            2 => self.read_u16(addr) as i16 as i64,
            4 => self.read_u32(addr) as i32 as i64,
            8 => self.read_u64(addr) as i64,
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Read an unsigned value of `size` bytes (1, 2, 4 or 8), zero-extended.
    ///
    /// # Panics
    ///
    /// Panics for unsupported sizes.
    pub fn read_unsigned(&self, addr: u64, size: usize) -> u64 {
        match size {
            1 => self.read_u8(addr) as u64,
            2 => self.read_u16(addr) as u64,
            4 => self.read_u32(addr) as u64,
            8 => self.read_u64(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Write the low `size` bytes (1, 2, 4 or 8) of `value`.
    ///
    /// # Panics
    ///
    /// Panics for unsupported sizes.
    pub fn write_value(&mut self, addr: u64, size: usize, value: u64) {
        match size {
            1 => self.write_u8(addr, value as u8),
            2 => self.write_u16(addr, value as u16),
            4 => self.write_u32(addr, value as u32),
            8 => self.write_u64(addr, value),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Copy a byte slice into the image starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let o = self.offset(addr, data.len());
        self.bytes[o..o + data.len()].copy_from_slice(data);
    }

    /// Set `len` bytes starting at `addr` to `value`.
    pub fn fill(&mut self, addr: u64, len: usize, value: u8) {
        let o = self.offset(addr, len);
        self.bytes[o..o + len].fill(value);
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> &[u8] {
        let o = self.offset(addr, len);
        &self.bytes[o..o + len]
    }
}

/// A simple bump allocator over a [`MemImage`] address range, used by the
/// workload generators to lay out arrays without overlapping.
#[derive(Debug, Clone)]
pub struct Allocator {
    next: u64,
    limit: u64,
}

impl Allocator {
    /// Allocator handing out addresses in `[image.base(), image.base()+image.len())`.
    pub fn for_image(image: &MemImage) -> Self {
        Self { next: image.base(), limit: image.base() + image.len() as u64 }
    }

    /// Allocate `size` bytes aligned to `align` (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if the region is exhausted or `align` is not a power of two.
    pub fn alloc(&mut self, size: usize, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.next + align - 1) & !(align - 1);
        assert!(
            addr + size as u64 <= self.limit,
            "memory image exhausted: need {size} bytes at {addr:#x}, limit {:#x}",
            self.limit
        );
        self.next = addr + size as u64;
        addr
    }

    /// Remaining free bytes (ignoring alignment padding of future requests).
    pub fn remaining(&self) -> u64 {
        self.limit - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_sizes() {
        let mut m = MemImage::new(0x2000, 128);
        m.write_u8(0x2000, 0xab);
        m.write_u16(0x2002, 0xbeef);
        m.write_u32(0x2004, 0xdead_beef);
        m.write_u64(0x2008, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(0x2000), 0xab);
        assert_eq!(m.read_u16(0x2002), 0xbeef);
        assert_eq!(m.read_u32(0x2004), 0xdead_beef);
        assert_eq!(m.read_u64(0x2008), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = MemImage::new(0, 16);
        m.write_u32(0, 0x0102_0304);
        assert_eq!(m.read_u8(0), 0x04);
        assert_eq!(m.read_u8(3), 0x01);
    }

    #[test]
    fn signed_and_unsigned_reads() {
        let mut m = MemImage::new(0, 16);
        m.write_u8(0, 0xff);
        m.write_u16(2, 0x8000);
        assert_eq!(m.read_signed(0, 1), -1);
        assert_eq!(m.read_unsigned(0, 1), 255);
        assert_eq!(m.read_signed(2, 2), -32768);
        assert_eq!(m.read_unsigned(2, 2), 32768);
    }

    #[test]
    fn write_value_truncates() {
        let mut m = MemImage::new(0, 16);
        m.write_value(0, 1, 0x1234);
        assert_eq!(m.read_u8(0), 0x34);
        assert_eq!(m.read_u8(1), 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = MemImage::new(0x100, 32);
        m.write_bytes(0x104, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(0x104, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn fill_sets_exactly_the_range() {
        let mut m = MemImage::new(0x100, 32);
        m.fill(0x104, 3, 7);
        assert_eq!(m.read_bytes(0x103, 5), &[0, 7, 7, 7, 0]);
    }

    #[test]
    fn contains_checks_bounds() {
        let m = MemImage::new(0x100, 32);
        assert!(m.contains(0x100, 32));
        assert!(!m.contains(0xff, 1));
        assert!(!m.contains(0x11f, 2));
        assert!(!m.is_empty());
        assert_eq!(m.len(), 32);
        assert_eq!(m.base(), 0x100);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let m = MemImage::new(0x100, 32);
        let _ = m.read_u64(0x11d);
    }

    #[test]
    fn allocator_respects_alignment_and_limit() {
        let m = MemImage::new(0x1000, 256);
        let mut alloc = Allocator::for_image(&m);
        let a = alloc.alloc(10, 1);
        let b = alloc.alloc(8, 64);
        assert_eq!(a, 0x1000);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
        assert!(alloc.remaining() < 256);
    }

    #[test]
    #[should_panic]
    fn allocator_exhaustion_panics() {
        let m = MemImage::new(0, 16);
        let mut alloc = Allocator::for_image(&m);
        let _ = alloc.alloc(32, 1);
    }
}
