//! Flat little-endian guest memory with a fixed segment layout.
//!
//! ```text
//!   0x0000_0000 … 0x0000_0FFF   null guard (any access faults)
//!   0x0000_1000 …               code (.text)
//!   0x0010_0000 …               globals / rodata (.data)
//!   0x0020_0000 …               heap (bump allocated via AllocHeap)
//!   … stack_top                 stack (grows down from the top)
//! ```
//!
//! The garbage collector's conservative scan (§4.1) walks the *writable*
//! segments — data, heap, stack — plus the register file, exactly as the
//! paper's collector "scans all writable program memory for data that
//! appears to be a NaN-box".

/// Base address of the code segment.
pub const CODE_BASE: u64 = 0x1000;
/// Base address of the data (globals) segment.
pub const DATA_BASE: u64 = 0x10_0000;
/// Base address of the heap.
pub const HEAP_BASE: u64 = 0x20_0000;
/// Default total memory size (stack top).
pub const DEFAULT_MEM_SIZE: u64 = 0x80_0000; // 8 MiB

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// Access below the guard page boundary (null-ish pointer).
    NullGuard(u64),
    /// Access beyond the end of memory.
    OutOfBounds(u64),
}

/// Guest memory.
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    /// End of the code segment (exclusive) — everything in
    /// `[CODE_BASE, code_end)` is executable.
    pub code_end: u64,
    /// Current heap allocation cursor.
    pub heap_brk: u64,
}

impl Memory {
    /// Create memory of `size` bytes (≥ 4 MiB recommended).
    pub fn new(size: u64) -> Self {
        Memory {
            bytes: vec![0; size as usize],
            code_end: CODE_BASE,
            heap_brk: HEAP_BASE,
        }
    }

    /// Total size (== initial stack top).
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn check(&self, addr: u64, len: u64) -> Result<usize, MemFault> {
        if addr < CODE_BASE {
            return Err(MemFault::NullGuard(addr));
        }
        let end = addr.checked_add(len).ok_or(MemFault::OutOfBounds(addr))?;
        if end > self.bytes.len() as u64 {
            return Err(MemFault::OutOfBounds(addr));
        }
        Ok(addr as usize)
    }

    /// Read `len ≤ 8` bytes as a little-endian integer.
    pub fn read_int(&self, addr: u64, len: u64) -> Result<u64, MemFault> {
        let i = self.check(addr, len)?;
        let mut buf = [0u8; 8];
        buf[..len as usize].copy_from_slice(&self.bytes[i..i + len as usize]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Write `len ≤ 8` bytes little-endian.
    pub fn write_int(&mut self, addr: u64, value: u64, len: u64) -> Result<(), MemFault> {
        let i = self.check(addr, len)?;
        self.bytes[i..i + len as usize].copy_from_slice(&value.to_le_bytes()[..len as usize]);
        Ok(())
    }

    /// Read a 64-bit value (one f64 lane).
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemFault> {
        self.read_int(addr, 8)
    }

    /// Write a 64-bit value.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), MemFault> {
        self.write_int(addr, value, 8)
    }

    /// Read both lanes of a 128-bit value.
    pub fn read_u128(&self, addr: u64) -> Result<[u64; 2], MemFault> {
        Ok([self.read_u64(addr)?, self.read_u64(addr + 8)?])
    }

    /// Write both lanes of a 128-bit value.
    pub fn write_u128(&mut self, addr: u64, v: [u64; 2]) -> Result<(), MemFault> {
        self.write_u64(addr, v[0])?;
        self.write_u64(addr + 8, v[1])
    }

    /// Raw byte slice access (for the decoder; code segment only).
    pub fn code_bytes(&self) -> &[u8] {
        &self.bytes[CODE_BASE as usize..self.code_end as usize]
    }

    /// Load a program image: code at [`CODE_BASE`], data at [`DATA_BASE`].
    ///
    /// A (re)load is hermetic: everything above the null guard is zeroed
    /// first, so a reused `Memory` (fleet machine recycling) is
    /// indistinguishable from a fresh allocation — stale heap/stack bytes
    /// from a previous guest must never be readable by, or conservatively
    /// GC-scanned under, the next one.
    pub fn load_image(&mut self, code: &[u8], data: &[u8]) {
        assert!(
            CODE_BASE + (code.len() as u64) <= DATA_BASE,
            "code segment too large"
        );
        assert!(
            DATA_BASE + (data.len() as u64) <= HEAP_BASE,
            "data segment too large"
        );
        self.bytes[CODE_BASE as usize..].fill(0);
        self.bytes[CODE_BASE as usize..CODE_BASE as usize + code.len()].copy_from_slice(code);
        self.code_end = CODE_BASE + code.len() as u64;
        self.bytes[DATA_BASE as usize..DATA_BASE as usize + data.len()].copy_from_slice(data);
        self.heap_brk = HEAP_BASE;
    }

    /// Patch code bytes in place. Crate-private: every patch goes through
    /// [`crate::Machine::patch_code`], whose sweep invalidates the
    /// predecode and superblock slots the new bytes make stale.
    pub(crate) fn patch_code(&mut self, addr: u64, bytes: &[u8]) {
        assert!(addr >= CODE_BASE && addr + (bytes.len() as u64) <= self.code_end);
        self.bytes[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
    }

    /// Bump-allocate `size` bytes on the heap (16-byte aligned). Returns the
    /// address, or `None` if the heap would collide with the stack region.
    pub fn alloc_heap(&mut self, size: u64) -> Option<u64> {
        let addr = (self.heap_brk + 15) & !15;
        let end = addr.checked_add(size)?;
        // Leave at least 1 MiB of stack headroom.
        if end + 0x10_0000 > self.size() {
            return None;
        }
        self.heap_brk = end;
        Some(addr)
    }

    /// The writable address ranges for the GC's conservative scan:
    /// (data+heap used so far, stack from `rsp` to the top).
    pub fn writable_ranges(&self, rsp: u64) -> [(u64, u64); 2] {
        let stack_lo = rsp.clamp(CODE_BASE, self.size());
        [(DATA_BASE, self.heap_brk), (stack_lo, self.size())]
    }

    /// Direct slice over a range (for the GC scan; panics on bad range —
    /// callers pass ranges from [`Memory::writable_ranges`]).
    pub fn slice(&self, lo: u64, hi: u64) -> &[u8] {
        &self.bytes[lo as usize..hi as usize]
    }
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new(DEFAULT_MEM_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip() {
        let mut m = Memory::default();
        m.write_u64(DATA_BASE, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(m.read_u64(DATA_BASE).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        // Partial widths.
        m.write_int(DATA_BASE + 16, 0x1234_5678, 4).unwrap();
        assert_eq!(m.read_int(DATA_BASE + 16, 4).unwrap(), 0x1234_5678);
        assert_eq!(m.read_int(DATA_BASE + 16, 2).unwrap(), 0x5678);
        assert_eq!(m.read_int(DATA_BASE + 17, 1).unwrap(), 0x56);
    }

    #[test]
    fn null_guard_faults() {
        let mut m = Memory::default();
        assert_eq!(m.read_u64(0), Err(MemFault::NullGuard(0)));
        assert_eq!(m.read_u64(0xFF8), Err(MemFault::NullGuard(0xFF8)));
        assert_eq!(m.write_u64(8, 1), Err(MemFault::NullGuard(8)));
        // Out of bounds.
        let top = m.size();
        assert_eq!(m.read_u64(top - 4), Err(MemFault::OutOfBounds(top - 4)));
        assert!(m.read_u64(top - 8).is_ok());
        assert_eq!(m.read_u64(u64::MAX), Err(MemFault::OutOfBounds(u64::MAX)));
    }

    #[test]
    fn image_and_patch() {
        let mut m = Memory::default();
        m.load_image(&[1, 2, 3, 4], &[9, 9]);
        assert_eq!(m.code_end, CODE_BASE + 4);
        assert_eq!(m.read_int(CODE_BASE, 4).unwrap(), 0x04030201);
        assert_eq!(m.read_int(DATA_BASE, 2).unwrap(), 0x0909);
        m.patch_code(CODE_BASE + 1, &[7, 7]);
        assert_eq!(m.read_int(CODE_BASE, 4).unwrap(), 0x04070701);
    }

    #[test]
    fn heap_alloc() {
        let mut m = Memory::default();
        let a = m.alloc_heap(100).unwrap();
        assert_eq!(a % 16, 0);
        assert!(a >= HEAP_BASE);
        let b = m.alloc_heap(100).unwrap();
        assert!(b >= a + 100);
        // Exhaustion.
        assert!(m.alloc_heap(1 << 40).is_none());
    }

    #[test]
    fn writable_ranges_cover_data_heap_stack() {
        let mut m = Memory::default();
        m.alloc_heap(64).unwrap();
        let rsp = m.size() - 256;
        let [r1, r2] = m.writable_ranges(rsp);
        assert_eq!(r1.0, DATA_BASE);
        assert!(r1.1 >= HEAP_BASE);
        assert_eq!(r2, (rsp, m.size()));
    }
}
