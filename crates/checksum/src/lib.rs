//! CRC32C (Castagnoli) — the checksum both the buffer pool and the file
//! format use to detect torn or bit-rotted bytes.
//!
//! CRC32C is what real lakehouse formats settled on (Parquet page CRCs,
//! iSCSI, ext4): cheap, well-studied error detection with hardware support
//! on every modern ISA. Every byte the lakehouse reads or writes passes
//! through here, so the function runs at memory speed: the CPU's CRC32C
//! instruction where it has one (x86-64 SSE4.2, aarch64 `crc`; detected at
//! run time, the detection result is cached by `std`), a portable
//! slicing-by-16 table loop everywhere else. It is its own crate because the
//! store layer (cache entry frames) and the format layer (footer + column
//! chunk verification) both need the exact same function, and neither
//! depends on the other.

#![deny(clippy::undocumented_unsafe_blocks)]

/// Reflected CRC32C polynomial (Castagnoli, 0x1EDC6F41 bit-reversed).
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-16 lookup tables (16 KiB), built at compile time. `TABLES[0]`
/// is the classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One byte per step: the tail of the portable path (< 16 bytes) and, over
/// a whole input, the oracle the tests hold the fast paths to.
fn update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Portable path: slicing-by-16, sixteen independent lookups per step.
fn update_slicing16(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        let a = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]) ^ crc as u64;
        let b = u64::from_le_bytes([c[8], c[9], c[10], c[11], c[12], c[13], c[14], c[15]]);
        crc = 0;
        for k in 0..8 {
            crc ^= TABLES[15 - k][((a >> (8 * k)) & 0xFF) as usize]
                ^ TABLES[7 - k][((b >> (8 * k)) & 0xFF) as usize];
        }
    }
    update_bytewise(crc, chunks.remainder())
}

/// The CPU's CRC32C instruction, eight bytes per step.
#[cfg(target_arch = "x86_64")]
mod hw {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sse4.2")
    }

    /// # Safety
    /// The CPU must support SSE4.2 ([`available`] returned true).
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        let mut chunks = data.chunks_exact(8);
        let mut wide = crc as u64;
        for c in &mut chunks {
            let word = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
            wide = _mm_crc32_u64(wide, word);
        }
        let mut crc = wide as u32;
        for &b in chunks.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }
}

#[cfg(target_arch = "aarch64")]
mod hw {
    use std::arch::aarch64::{__crc32cb, __crc32cd};

    pub fn available() -> bool {
        std::arch::is_aarch64_feature_detected!("crc")
    }

    /// # Safety
    /// The CPU must support the `crc` extension ([`available`] returned true).
    #[target_feature(enable = "crc")]
    pub unsafe fn update(mut crc: u32, data: &[u8]) -> u32 {
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
            crc = __crc32cd(crc, word);
        }
        for &b in chunks.remainder() {
            crc = __crc32cb(crc, b);
        }
        crc
    }
}

/// Advance a raw (un-inverted) CRC state over `data` on the fastest path
/// this CPU has. Every path computes the same function.
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    {
        if hw::available() {
            // SAFETY: `hw::update` only requires that the CPU implements the
            // CRC32C instruction it was compiled for, which `hw::available`
            // just confirmed by run-time feature detection. It reads `data`
            // through safe slice iteration and touches no other memory.
            return unsafe { hw::update(crc, data) };
        }
    }
    update_slicing16(crc, data)
}

/// CRC32C of `data` in one call.
pub fn crc32c(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Incremental CRC32C hasher for multi-slice frames.
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    pub fn new() -> Crc32c {
        Crc32c { state: !0 }
    }

    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Raw = fn(u32, &[u8]) -> u32;

    /// Every implementation this build can run, as raw-state functions.
    fn implementations() -> Vec<(&'static str, Raw)> {
        let mut all: Vec<(&'static str, Raw)> = vec![
            ("bytewise", update_bytewise),
            ("slicing16", update_slicing16),
            ("dispatch", update),
        ];
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        if hw::available() {
            // SAFETY: `hw::available` confirmed the instruction exists.
            all.push(("hardware", |crc, data| unsafe { hw::update(crc, data) }));
        }
        all
    }

    /// Deterministic filler bytes (an LCG; no dependency on `rand`).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// Known-answer vectors from RFC 3720 (iSCSI) appendix B.4 and the
    /// de-facto reference used by every CRC32C implementation.
    #[test]
    fn known_vectors() {
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        let vectors: [(&[u8], u32); 7] = [
            (b"", 0x0000_0000),
            (b"a", 0xC1D0_4330),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (name, f) in implementations() {
            for (data, want) in vectors {
                assert_eq!(!f(!0, data), want, "{name} over {data:?}");
            }
        }
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    /// Oracle vs. every fast path at all lengths 0..=300 and start offsets
    /// 0..8, so unaligned heads and every tail length are covered.
    #[test]
    fn fast_paths_match_oracle_at_every_length_and_alignment() {
        let buf = noise(308);
        for (name, f) in implementations() {
            for offset in 0..8 {
                for len in 0..=300 {
                    let data = &buf[offset..offset + len];
                    assert_eq!(
                        f(!0, data),
                        update_bytewise(!0, data),
                        "{name} offset {offset} len {len}"
                    );
                }
            }
        }
    }

    /// The incremental hasher agrees with the one-shot at every split point.
    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        let data = noise(131);
        let want = !update_bytewise(!0, &data);
        assert_eq!(crc32c(&data), want);
        for split in 0..=data.len() {
            let mut h = Crc32c::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), want, "split at {split}");
        }
        let mut h = Crc32c::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0x5Au8; 1024];
        let clean = crc32c(&data);
        data[512] ^= 0x01;
        assert_ne!(crc32c(&data), clean);
    }
}
