//! CRC-32 (IEEE 802.3) checksums for the durable store formats.
//!
//! The segment and WAL files checksum every section / record so torn writes
//! and bit rot are detected before any payload is trusted. A slice-by-8
//! table implementation keeps the workspace dependency-free while staying
//! fast enough that checksumming a whole segment on open is a small
//! fraction of the read itself (multiple GB/s in release builds).

/// The reflected IEEE polynomial used by zlib, PNG and Ethernet.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, computed once at first use. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` extends `TABLES[k-1][b]` by
/// one zero byte, letting `update` fold 8 input bytes per iteration.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Incremental CRC-32 state.
///
/// ```
/// let mut h = pathweaver_util::Crc32::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finish(), pathweaver_util::crc32(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = tables();
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("4-byte chunk")) ^ c;
            let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("4-byte chunk"));
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Returns the final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values from the zlib crc32 implementation.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn single_bit_flips_change_the_sum() {
        let data = vec![0xA5u8; 257];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }
}
