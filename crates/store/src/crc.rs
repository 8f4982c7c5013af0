//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the
//! per-record integrity guard of the on-disk store.
//!
//! A store record that fails its CRC is treated as *absent*, never as
//! an error: torn tails from a crash mid-append and bit rot both
//! degrade to cache misses. A table-driven byte-at-a-time
//! implementation is plenty — records are a few hundred bytes and the
//! check runs once per record on open and once per disk-tier hit.

/// The 256-entry lookup table for the reflected IEEE polynomial,
/// computed once on first use.
fn table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        table
    })
}

/// A streaming CRC-32 accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub(crate) fn new() -> Self {
        Self { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let table = table();
        for &b in bytes {
            self.state = (self.state >> 8) ^ table[((self.state ^ u32::from(b)) & 0xFF) as usize];
        }
    }

    /// The final checksum value.
    pub(crate) fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot checksum of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"split across several updates";
        let mut crc = Crc32::new();
        for chunk in data.chunks(5) {
            crc.update(chunk);
        }
        assert_eq!(crc.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"record payload bytes".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }
}
