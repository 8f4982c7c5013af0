//! On-disk record framing for store segments.
//!
//! A segment is a header followed by a run of self-checking records:
//!
//! ```text
//! segment  := magic "MGSTSEG\0" | version u32 | record*
//! record   := payload_len u32 | key u128 | payload bytes | crc u32
//! ```
//!
//! All integers are little-endian. The CRC covers the length field, the
//! key and the payload, so a record cannot be mis-framed by a corrupted
//! length without failing its checksum. Scanning is *forgiving by
//! design*: the first record that fails to frame or checksum ends the
//! scan, everything before it is served, and everything at or after it
//! is treated as a torn tail — a crash mid-append loses at most the
//! records of the interrupted flush, never the segment.

use crate::crc::{crc32, Crc32};

/// Leading bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"MGSTSEG\0";

/// On-disk segment format version.
pub const SEGMENT_VERSION: u32 = 1;

/// Hard cap on a record payload. Frame records are a few hundred bytes;
/// anything claiming more than this is framing garbage, not data.
pub const MAX_PAYLOAD: usize = 8 << 20;

/// Bytes of header before the first record.
pub const HEADER_LEN: usize = SEGMENT_MAGIC.len() + 4;

/// Fixed framing overhead of one record around its payload.
pub const RECORD_OVERHEAD: usize = 4 + 16 + 4;

/// Writes the segment header into `out`.
pub(crate) fn write_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
}

/// Appends one framed record to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — the typed codecs never
/// produce records anywhere near the cap.
pub(crate) fn append_record(out: &mut Vec<u8>, key: u128, payload: &[u8]) {
    assert!(payload.len() <= MAX_PAYLOAD, "record payload over cap");
    let len = (payload.len() as u32).to_le_bytes();
    let key_bytes = key.to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(&len);
    crc.update(&key_bytes);
    crc.update(payload);
    out.extend_from_slice(&len);
    out.extend_from_slice(&key_bytes);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc.finish().to_le_bytes());
}

/// A record located during a segment scan. `offset` addresses the start
/// of the record (its length field) within the segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef {
    /// The 128-bit content fingerprint.
    pub key: u128,
    /// Byte offset of the record start within the segment.
    pub offset: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// Result of scanning one segment's bytes.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Every record that framed and checksummed correctly, in file
    /// order.
    pub records: Vec<RecordRef>,
    /// Whether the scan ended on garbage (bad header, torn tail, CRC
    /// failure) rather than a clean end-of-file.
    pub corrupt: bool,
}

/// Scans a whole segment image, returning the clean prefix of records.
///
/// Never fails: a segment with a bad header simply yields zero records
/// (and `corrupt = true`), and a damaged record ends the scan at the
/// last good one.
pub(crate) fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    if bytes.len() < HEADER_LEN
        || bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC
        || bytes[SEGMENT_MAGIC.len()..HEADER_LEN] != SEGMENT_VERSION.to_le_bytes()
    {
        out.corrupt = true;
        return out;
    }
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        match frame_record(&bytes[pos..]) {
            Some((key, payload_len)) => {
                out.records.push(RecordRef {
                    key,
                    offset: pos as u64,
                    payload_len,
                });
                pos += RECORD_OVERHEAD + payload_len as usize;
            }
            None => {
                out.corrupt = true;
                break;
            }
        }
    }
    out
}

/// Frames and verifies the record at the start of `bytes`, returning
/// its key and payload length.
fn frame_record(bytes: &[u8]) -> Option<(u128, u32)> {
    if bytes.len() < RECORD_OVERHEAD {
        return None;
    }
    let payload_len = u32::from_le_bytes(bytes[..4].try_into().ok()?);
    if payload_len as usize > MAX_PAYLOAD {
        return None;
    }
    let total = RECORD_OVERHEAD + payload_len as usize;
    if bytes.len() < total {
        return None;
    }
    let stored_crc = u32::from_le_bytes(bytes[total - 4..total].try_into().ok()?);
    if crc32(&bytes[..total - 4]) != stored_crc {
        return None;
    }
    let key = u128::from_le_bytes(bytes[4..20].try_into().ok()?);
    Some((key, payload_len))
}

/// Re-verifies a single record image (as re-read from disk on a
/// disk-tier hit) and returns its payload slice.
///
/// Returns `None` — a miss, never an error — if the bytes do not frame
/// exactly one record for `expected_key`.
pub(crate) fn verify_record(bytes: &[u8], expected_key: u128) -> Option<&[u8]> {
    let (key, payload_len) = frame_record(bytes)?;
    if key != expected_key || bytes.len() != RECORD_OVERHEAD + payload_len as usize {
        return None;
    }
    Some(&bytes[20..20 + payload_len as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment_with(records: &[(u128, &[u8])]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        for (key, payload) in records {
            append_record(&mut bytes, *key, payload);
        }
        bytes
    }

    #[test]
    fn round_trips_records_in_order() {
        let bytes = segment_with(&[(7, b"alpha"), (9, b""), (7 << 64, b"gamma")]);
        let scan = scan(&bytes);
        assert!(!scan.corrupt);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[0].key, 7);
        assert_eq!(scan.records[1].payload_len, 0);
        assert_eq!(scan.records[2].key, 7 << 64);
        let r = scan.records[2];
        let image =
            &bytes[r.offset as usize..r.offset as usize + RECORD_OVERHEAD + r.payload_len as usize];
        assert_eq!(verify_record(image, r.key), Some(&b"gamma"[..]));
    }

    #[test]
    fn empty_segment_is_clean() {
        let bytes = segment_with(&[]);
        let scan = scan(&bytes);
        assert!(!scan.corrupt);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn bad_header_yields_nothing() {
        assert!(scan(b"not a segment").corrupt);
        assert!(scan(b"").records.is_empty());
        let mut wrong_version = segment_with(&[(1, b"x")]);
        wrong_version[SEGMENT_MAGIC.len()] ^= 0xFF;
        let outcome = scan(&wrong_version);
        assert!(outcome.corrupt && outcome.records.is_empty());
    }

    #[test]
    fn torn_tail_keeps_the_clean_prefix() {
        let full = segment_with(&[(1, b"first"), (2, b"second"), (3, b"third")]);
        // Cut mid-way through the last record, at every possible point.
        let third_start = scan(&full).records[2].offset as usize;
        for cut in third_start + 1..full.len() {
            let outcome = scan(&full[..cut]);
            assert!(outcome.corrupt, "cut at {cut} not flagged");
            assert_eq!(outcome.records.len(), 2, "cut at {cut} lost good records");
        }
    }

    #[test]
    fn bit_flip_ends_the_scan_at_the_damaged_record() {
        let full = segment_with(&[(1, b"first"), (2, b"second")]);
        let second = scan(&full).records[1];
        // Flip one payload bit of the second record.
        let mut damaged = full.clone();
        damaged[second.offset as usize + 21] ^= 0x04;
        let outcome = scan(&damaged);
        assert!(outcome.corrupt);
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.records[0].key, 1);
    }

    #[test]
    fn absurd_length_field_is_rejected() {
        let mut bytes = segment_with(&[]);
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        let outcome = scan(&bytes);
        assert!(outcome.corrupt && outcome.records.is_empty());
    }

    #[test]
    fn verify_record_rejects_wrong_key_and_trailing_bytes() {
        let bytes = segment_with(&[(5, b"payload")]);
        let r = scan(&bytes).records[0];
        let image =
            &bytes[r.offset as usize..r.offset as usize + RECORD_OVERHEAD + r.payload_len as usize];
        assert!(verify_record(image, 6).is_none());
        let mut longer = image.to_vec();
        longer.push(0);
        assert!(verify_record(&longer, 5).is_none());
        assert!(verify_record(&image[..image.len() - 1], 5).is_none());
    }
}
