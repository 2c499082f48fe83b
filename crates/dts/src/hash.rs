//! Deterministic mixing and checksum primitives shared across the
//! workspace.
//!
//! Several subsystems need small, dependency-free deterministic hashes: the
//! restart supervisor's jitter, overload backoff, per-walk Monte-Carlo
//! seeds, per-edge chaos streams, and the FNV-1a seal on every checksummed
//! report and WAL frame. They all used to carry private copies of the same
//! two functions; this module is the single canonical implementation (this
//! crate has no dependencies, so everything in the workspace can reach it —
//! most code uses it through the `cellflow_core::hash` re-export).
//!
//! The streams are **frozen**: byte-identical reports per seed are a
//! workspace-wide contract, so the constants and update order here must
//! never change. `cellflow-core` pins them with stream-equality tests
//! against the historical per-site formulations.

/// The splitmix64 increment ("golden gamma", ⌊2⁶⁴/φ⌋ rounded to odd).
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64: Steele, Lea & Flood's statistically strong 64-bit mixer —
/// the workspace's deterministic jitter/seed-derivation hash.
///
/// One full step of the splitmix64 generator: advance the state by
/// [`SPLITMIX64_GAMMA`], then finalize with the two multiply-xorshift
/// rounds. Feeding structured keys (cell coordinates, attempt counters)
/// yields well-distributed, schedule-independent values.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives stream `index`'s private seed from a campaign seed: splitmix64
/// evaluated at the `index`-th gamma step. Used wherever parallel workers
/// (Monte-Carlo walks, sweep chunks) must each own a generator whose output
/// cannot depend on how many values other workers consumed.
pub fn walk_seed(seed: u64, index: usize) -> u64 {
    splitmix64(seed.wrapping_add((index as u64).wrapping_mul(SPLITMIX64_GAMMA)))
}

/// FNV-1a over `bytes` — the checksum sealing certificates, campaign
/// reports, and WAL frames. Not cryptographic; it detects accidental
/// corruption and pins byte-identical reports.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bytes of overhead per checksummed frame: a `u32` payload length plus a
/// `u64` FNV-1a checksum, both little-endian.
pub const FRAME_HEADER_LEN: usize = 12;

/// Appends one checksummed frame to `out`:
/// `[payload_len: u32 LE][fnv1a(payload): u64 LE][payload]`.
///
/// This is the framing the `cellflow-net` write-ahead log has used since
/// it existed; the byte layout is **frozen** (existing WAL files must keep
/// parsing) and pinned by stream-equality tests in `cellflow-core`.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// [`append_frame`] into a fresh buffer.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    append_frame(&mut out, payload);
    out
}

/// Why [`next_frame`] stopped before a complete frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameTear {
    /// Fewer than [`FRAME_HEADER_LEN`] bytes remain: a torn header.
    Header,
    /// The header promises more payload bytes than the stream holds.
    Payload,
    /// The payload is complete but its FNV-1a checksum does not match.
    Checksum,
}

/// One step of frame-stream decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameStep<'a> {
    /// A complete, checksum-valid frame; `next` is the offset just past it.
    Frame {
        /// The frame's payload bytes.
        payload: &'a [u8],
        /// Offset of the byte after this frame.
        next: usize,
    },
    /// `at` is exactly the end of the stream.
    End,
    /// The bytes at `offset` are not a complete valid frame. Append-only
    /// consumers (the WAL) treat this as a torn tail and truncate;
    /// whole-file consumers (flight recordings) report it as corruption.
    Torn {
        /// Offset of the torn frame's first byte.
        offset: usize,
        /// What was wrong with it.
        reason: FrameTear,
    },
}

/// Decodes the frame starting at byte `at` of `bytes`.
pub fn next_frame(bytes: &[u8], at: usize) -> FrameStep<'_> {
    if at >= bytes.len() {
        return FrameStep::End;
    }
    if bytes.len() - at < FRAME_HEADER_LEN {
        return FrameStep::Torn {
            offset: at,
            reason: FrameTear::Header,
        };
    }
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
    let crc = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
    let Some(payload) = bytes.get(at + FRAME_HEADER_LEN..at + FRAME_HEADER_LEN + len) else {
        return FrameStep::Torn {
            offset: at,
            reason: FrameTear::Payload,
        };
    };
    if fnv1a(payload) != crc {
        return FrameStep::Torn {
            offset: at,
            reason: FrameTear::Checksum,
        };
    }
    FrameStep::Frame {
        payload,
        next: at + FRAME_HEADER_LEN + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vector() {
        // First three outputs of the splitmix64 generator seeded with 0,
        // per the reference implementation (Vigna's xoshiro page).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(SPLITMIX64_GAMMA), 0x6E78_9E6A_A1B9_65F4,);
        assert_eq!(
            splitmix64(SPLITMIX64_GAMMA.wrapping_mul(2)),
            0x06C4_5D18_8009_454F,
        );
    }

    #[test]
    fn walk_seed_is_the_indexed_gamma_step() {
        for seed in [0u64, 1, 0x5EED, u64::MAX] {
            for walk in [0usize, 1, 7, 1000] {
                assert_eq!(
                    walk_seed(seed, walk),
                    splitmix64(seed.wrapping_add((walk as u64).wrapping_mul(SPLITMIX64_GAMMA)))
                );
            }
        }
    }

    #[test]
    fn fnv1a_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn frame_layout_is_len_crc_payload() {
        let f = frame(b"hello");
        assert_eq!(f.len(), FRAME_HEADER_LEN + 5);
        assert_eq!(&f[..4], &5u32.to_le_bytes());
        assert_eq!(&f[4..12], &fnv1a(b"hello").to_le_bytes());
        assert_eq!(&f[12..], b"hello");
    }

    #[test]
    fn next_frame_round_trips_a_stream() {
        let mut stream = Vec::new();
        append_frame(&mut stream, b"one");
        append_frame(&mut stream, b"");
        append_frame(&mut stream, b"three");
        let mut at = 0;
        let mut seen: Vec<Vec<u8>> = Vec::new();
        loop {
            match next_frame(&stream, at) {
                FrameStep::Frame { payload, next } => {
                    seen.push(payload.to_vec());
                    at = next;
                }
                FrameStep::End => break,
                FrameStep::Torn { .. } => panic!("clean stream reported torn"),
            }
        }
        assert_eq!(seen, vec![b"one".to_vec(), b"".to_vec(), b"three".to_vec()]);
    }

    #[test]
    fn next_frame_classifies_tears() {
        let clean = frame(b"payload");
        // Torn header: fewer than 12 bytes remain.
        assert_eq!(
            next_frame(&clean[..7], 0),
            FrameStep::Torn {
                offset: 0,
                reason: FrameTear::Header
            }
        );
        // Torn payload: header promises more bytes than the stream holds.
        assert_eq!(
            next_frame(&clean[..clean.len() - 1], 0),
            FrameStep::Torn {
                offset: 0,
                reason: FrameTear::Payload
            }
        );
        // Corrupted payload: checksum mismatch.
        let mut flipped = clean.clone();
        *flipped.last_mut().unwrap() ^= 0xFF;
        assert_eq!(
            next_frame(&flipped, 0),
            FrameStep::Torn {
                offset: 0,
                reason: FrameTear::Checksum
            }
        );
        // The tear offset names the bad frame, not the stream start.
        let mut stream = frame(b"good");
        let start = stream.len();
        stream.extend_from_slice(&flipped);
        let FrameStep::Frame { next, .. } = next_frame(&stream, 0) else {
            panic!("first frame is clean");
        };
        assert_eq!(
            next_frame(&stream, next),
            FrameStep::Torn {
                offset: start,
                reason: FrameTear::Checksum
            }
        );
    }
}
