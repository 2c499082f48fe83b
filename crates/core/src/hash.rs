//! Shared deterministic hashes — the workspace's single home for
//! splitmix64-style mixing and the FNV-1a report/frame checksum.
//!
//! The implementations live in dependency-free `cellflow_dts::hash` (this
//! crate sits above it); this module re-exports them and adds the
//! grid-aware derivations. Byte-identical reports per seed are a
//! workspace-wide contract, so the tests below pin every consolidated
//! function to the exact stream the historical per-site copies produced.

use cellflow_grid::CellId;

pub use cellflow_dts::hash::{
    append_frame, fnv1a, frame, next_frame, splitmix64, walk_seed, FrameStep, FrameTear,
    FRAME_HEADER_LEN, SPLITMIX64_GAMMA,
};

/// Splitmix-style mix of a run seed and a directed edge's endpoints, so
/// every edge draws from a distinct, schedule-independent stream — the seed
/// derivation behind per-edge chaos and link-fault decisions.
pub fn edge_seed(seed: u64, from: CellId, to: CellId) -> u64 {
    splitmix64(
        seed ^ ((from.i() as u64) << 48)
            ^ ((from.j() as u64) << 32)
            ^ ((to.i() as u64) << 16)
            ^ (to.j() as u64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The historical per-site copies, reproduced verbatim so the
    // consolidated functions are pinned to the exact streams every
    // checksummed report was sealed with.

    /// `net::supervisor` / `core::overload` formulation.
    fn splitmix64_legacy(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `dts::montecarlo` formulation.
    fn walk_seed_legacy(seed: u64, walk: usize) -> u64 {
        let mut z = seed
            .wrapping_add((walk as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `net::transport` formulation.
    fn edge_seed_legacy(seed: u64, from: CellId, to: CellId) -> u64 {
        let mut z = seed
            ^ ((from.i() as u64) << 48)
            ^ ((from.j() as u64) << 32)
            ^ ((to.i() as u64) << 16)
            ^ (to.j() as u64);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `net::store` / `core::certify` formulation.
    fn fnv1a_legacy(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn splitmix64_matches_the_supervisor_and_overload_streams() {
        for x in [0u64, 1, 42, 0x5EED, 0xDEAD_BEEF, u64::MAX, u64::MAX / 3] {
            assert_eq!(splitmix64(x), splitmix64_legacy(x), "input {x:#x}");
        }
        // A long sequential sweep for good measure.
        for x in 0..10_000u64 {
            assert_eq!(splitmix64(x), splitmix64_legacy(x));
        }
    }

    #[test]
    fn walk_seed_matches_the_montecarlo_stream() {
        for seed in [0u64, 1, 0x5EED, 0xFEED_FACE, u64::MAX] {
            for walk in [0usize, 1, 2, 63, 64, 1_000_000] {
                assert_eq!(
                    walk_seed(seed, walk),
                    walk_seed_legacy(seed, walk),
                    "seed {seed:#x} walk {walk}"
                );
            }
        }
    }

    #[test]
    fn edge_seed_matches_the_chaos_transport_stream() {
        for seed in [0u64, 7, 42, 0x00C0_FFEE] {
            for (fi, fj, ti, tj) in [(0, 0, 0, 1), (3, 2, 3, 3), (15, 15, 15, 14), (1, 0, 0, 0)] {
                let from = CellId::new(fi, fj);
                let to = CellId::new(ti, tj);
                assert_eq!(
                    edge_seed(seed, from, to),
                    edge_seed_legacy(seed, from, to),
                    "seed {seed} edge {from}->{to}"
                );
            }
        }
    }

    #[test]
    fn fnv1a_matches_the_store_and_certify_streams() {
        let cases: [&[u8]; 6] = [
            b"",
            b"a",
            b"checksum: deadbeef",
            b"rounds: 142\nviolations: 0\n",
            &[0u8; 64],
            &[0xFF; 257],
        ];
        for bytes in cases {
            assert_eq!(fnv1a(bytes), fnv1a_legacy(bytes));
        }
    }

    #[test]
    fn edge_seed_distinguishes_direction() {
        let a = CellId::new(1, 1);
        let b = CellId::new(1, 2);
        assert_ne!(edge_seed(9, a, b), edge_seed(9, b, a));
    }

    /// The `net::store` WAL framing, reproduced verbatim: frames written by
    /// every existing WAL file must keep parsing through the consolidated
    /// codec, and frames written by the consolidated codec must be
    /// byte-identical to what the store always wrote.
    fn frame_legacy(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a_legacy(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn frame_matches_the_store_wal_stream() {
        let cases: [&[u8]; 5] = [b"", b"x", b"round 12 sealed", &[0u8; 100], &[0xAB; 300]];
        for payload in cases {
            assert_eq!(
                frame(payload),
                frame_legacy(payload),
                "payload len {}",
                payload.len()
            );
        }
    }

    #[test]
    fn next_frame_parses_legacy_wal_bytes() {
        // A stream written entirely by the legacy formulation must decode
        // cleanly, including the legacy torn-tail reading of a short tail.
        let mut stream = Vec::new();
        stream.extend_from_slice(&frame_legacy(b"alpha"));
        stream.extend_from_slice(&frame_legacy(b"beta"));
        let clean = stream.len();
        stream.extend_from_slice(&frame_legacy(b"gamma")[..9]); // torn tail

        let FrameStep::Frame { payload, next } = next_frame(&stream, 0) else {
            panic!("first legacy frame must parse");
        };
        assert_eq!(payload, b"alpha");
        let FrameStep::Frame { payload, next } = next_frame(&stream, next) else {
            panic!("second legacy frame must parse");
        };
        assert_eq!(payload, b"beta");
        assert_eq!(
            next_frame(&stream, next),
            FrameStep::Torn {
                offset: clean,
                reason: FrameTear::Header
            }
        );
    }
}
