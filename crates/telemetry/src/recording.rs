//! Deterministic flight recordings: the `.rec` container format.
//!
//! A recording is a stream of checksummed frames (the same
//! `[len u32 LE][fnv1a u64 LE][payload]` framing as the `cellflow-net`
//! write-ahead log, via `cellflow_dts::hash`): one header frame followed by
//! one state frame per recorded round. State frames are either **keyframes**
//! (a full state snapshot) or **deltas** against the previous round; a
//! keyframe lands every `keyframe_interval` rounds so any round is
//! reachable with one seek plus at most `K − 1` delta applications.
//!
//! This module owns the *container*: header codec, frame writer, and a
//! whole-file reader that validates every checksum and reports corruption
//! by byte offset (`file:offset:`, the binary cousin of the JSONL
//! validator's `file:line:`). Frame payloads are opaque here — the state
//! codec lives in `cellflow_core::snapshot`, which sits above this crate.
//!
//! Recordings are content-addressed: the header carries a `content_id`
//! derived from the schema version, seed, config checksum, and scenario
//! line, so two recordings of the same seeded scenario carry the same id
//! and a replay can refuse a header that does not match what it re-drives.

use cellflow_dts::hash::{append_frame, fnv1a, next_frame, FrameStep, FrameTear};

/// Recording container schema version (bumped on any layout change).
pub const REC_SCHEMA_VERSION: u32 = 1;

/// Magic number opening every header payload (`"CFRC"` little-endian).
pub const REC_MAGIC: u32 = 0x4352_4643;

/// What a state frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A full state snapshot.
    Keyframe,
    /// A delta against the previous round's state.
    Delta,
}

/// The recording header: everything needed to identify, inspect, and
/// re-drive a recording without decoding any state frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecHeader {
    /// Container schema version ([`REC_SCHEMA_VERSION`]).
    pub schema: u32,
    /// The run's campaign seed.
    pub seed: u64,
    /// Grid extent along x (cells).
    pub nx: u16,
    /// Grid extent along y (cells).
    pub ny: u16,
    /// Rounds between keyframes (≥ 1).
    pub keyframe_interval: u64,
    /// Number of state frames in the recording (patched at finish).
    pub rounds: u64,
    /// Checksum of the full system configuration.
    pub config_checksum: u64,
    /// Content address: FNV-1a over schema, seed, config checksum, and
    /// scenario line — equal for recordings of the same seeded scenario.
    pub content_id: u64,
    /// Human-readable config summary (grid, target, sources, capacity).
    pub config: String,
    /// Machine-parsable scenario line; a replay re-drives from this.
    pub scenario: String,
}

impl RecHeader {
    /// Computes the header's content address from its identity fields.
    pub fn compute_content_id(&self) -> u64 {
        let key = format!(
            "cellflow-rec schema={} seed={} config={:016x} scenario={}",
            self.schema, self.seed, self.config_checksum, self.scenario
        );
        fnv1a(key.as_bytes())
    }

    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(64 + self.config.len() + self.scenario.len());
        p.extend_from_slice(&REC_MAGIC.to_le_bytes());
        p.extend_from_slice(&self.schema.to_le_bytes());
        p.extend_from_slice(&self.seed.to_le_bytes());
        p.extend_from_slice(&self.nx.to_le_bytes());
        p.extend_from_slice(&self.ny.to_le_bytes());
        p.extend_from_slice(&self.keyframe_interval.to_le_bytes());
        p.extend_from_slice(&self.rounds.to_le_bytes());
        p.extend_from_slice(&self.config_checksum.to_le_bytes());
        p.extend_from_slice(&self.content_id.to_le_bytes());
        p.extend_from_slice(&(self.config.len() as u32).to_le_bytes());
        p.extend_from_slice(self.config.as_bytes());
        p.extend_from_slice(&(self.scenario.len() as u32).to_le_bytes());
        p.extend_from_slice(self.scenario.as_bytes());
        p
    }

    fn decode(payload: &[u8]) -> Result<RecHeader, String> {
        let mut d = HDec {
            bytes: payload,
            at: 0,
        };
        let magic = d.u32()?;
        if magic != REC_MAGIC {
            return Err(format!("bad magic {magic:#010x} (not a .rec recording)"));
        }
        let schema = d.u32()?;
        if schema != REC_SCHEMA_VERSION {
            return Err(format!(
                "unsupported recording schema {schema} (this build reads {REC_SCHEMA_VERSION})"
            ));
        }
        let seed = d.u64()?;
        let nx = d.u16()?;
        let ny = d.u16()?;
        let keyframe_interval = d.u64()?;
        let rounds = d.u64()?;
        let config_checksum = d.u64()?;
        let content_id = d.u64()?;
        let config = d.string()?;
        let scenario = d.string()?;
        if d.at != payload.len() {
            return Err("trailing bytes inside the header frame".to_string());
        }
        if keyframe_interval == 0 {
            return Err("keyframe interval must be positive".to_string());
        }
        Ok(RecHeader {
            schema,
            seed,
            nx,
            ny,
            keyframe_interval,
            rounds,
            config_checksum,
            content_id,
            config,
            scenario,
        })
    }
}

struct HDec<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl HDec<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let s = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or_else(|| "header frame truncated".to_string())?;
        self.at += n;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "header string is not UTF-8".to_string())
    }
}

/// Byte offset of the `rounds` field inside the header *payload* (after
/// magic, schema, seed, nx, ny, keyframe_interval).
const ROUNDS_OFFSET: usize = 4 + 4 + 8 + 2 + 2 + 8;

/// Streams a recording into an in-memory buffer: header frame first, then
/// one state frame per [`RecordingWriter::push`]. The header's round count
/// is patched (and its checksum re-sealed) by [`RecordingWriter::finish`].
#[derive(Clone, Debug)]
pub struct RecordingWriter {
    buf: Vec<u8>,
    header_payload_len: usize,
    rounds: u64,
    scratch: Vec<u8>,
}

impl RecordingWriter {
    /// Starts a recording with `header` (its `rounds` and `content_id`
    /// fields are recomputed here, so callers may leave them zero).
    pub fn new(mut header: RecHeader) -> RecordingWriter {
        header.rounds = 0;
        header.content_id = header.compute_content_id();
        let payload = header.encode();
        let mut buf = Vec::with_capacity(payload.len() + 12);
        append_frame(&mut buf, &payload);
        RecordingWriter {
            header_payload_len: payload.len(),
            buf,
            rounds: 0,
            scratch: Vec::new(),
        }
    }

    /// Appends one state frame: `[round u64][kind u8][body]`, framed.
    pub fn push(&mut self, round: u64, kind: FrameKind, body: &[u8]) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&round.to_le_bytes());
        self.scratch.push(match kind {
            FrameKind::Keyframe => 0,
            FrameKind::Delta => 1,
        });
        self.scratch.extend_from_slice(body);
        append_frame(&mut self.buf, &self.scratch);
        self.rounds += 1;
    }

    /// State frames pushed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Bytes buffered so far (header frame included).
    pub fn bytes_buffered(&self) -> usize {
        self.buf.len()
    }

    /// Seals the recording: patches the header's round count in place,
    /// re-seals the header frame's checksum, and returns the file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let payload_start = 12;
        let off = payload_start + ROUNDS_OFFSET;
        self.buf[off..off + 8].copy_from_slice(&self.rounds.to_le_bytes());
        let crc = fnv1a(&self.buf[payload_start..payload_start + self.header_payload_len]);
        self.buf[4..12].copy_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// One parsed state frame.
#[derive(Clone, Debug)]
pub struct RecFrame {
    /// The round this frame's state belongs to.
    pub round: u64,
    /// Keyframe or delta.
    pub kind: FrameKind,
    /// The opaque state payload (decoded by `cellflow_core::snapshot`).
    pub body: Vec<u8>,
    /// Byte offset of the frame's first byte in the file.
    pub offset: usize,
}

/// A recording-level parse/validation error, located by byte offset so the
/// CLI can report `file:offset: message`.
#[derive(Clone, Debug)]
pub struct RecError {
    /// Byte offset of the offending frame (or byte) in the file.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl RecError {
    fn at(offset: usize, message: impl Into<String>) -> RecError {
        RecError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.offset, self.message)
    }
}

/// A fully parsed and checksum-validated recording.
#[derive(Clone, Debug)]
pub struct Recording {
    /// The header frame.
    pub header: RecHeader,
    /// State frames, one per recorded round, in round order.
    pub frames: Vec<RecFrame>,
}

impl Recording {
    /// Parses `bytes`, validating every frame checksum, the header's round
    /// count, round contiguity, and the keyframe cadence. Any violation is
    /// reported with the byte offset of the offending frame.
    pub fn parse(bytes: &[u8]) -> Result<Recording, RecError> {
        let (header_payload, mut at) = match next_frame(bytes, 0) {
            FrameStep::Frame { payload, next } => (payload, next),
            FrameStep::End => {
                return Err(RecError::at(0, "empty file (expected a .rec recording)"))
            }
            FrameStep::Torn { offset, reason } => return Err(tear_error(offset, reason, "header")),
        };
        let header = RecHeader::decode(header_payload).map_err(|m| RecError::at(0, m))?;
        let expected_id = header.compute_content_id();
        if header.content_id != expected_id {
            return Err(RecError::at(
                0,
                format!(
                    "content id {:016x} does not match header fields (expected {expected_id:016x})",
                    header.content_id
                ),
            ));
        }
        let mut frames = Vec::new();
        loop {
            let offset = at;
            match next_frame(bytes, at) {
                FrameStep::End => break,
                FrameStep::Torn { offset, reason } => {
                    return Err(tear_error(offset, reason, "state"))
                }
                FrameStep::Frame { payload, next } => {
                    if payload.len() < 9 {
                        return Err(RecError::at(
                            offset,
                            "state frame shorter than its round/kind prologue",
                        ));
                    }
                    let round = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                    let kind = match payload[8] {
                        0 => FrameKind::Keyframe,
                        1 => FrameKind::Delta,
                        k => return Err(RecError::at(offset, format!("unknown frame kind {k}"))),
                    };
                    frames.push(RecFrame {
                        round,
                        kind,
                        body: payload[9..].to_vec(),
                        offset,
                    });
                    at = next;
                }
            }
        }
        if header.rounds != frames.len() as u64 {
            return Err(RecError::at(
                at,
                format!(
                    "header promises {} state frame(s), file holds {} (truncated or unsealed recording)",
                    header.rounds,
                    frames.len()
                ),
            ));
        }
        if let Some(first) = frames.first() {
            if first.kind != FrameKind::Keyframe {
                return Err(RecError::at(
                    first.offset,
                    "first state frame must be a keyframe",
                ));
            }
            for (k, f) in frames.iter().enumerate() {
                let expect = first.round + k as u64;
                if f.round != expect {
                    return Err(RecError::at(
                        f.offset,
                        format!("round {} out of order (expected {expect})", f.round),
                    ));
                }
            }
        }
        Ok(Recording { header, frames })
    }

    /// Index of the latest keyframe at or before `round`, if any.
    pub fn keyframe_at_or_before(&self, round: u64) -> Option<usize> {
        let first = self.frames.first()?.round;
        if round < first {
            return None;
        }
        let upto = (round - first) as usize;
        self.frames[..=upto.min(self.frames.len() - 1)]
            .iter()
            .rposition(|f| f.kind == FrameKind::Keyframe)
    }

    /// Index of the frame for `round`, if recorded.
    pub fn frame_index(&self, round: u64) -> Option<usize> {
        let first = self.frames.first()?.round;
        let idx = round.checked_sub(first)? as usize;
        (idx < self.frames.len()).then_some(idx)
    }

    /// The first and last recorded rounds, if any frames exist.
    pub fn round_span(&self) -> Option<(u64, u64)> {
        Some((self.frames.first()?.round, self.frames.last()?.round))
    }
}

fn tear_error(offset: usize, reason: FrameTear, what: &str) -> RecError {
    let msg = match reason {
        FrameTear::Header => format!("truncated {what} frame (incomplete frame header)"),
        FrameTear::Payload => {
            format!("truncated {what} frame (payload shorter than its length field)")
        }
        FrameTear::Checksum => format!("corrupt {what} frame (fnv1a checksum mismatch)"),
    };
    RecError::at(offset, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> RecHeader {
        RecHeader {
            schema: REC_SCHEMA_VERSION,
            seed: 42,
            nx: 5,
            ny: 5,
            keyframe_interval: 4,
            rounds: 0,
            config_checksum: 0xDEAD_BEEF,
            content_id: 0,
            config: "5x5 target=(1,4)".to_string(),
            scenario: "plain n=5 rounds=10".to_string(),
        }
    }

    fn sample() -> Vec<u8> {
        let mut w = RecordingWriter::new(header());
        w.push(0, FrameKind::Keyframe, b"state-zero");
        w.push(1, FrameKind::Delta, b"d1");
        w.push(2, FrameKind::Delta, b"d2");
        w.push(3, FrameKind::Delta, b"");
        w.push(4, FrameKind::Keyframe, b"state-four");
        w.finish()
    }

    #[test]
    fn writer_reader_round_trip() {
        let bytes = sample();
        let rec = Recording::parse(&bytes).expect("clean recording parses");
        assert_eq!(rec.header.rounds, 5);
        assert_eq!(rec.header.seed, 42);
        assert_eq!(rec.header.content_id, rec.header.compute_content_id());
        assert_eq!(rec.frames.len(), 5);
        assert_eq!(rec.frames[0].kind, FrameKind::Keyframe);
        assert_eq!(rec.frames[0].body, b"state-zero");
        assert_eq!(rec.frames[2].body, b"d2");
        assert_eq!(rec.round_span(), Some((0, 4)));
    }

    #[test]
    fn identical_runs_share_a_content_id() {
        let a = Recording::parse(&sample()).unwrap();
        let b = Recording::parse(&sample()).unwrap();
        assert_eq!(a.header.content_id, b.header.content_id);
        let mut other = header();
        other.seed = 43;
        let w = RecordingWriter::new(other);
        let c = Recording::parse(&w.finish()).unwrap();
        assert_ne!(a.header.content_id, c.header.content_id);
    }

    #[test]
    fn keyframe_seek_lands_on_the_cadence() {
        let rec = Recording::parse(&sample()).unwrap();
        assert_eq!(rec.keyframe_at_or_before(0), Some(0));
        assert_eq!(rec.keyframe_at_or_before(3), Some(0));
        assert_eq!(rec.keyframe_at_or_before(4), Some(4));
        assert_eq!(rec.frame_index(3), Some(3));
        assert_eq!(rec.frame_index(9), None);
    }

    #[test]
    fn corruption_is_reported_by_offset() {
        let mut bytes = sample();
        // Flip one byte inside the last frame's payload.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let err = Recording::parse(&bytes).expect_err("corrupt frame must fail");
        assert!(err.message.contains("checksum"), "{}", err.message);
        assert!(err.offset > 0);
        // Truncation mid-frame is named too.
        let bytes = sample();
        let err = Recording::parse(&bytes[..bytes.len() - 3]).expect_err("torn frame");
        assert!(err.message.contains("truncated"), "{}", err.message);
    }

    #[test]
    fn unsealed_recording_is_rejected() {
        // Bytes taken before `finish()` still carry rounds=0 in the header.
        let mut w = RecordingWriter::new(header());
        w.push(0, FrameKind::Keyframe, b"s");
        let bytes = w.buf.clone();
        let err = Recording::parse(&bytes).expect_err("unsealed recording");
        assert!(err.message.contains("state frame"), "{}", err.message);
    }

    #[test]
    fn non_recording_bytes_fail_with_context() {
        assert!(Recording::parse(b"").is_err());
        let err =
            Recording::parse(&cellflow_dts::hash::frame(b"not a header")).expect_err("bad magic");
        assert!(err.message.contains("magic"), "{}", err.message);
    }
}
