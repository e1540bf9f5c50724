//! Length-prefixed binary wire framing for streamed profile deltas.
//!
//! The aggregation tier (`ppp-agg`) receives profile deltas from many
//! concurrent VM workers — over in-process channels or a localhost TCP
//! socket. Either way the bytes cross a trust boundary: a frame can be
//! cut short by a dying worker, damaged in a buffer, or interleaved with
//! garbage. The frame format therefore carries a magic, a bounded
//! length and a CRC-32, like the persisted v2 profile container
//! ([`crate::PROFILE_MAGIC`]):
//!
//! ```text
//! +------+------+----------------+----------------+-- - - - --+
//! | PPAG | kind | payload len LE | payload CRC-32 |  payload  |
//! | 4 B  | 1 B  |     4 B        |      4 B       |  len B    |
//! +------+------+----------------+----------------+-- - - - --+
//! ```
//!
//! - **magic** `PPAG` re-synchronizes nothing on purpose: a stream whose
//!   framing is lost cannot be trusted past the damage, so decoding
//!   stops with a typed error (mirroring the v2 container's policy that
//!   a broken section header ends salvage);
//! - **kind** selects the payload grammar ([`FrameKind`]);
//! - **len** is a little-endian `u32`, bounded by
//!   [`MAX_FRAME_PAYLOAD`] so a flipped length byte cannot drive an
//!   allocation of gigabytes;
//! - **crc** is the CRC-32 ([`crate::crc32`]) of the payload
//!   bytes — a flipped payload byte rejects the *frame*, not the stream.
//!
//! Delta payloads are sparse binary deltas ([`crate::delta`]) holding
//! the counts accumulated since the worker's previous flush; the
//! aggregator merges them with saturating adds, which are commutative
//! and associative, so any arrival order yields byte-identical merged
//! profiles.
//!
//! # Sequenced frames and idempotent retry
//!
//! Deltas travel only as [`FrameKind::SeqEdgeDelta`] /
//! [`FrameKind::SeqPathDelta`], which carry the delta behind a
//! 16-byte prefix ([`SEQ_HEADER_LEN`]) and an optional trace-context
//! block ([`TraceContext`]):
//!
//! ```text
//! | client id u64 LE | sequence u64 LE | [TCX1 block] | binary delta ... |
//! ```
//!
//! The binary delta opens with its own magic (`PPDE` for edges, `PPDP`
//! for paths); a persist_v2 text payload in a sequenced frame is
//! refused, not read.
//!
//! Sequence numbers are per-client and strictly monotonic starting at
//! one. The aggregator keeps a watermark per client and drops any frame
//! whose sequence is at or below it, so a client that retries after an
//! ambiguous failure (crashed server, dead socket) can resend its whole
//! unacked window without ever double-counting a delta. The server
//! reports its watermark back in [`FrameKind::Ack`] frames (same
//! 16-byte payload, body empty); [`FrameKind::Reject`] carries a
//! `class\ndetail` text payload and is the never-silent refusal — an
//! overloaded or timed-out server says so before closing, it never
//! just hangs.

use crate::persist_v2::crc32;
use std::fmt;

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"PPAG";

/// Fixed size of the frame header (magic + kind + len + crc).
pub const FRAME_HEADER_LEN: usize = 13;

/// Upper bound on a frame payload; larger lengths are rejected as
/// damage before any allocation happens.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// What a frame carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameKind {
    /// Session opener: a text payload identifying the worker and the
    /// benchmark/module the following deltas belong to.
    Hello = 1,
    /// A bare v2 `edge` container. Used only as a record in aggregator
    /// checkpoint files; the aggregator refuses it on the wire, where
    /// deltas must be [`FrameKind::SeqEdgeDelta`].
    EdgeDelta = 2,
    /// A bare v2 `path` container; a checkpoint record only, like
    /// [`FrameKind::EdgeDelta`].
    PathDelta = 3,
    /// Orderly end of stream; the receiver acknowledges after merging
    /// everything that came before.
    Done = 4,
    /// A binary edge delta ([`crate::encode_edge_delta`]) behind a
    /// `(client, seq)` prefix ([`SEQ_HEADER_LEN`]); duplicates (seq at
    /// or below the client's watermark) are dropped, making retry
    /// idempotent.
    SeqEdgeDelta = 5,
    /// A binary path delta ([`crate::encode_path_delta`]) behind a
    /// `(client, seq)` prefix.
    SeqPathDelta = 6,
    /// Server → client: the acked sequence watermark for a client
    /// (`(client, watermark)` prefix, empty body). Sent after
    /// `Hello` (resume point) and after `Done` (final receipt).
    Ack = 7,
    /// Server → client: a typed, never-silent refusal. Payload is
    /// `class\ndetail` text (e.g. `overloaded`, `timed-out`); the
    /// connection closes right after.
    Reject = 8,
    /// Client → server: live-introspection request (empty payload).
    /// Answering never disturbs ingestion — the server reads nothing
    /// but its own counters.
    StatsRequest = 9,
    /// Server → client: the stats snapshot, a `ppp-stats/v1` JSON text
    /// payload (uptime, frames, per-shard queue depths, watermarks,
    /// metrics registry).
    StatsResponse = 10,
}

impl FrameKind {
    /// All frame kinds.
    pub const ALL: [FrameKind; 10] = [
        FrameKind::Hello,
        FrameKind::EdgeDelta,
        FrameKind::PathDelta,
        FrameKind::Done,
        FrameKind::SeqEdgeDelta,
        FrameKind::SeqPathDelta,
        FrameKind::Ack,
        FrameKind::Reject,
        FrameKind::StatsRequest,
        FrameKind::StatsResponse,
    ];

    /// Stable machine-readable name (metric labels, reports).
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Hello => "hello",
            FrameKind::EdgeDelta => "edge-delta",
            FrameKind::PathDelta => "path-delta",
            FrameKind::Done => "done",
            FrameKind::SeqEdgeDelta => "seq-edge-delta",
            FrameKind::SeqPathDelta => "seq-path-delta",
            FrameKind::Ack => "ack",
            FrameKind::Reject => "reject",
            FrameKind::StatsRequest => "stats-request",
            FrameKind::StatsResponse => "stats-response",
        }
    }

    /// Parses a kind byte.
    pub fn from_byte(b: u8) -> Option<FrameKind> {
        FrameKind::ALL.into_iter().find(|k| *k as u8 == b)
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One decoded frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Payload grammar selector.
    pub kind: FrameKind,
    /// Raw payload bytes (CRC already verified by the decoder).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame.
    pub fn new(kind: FrameKind, payload: Vec<u8>) -> Self {
        Self { kind, payload }
    }

    /// Encodes the frame into its wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.kind, &self.payload)
    }
}

/// Typed wire-decoding failures. Decoding never panics, whatever the
/// input bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The next four bytes are not [`FRAME_MAGIC`].
    BadMagic,
    /// The kind byte names no [`FrameKind`].
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize {
        /// Declared payload length.
        declared: usize,
    },
    /// The stream ends before the header or the declared payload.
    Truncated {
        /// Bytes the frame needs.
        expected: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload does not hash to the header's CRC-32.
    ChecksumMismatch {
        /// CRC the header promised.
        expected: u32,
        /// CRC of the bytes present.
        actual: u32,
    },
    /// The peer stopped sending mid-frame and the read deadline fired
    /// (slowloris). Raised by transports with `set_read_timeout`, not
    /// by the in-memory decoders.
    TimedOut,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not a PPAG frame (bad magic)"),
            WireError::UnknownKind(b) => write!(f, "unknown frame kind {b:#04x}"),
            WireError::Oversize { declared } => {
                write!(
                    f,
                    "frame declares {declared} payload bytes (limit {MAX_FRAME_PAYLOAD})"
                )
            }
            WireError::Truncated {
                expected,
                available,
            } => {
                write!(
                    f,
                    "truncated frame: {expected} bytes expected, {available} remain"
                )
            }
            WireError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch (recorded {expected:08x}, computed {actual:08x})"
            ),
            WireError::TimedOut => write!(f, "read timed out mid-frame (stalled peer)"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Stable machine-readable class name (used as a metric label).
    pub fn class(&self) -> &'static str {
        match self {
            WireError::BadMagic => "bad-magic",
            WireError::UnknownKind(_) => "unknown-kind",
            WireError::Oversize { .. } => "oversize",
            WireError::Truncated { .. } => "truncated",
            WireError::ChecksumMismatch { .. } => "checksum",
            WireError::TimedOut => "timed-out",
        }
    }
}

/// Fixed size of the `(client, seq)` prefix on sequenced payloads.
pub const SEQ_HEADER_LEN: usize = 16;

/// Builds a sequenced payload: `client` + `seq` (both `u64` LE)
/// followed by `container` (a binary delta, or empty for
/// [`FrameKind::Ack`]).
pub fn encode_seq_payload(client: u64, seq: u64, container: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEQ_HEADER_LEN + container.len());
    out.extend_from_slice(&client.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(container);
    out
}

/// Splits a sequenced payload into `(client, seq, container)`.
///
/// # Errors
///
/// A payload shorter than [`SEQ_HEADER_LEN`] is typed truncation.
pub fn split_seq_payload(payload: &[u8]) -> Result<(u64, u64, &[u8]), WireError> {
    if payload.len() < SEQ_HEADER_LEN {
        return Err(WireError::Truncated {
            expected: SEQ_HEADER_LEN,
            available: payload.len(),
        });
    }
    let client = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let seq = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    Ok((client, seq, &payload[SEQ_HEADER_LEN..]))
}

/// Magic bytes opening an optional trace-context block.
pub const TRACE_CONTEXT_MAGIC: [u8; 4] = *b"TCX1";

/// Fixed size of an encoded trace-context block (magic + trace id +
/// parent span id + flags).
pub const TRACE_CONTEXT_LEN: usize = 21;

/// Cross-process trace context carried in sequenced delta frames.
///
/// When present, the block sits between the 16-byte `(client, seq)`
/// prefix and the binary delta:
///
/// ```text
/// | TCX1 | trace id u64 LE | parent span u64 LE | flags u8 |
/// ```
///
/// `trace_id` names one logical client→server trace; `parent_span` is
/// the sender's span id, so the receiver's apply span can attach under
/// it when the two observation sinks are stitched into one tree. The
/// block is *optional* and self-describing: a binary delta starts with
/// its own `PPDE`/`PPDP` magic and an `Ack` body is empty, so neither
/// can alias [`TRACE_CONTEXT_MAGIC`] — untraced frames decode exactly
/// as before.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceContext {
    /// Trace identifier shared by every span of one distributed trace.
    pub trace_id: u64,
    /// Span id of the sending side's in-flight span.
    pub parent_span: u64,
    /// Bit 0: sampled (the receiver should open a span).
    pub flags: u8,
}

impl TraceContext {
    /// Flag bit marking the trace as sampled.
    pub const FLAG_SAMPLED: u8 = 1;

    /// Builds a sampled context.
    pub fn sampled(trace_id: u64, parent_span: u64) -> Self {
        Self {
            trace_id,
            parent_span,
            flags: Self::FLAG_SAMPLED,
        }
    }

    /// `true` when the sampled flag is set.
    pub fn is_sampled(&self) -> bool {
        self.flags & Self::FLAG_SAMPLED != 0
    }

    /// Encodes the block ([`TRACE_CONTEXT_LEN`] bytes).
    pub fn encode(&self) -> [u8; TRACE_CONTEXT_LEN] {
        let mut out = [0u8; TRACE_CONTEXT_LEN];
        out[..4].copy_from_slice(&TRACE_CONTEXT_MAGIC);
        out[4..12].copy_from_slice(&self.trace_id.to_le_bytes());
        out[12..20].copy_from_slice(&self.parent_span.to_le_bytes());
        out[20] = self.flags;
        out
    }
}

/// Builds a sequenced payload with a trace-context block between the
/// `(client, seq)` prefix and `container`.
pub fn encode_seq_payload_traced(
    client: u64,
    seq: u64,
    ctx: &TraceContext,
    container: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEQ_HEADER_LEN + TRACE_CONTEXT_LEN + container.len());
    out.extend_from_slice(&client.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&ctx.encode());
    out.extend_from_slice(container);
    out
}

/// Strips the optional trace-context block off the front of a
/// sequenced payload's container part (the third element of
/// [`split_seq_payload`]). Containers written without a block — every
/// untraced frame — come back unchanged with `None`.
pub fn split_trace_context(container: &[u8]) -> (Option<TraceContext>, &[u8]) {
    if container.len() < TRACE_CONTEXT_LEN || container[..4] != TRACE_CONTEXT_MAGIC {
        return (None, container);
    }
    let trace_id = u64::from_le_bytes(container[4..12].try_into().expect("8 bytes"));
    let parent_span = u64::from_le_bytes(container[12..20].try_into().expect("8 bytes"));
    let ctx = TraceContext {
        trace_id,
        parent_span,
        flags: container[20],
    };
    (Some(ctx), &container[TRACE_CONTEXT_LEN..])
}

/// Builds a [`FrameKind::Reject`] payload: `class` on the first line,
/// free-form detail after.
pub fn encode_reject_payload(class: &str, detail: &str) -> Vec<u8> {
    format!("{class}\n{detail}").into_bytes()
}

/// Splits a [`FrameKind::Reject`] payload into `(class, detail)`.
/// Tolerant: a payload with no newline is all class, non-UTF-8 bytes
/// are replaced.
pub fn split_reject_payload(payload: &[u8]) -> (String, String) {
    let text = String::from_utf8_lossy(payload);
    match text.split_once('\n') {
        Some((class, detail)) => (class.to_owned(), detail.to_owned()),
        None => (text.into_owned(), String::new()),
    }
}

/// Encodes one frame: header ([`FRAME_HEADER_LEN`] bytes) + payload.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD, "oversize frame");
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parses a frame header; returns `(kind, payload_len, crc)`.
///
/// # Errors
///
/// Any malformed or truncated header yields a typed [`WireError`].
pub fn decode_header(bytes: &[u8]) -> Result<(FrameKind, usize, u32), WireError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(WireError::Truncated {
            expected: FRAME_HEADER_LEN,
            available: bytes.len(),
        });
    }
    if bytes[..4] != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    let kind = FrameKind::from_byte(bytes[4]).ok_or(WireError::UnknownKind(bytes[4]))?;
    let len = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversize { declared: len });
    }
    let crc = u32::from_le_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]);
    Ok((kind, len, crc))
}

/// Decodes the first frame of `bytes`; returns the frame and the number
/// of bytes consumed.
///
/// # Errors
///
/// Yields a typed [`WireError`] for any damage; the caller must not
/// trust anything past the reported failure (there is no resync).
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    let (kind, len, crc) = decode_header(bytes)?;
    let total = FRAME_HEADER_LEN + len;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            expected: total,
            available: bytes.len(),
        });
    }
    let payload = &bytes[FRAME_HEADER_LEN..total];
    let actual = crc32(payload);
    if actual != crc {
        return Err(WireError::ChecksumMismatch {
            expected: crc,
            actual,
        });
    }
    Ok((
        Frame {
            kind,
            payload: payload.to_vec(),
        },
        total,
    ))
}

/// Decodes a whole stream of concatenated frames. Returns every frame
/// decoded before the first damage, plus the damage (if any) and the
/// byte offset where it was found.
pub fn decode_stream(bytes: &[u8]) -> (Vec<Frame>, Option<(usize, WireError)>) {
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        match decode_frame(&bytes[pos..]) {
            Ok((frame, used)) => {
                frames.push(frame);
                pos += used;
            }
            Err(e) => return (frames, Some((pos, e))),
        }
    }
    (frames, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_every_kind() {
        for kind in FrameKind::ALL {
            let payload = format!("payload for {kind}").into_bytes();
            let bytes = encode_frame(kind, &payload);
            let (frame, used) = decode_frame(&bytes).expect("decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn stream_roundtrip_and_tail_truncation() {
        let mut stream = Vec::new();
        stream.extend(encode_frame(FrameKind::Hello, b"hi"));
        stream.extend(encode_frame(FrameKind::EdgeDelta, b"ppp-profile v2 ..."));
        stream.extend(encode_frame(FrameKind::Done, b""));
        let (frames, err) = decode_stream(&stream);
        assert_eq!(frames.len(), 3);
        assert!(err.is_none());

        // Cut anywhere inside the stream: decoded prefix only, typed error.
        for cut in [1, FRAME_HEADER_LEN, stream.len() - 1] {
            let (frames, err) = decode_stream(&stream[..cut]);
            assert!(frames.len() < 3);
            assert!(err.is_some(), "cut at {cut} must report damage");
        }
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_error() {
        let mut bytes = encode_frame(FrameKind::EdgeDelta, b"entries 10");
        let at = FRAME_HEADER_LEN + 3;
        bytes[at] ^= 0x40;
        match decode_frame(&bytes) {
            Err(WireError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn header_damage_is_typed() {
        let good = encode_frame(FrameKind::Hello, b"x");
        let mut bad_magic = good.clone();
        bad_magic[0] = b'Q';
        assert_eq!(decode_frame(&bad_magic).unwrap_err(), WireError::BadMagic);

        let mut bad_kind = good.clone();
        bad_kind[4] = 0xEE;
        assert_eq!(
            decode_frame(&bad_kind).unwrap_err(),
            WireError::UnknownKind(0xEE)
        );

        let mut oversize = good;
        oversize[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&oversize).unwrap_err(),
            WireError::Oversize { .. }
        ));
        assert!(matches!(
            decode_frame(b"PPAG").unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn error_classes_are_stable() {
        assert_eq!(WireError::BadMagic.class(), "bad-magic");
        assert_eq!(WireError::UnknownKind(9).class(), "unknown-kind");
        assert_eq!(WireError::Oversize { declared: 1 }.class(), "oversize");
        assert_eq!(
            WireError::Truncated {
                expected: 1,
                available: 0
            }
            .class(),
            "truncated"
        );
        assert_eq!(
            WireError::ChecksumMismatch {
                expected: 1,
                actual: 2
            }
            .class(),
            "checksum"
        );
        assert_eq!(WireError::TimedOut.class(), "timed-out");
    }

    #[test]
    fn seq_payload_roundtrip_and_truncation() {
        let payload = encode_seq_payload(7, 42, b"container bytes");
        let (client, seq, container) = split_seq_payload(&payload).expect("splits");
        assert_eq!((client, seq), (7, 42));
        assert_eq!(container, b"container bytes");

        // An Ack-style payload has an empty container.
        let ack = encode_seq_payload(3, 9, b"");
        assert_eq!(ack.len(), SEQ_HEADER_LEN);
        assert_eq!(split_seq_payload(&ack).expect("splits").2, b"");

        assert!(matches!(
            split_seq_payload(&payload[..SEQ_HEADER_LEN - 1]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn seq_frames_survive_the_frame_codec() {
        let payload = encode_seq_payload(1, 2, b"delta");
        for kind in [FrameKind::SeqEdgeDelta, FrameKind::SeqPathDelta] {
            let bytes = encode_frame(kind, &payload);
            let (frame, _) = decode_frame(&bytes).expect("decodes");
            assert_eq!(frame.kind, kind);
            assert_eq!(split_seq_payload(&frame.payload).unwrap().1, 2);
        }
    }

    #[test]
    fn trace_context_roundtrip_through_the_frame_codec() {
        let ctx = TraceContext::sampled(0xDEAD_BEEF_0BAD_F00D, 17);
        let payload = encode_seq_payload_traced(3, 9, &ctx, b"ppp-profile v2 ...");
        let bytes = encode_frame(FrameKind::SeqEdgeDelta, &payload);
        let (frame, _) = decode_frame(&bytes).expect("decodes");
        let (client, seq, container) = split_seq_payload(&frame.payload).expect("splits");
        assert_eq!((client, seq), (3, 9));
        let (got, rest) = split_trace_context(container);
        assert_eq!(got, Some(ctx));
        assert!(got.expect("present").is_sampled());
        assert_eq!(rest, b"ppp-profile v2 ...");
    }

    #[test]
    fn frames_without_trace_context_still_decode() {
        // The PR 8 writer: no block. The container must come back
        // byte-identical with no context.
        let payload = encode_seq_payload(1, 4, b"ppp-profile v2 container");
        let (_, _, container) = split_seq_payload(&payload).expect("splits");
        let (ctx, rest) = split_trace_context(container);
        assert_eq!(ctx, None);
        assert_eq!(rest, b"ppp-profile v2 container");
        // Ack payloads have empty containers — also context-free.
        let (ctx, rest) = split_trace_context(b"");
        assert_eq!(ctx, None);
        assert!(rest.is_empty());
    }

    /// Property test: random trace ids/parents/flags through the full
    /// encode → frame → decode path are identity, for both sequenced
    /// delta kinds, and stripping is stable when the block is absent.
    #[test]
    fn trace_context_property_roundtrip() {
        // SplitMix64: deterministic, dependency-free.
        let mut state = 0x5CA1_AB1E_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in 0..200 {
            let ctx = TraceContext {
                trace_id: next(),
                parent_span: next(),
                flags: (next() & 0xFF) as u8,
            };
            let client = next();
            let seq = next() | 1;
            let container = format!("ppp-profile v2 synthetic {i}").into_bytes();
            let kind = if i % 2 == 0 {
                FrameKind::SeqEdgeDelta
            } else {
                FrameKind::SeqPathDelta
            };
            let traced = encode_seq_payload_traced(client, seq, &ctx, &container);
            let bytes = encode_frame(kind, &traced);
            let (frame, used) = decode_frame(&bytes).expect("decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(frame.kind, kind);
            let (c, s, rest) = split_seq_payload(&frame.payload).expect("splits");
            assert_eq!((c, s), (client, seq));
            let (got, body) = split_trace_context(rest);
            assert_eq!(got, Some(ctx));
            assert_eq!(body, &container[..]);

            // The same payload without a block stays untouched.
            let plain = encode_seq_payload(client, seq, &container);
            let bytes = encode_frame(kind, &plain);
            let (frame, _) = decode_frame(&bytes).expect("decodes");
            let (_, _, rest) = split_seq_payload(&frame.payload).expect("splits");
            let (got, body) = split_trace_context(rest);
            assert_eq!(got, None);
            assert_eq!(body, &container[..]);
        }
    }

    #[test]
    fn stats_frames_roundtrip_with_text_payloads() {
        let req = encode_frame(FrameKind::StatsRequest, b"");
        let (frame, _) = decode_frame(&req).expect("decodes");
        assert_eq!(frame.kind, FrameKind::StatsRequest);
        assert!(frame.payload.is_empty());
        let body = br#"{"schema":"ppp-stats/v1"}"#;
        let resp = encode_frame(FrameKind::StatsResponse, body);
        let (frame, _) = decode_frame(&resp).expect("decodes");
        assert_eq!(frame.kind, FrameKind::StatsResponse);
        assert_eq!(frame.payload, body);
        assert_eq!(FrameKind::from_byte(9), Some(FrameKind::StatsRequest));
        assert_eq!(FrameKind::from_byte(10), Some(FrameKind::StatsResponse));
    }

    #[test]
    fn reject_payload_roundtrip() {
        let p = encode_reject_payload("overloaded", "queue depth 64 over limit");
        assert_eq!(
            split_reject_payload(&p),
            (
                "overloaded".to_owned(),
                "queue depth 64 over limit".to_owned()
            )
        );
        assert_eq!(
            split_reject_payload(b"timed-out"),
            ("timed-out".to_owned(), String::new())
        );
    }
}
