//! Length-prefixed binary framing: the one codec under both socket
//! transports (serving in `tcss_serve::net`, training in [`crate::dist`]).
//!
//! Every message on the wire is one *frame*: a 4-byte little-endian
//! payload length, exactly that many payload bytes, and a [`Trailer`]
//! each transport picks once, at construction:
//!
//! ```text
//! serving:  [u32 LE len][payload]
//! training: [u32 LE len][payload][u64 LE frame_checksum(payload)]
//! ```
//!
//! The training transport checksums because a torn or corrupted delta
//! exchange would otherwise silently perturb the model; serving payloads
//! are small and fully validated by the message codec instead.
//!
//! [`FrameDecoder`] is byte-boundary agnostic: it accepts input in
//! whatever fragments the kernel delivers (one byte at a time, a header
//! split across reads, several frames in one read) and yields complete
//! payloads in order. The framing layer knows nothing about payload
//! contents. Failure posture (the protocol-proptest contract):
//!
//! * a length prefix above the configured cap is a typed
//!   [`FrameError::Oversized`] *before* any payload is buffered — a
//!   hostile 4 GiB header cannot make the receiver allocate;
//! * a connection that ends mid-frame is a typed
//!   [`FrameError::TruncatedEof`] from [`FrameDecoder::finish`];
//! * a payload that does not hash to its trailer is a typed
//!   [`FrameError::ChecksumMismatch`];
//! * no input sequence panics or leaves the decoder wedged: after an
//!   error the decoder stays in the error state and keeps reporting the
//!   *first* error from both `next_frame` and `finish` (the connection is
//!   closed by the caller, never silently resynced).

use std::io::{self, Read};

/// Bytes in the length prefix.
pub const HEADER_LEN: usize = 4;
/// Bytes in a [`Trailer::Checksum`] trailer.
pub(crate) const TRAILER_LEN: usize = 8;
/// Default maximum payload length of a serving decoder (1 MiB).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;
/// Payload cap of the checksummed training transport. Delta frames scale
/// with `touched rows × rank`, and a full-model broadcast is
/// `(I+J+K+1)·r` doubles, so the cap is generous; anything larger is a
/// corrupt length prefix, not a real message.
pub(crate) const MAX_FRAME_LEN: u32 = 1 << 30;

/// What follows each payload on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trailer {
    /// Nothing: `[u32 len][payload]` (the serving wire).
    None,
    /// The `frame_checksum` of the payload (CRC32C, or word-folded FNV-1a
    /// without SSE4.2): `[u32 len][payload][u64]` (the training wire).
    Checksum,
}

impl Trailer {
    /// Trailer bytes after each payload.
    pub(crate) const fn size(self) -> usize {
        match self {
            Trailer::None => 0,
            Trailer::Checksum => TRAILER_LEN,
        }
    }

    /// Append one frame of `payload` to `out`.
    fn write(self, out: &mut Vec<u8>, payload: &[u8]) {
        let start = out.len();
        out.extend_from_slice(&[0u8; HEADER_LEN]);
        out.extend_from_slice(payload);
        self.seal(out, start);
    }

    /// One frame of `payload` in a fresh buffer.
    pub fn encode(self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + self.size());
        self.write(&mut out, payload);
        out
    }

    /// Patch the length prefix of the frame starting at `start` (whose
    /// payload runs to the end of `out`) and append the trailer.
    fn seal(self, out: &mut Vec<u8>, start: usize) {
        let len = out.len() - start - HEADER_LEN;
        let len = u32::try_from(len).expect("payload fits a u32 length prefix");
        out[start..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        if self == Trailer::Checksum {
            let sum = frame_checksum(&out[start + HEADER_LEN..]);
            out.extend_from_slice(&sum.to_le_bytes());
        }
    }

    /// Check `payload` against the `trailer` bytes received after it.
    pub(crate) fn verify(self, payload: &[u8], trailer: &[u8]) -> Result<(), FrameError> {
        if self == Trailer::None {
            return Ok(());
        }
        let expected = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let got = frame_checksum(payload);
        if got != expected {
            return Err(FrameError::ChecksumMismatch { expected, got });
        }
        Ok(())
    }
}

/// Append one serving frame (no trailer) for `payload` to `out` — the
/// allocation-reusing form the server's per-connection write buffers use.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    Trailer::None.write(out, payload);
}

/// One serving frame (no trailer) for `payload`.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    Trailer::None.encode(payload)
}

/// The payload length a frame header declares, checked against `max`.
pub(crate) fn declared_len(header: [u8; HEADER_LEN], max: u32) -> Result<usize, FrameError> {
    let declared = u32::from_le_bytes(header);
    if declared > max {
        return Err(FrameError::Oversized { declared, max });
    }
    Ok(declared as usize)
}

/// Typed framing errors. These are connection-fatal: framing corruption
/// has no safe resync point, so the caller responds (when possible) and
/// closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds the decoder's configured cap.
    Oversized {
        /// Length the prefix declared.
        declared: u32,
        /// Maximum the decoder accepts.
        max: u32,
    },
    /// The stream ended (EOF) with a partial frame buffered.
    TruncatedEof {
        /// Bytes of the unfinished frame (header + partial payload).
        buffered: usize,
    },
    /// The payload checksum did not match its trailer.
    ChecksumMismatch {
        /// Checksum the trailer carried.
        expected: u64,
        /// Checksum recomputed over the received payload.
        got: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameError::TruncatedEof { buffered } => {
                write!(f, "stream ended mid-frame with {buffered} byte(s) buffered")
            }
            FrameError::ChecksumMismatch { expected, got } => write!(
                f,
                "frame checksum mismatch: trailer {expected:016x}, payload hashes to {got:016x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame decoder over an append-only byte buffer.
///
/// Feed raw bytes with [`FrameDecoder::push`], drain complete payloads
/// with [`FrameDecoder::next_frame`], and report EOF with
/// [`FrameDecoder::finish`] so a trailing partial frame becomes a typed
/// error instead of silent truncation. [`FrameDecoder::read_frame`] is
/// the blocking-socket loop over all three.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
    max_frame_len: u32,
    trailer: Trailer,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// Serving decoder: no trailer, payloads up to `max_frame_len` bytes.
    pub fn new(max_frame_len: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_frame_len,
            trailer: Trailer::None,
            poisoned: None,
        }
    }

    /// Training decoder: checksum trailer, payloads up to 1 GiB.
    pub fn checksummed() -> Self {
        FrameDecoder {
            trailer: Trailer::Checksum,
            ..Self::new(MAX_FRAME_LEN)
        }
    }

    /// Append raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is consumed.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Next complete (and, with a checksum trailer, verified) payload, if
    /// one is buffered.
    ///
    /// `Ok(None)` means "need more bytes". An `Err` poisons the decoder:
    /// every later call reports the same error (framing has no resync).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        match self.complete_frame() {
            Ok(Some(end)) => {
                let payload = self.buf[self.pos + HEADER_LEN..self.pos + end].to_vec();
                self.pos += end + self.trailer.size();
                Ok(Some(payload))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                self.poisoned = Some(e);
                Err(e)
            }
        }
    }

    /// Where the payload of the frame at the front of the buffer ends
    /// (relative to `pos`), once the whole frame has arrived and passed
    /// its checks.
    fn complete_frame(&self) -> Result<Option<usize>, FrameError> {
        let avail = &self.buf[self.pos..];
        let Some(&header) = avail.first_chunk() else {
            return Ok(None);
        };
        let end = HEADER_LEN + declared_len(header, self.max_frame_len)?;
        let total = end + self.trailer.size();
        if avail.len() < total {
            return Ok(None);
        }
        self.trailer
            .verify(&avail[HEADER_LEN..end], &avail[end..total])?;
        Ok(Some(end))
    }

    /// Signal EOF: a partial frame still buffered is a typed truncation
    /// error; a clean frame boundary is `Ok`.
    pub fn finish(&self) -> Result<(), FrameError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        match self.buffered() {
            0 => Ok(()),
            buffered => Err(FrameError::TruncatedEof { buffered }),
        }
    }

    /// Block on `stream` until the next whole frame decodes. A clean EOF
    /// between frames is `Ok(None)`; EOF mid-frame is a typed
    /// [`FrameError::TruncatedEof`]. Interrupted reads are retried; any
    /// other I/O error (a read timeout included) is returned as is.
    pub fn read_frame<E>(&mut self, stream: &mut impl Read) -> Result<Option<Vec<u8>>, E>
    where
        E: From<io::Error> + From<FrameError>,
    {
        let mut tmp = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.next_frame()? {
                return Ok(Some(frame));
            }
            match stream.read(&mut tmp) {
                Ok(0) => {
                    self.finish()?;
                    return Ok(None);
                }
                Ok(n) => self.push(&tmp[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Reusable encode buffer for checksummed (training) frames:
/// [`Trailer::encode`] allocates a fresh `Vec` per call, which shows up at
/// high epoch rates. A `FrameBuf` keeps one buffer alive across epochs;
/// messages are encoded **in place** after the length prefix, then
/// [`FrameBuf::finish`] patches the prefix and appends the checksum
/// trailer:
///
/// ```text
/// let p = buf.payload();        // cleared, positioned after the prefix
/// encode_step_into(p, ...);     // append the message
/// stream.write_all(buf.finish())?;
/// ```
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Byte offset of the current (unsealed) frame's header.
    start: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a frame: clear the buffer, reserve the length prefix, and
    /// hand back the payload sink.
    pub fn payload(&mut self) -> &mut Vec<u8> {
        self.buf.clear();
        self.start = 0;
        self.buf.extend_from_slice(&[0u8; HEADER_LEN]);
        &mut self.buf
    }

    /// Payload bytes encoded so far (for in-place patching of fields at
    /// known offsets — patch **before** [`FrameBuf::finish`] so the
    /// checksum covers the final bytes).
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let at = self.start + HEADER_LEN;
        &mut self.buf[at..]
    }

    /// Seal the current frame in place and start another one behind it,
    /// so several messages accumulate into a single buffer and go out in
    /// one `write_all` — one syscall (and one receiver wake-up) for a
    /// whole burst instead of one per frame. The stream is byte-ordered,
    /// so the receiver's decoder sees exactly the same frame sequence.
    pub fn next_payload(&mut self) -> &mut Vec<u8> {
        Trailer::Checksum.seal(&mut self.buf, self.start);
        self.start = self.buf.len();
        self.buf.extend_from_slice(&[0u8; HEADER_LEN]);
        &mut self.buf
    }

    /// Seal the current frame and return every frame buffered since
    /// [`FrameBuf::payload`], ready for one write.
    pub fn finish(&mut self) -> &[u8] {
        Trailer::Checksum.seal(&mut self.buf, self.start);
        &self.buf
    }
}

/// The frame-trailer checksum: hardware CRC32C where the CPU has it,
/// word-folded FNV-1a elsewhere.
///
/// The training transport moves megabytes of delta floats per epoch, and
/// the checksum runs on both the encode and the verify side of every
/// frame — at 4 tail-sharded workers that is ~2 MB/epoch through this
/// function on the coordinator alone, a measurable slice of the
/// critical path. Two interleaved `crc32q` streams break the serial
/// xor-multiply dependency chain of FNV (≈3 cycles per 8 bytes) into
/// two independent 3-cycle chains (≈3 cycles per 16 bytes), roughly
/// doubling throughput on top of the cheaper op. The streams are seeded
/// differently and packed into the u64 trailer, so any single flipped
/// byte lands in exactly one stream and changes its 32 bits
/// (`tests/dist_parity.rs` proptests corruption detection over random
/// single-byte flips).
///
/// Frames are process-local, same-host, and never persisted: both ends
/// of a socket resolve the same CPU feature, so the two
/// implementations never need to agree with each other, and neither
/// owes compatibility to the on-disk digests, which stay on `fnv1a64`.
pub(crate) fn frame_checksum(data: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static HAS_SSE42: OnceLock<bool> = OnceLock::new();
        if *HAS_SSE42.get_or_init(|| std::arch::is_x86_feature_detected!("sse4.2")) {
            // SAFETY: guarded by the runtime feature check above.
            return unsafe { crc32c_checksum(data) };
        }
    }
    fnv_checksum(data)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_checksum(data: &[u8]) -> u64 {
    use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut a: u64 = 0xffff_ffff; // even 8-byte words
    let mut b: u64 = 0x5a5a_5a5a; // odd 8-byte words
    let mut pairs = data.chunks_exact(16);
    for p in &mut pairs {
        a = _mm_crc32_u64(a, u64::from_le_bytes(p[..8].try_into().unwrap()));
        b = _mm_crc32_u64(b, u64::from_le_bytes(p[8..].try_into().unwrap()));
    }
    let rem = pairs.remainder();
    let mut words = rem.chunks_exact(8);
    for w in &mut words {
        a = _mm_crc32_u64(a, u64::from_le_bytes(w.try_into().unwrap()));
    }
    for &byte in words.remainder() {
        a = u64::from(_mm_crc32_u8(a as u32, byte));
    }
    (a << 32) | b
}

/// Portable fallback: FNV-1a folded over 8-byte little-endian words
/// (plus a byte-at-a-time tail), ~7× the byte-at-a-time
/// [`crate::digest::fnv1a64`].
fn fnv_checksum(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_frame_roundtrip() {
        let mut d = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        d.push(&encode_frame(b"hello"));
        assert_eq!(d.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(d.next_frame().unwrap(), None);
        d.finish().unwrap();
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let mut d = FrameDecoder::new(64);
        let wire = encode_frame(b"abc");
        for &b in &wire {
            d.push(&[b]);
        }
        assert_eq!(d.next_frame().unwrap().as_deref(), Some(&b"abc"[..]));
    }

    #[test]
    fn oversized_header_is_typed_and_sticky() {
        let mut corrupt = Trailer::Checksum.encode(b"payload");
        corrupt[HEADER_LEN] ^= 1;
        let mismatch = FrameError::ChecksumMismatch {
            expected: frame_checksum(b"payload"),
            got: frame_checksum(b"qayload"),
        };
        let oversized = FrameError::Oversized {
            declared: 9,
            max: 8,
        };
        let cases = [
            (FrameDecoder::new(8), encode_frame(&[0u8; 9]), oversized),
            (FrameDecoder::checksummed(), corrupt, mismatch),
        ];
        for (mut d, wire, want) in cases {
            d.push(&wire);
            let e = d.next_frame().unwrap_err();
            assert_eq!(e, want);
            assert_eq!(d.next_frame().unwrap_err(), e, "poisoned decoder sticks");
            assert_eq!(d.finish().unwrap_err(), e);
        }
    }

    #[test]
    fn eof_mid_frame_is_truncation() {
        let mut d = FrameDecoder::new(64);
        let wire = encode_frame(b"abcdef");
        d.push(&wire[..wire.len() - 2]);
        assert_eq!(d.next_frame().unwrap(), None);
        assert!(matches!(
            d.finish().unwrap_err(),
            FrameError::TruncatedEof { buffered: 8 }
        ));
    }

    #[test]
    fn empty_payload_frames_are_legal_at_frame_layer() {
        let mut d = FrameDecoder::new(64);
        d.push(&encode_frame(b""));
        assert_eq!(d.next_frame().unwrap().as_deref(), Some(&b""[..]));
        d.finish().unwrap();
    }

    #[test]
    fn frame_roundtrip_arbitrary_split() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![42], (0..255).collect()];
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&Trailer::Checksum.encode(p));
        }
        // Byte-at-a-time must decode identically to all-at-once.
        let mut dec = FrameDecoder::checksummed();
        let mut got = Vec::new();
        for &b in &stream {
            dec.push(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        dec.finish().unwrap();
        assert_eq!(got, payloads);
    }

    #[test]
    fn corrupt_payload_is_checksum_mismatch() {
        let mut f = Trailer::Checksum.encode(b"delta payload");
        f[HEADER_LEN + 3] ^= 0x10;
        let mut dec = FrameDecoder::checksummed();
        dec.push(&f);
        let err = dec.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::ChecksumMismatch { .. }), "{err}");
        // Poisoned afterwards.
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn oversized_frame_is_typed() {
        let mut dec = FrameDecoder::checksummed();
        dec.push(&(u32::MAX).to_le_bytes());
        let err = dec.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }), "{err}");
    }

    #[test]
    fn truncated_stream_is_typed_at_eof() {
        let f = Trailer::Checksum.encode(b"whole frame");
        let mut dec = FrameDecoder::checksummed();
        dec.push(&f[..f.len() - 3]);
        assert_eq!(dec.next_frame().unwrap(), None);
        let err = dec.finish().unwrap_err();
        assert!(matches!(err, FrameError::TruncatedEof { .. }), "{err}");
    }

    #[test]
    fn frame_buf_matches_encode_frame_and_reuses_allocation() {
        let mut buf = FrameBuf::new();
        for payload in [b"abc".as_slice(), b"".as_slice(), b"longer payload!!"] {
            let p = buf.payload();
            p.extend_from_slice(payload);
            assert_eq!(buf.finish(), Trailer::Checksum.encode(payload).as_slice());
        }
        // Patching through payload_mut lands inside the checksummed bytes.
        let p = buf.payload();
        p.extend_from_slice(&[0u8; 8]);
        buf.payload_mut()[..8].copy_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        let framed = buf.finish().to_vec();
        let mut dec = FrameDecoder::checksummed();
        dec.push(&framed);
        let out = dec.next_frame().unwrap().unwrap();
        assert_eq!(out, 0x0123_4567_89AB_CDEFu64.to_le_bytes());
    }
}
