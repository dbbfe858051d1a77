//! Message codec for the distributed-training transport.
//!
//! Frames are the checksummed flavour of the shared codec in
//! [`crate::frame`] (`FrameDecoder::checksummed`, `FrameBuf`,
//! [`Trailer::Checksum`]), so a torn or corrupted delta exchange surfaces
//! as a typed [`FrameError::ChecksumMismatch`] instead of silently
//! perturbing training. Wire format of one frame:
//!
//! ```text
//! [u32 LE payload length][payload bytes][u64 LE frame_checksum(payload)]
//! ```
//!
//! All multi-byte integers and floats are little-endian; `f64`s travel as
//! `to_le_bytes`/`from_le_bytes`, which round-trips every bit pattern —
//! the process-count-parity contract depends on that exactness.

use crate::frame::{declared_len, FrameError, Trailer, HEADER_LEN, MAX_FRAME_LEN, TRAILER_LEN};
use crate::loss::Grads;
use crate::model::TcssModel;
use crate::sparse_grads::SparseGrads;
use tcss_linalg::Matrix;
use tcss_sparse::TensorEntry;

/// Message tags (first payload byte).
pub(crate) const TAG_HELLO: u8 = 1;
pub(crate) const TAG_SETUP: u8 = 2;
pub(crate) const TAG_STEP: u8 = 3;
pub(crate) const TAG_DELTAS: u8 = 4;
pub(crate) const TAG_SHUTDOWN: u8 = 5;
/// Tail-sharded protocol (see [`super::sharded`]): coordinator → worker
/// resident-state install (initial, respawn, rollback).
pub(crate) const TAG_ADOPT: u8 = 6;
/// Worker → owner (relayed verbatim): un-merged per-chunk row deltas for
/// rows the destination owns.
pub(crate) const TAG_EXCH: u8 = 7;
/// Worker → coordinator: per-chunk losses and `h` deltas (the coordinator
/// owns `h` and the loss fold).
pub(crate) const TAG_CHUNK_STATS: u8 = 8;
/// Coordinator → worker: Gram + Hausdorff tail gradients for the rows the
/// worker owns (absent when the tail is inactive this epoch).
pub(crate) const TAG_TAIL_ROWS: u8 = 9;
/// Worker → coordinator: per-owned-row gradient self-dots for the global
/// norm fold.
pub(crate) const TAG_NORM_PART: u8 = 10;
/// Coordinator → worker: the watchdog passed; apply Adam with this
/// effective learning rate.
pub(crate) const TAG_VERDICT: u8 = 11;
/// Worker → coordinator: Adam-updated factor rows for the owned ranges.
pub(crate) const TAG_UPD_ROWS: u8 = 12;
/// Coordinator → worker: ship your resident Adam moments (checkpoint
/// assembly).
pub(crate) const TAG_SNAP_REQ: u8 = 13;
/// Worker → coordinator: resident `m`/`v` rows for the owned ranges.
pub(crate) const TAG_SNAP_ROWS: u8 = 14;
/// Coordinator → worker (tail-sharded only): a Step with the worker's
/// owned `U¹` rows punched out of the window — the receiver holds those
/// rows resident (bitwise equal to the coordinator's copy by the
/// UpdatedRows splice invariant) and fills them back in during decode.
pub(crate) const TAG_STEP_OWNED: u8 = 15;

/// Typed decode failures. Every malformed input maps to exactly one of
/// these — the codec never panics and the decoder never blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame itself was oversized, truncated or failed its checksum.
    Frame(FrameError),
    /// A structurally invalid message payload (bad tag, truncated field,
    /// inconsistent dimensions).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "{e}"),
            WireError::Malformed(msg) => write!(f, "malformed message: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

// ---------------------------------------------------------------------
// Raw frames (the tail-sharded relay path)
// ---------------------------------------------------------------------

/// The payload slice of a raw frame (header + payload + trailer) as
/// produced by [`read_raw_frame`] — the relay path keeps frames raw so
/// forwarding is a plain write, with no re-checksumming.
pub(crate) fn raw_frame_payload(raw: &[u8]) -> &[u8] {
    &raw[HEADER_LEN..raw.len() - TRAILER_LEN]
}

/// Whether `buf` starts with one complete frame (header + declared
/// payload + trailer). Reader threads use this to parse ahead through a
/// buffered burst without risking a blocking read mid-frame: an
/// oversized or garbage length simply reports `false` and the next
/// [`read_raw_frame`] surfaces the typed error.
pub(crate) fn complete_frame_buffered(buf: &[u8]) -> bool {
    buf.first_chunk().is_some_and(|&header| {
        let declared = u32::from_le_bytes(header) as usize;
        buf.len().saturating_sub(HEADER_LEN + TRAILER_LEN) >= declared
    })
}

/// Read one complete raw frame (header + payload + trailer) from a
/// blocking stream with `read_exact`, verifying the checksum. A clean EOF
/// between frames is `Ok(None)`; EOF mid-frame or a corrupt frame is a
/// typed error. Used by the coordinator's per-worker reader threads,
/// which need the raw bytes to relay Exch frames verbatim.
pub(crate) fn read_raw_frame(
    stream: &mut impl std::io::Read,
) -> Result<Option<Vec<u8>>, super::DistError> {
    let mut hdr = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        let n = stream.read(&mut hdr[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(FrameError::TruncatedEof { buffered: got }.into());
        }
        got += n;
    }
    let declared = declared_len(hdr, MAX_FRAME_LEN)?;
    let mut raw = vec![0u8; HEADER_LEN + declared + TRAILER_LEN];
    raw[..HEADER_LEN].copy_from_slice(&hdr);
    stream
        .read_exact(&mut raw[HEADER_LEN..])
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::TruncatedEof { buffered: 0 }.into(),
            _ => super::DistError::Io(e),
        })?;
    let (payload, trailer) = raw[HEADER_LEN..].split_at(declared);
    Trailer::Checksum.verify(payload, trailer)?;
    Ok(Some(raw))
}

// ---------------------------------------------------------------------
// Primitive readers
// ---------------------------------------------------------------------

/// Bounds-checked cursor over a message payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Malformed(format!(
                "payload truncated reading {what}: need {n} bytes, have {}",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// `n` contiguous `f64`s appended onto `out`.
    pub(crate) fn f64s_into(
        &mut self,
        n: usize,
        out: &mut Vec<f64>,
        what: &str,
    ) -> Result<(), WireError> {
        let bytes = self.take(n * 8, what)?;
        out.reserve(n);
        for c in bytes.chunks_exact(8) {
            out.push(f64::from_le_bytes(c.try_into().unwrap()));
        }
        Ok(())
    }

    pub(crate) fn done(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after message end",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    out.reserve(vs.len() * 8);
    for &v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Worker → coordinator greeting, sent immediately after connecting.
pub(crate) fn encode_hello(worker: u32) -> Vec<u8> {
    let mut p = vec![TAG_HELLO];
    put_u32(&mut p, worker);
    p
}

pub(crate) fn decode_hello(payload: &[u8]) -> Result<u32, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_HELLO, "Hello")?;
    let w = r.u32("worker id")?;
    r.done()?;
    Ok(w)
}

/// Which entry-chunk kernel the worker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireLoss {
    /// [`crate::loss::l2_entry_chunk`] — the rewritten whole-data positive
    /// term (the Gram tail stays on the coordinator).
    L2Entries = 0,
    /// [`crate::loss::negative_sampling_chunk`] — positives plus sampled
    /// negatives, RNG keyed to the global chunk index.
    NegSampling = 1,
}

/// Everything a stateless worker needs to evaluate its chunk block:
/// tensor, weights, kernel choice, seed, the block of **global** chunk
/// indices it owns, and its thread count.
#[derive(Debug)]
pub(crate) struct Setup {
    pub dims: (usize, usize, usize),
    pub rank: usize,
    pub w_plus: f64,
    pub w_minus: f64,
    pub loss: WireLoss,
    pub seed: u64,
    pub chunk_start: usize,
    pub chunk_end: usize,
    pub threads: usize,
    /// Fleet size — with `tail_shard` this fixes the row-ownership map
    /// (`sparse_grads::owned_range`) every peer derives locally.
    pub n_workers: usize,
    /// Run the owner-computes tail-sharded protocol instead of the plain
    /// stateless-worker one.
    pub tail_shard: bool,
    /// Adam weight decay — tail-sharded workers apply the optimizer
    /// themselves.
    pub weight_decay: f64,
    pub entries: Vec<TensorEntry>,
}

pub(crate) fn encode_setup(s: &Setup) -> Vec<u8> {
    let mut p = vec![TAG_SETUP];
    put_u32(&mut p, s.dims.0 as u32);
    put_u32(&mut p, s.dims.1 as u32);
    put_u32(&mut p, s.dims.2 as u32);
    put_u32(&mut p, s.rank as u32);
    put_f64(&mut p, s.w_plus);
    put_f64(&mut p, s.w_minus);
    p.push(s.loss as u8);
    put_u64(&mut p, s.seed);
    put_u64(&mut p, s.chunk_start as u64);
    put_u64(&mut p, s.chunk_end as u64);
    put_u32(&mut p, s.threads as u32);
    put_u32(&mut p, s.n_workers as u32);
    p.push(s.tail_shard as u8);
    put_f64(&mut p, s.weight_decay);
    put_u64(&mut p, s.entries.len() as u64);
    for e in &s.entries {
        put_u32(&mut p, e.i as u32);
        put_u32(&mut p, e.j as u32);
        put_u32(&mut p, e.k as u32);
        put_f64(&mut p, e.value);
    }
    p
}

pub(crate) fn decode_setup(payload: &[u8]) -> Result<Setup, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_SETUP, "Setup")?;
    let dims = (
        r.u32("dim I")? as usize,
        r.u32("dim J")? as usize,
        r.u32("dim K")? as usize,
    );
    let rank = r.u32("rank")? as usize;
    let w_plus = r.f64("w_plus")?;
    let w_minus = r.f64("w_minus")?;
    let loss = match r.u8("loss strategy")? {
        0 => WireLoss::L2Entries,
        1 => WireLoss::NegSampling,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown loss strategy {other}"
            )))
        }
    };
    let seed = r.u64("seed")?;
    let chunk_start = r.u64("chunk_start")? as usize;
    let chunk_end = r.u64("chunk_end")? as usize;
    let threads = r.u32("threads")? as usize;
    let n_workers = r.u32("n_workers")? as usize;
    let tail_shard = r.u8("tail_shard flag")? != 0;
    let weight_decay = r.f64("weight_decay")?;
    let n = r.u64("entry count")? as usize;
    if n_workers == 0 {
        return Err(WireError::Malformed("setup with zero workers".into()));
    }
    if chunk_start > chunk_end {
        return Err(WireError::Malformed(format!(
            "chunk block start {chunk_start} exceeds end {chunk_end}"
        )));
    }
    let mut entries = Vec::with_capacity(n.min(1 << 24));
    for idx in 0..n {
        let i = r.u32("entry i")? as usize;
        let j = r.u32("entry j")? as usize;
        let k = r.u32("entry k")? as usize;
        let value = r.f64("entry value")?;
        if i >= dims.0 || j >= dims.1 || k >= dims.2 {
            return Err(WireError::Malformed(format!(
                "entry {idx} index ({i}, {j}, {k}) out of bounds for {dims:?}"
            )));
        }
        entries.push(TensorEntry { i, j, k, value });
    }
    r.done()?;
    Ok(Setup {
        dims,
        rank,
        w_plus,
        w_minus,
        loss,
        seed,
        chunk_start,
        chunk_end,
        threads,
        n_workers,
        tail_shard,
        weight_decay,
        entries,
    })
}

/// Coordinator → worker: "evaluate your chunk block against this model".
/// The full model travels every step — factors are a few hundred KB even
/// at bench scale, and a stateless worker is what makes respawn-and-replay
/// recovery trivially bit-exact.
/// Coordinator → worker: one epoch's model. `U²`/`U³`/`h` ship whole;
/// `U¹` ships only the row window `[u1_lo, u1_hi)` — for the entry-loss
/// kernels a worker only ever reads the `U¹` rows its contiguous (sorted
/// COO) chunk block touches, so the coordinator sends each worker its
/// window instead of broadcasting all of `U¹` `N` times. (Negative
/// sampling reads arbitrary rows, so there the coordinator passes the
/// full window.) Unsent rows decode as zeros and are never read, keeping
/// the float stream bit-identical.
#[cfg(test)]
pub(crate) fn encode_step(epoch: u64, model: &TcssModel, u1_lo: usize, u1_hi: usize) -> Vec<u8> {
    let mut p = Vec::new();
    encode_step_into(&mut p, epoch, model, u1_lo, u1_hi);
    p
}

/// [`encode_step`] appending into a caller-owned buffer (a
/// [`crate::frame::FrameBuf`] payload sink) so the per-epoch broadcast reuses its
/// allocation across epochs.
pub(crate) fn encode_step_into(
    p: &mut Vec<u8>,
    epoch: u64,
    model: &TcssModel,
    u1_lo: usize,
    u1_hi: usize,
) {
    let (i, j, k) = model.dims();
    let r = model.rank();
    debug_assert!(u1_lo <= u1_hi && u1_hi <= i);
    p.reserve(1 + 8 + 24 + ((u1_hi - u1_lo) + j + k + 1) * r * 8);
    p.push(TAG_STEP);
    put_u64(p, epoch);
    put_u32(p, i as u32);
    put_u32(p, j as u32);
    put_u32(p, k as u32);
    put_u32(p, r as u32);
    put_u32(p, u1_lo as u32);
    put_u32(p, u1_hi as u32);
    put_f64s(p, &model.u1.as_slice()[u1_lo * r..u1_hi * r]);
    put_f64s(p, model.u2.as_slice());
    put_f64s(p, model.u3.as_slice());
    put_f64s(p, &model.h);
}

pub(crate) fn decode_step(payload: &[u8]) -> Result<(u64, TcssModel), WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_STEP, "Step")?;
    let epoch = r.u64("epoch")?;
    let i = r.u32("dim I")? as usize;
    let j = r.u32("dim J")? as usize;
    let k = r.u32("dim K")? as usize;
    let rank = r.u32("rank")? as usize;
    let u1_lo = r.u32("u1 window lo")? as usize;
    let u1_hi = r.u32("u1 window hi")? as usize;
    if u1_lo > u1_hi || u1_hi > i {
        return Err(WireError::Malformed(format!(
            "U1 window {u1_lo}..{u1_hi} outside dimension {i}"
        )));
    }
    let u1 = {
        let mut window = Vec::new();
        r.f64s_into((u1_hi - u1_lo) * rank, &mut window, "U1 window")?;
        let mut data = vec![0.0; i * rank];
        data[u1_lo * rank..u1_hi * rank].copy_from_slice(&window);
        Matrix::from_vec(i, rank, data)
            .map_err(|e| WireError::Malformed(format!("bad U1 factor: {e}")))?
    };
    let mut factor = |rows: usize, what: &str| -> Result<Matrix, WireError> {
        let mut data = Vec::new();
        r.f64s_into(rows * rank, &mut data, what)?;
        Matrix::from_vec(rows, rank, data)
            .map_err(|e| WireError::Malformed(format!("bad {what} factor: {e}")))
    };
    let u2 = factor(j, "U2")?;
    let u3 = factor(k, "U3")?;
    let mut h = Vec::new();
    r.f64s_into(rank, &mut h, "h")?;
    r.done()?;
    let mut model = TcssModel::try_new(u1, u2, u3)
        .map_err(|e| WireError::Malformed(format!("inconsistent model: {e}")))?;
    model.h = h;
    Ok((epoch, model))
}

/// The owned-rows hole a [`TAG_STEP_OWNED`] frame punches out of a `U¹`
/// window: the intersection of the receiver's owned row range with
/// `[lo, hi)`. Both ends derive it independently from the same
/// [`crate::sparse_grads::owned_range`] map, so it is never on the wire.
pub(crate) fn u1_hole(own: (usize, usize), lo: usize, hi: usize) -> (usize, usize) {
    let h_lo = own.0.clamp(lo, hi);
    let h_hi = own.1.clamp(h_lo, hi);
    (h_lo, h_hi)
}

/// [`encode_step_into`] for a tail-sharded worker: identical layout, but
/// the `U¹` window ships as the two slices around the receiver's owned
/// rows ([`u1_hole`]). At steady state a worker's read window is mostly
/// its own chunk block's rows, so this cuts the per-epoch broadcast to
/// the boundary slivers owned by its neighbors.
pub(crate) fn encode_step_owned_into(
    p: &mut Vec<u8>,
    epoch: u64,
    model: &TcssModel,
    u1_lo: usize,
    u1_hi: usize,
    own: (usize, usize),
) {
    let (i, j, k) = model.dims();
    let r = model.rank();
    debug_assert!(u1_lo <= u1_hi && u1_hi <= i);
    let (h_lo, h_hi) = u1_hole(own, u1_lo, u1_hi);
    let sent = (u1_hi - u1_lo) - (h_hi - h_lo);
    p.reserve(1 + 8 + 24 + (sent + j + k + 1) * r * 8);
    p.push(TAG_STEP_OWNED);
    put_u64(p, epoch);
    put_u32(p, i as u32);
    put_u32(p, j as u32);
    put_u32(p, k as u32);
    put_u32(p, r as u32);
    put_u32(p, u1_lo as u32);
    put_u32(p, u1_hi as u32);
    put_f64s(p, &model.u1.as_slice()[u1_lo * r..h_lo * r]);
    put_f64s(p, &model.u1.as_slice()[h_hi * r..u1_hi * r]);
    put_f64s(p, model.u2.as_slice());
    put_f64s(p, model.u3.as_slice());
    put_f64s(p, &model.h);
}

/// Decode [`TAG_STEP_OWNED`], splicing the receiver's resident owned
/// `U¹` rows (`res_u1`, the full `own` range slab) into the hole. The
/// resident bytes are the same bits the coordinator's model holds for
/// those rows, so the rebuilt window is bit-identical to a plain
/// [`decode_step`] of the full broadcast.
pub(crate) fn decode_step_owned(
    payload: &[u8],
    res_u1: &[f64],
    own: (usize, usize),
) -> Result<(u64, TcssModel), WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_STEP_OWNED, "StepOwned")?;
    let epoch = r.u64("epoch")?;
    let i = r.u32("dim I")? as usize;
    let j = r.u32("dim J")? as usize;
    let k = r.u32("dim K")? as usize;
    let rank = r.u32("rank")? as usize;
    let u1_lo = r.u32("u1 window lo")? as usize;
    let u1_hi = r.u32("u1 window hi")? as usize;
    if u1_lo > u1_hi || u1_hi > i {
        return Err(WireError::Malformed(format!(
            "U1 window {u1_lo}..{u1_hi} outside dimension {i}"
        )));
    }
    if own.0 > own.1 || own.1 > i || res_u1.len() != (own.1 - own.0) * rank {
        return Err(WireError::Malformed(format!(
            "resident rows {}..{} ({} elems) inconsistent with dim {i} rank {rank}",
            own.0,
            own.1,
            res_u1.len()
        )));
    }
    let (h_lo, h_hi) = u1_hole(own, u1_lo, u1_hi);
    let u1 = {
        let mut data = vec![0.0; i * rank];
        let mut seg = Vec::new();
        r.f64s_into((h_lo - u1_lo) * rank, &mut seg, "U1 window head")?;
        data[u1_lo * rank..h_lo * rank].copy_from_slice(&seg);
        seg.clear();
        r.f64s_into((u1_hi - h_hi) * rank, &mut seg, "U1 window tail")?;
        data[h_hi * rank..u1_hi * rank].copy_from_slice(&seg);
        // Empty holes can clamp outside the owned range (a window that
        // never reaches the owned rows); only index `res_u1` when there
        // is something to splice.
        if h_lo < h_hi {
            data[h_lo * rank..h_hi * rank]
                .copy_from_slice(&res_u1[(h_lo - own.0) * rank..(h_hi - own.0) * rank]);
        }
        Matrix::from_vec(i, rank, data)
            .map_err(|e| WireError::Malformed(format!("bad U1 factor: {e}")))?
    };
    let mut factor = |rows: usize, what: &str| -> Result<Matrix, WireError> {
        let mut data = Vec::new();
        r.f64s_into(rows * rank, &mut data, what)?;
        Matrix::from_vec(rows, rank, data)
            .map_err(|e| WireError::Malformed(format!("bad {what} factor: {e}")))
    };
    let u2 = factor(j, "U2")?;
    let u3 = factor(k, "U3")?;
    let mut h = Vec::new();
    r.f64s_into(rank, &mut h, "h")?;
    r.done()?;
    let mut model = TcssModel::try_new(u1, u2, u3)
        .map_err(|e| WireError::Malformed(format!("inconsistent model: {e}")))?;
    model.h = h;
    Ok((epoch, model))
}

/// Worker → coordinator: per-chunk sparse deltas for one step, in
/// ascending global chunk order, **un-merged** — the coordinator replays
/// each chunk's [`SparseGrads::scatter_into`] adds itself, in global chunk
/// order, so a worker-side pre-merge can never change the float stream.
#[cfg(test)]
pub(crate) fn encode_deltas(
    epoch: u64,
    busy_ns: u64,
    rank: usize,
    chunks: &[(f64, SparseGrads)],
) -> Vec<u8> {
    let mut p = Vec::new();
    encode_deltas_into(&mut p, epoch, busy_ns, rank, chunks);
    p
}

/// [`encode_deltas`] appending into a caller-owned buffer so the worker's
/// per-epoch reply reuses its allocation across epochs.
pub(crate) fn encode_deltas_into(
    p: &mut Vec<u8>,
    epoch: u64,
    busy_ns: u64,
    rank: usize,
    chunks: &[(f64, SparseGrads)],
) {
    p.push(TAG_DELTAS);
    put_u64(p, epoch);
    put_u64(p, busy_ns);
    put_u32(p, rank as u32);
    put_u32(p, chunks.len() as u32);
    for (loss, delta) in chunks {
        put_f64(p, *loss);
        let (r, factors, h) = delta.wire_parts();
        debug_assert_eq!(r, rank);
        for (rows, data) in factors {
            put_u32(p, rows.len() as u32);
            for &row in rows {
                put_u32(p, row);
            }
            put_f64s(p, data);
        }
        put_f64s(p, h);
    }
}

/// Peek a Deltas frame's epoch without applying it (the coordinator
/// discards frames from replayed epochs after a rollback).
pub(crate) fn deltas_epoch(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_DELTAS, "Deltas")?;
    r.u64("epoch")
}

/// Decode a Deltas frame, replaying each chunk's scatter adds directly
/// into `grads` and accumulating each chunk's loss into `l2` — one `+=`
/// per touched element / per chunk loss, in payload (= ascending chunk)
/// order, exactly the adds the in-process merge performs. Returns
/// `(busy_ns, chunks_applied)`.
pub(crate) fn apply_deltas(
    payload: &[u8],
    expect_epoch: u64,
    grads: &mut Grads,
    l2: &mut f64,
) -> Result<(u64, usize), WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_DELTAS, "Deltas")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "deltas for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let busy_ns = r.u64("busy_ns")?;
    let rank = r.u32("rank")? as usize;
    if rank != grads.h.len() {
        return Err(WireError::Malformed(format!(
            "delta rank {rank} does not match model rank {}",
            grads.h.len()
        )));
    }
    let n_chunks = r.u32("chunk count")? as usize;
    let mut row_buf: Vec<u32> = Vec::new();
    for c in 0..n_chunks {
        *l2 += r.f64("chunk loss")?;
        for (f, rows_in_factor) in [
            (0usize, grads.u1.rows()),
            (1, grads.u2.rows()),
            (2, grads.u3.rows()),
        ] {
            let n_rows = r.u32("touched-row count")? as usize;
            row_buf.clear();
            row_buf.reserve(n_rows);
            for _ in 0..n_rows {
                row_buf.push(r.u32("row index")?);
            }
            let data = r.take(n_rows * rank * 8, "row data")?;
            let dense = match f {
                0 => &mut grads.u1,
                1 => &mut grads.u2,
                _ => &mut grads.u3,
            };
            for (slot, &row) in row_buf.iter().enumerate() {
                if row as usize >= rows_in_factor {
                    return Err(WireError::Malformed(format!(
                        "chunk {c} factor {f} touches row {row}, but it only has {rows_in_factor}"
                    )));
                }
                let src = &data[slot * rank * 8..(slot + 1) * rank * 8];
                for (d, s) in dense
                    .row_mut(row as usize)
                    .iter_mut()
                    .zip(src.chunks_exact(8))
                {
                    *d += f64::from_le_bytes(s.try_into().unwrap());
                }
            }
        }
        let h_bytes = r.take(rank * 8, "chunk h gradient")?;
        for (d, s) in grads.h.iter_mut().zip(h_bytes.chunks_exact(8)) {
            *d += f64::from_le_bytes(s.try_into().unwrap());
        }
    }
    r.done()?;
    Ok((busy_ns, n_chunks))
}

/// Coordinator → worker: clean exit.
pub(crate) fn encode_shutdown() -> Vec<u8> {
    vec![TAG_SHUTDOWN]
}

// ---------------------------------------------------------------------
// Tail-sharded protocol messages (see `super::sharded` for the epoch
// state machine). Every worker → coordinator message starts with
// `tag, epoch: u64, src: u32` so the coordinator can filter stale replay
// frames and route without a full decode.
// ---------------------------------------------------------------------

fn put_counted_f64s(p: &mut Vec<u8>, vs: &[f64]) {
    put_u32(p, vs.len() as u32);
    put_f64s(p, vs);
}

impl Reader<'_> {
    /// A `u32` count followed by that many `f64`s, validated against an
    /// expected element count.
    fn counted_f64s(
        &mut self,
        expect: usize,
        out: &mut Vec<f64>,
        what: &str,
    ) -> Result<(), WireError> {
        let n = self.u32(what)? as usize;
        if n != expect {
            return Err(WireError::Malformed(format!(
                "{what}: expected {expect} elements, got {n}"
            )));
        }
        self.f64s_into(n, out, what)
    }
}

/// Peek the epoch of any sharded message (all of them lead with
/// `tag, epoch: u64`), for stale-frame filtering without a full decode.
pub(crate) fn msg_epoch(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(payload);
    r.u8("message tag")?;
    r.u64("epoch")
}

/// Peek `(epoch, src)` of any worker → coordinator sharded message.
pub(crate) fn msg_epoch_src(payload: &[u8]) -> Result<(u64, u32), WireError> {
    let mut r = Reader::new(payload);
    r.u8("message tag")?;
    let epoch = r.u64("epoch")?;
    let src = r.u32("src worker")?;
    Ok((epoch, src))
}

/// Coordinator → worker: install resident owned-range state — the model
/// rows, Adam moments, and step counter for the rows this worker owns.
/// Sent once after Setup and again on every rollback/respawn; a worker
/// accepts it at **any** receive point and resets its epoch state.
pub(crate) fn encode_adopt_into(
    p: &mut Vec<u8>,
    epoch: u64,
    t: u64,
    parts: [(&[f64], &[f64], &[f64]); 3],
) {
    p.push(TAG_ADOPT);
    put_u64(p, epoch);
    put_u64(p, t);
    for (w, m, v) in parts {
        debug_assert!(w.len() == m.len() && m.len() == v.len());
        put_counted_f64s(p, w);
        put_counted_f64s(p, m);
        put_counted_f64s(p, v);
    }
}

/// Decoded [`TAG_ADOPT`]: `(epoch, t, per-factor (w, m, v))`.
pub(crate) struct Adopt {
    /// Epoch label for diagnostics; a worker's reset does not depend on
    /// it (the FIFO stream already orders Adopt against Steps).
    #[allow(dead_code)]
    pub epoch: u64,
    pub t: u64,
    pub w: [Vec<f64>; 3],
    pub m: [Vec<f64>; 3],
    pub v: [Vec<f64>; 3],
}

pub(crate) fn decode_adopt(payload: &[u8], expect: [usize; 3]) -> Result<Adopt, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_ADOPT, "Adopt")?;
    let epoch = r.u64("epoch")?;
    let t = r.u64("adam t")?;
    let mut w: [Vec<f64>; 3] = Default::default();
    let mut m: [Vec<f64>; 3] = Default::default();
    let mut v: [Vec<f64>; 3] = Default::default();
    for f in 0..3 {
        r.counted_f64s(expect[f], &mut w[f], "adopted rows")?;
        r.counted_f64s(expect[f], &mut m[f], "adopted m")?;
        r.counted_f64s(expect[f], &mut v[f], "adopted v")?;
    }
    r.done()?;
    Ok(Adopt { epoch, t, w, m, v })
}

/// Worker → owner: un-merged row deltas for rows `dest` owns, in global
/// first-touch order (ascending chunk, first-touch within chunk). The
/// coordinator relays the raw frame verbatim.
pub(crate) fn encode_exch_into(
    p: &mut Vec<u8>,
    epoch: u64,
    src: u32,
    dest: u32,
    rank: usize,
    parts: [(&[u32], &[f64]); 3],
) {
    p.push(TAG_EXCH);
    put_u64(p, epoch);
    put_u32(p, src);
    put_u32(p, dest);
    put_u32(p, rank as u32);
    for (rows, data) in parts {
        debug_assert_eq!(rows.len() * rank, data.len());
        put_u32(p, rows.len() as u32);
        for &row in rows {
            put_u32(p, row);
        }
        put_f64s(p, data);
    }
}

/// Peek `(epoch, src, dest)` of an Exch payload (the relay routes on
/// these without decoding the body).
pub(crate) fn exch_header(payload: &[u8]) -> Result<(u64, u32, u32), WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_EXCH, "Exch")?;
    let epoch = r.u64("epoch")?;
    let src = r.u32("src worker")?;
    let dest = r.u32("dest worker")?;
    Ok((epoch, src, dest))
}

/// Replay an Exch payload's row adds into the receiver's owned-range
/// gradient slabs (one `+=` per element, in payload order). `ranges` are
/// the receiver's owned `[lo, hi)` row ranges per factor; `bufs` are the
/// matching `(hi - lo) * rank` dense accumulators.
pub(crate) fn apply_exch(
    payload: &[u8],
    expect_epoch: u64,
    rank: usize,
    ranges: [(usize, usize); 3],
    bufs: &mut [Vec<f64>; 3],
) -> Result<(), WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_EXCH, "Exch")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "exchange for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let _src = r.u32("src worker")?;
    let _dest = r.u32("dest worker")?;
    let got_rank = r.u32("rank")? as usize;
    if got_rank != rank {
        return Err(WireError::Malformed(format!(
            "exchange rank {got_rank} does not match model rank {rank}"
        )));
    }
    for (f, (lo, hi)) in ranges.into_iter().enumerate() {
        let n_rows = r.u32("touched-row count")? as usize;
        let mut rows = Vec::with_capacity(n_rows.min(1 << 20));
        for _ in 0..n_rows {
            rows.push(r.u32("row index")? as usize);
        }
        let data = r.take(n_rows * rank * 8, "row data")?;
        let buf = &mut bufs[f];
        for (slot, &row) in rows.iter().enumerate() {
            if row < lo || row >= hi {
                return Err(WireError::Malformed(format!(
                    "exchange factor {f} touches row {row} outside owned range {lo}..{hi}"
                )));
            }
            let src = &data[slot * rank * 8..(slot + 1) * rank * 8];
            for (d, s) in buf[(row - lo) * rank..(row - lo + 1) * rank]
                .iter_mut()
                .zip(src.chunks_exact(8))
            {
                *d += f64::from_le_bytes(s.try_into().unwrap());
            }
        }
    }
    r.done()?;
    Ok(())
}

/// Worker → coordinator: per-chunk losses and dense `h` deltas, ascending
/// chunk order — the coordinator owns `h` and folds the global loss.
pub(crate) fn encode_chunk_stats_into(
    p: &mut Vec<u8>,
    epoch: u64,
    src: u32,
    rank: usize,
    chunks: &[(f64, SparseGrads)],
) {
    p.push(TAG_CHUNK_STATS);
    put_u64(p, epoch);
    put_u32(p, src);
    put_u32(p, rank as u32);
    put_u32(p, chunks.len() as u32);
    for (loss, delta) in chunks {
        put_f64(p, *loss);
        let (r, _factors, h) = delta.wire_parts();
        debug_assert_eq!(r, rank);
        put_f64s(p, h);
    }
}

/// Decoded [`TAG_CHUNK_STATS`]: per-chunk losses plus the flattened
/// `n_chunks × rank` `h` deltas.
pub(crate) fn decode_chunk_stats(
    payload: &[u8],
    expect_epoch: u64,
    rank: usize,
) -> Result<(u32, Vec<f64>, Vec<f64>), WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_CHUNK_STATS, "ChunkStats")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "chunk stats for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let src = r.u32("src worker")?;
    let got_rank = r.u32("rank")? as usize;
    if got_rank != rank {
        return Err(WireError::Malformed(format!(
            "chunk stats rank {got_rank} does not match model rank {rank}"
        )));
    }
    let n = r.u32("chunk count")? as usize;
    let mut losses = Vec::with_capacity(n.min(1 << 20));
    let mut h = Vec::new();
    for _ in 0..n {
        losses.push(r.f64("chunk loss")?);
        r.f64s_into(rank, &mut h, "chunk h delta")?;
    }
    r.done()?;
    Ok((src, losses, h))
}

/// Coordinator → worker: the epoch's gradient tail, in one of three
/// shapes (the mode byte after the epoch):
///
/// * `0` — tail inactive; the worker must skip the add entirely
///   (adding zeros could flip `-0.0` accumulators to `+0.0`).
/// * `1` — dense owned-range tail rows (Gram + Hausdorff head), added
///   with a plain axpy. Shipped on Hausdorff epochs, whose gradient has
///   no compact factorization.
/// * `2` — the three `r × r` whole-data D matrices; the worker rebuilds
///   its owned tail rows as `2·U^f·D^f` with
///   [`tcss_linalg::Matrix::row_product_into`], bit-for-bit what the
///   coordinator's dense path computes, at ~`3r²` floats on the wire
///   instead of the owned row count.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TailMsg {
    Inactive,
    Dense([Vec<f64>; 3]),
    Gram([Vec<f64>; 3]),
}

pub(crate) fn encode_tail_inactive_into(p: &mut Vec<u8>, epoch: u64) {
    p.push(TAG_TAIL_ROWS);
    put_u64(p, epoch);
    p.push(0);
}

pub(crate) fn encode_tail_rows_into(p: &mut Vec<u8>, epoch: u64, parts: [&[f64]; 3]) {
    p.push(TAG_TAIL_ROWS);
    put_u64(p, epoch);
    p.push(1);
    for part in parts {
        put_counted_f64s(p, part);
    }
}

pub(crate) fn encode_tail_gram_into(p: &mut Vec<u8>, epoch: u64, d: &[tcss_linalg::Matrix; 3]) {
    p.push(TAG_TAIL_ROWS);
    put_u64(p, epoch);
    p.push(2);
    for m in d {
        put_counted_f64s(p, m.as_slice());
    }
}

/// Decode [`TAG_TAIL_ROWS`]. `expect` is the per-factor owned-range
/// element count (dense mode), `rank` the model rank (gram mode ships
/// `rank²` elements per factor).
pub(crate) fn decode_tail_rows(
    payload: &[u8],
    expect_epoch: u64,
    expect: [usize; 3],
    rank: usize,
) -> Result<TailMsg, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_TAIL_ROWS, "TailRows")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "tail rows for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let mode = r.u8("tail mode")?;
    match mode {
        0 => {
            r.done()?;
            Ok(TailMsg::Inactive)
        }
        1 => {
            let mut parts: [Vec<f64>; 3] = Default::default();
            for f in 0..3 {
                r.counted_f64s(expect[f], &mut parts[f], "tail rows")?;
            }
            r.done()?;
            Ok(TailMsg::Dense(parts))
        }
        2 => {
            let mut mats: [Vec<f64>; 3] = Default::default();
            for m in &mut mats {
                r.counted_f64s(rank * rank, m, "tail gram matrix")?;
            }
            r.done()?;
            Ok(TailMsg::Gram(mats))
        }
        other => Err(WireError::Malformed(format!("unknown tail mode {other}"))),
    }
}

/// Worker → coordinator: per-owned-row gradient self-dots, row-ascending
/// per factor — the coordinator folds these into the global gradient norm
/// in factor-major, worker-ascending order.
pub(crate) fn encode_norm_part_into(p: &mut Vec<u8>, epoch: u64, src: u32, dots: [&[f64]; 3]) {
    p.push(TAG_NORM_PART);
    put_u64(p, epoch);
    put_u32(p, src);
    for d in dots {
        put_counted_f64s(p, d);
    }
}

pub(crate) fn decode_norm_part(
    payload: &[u8],
    expect_epoch: u64,
    expect: [usize; 3],
) -> Result<(u32, [Vec<f64>; 3]), WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_NORM_PART, "NormPartial")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "norm partial for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let src = r.u32("src worker")?;
    let mut dots: [Vec<f64>; 3] = Default::default();
    for f in 0..3 {
        r.counted_f64s(expect[f], &mut dots[f], "row dots")?;
    }
    r.done()?;
    Ok((src, dots))
}

/// Coordinator → worker: the divergence watchdog passed; apply Adam to
/// your owned rows with this effective learning rate (`lr · lr_scale`,
/// multiplied once on the coordinator so every peer uses the same bits).
pub(crate) fn encode_verdict_into(p: &mut Vec<u8>, epoch: u64, lr_eff: f64) {
    p.push(TAG_VERDICT);
    put_u64(p, epoch);
    put_f64(p, lr_eff);
}

pub(crate) fn decode_verdict(payload: &[u8], expect_epoch: u64) -> Result<f64, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_VERDICT, "Verdict")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "verdict for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let lr_eff = r.f64("effective lr")?;
    r.done()?;
    Ok(lr_eff)
}

/// `busy_ns` lives at this payload offset in an UpdatedRows message
/// (tag + epoch + src); the worker patches the real figure over the
/// placeholder after encoding, before framing.
pub(crate) const UPD_ROWS_BUSY_OFFSET: usize = 13;

/// Worker → coordinator: Adam-updated factor rows for the owned ranges —
/// the coordinator splices them into the authoritative model.
pub(crate) fn encode_upd_rows_into(
    p: &mut Vec<u8>,
    epoch: u64,
    src: u32,
    busy_ns: u64,
    parts: [&[f64]; 3],
) {
    p.push(TAG_UPD_ROWS);
    put_u64(p, epoch);
    put_u32(p, src);
    put_u64(p, busy_ns);
    for part in parts {
        put_counted_f64s(p, part);
    }
}

/// Decode [`TAG_UPD_ROWS`], copying the updated rows straight into the
/// caller's model slices (no intermediate buffer). Returns `busy_ns`.
pub(crate) fn apply_upd_rows(
    payload: &[u8],
    expect_epoch: u64,
    dests: [&mut [f64]; 3],
) -> Result<u64, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_UPD_ROWS, "UpdatedRows")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "updated rows for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let _src = r.u32("src worker")?;
    let busy_ns = r.u64("busy_ns")?;
    for dest in dests {
        let n = r.u32("updated row count")? as usize;
        if n != dest.len() {
            return Err(WireError::Malformed(format!(
                "updated rows: expected {} elements, got {n}",
                dest.len()
            )));
        }
        let bytes = r.take(n * 8, "updated row data")?;
        for (d, s) in dest.iter_mut().zip(bytes.chunks_exact(8)) {
            *d = f64::from_le_bytes(s.try_into().unwrap());
        }
    }
    r.done()?;
    Ok(busy_ns)
}

/// Coordinator → worker: ship your resident Adam moments so the
/// coordinator can assemble a worker-count-independent checkpoint.
pub(crate) fn encode_snap_req_into(p: &mut Vec<u8>, epoch: u64) {
    p.push(TAG_SNAP_REQ);
    put_u64(p, epoch);
}

pub(crate) fn decode_snap_req(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_SNAP_REQ, "SnapReq")?;
    let epoch = r.u64("epoch")?;
    r.done()?;
    Ok(epoch)
}

/// Worker → coordinator: resident `m`/`v` moments for the owned ranges.
pub(crate) fn encode_snap_rows_into(
    p: &mut Vec<u8>,
    epoch: u64,
    src: u32,
    m: [&[f64]; 3],
    v: [&[f64]; 3],
) {
    p.push(TAG_SNAP_ROWS);
    put_u64(p, epoch);
    put_u32(p, src);
    for part in m {
        put_counted_f64s(p, part);
    }
    for part in v {
        put_counted_f64s(p, part);
    }
}

/// Decode [`TAG_SNAP_ROWS`], splicing the moments into the caller's
/// full-model Adam slices.
pub(crate) fn apply_snap_rows(
    payload: &[u8],
    expect_epoch: u64,
    m_dests: [&mut [f64]; 3],
    v_dests: [&mut [f64]; 3],
) -> Result<(), WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_SNAP_ROWS, "SnapRows")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "snap rows for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let _src = r.u32("src worker")?;
    for dest in m_dests.into_iter().chain(v_dests) {
        let n = r.u32("moment count")? as usize;
        if n != dest.len() {
            return Err(WireError::Malformed(format!(
                "snap rows: expected {} elements, got {n}",
                dest.len()
            )));
        }
        let bytes = r.take(n * 8, "moment data")?;
        for (d, s) in dest.iter_mut().zip(bytes.chunks_exact(8)) {
            *d = f64::from_le_bytes(s.try_into().unwrap());
        }
    }
    r.done()?;
    Ok(())
}

/// The tag of a decoded payload (empty payloads are malformed).
pub(crate) fn tag_of(payload: &[u8]) -> Result<u8, WireError> {
    payload
        .first()
        .copied()
        .ok_or_else(|| WireError::Malformed("empty message payload".into()))
}

fn expect_tag(r: &mut Reader<'_>, tag: u8, name: &str) -> Result<(), WireError> {
    let got = r.u8("message tag")?;
    if got != tag {
        return Err(WireError::Malformed(format!(
            "expected {name} (tag {tag}), got tag {got}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worker patches `busy_ns` over its placeholder after encoding
    /// (so encode time itself is counted); the field must stay at bytes
    /// 9..17 of the Deltas payload.
    #[test]
    fn deltas_busy_ns_lives_at_bytes_9_to_17() {
        let (u1, u2, u3) = crate::init::random_init((2, 2, 2), 2, 1);
        let model = TcssModel::new(u1, u2, u3);
        let mut payload = encode_deltas(3, 0, 2, &[]);
        payload[9..17].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        let mut grads = Grads::zeros(&model);
        let mut l2 = 0.0;
        let (busy, n) = apply_deltas(&payload, 3, &mut grads, &mut l2).expect("decodes");
        assert_eq!(busy, 0xDEAD_BEEF);
        assert_eq!(n, 0);
    }

    #[test]
    fn setup_roundtrip() {
        let setup = Setup {
            dims: (6, 5, 4),
            rank: 3,
            w_plus: 0.95,
            w_minus: 0.05,
            loss: WireLoss::NegSampling,
            seed: 0xDEADBEEF,
            chunk_start: 2,
            chunk_end: 7,
            threads: 2,
            n_workers: 3,
            tail_shard: true,
            weight_decay: 0.015,
            entries: vec![
                TensorEntry {
                    i: 1,
                    j: 2,
                    k: 3,
                    value: 1.0,
                },
                TensorEntry {
                    i: 5,
                    j: 0,
                    k: 0,
                    value: -0.25,
                },
            ],
        };
        let s = decode_setup(&encode_setup(&setup)).unwrap();
        assert_eq!(s.dims, setup.dims);
        assert_eq!(s.rank, setup.rank);
        assert_eq!(s.loss, setup.loss);
        assert_eq!(s.seed, setup.seed);
        assert_eq!((s.chunk_start, s.chunk_end), (2, 7));
        assert_eq!(s.threads, 2);
        assert_eq!(s.n_workers, 3);
        assert!(s.tail_shard);
        assert_eq!(s.weight_decay.to_bits(), 0.015f64.to_bits());
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.entries[1].value.to_bits(), (-0.25f64).to_bits());
    }

    #[test]
    fn setup_rejects_out_of_bounds_entry() {
        let setup = Setup {
            dims: (2, 2, 2),
            rank: 1,
            w_plus: 0.9,
            w_minus: 0.1,
            loss: WireLoss::L2Entries,
            seed: 0,
            chunk_start: 0,
            chunk_end: 1,
            threads: 1,
            n_workers: 1,
            tail_shard: false,
            weight_decay: 0.0,
            entries: vec![TensorEntry {
                i: 2,
                j: 0,
                k: 0,
                value: 1.0,
            }],
        };
        let err = decode_setup(&encode_setup(&setup)).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
    }

    #[test]
    fn step_roundtrip_is_bit_exact() {
        let u1 =
            Matrix::from_vec(3, 2, vec![0.1, -0.2, 1e-300, f64::MIN_POSITIVE, 3.0, 4.0]).unwrap();
        let u2 = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let u3 = Matrix::from_vec(2, 2, vec![-1.0, -2.0, -3.0, -4.0]).unwrap();
        let mut model = TcssModel::new(u1, u2, u3);
        model.h = vec![0.5, -0.0];
        let (epoch, decoded) = decode_step(&encode_step(17, &model, 0, 3)).unwrap();
        assert_eq!(epoch, 17);

        // A partial U¹ window round-trips the shipped rows bit-exactly and
        // zero-fills the rest.
        let (_, windowed) = decode_step(&encode_step(17, &model, 1, 3)).unwrap();
        assert_eq!(windowed.u1.row(0), &[0.0, 0.0]);
        assert_eq!(windowed.u1.row(1), model.u1.row(1));
        assert_eq!(windowed.u1.row(2), model.u1.row(2));
        let bits = |m: &TcssModel| -> Vec<u64> {
            m.u1.as_slice()
                .iter()
                .chain(m.u2.as_slice())
                .chain(m.u3.as_slice())
                .chain(&m.h)
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&model), bits(&decoded));
    }

    /// StepOwned with a resident fill must land on the same bits as a
    /// plain Step of the full window, for holes at every position in the
    /// window — interior, flush with either edge, covering it entirely,
    /// and disjoint from it.
    #[test]
    fn step_owned_matches_full_step_bitwise() {
        let r = 2usize;
        let u1 =
            Matrix::from_vec(6, r, (0..12).map(|v| (v as f64) * 0.125 + 1e-300).collect()).unwrap();
        let u2 = Matrix::from_vec(2, r, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let u3 = Matrix::from_vec(2, r, vec![-1.0, -2.0, -3.0, -4.0]).unwrap();
        let mut model = TcssModel::new(u1, u2, u3);
        model.h = vec![0.5, -0.0];
        for (lo, hi, own) in [
            (1, 5, (2, 4)), // interior hole
            (1, 5, (0, 3)), // hole flush with the window start
            (1, 5, (4, 6)), // hole flush with the window end
            (2, 4, (0, 6)), // owned range covers the whole window
            (0, 2, (4, 6)), // owned range disjoint from the window
            (0, 6, (0, 6)), // everything resident, nothing shipped
        ] {
            let mut p = Vec::new();
            encode_step_owned_into(&mut p, 17, &model, lo, hi, own);
            let res: Vec<f64> = model.u1.as_slice()[own.0 * r..own.1 * r].to_vec();
            let (epoch, got) = decode_step_owned(&p, &res, own).unwrap();
            assert_eq!(epoch, 17);
            let (_, want) = decode_step(&encode_step(17, &model, lo, hi)).unwrap();
            // The hole is own ∩ window and the resident bits equal the
            // coordinator's model bits, so the rebuilt model must match
            // the full-window decode everywhere (zero fill included).
            assert_eq!(
                got.u1.as_slice(),
                want.u1.as_slice(),
                "{lo}..{hi} own {own:?}"
            );
            assert_eq!(got.u2.as_slice(), want.u2.as_slice());
            assert_eq!(got.u3.as_slice(), want.u3.as_slice());
            assert_eq!(got.h, want.h);
        }
    }

    #[test]
    fn deltas_apply_matches_scatter_into_bitwise() {
        use crate::init::random_init;
        use crate::sparse_grads::{backprop_entry_sparse, GradScratch};
        let (u1, u2, u3) = random_init((5, 6, 4), 3, 11);
        let model = TcssModel::new(u1, u2, u3);
        let mut scratch = GradScratch::for_model(&model);
        let mut chunks = Vec::new();
        for c in 0..3usize {
            let mut delta = SparseGrads::new();
            delta.begin(&model);
            backprop_entry_sparse(
                &model,
                &mut delta,
                &mut scratch,
                c,
                c + 1,
                c % 4,
                0.5 + c as f64,
            );
            backprop_entry_sparse(&model, &mut delta, &mut scratch, c, 0, 0, -1.25);
            delta.detach(&mut scratch);
            chunks.push((0.125 * (c as f64 + 1.0), delta));
        }
        let mut direct = Grads::zeros(&model);
        let mut direct_loss = 0.0;
        for (l, d) in &chunks {
            direct_loss += l;
            d.scatter_into(&mut direct);
        }
        let payload = encode_deltas(9, 1234, model.rank(), &chunks);
        assert_eq!(deltas_epoch(&payload).unwrap(), 9);
        let mut wired = Grads::zeros(&model);
        let mut wired_loss = 0.0;
        let (busy, n) = apply_deltas(&payload, 9, &mut wired, &mut wired_loss).unwrap();
        assert_eq!((busy, n), (1234, 3));
        assert_eq!(direct_loss.to_bits(), wired_loss.to_bits());
        let bits = |g: &Grads| -> Vec<u64> {
            g.u1.as_slice()
                .iter()
                .chain(g.u2.as_slice())
                .chain(g.u3.as_slice())
                .chain(&g.h)
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&direct), bits(&wired));
    }

    #[test]
    fn read_raw_frame_roundtrips_and_rejects_corruption() {
        let good = Trailer::Checksum.encode(b"exchange body");
        let raw = read_raw_frame(&mut &good[..]).unwrap().unwrap();
        assert_eq!(raw, good);
        assert_eq!(raw_frame_payload(&raw), b"exchange body");
        // Clean EOF between frames.
        assert!(read_raw_frame(&mut &[][..]).unwrap().is_none());
        // Truncated and corrupt streams are typed errors.
        assert!(read_raw_frame(&mut &good[..good.len() - 2]).is_err());
        let mut bad = good;
        bad[HEADER_LEN + 1] ^= 0x40;
        assert!(read_raw_frame(&mut &bad[..]).is_err());
    }

    #[test]
    fn adopt_roundtrip_is_bit_exact() {
        let mut p = Vec::new();
        let w = [vec![1.5, -0.0], vec![2.0], vec![1e-300, 4.0, 5.0]];
        let m = [vec![0.1, 0.2], vec![0.3], vec![0.4, 0.5, 0.6]];
        let v = [vec![9.0, 8.0], vec![7.0], vec![6.0, 5.0, 4.0]];
        encode_adopt_into(
            &mut p,
            11,
            42,
            [
                (&w[0][..], &m[0][..], &v[0][..]),
                (&w[1][..], &m[1][..], &v[1][..]),
                (&w[2][..], &m[2][..], &v[2][..]),
            ],
        );
        let a = decode_adopt(&p, [2, 1, 3]).unwrap();
        assert_eq!((a.epoch, a.t), (11, 42));
        assert_eq!(a.w[0][1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(a.w, w);
        assert_eq!(a.m, m);
        assert_eq!(a.v, v);
        assert!(decode_adopt(&p, [2, 2, 3]).is_err());
    }

    #[test]
    fn exch_apply_replays_adds_in_payload_order() {
        let mut p = Vec::new();
        // rank 2, receiver owns u1 rows 2..5, u2 rows 0..1, u3 rows 0..0.
        let rows1 = [3u32, 2, 3];
        let data1 = [1.0, 2.0, 10.0, 20.0, 0.5, 0.25];
        encode_exch_into(
            &mut p,
            7,
            1,
            0,
            2,
            [
                (&rows1[..], &data1[..]),
                (&[0u32][..], &[-1.0, -2.0][..]),
                (&[][..], &[][..]),
            ],
        );
        assert_eq!(exch_header(&p).unwrap(), (7, 1, 0));
        let mut bufs = [vec![0.0; 6], vec![0.0; 2], vec![]];
        apply_exch(&p, 7, 2, [(2, 5), (0, 1), (0, 0)], &mut bufs).unwrap();
        // Row 3 accumulated twice (1.0+0.5, 2.0+0.25), row 2 once.
        assert_eq!(bufs[0], vec![10.0, 20.0, 1.5, 2.25, 0.0, 0.0]);
        assert_eq!(bufs[1], vec![-1.0, -2.0]);
        // Out-of-range rows and wrong epochs are typed errors.
        assert!(apply_exch(&p, 8, 2, [(2, 5), (0, 1), (0, 0)], &mut bufs).is_err());
        assert!(apply_exch(&p, 7, 2, [(3, 5), (0, 1), (0, 0)], &mut bufs).is_err());
    }

    #[test]
    fn chunk_stats_roundtrip() {
        use crate::sparse_grads::{backprop_entry_sparse, GradScratch};
        let (u1, u2, u3) = crate::init::random_init((3, 3, 3), 2, 9);
        let model = TcssModel::new(u1, u2, u3);
        let mut scratch = GradScratch::for_model(&model);
        let mut chunks = Vec::new();
        let mut want_h = Vec::new();
        for c in 0..2usize {
            let mut d = SparseGrads::new();
            d.begin(&model);
            backprop_entry_sparse(&model, &mut d, &mut scratch, c, c, c, 0.5 + c as f64);
            d.detach(&mut scratch);
            let (_, _, h) = d.wire_parts();
            want_h.extend_from_slice(h);
            chunks.push((0.25 * (c as f64 + 1.0), d));
        }
        let mut p = Vec::new();
        encode_chunk_stats_into(&mut p, 4, 2, 2, &chunks);
        assert_eq!(msg_epoch_src(&p).unwrap(), (4, 2));
        let (src, losses, h) = decode_chunk_stats(&p, 4, 2).unwrap();
        assert_eq!(src, 2);
        assert_eq!(losses, vec![0.25, 0.5]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&h), bits(&want_h));
        assert!(decode_chunk_stats(&p, 5, 2).is_err());
    }

    #[test]
    fn tail_rows_all_modes_roundtrip() {
        let mut p = Vec::new();
        encode_tail_inactive_into(&mut p, 3);
        assert_eq!(
            decode_tail_rows(&p, 3, [2, 1, 0], 2).unwrap(),
            TailMsg::Inactive
        );
        p.clear();
        let parts = [vec![0.5, -0.5], vec![1e-20], vec![]];
        encode_tail_rows_into(&mut p, 3, [&parts[0], &parts[1], &parts[2]]);
        let got = decode_tail_rows(&p, 3, [2, 1, 0], 2).unwrap();
        assert_eq!(got, TailMsg::Dense(parts));
        assert!(decode_tail_rows(&p, 3, [1, 1, 0], 2).is_err());
        p.clear();
        let d = [
            tcss_linalg::Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
            tcss_linalg::Matrix::zeros(2, 2),
            tcss_linalg::Matrix::identity(2),
        ];
        encode_tail_gram_into(&mut p, 3, &d);
        match decode_tail_rows(&p, 3, [2, 1, 0], 2).unwrap() {
            TailMsg::Gram(mats) => {
                for (got, want) in mats.iter().zip(d.iter()) {
                    assert_eq!(got.as_slice(), want.as_slice());
                }
            }
            other => panic!("expected gram tail, got {other:?}"),
        }
        // Wrong rank and an unknown mode byte are decode errors.
        assert!(decode_tail_rows(&p, 3, [2, 1, 0], 3).is_err());
        p.clear();
        p.push(TAG_TAIL_ROWS);
        put_u64(&mut p, 3);
        p.push(9);
        assert!(decode_tail_rows(&p, 3, [2, 1, 0], 2).is_err());
    }

    #[test]
    fn norm_part_verdict_and_snap_roundtrip() {
        let mut p = Vec::new();
        encode_norm_part_into(&mut p, 6, 1, [&[1.0, 2.0], &[3.0], &[]]);
        let (src, dots) = decode_norm_part(&p, 6, [2, 1, 0]).unwrap();
        assert_eq!(src, 1);
        assert_eq!(dots[0], vec![1.0, 2.0]);

        p.clear();
        encode_verdict_into(&mut p, 6, 0.00125);
        assert_eq!(
            decode_verdict(&p, 6).unwrap().to_bits(),
            0.00125f64.to_bits()
        );
        assert!(decode_verdict(&p, 7).is_err());

        p.clear();
        let m = [vec![0.25, 0.5], vec![0.75], vec![]];
        let v = [vec![1.25, 1.5], vec![1.75], vec![]];
        encode_snap_rows_into(&mut p, 6, 1, [&m[0], &m[1], &m[2]], [&v[0], &v[1], &v[2]]);
        let mut m_out = [vec![0.0; 2], vec![0.0], vec![]];
        let mut v_out = [vec![0.0; 2], vec![0.0], vec![]];
        {
            let [m0, m1, m2] = &mut m_out;
            let [v0, v1, v2] = &mut v_out;
            apply_snap_rows(&p, 6, [m0, m1, m2], [v0, v1, v2]).unwrap();
        }
        assert_eq!(m_out, m);
        assert_eq!(v_out, v);

        p.clear();
        encode_snap_req_into(&mut p, 9);
        assert_eq!(decode_snap_req(&p).unwrap(), 9);
    }

    #[test]
    fn upd_rows_splice_and_busy_patch() {
        let mut p = Vec::new();
        let parts = [vec![1.0, 2.0], vec![3.0], vec![]];
        encode_upd_rows_into(&mut p, 5, 2, 0, [&parts[0], &parts[1], &parts[2]]);
        p[UPD_ROWS_BUSY_OFFSET..UPD_ROWS_BUSY_OFFSET + 8]
            .copy_from_slice(&0xFEED_FACEu64.to_le_bytes());
        let mut d0 = vec![0.0; 2];
        let mut d1 = vec![0.0];
        let mut d2: Vec<f64> = vec![];
        let busy = apply_upd_rows(&p, 5, [&mut d0, &mut d1, &mut d2]).unwrap();
        assert_eq!(busy, 0xFEED_FACE);
        assert_eq!(d0, parts[0]);
        assert_eq!(d1, parts[1]);
        assert_eq!(msg_epoch_src(&p).unwrap(), (5, 2));
        assert!(apply_upd_rows(&p, 6, [&mut d0, &mut d1, &mut d2]).is_err());
    }

    #[test]
    fn deltas_for_wrong_epoch_are_rejected() {
        let payload = encode_deltas(3, 0, 2, &[]);
        let mut grads = Grads {
            u1: Matrix::zeros(1, 2),
            u2: Matrix::zeros(1, 2),
            u3: Matrix::zeros(1, 2),
            h: vec![0.0; 2],
        };
        let mut l2 = 0.0;
        let err = apply_deltas(&payload, 4, &mut grads, &mut l2).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
    }
}
