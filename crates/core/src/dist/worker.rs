//! The stateless worker side of the distributed trainer.
//!
//! A worker connects to the coordinator's Unix socket, introduces itself
//! (Hello), receives its Setup — the full tensor, the loss kernel choice,
//! and the contiguous block of **global** entry chunks it owns — and then
//! loops: for every Step (epoch + full model) it evaluates its chunks
//! with exactly the kernels the in-process trainer runs and replies with
//! the per-chunk deltas, un-merged, in ascending chunk order.
//!
//! Holding no state between steps is what makes recovery trivial: a
//! respawned worker is indistinguishable from the one it replaces.

use super::wire::{
    decode_setup, decode_step, encode_deltas_into, encode_hello, tag_of, Setup, WireLoss,
    TAG_SETUP, TAG_SHUTDOWN, TAG_STEP,
};
use super::{busy_now_ns, DistError};
use crate::frame::{FrameBuf, FrameDecoder, Trailer};
use crate::loss::{l2_entry_chunk, negative_sampling_chunk, ENTRIES_PER_CHUNK};
use crate::sparse_grads::{GradScratch, SparseGrads};
use crate::workspace::TrainWorkspace;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Run one worker process to completion: connect, handshake, serve steps
/// until Shutdown (or a clean coordinator-side disconnect).
pub fn run_worker(socket: &Path, worker_id: u32) -> Result<(), DistError> {
    let mut stream = UnixStream::connect(socket)?;
    stream.write_all(&Trailer::Checksum.encode(&encode_hello(worker_id)))?;
    let mut dec = FrameDecoder::checksummed();

    let frame = dec.read_frame::<DistError>(&mut stream)?.ok_or_else(|| {
        DistError::Protocol("coordinator disconnected before sending Setup".into())
    })?;
    if tag_of(&frame)? != TAG_SETUP {
        return Err(DistError::Protocol(format!(
            "expected Setup first, got tag {}",
            tag_of(&frame)?
        )));
    }
    let setup = decode_setup(&frame)?;
    // The worker's thread count composes with the chunk grid exactly like
    // TCSS_NUM_THREADS does in-process: a pure speed knob.
    tcss_linalg::set_num_threads(Some(setup.threads.max(1)));

    let tensor = tcss_sparse::SparseTensor3::from_entries(
        setup.dims,
        setup.entries.iter().map(|e| (e.i, e.j, e.k, e.value)),
    )
    .map_err(|e| DistError::Protocol(format!("setup tensor rejected: {e}")))?;
    let n_entries = tensor.entries().len();
    let entry_lo = (setup.chunk_start * ENTRIES_PER_CHUNK).min(n_entries);
    let entry_hi = (setup.chunk_end * ENTRIES_PER_CHUNK).min(n_entries);
    let ws = TrainWorkspace::new();

    if setup.tail_shard {
        return super::sharded::run_sharded_worker(
            stream, dec, setup, tensor, entry_lo, entry_hi, ws, worker_id,
        );
    }

    // The reply frame reuses one buffer across epochs.
    let mut reply = FrameBuf::new();
    loop {
        // `busy` spans recv → decode → eval → encode: everything between
        // the frame hitting the socket and the reply being ready is work
        // that runs concurrently across workers on a host with enough
        // CPUs (the critical-path accounting in `bench_distributed`
        // relies on that). [`busy_now_ns`] is process CPU time, so the
        // blocking wait inside `read_frame` accrues ~nothing while the
        // frame checksum + buffering it brackets is counted.
        let t0 = busy_now_ns();
        let frame = match dec.read_frame::<DistError>(&mut stream)? {
            Some(f) => f,
            // Coordinator dropped the connection between frames: treat it
            // as shutdown so an aborted run doesn't leave zombie workers.
            None => return Ok(()),
        };
        match tag_of(&frame)? {
            TAG_STEP => {
                let (epoch, model) = decode_step(&frame)?;
                if model.dims() != setup.dims || model.rank() != setup.rank {
                    return Err(DistError::Protocol(format!(
                        "step model {:?}/r{} does not match setup {:?}/r{}",
                        model.dims(),
                        model.rank(),
                        setup.dims,
                        setup.rank
                    )));
                }
                let chunks = eval_block(&setup, &tensor, &model, entry_lo, entry_hi, epoch, &ws);
                encode_deltas_into(reply.payload(), epoch, 0, setup.rank, &chunks);
                // Patch the real figure over the placeholder now that the
                // encode is done (busy_ns lives at bytes 9..17: tag + epoch).
                let busy_ns = busy_now_ns().saturating_sub(t0);
                reply.payload_mut()[9..17].copy_from_slice(&busy_ns.to_le_bytes());
                for (_, delta) in chunks {
                    ws.deltas.put(delta);
                }
                stream.write_all(reply.finish())?;
            }
            TAG_SHUTDOWN => return Ok(()),
            other => {
                return Err(DistError::Protocol(format!(
                    "unexpected message tag {other} in step loop"
                )))
            }
        }
    }
}

/// Evaluate this worker's chunk block against one model broadcast.
///
/// The block `[entry_lo, entry_hi)` starts on an [`ENTRIES_PER_CHUNK`]
/// boundary of the **global** entry grid, so the local chunk grid laid
/// down by `map_chunks_with` coincides with a slice of the global one;
/// offsetting each local range recovers the global range the kernels (and
/// the negative-sampling RNG keyed on it) expect. Results come back in
/// ascending local = ascending global chunk order.
pub(super) fn eval_block(
    setup: &Setup,
    tensor: &tcss_sparse::SparseTensor3,
    model: &crate::model::TcssModel,
    entry_lo: usize,
    entry_hi: usize,
    epoch: u64,
    ws: &TrainWorkspace,
) -> Vec<(f64, SparseGrads)> {
    let entries = tensor.entries();
    tcss_linalg::map_chunks_with(
        entry_hi - entry_lo,
        ENTRIES_PER_CHUNK,
        || {
            let mut scratch = ws.scratch.acquire(|| GradScratch::for_model(model));
            scratch.ensure(model);
            scratch
        },
        |scratch, local| {
            let range = local.start + entry_lo..local.end + entry_lo;
            let mut delta = ws.deltas.take(SparseGrads::new);
            let loss = match setup.loss {
                WireLoss::L2Entries => l2_entry_chunk(
                    model,
                    entries,
                    range,
                    setup.w_plus,
                    setup.w_minus,
                    scratch,
                    &mut delta,
                ),
                WireLoss::NegSampling => negative_sampling_chunk(
                    model,
                    tensor,
                    range,
                    setup.w_plus,
                    setup.w_minus,
                    // Same per-epoch seed derivation as the in-process
                    // trainer: cfg.seed + epoch, then per-chunk mixing
                    // inside the kernel.
                    setup.seed.wrapping_add(epoch),
                    scratch,
                    &mut delta,
                ),
            };
            (loss, delta)
        },
    )
}
