//! Mode-sharded multi-process training with bitwise process-count parity.
//!
//! Single-process epoch speedup is saturated (see BENCH_train_kernels):
//! the deterministic chunk scheduler has hit its ceiling inside one
//! address space. This module goes past it the way distributed-memory
//! tensor-completion systems do (Singh et al., arXiv:1910.02371): shard
//! the COO entry-chunk grid across worker **processes** and exchange only
//! [`crate::sparse_grads::SparseGrads`]-style touched-row deltas per step.
//!
//! # Architecture
//!
//! * **Coordinator** ([`coordinator`], driven through
//!   [`crate::train::TcssTrainer::train_distributed`]) — runs the same
//!   guarded epoch driver as in-process training ([`crate::train`]: the
//!   watchdog, rollback, checkpoints and worker-loss recovery), with a
//!   fleet as its epoch backend. It spawns N workers, assigns each a
//!   **contiguous block** of the global entry-chunk grid, and — in the
//!   plain protocol — broadcasts the full model each step, merges the
//!   returned deltas, and owns the Adam state, the whole-data Gram tail
//!   and the Hausdorff head. The fleet reaps its workers when dropped,
//!   so no exit path leaks a child process.
//! * **Workers** ([`worker::run_worker`], the hidden `dist-worker` CLI
//!   subcommand / the `tcss-dist-worker` test binary) — stateless chunk
//!   evaluators. A worker holds the tensor (shipped once in Setup) and,
//!   per step, the broadcast model; it evaluates exactly the per-chunk
//!   kernels the in-process path runs and ships each chunk's delta back
//!   un-merged.
//! * **Transport** ([`wire`]) — Unix sockets carrying the checksummed
//!   flavour of the shared [`crate::frame`] codec (no async runtime):
//!   every frame ends in a `crate::frame::frame_checksum` trailer,
//!   hardware CRC32C where the CPU has it and word-folded FNV-1a
//!   elsewhere.
//!
//! # The process-count-parity contract
//!
//! The thread-count-parity contract of `tcss_linalg::parallel` extends to
//! worker processes because nothing about the float stream changes:
//!
//! 1. the **global chunk grid** (`chunk_count(nnz, ENTRIES_PER_CHUNK)`)
//!    depends only on the tensor, never on the worker count;
//! 2. each chunk's value is computed by the *same* kernel functions the
//!    in-process path calls ([`crate::loss::l2_entry_chunk`] /
//!    `negative_sampling_chunk`), pure functions of `(model, entries,
//!    global range)` — a worker's thread count only reorders *which cores*
//!    evaluate chunks, never their contents;
//! 3. workers own contiguous blocks in worker order, and the coordinator
//!    merges worker 0's chunks, then worker 1's, … so the merge visits
//!    chunks in ascending **global** chunk order — the exact add sequence
//!    of the single-process fold;
//! 4. floats travel as `f64::to_le_bytes` (lossless), and the coordinator
//!    replays each chunk's scatter adds element-for-element.
//!
//! Therefore 1, 2, and 4 workers (at any `TCSS_NUM_THREADS` per worker)
//! produce bit-identical models to the in-process trainer —
//! `tests/dist_parity.rs` proptests this end to end.
//!
//! # Tail sharding
//!
//! With [`DistConfig::tail_shard`] the coordinator's serial epoch tail
//! (merge, norm, Adam over the whole model) moves to the workers:
//! each owns a contiguous row range of every factor, keeps Adam state
//! resident, exchanges un-merged row deltas with its peers through a
//! coordinator relay, and applies the optimizer itself — the coordinator
//! drops to folds, the dense core `h`, and a gather-and-splice. The
//! parity contract extends because any decomposition that preserves each
//! gradient *element*'s ascending-chunk add order is bitwise identical;
//! see [`sharded`] and DESIGN.md §5j.
//!
//! # Failure model
//!
//! Plain workers are stateless, so recovery is replay: if a worker dies
//! (detected as an I/O error or EOF on its socket — there are no
//! application-level timeouts to tune), the backend reports it, and the
//! driver has it respawned (re-sending Setup), rolls the run back to the
//! last checkpoint (the on-disk one when checkpointing is enabled, else
//! the in-memory rollback snapshot), and continues; `max_respawns`
//! bounds the budget. Tail-sharded workers are re-installed with an
//! Adopt frame after the same rollback. Epoch
//! replay is bit-exact for the same reason resume is: epochs are pure
//! functions of `(model, adam, epoch)`. The kill-worker fault in
//! [`crate::fault::FaultPlan`] drives this path in `tests/dist_fault.rs`.

pub mod coordinator;
pub mod sharded;
pub mod wire;
pub mod worker;

pub use coordinator::{DistConfig, DistReport};
pub use wire::WireError;
pub use worker::run_worker;

use crate::frame::FrameError;

/// Typed failures of the distributed runtime.
#[derive(Debug)]
pub enum DistError {
    /// Spawning a worker process failed.
    Spawn {
        /// The worker program that failed to start.
        program: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Socket-level I/O failed (bind, accept, read, write).
    Io(std::io::Error),
    /// A frame or message failed to decode.
    Wire(WireError),
    /// A peer violated the coordinator/worker protocol.
    Protocol(String),
    /// A worker died and the respawn budget is exhausted.
    RespawnBudgetExhausted {
        /// Worker whose loss exhausted the budget.
        worker: usize,
        /// Epoch being dispatched when it was lost.
        epoch: usize,
        /// Respawns consumed (the budget plus the final straw).
        respawns: u32,
        /// How the loss surfaced.
        detail: String,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Spawn { program, source } => {
                write!(f, "failed to spawn worker program {program:?}: {source}")
            }
            DistError::Io(e) => write!(f, "transport I/O error: {e}"),
            DistError::Wire(e) => write!(f, "wire error: {e}"),
            DistError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            DistError::RespawnBudgetExhausted {
                worker,
                epoch,
                respawns,
                detail,
            } => write!(
                f,
                "worker {worker} lost at epoch {epoch} after {respawns} respawn(s) \
                 exhausted the budget: {detail}"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<WireError> for DistError {
    fn from(e: WireError) -> Self {
        DistError::Wire(e)
    }
}

impl From<FrameError> for DistError {
    fn from(e: FrameError) -> Self {
        DistError::Wire(WireError::Frame(e))
    }
}

/// Monotonic on-CPU time of the calling process, in nanoseconds.
///
/// Workers report their per-step `busy_ns` with this clock, and the
/// critical-path accounting in `bench_distributed` subtracts the sum
/// from the wall clock to recover the coordinator-serial share. A wall
/// clock would charge involuntary preemption to the worker: on an
/// oversubscribed host `Σ busy` then saturates the wall and the
/// coordinator share clamps to zero, understating the serial tail.
///
/// This is [`crate::sys::process_cpu_ns`]. Process scope matters: a
/// multi-threaded worker evaluates chunks on scoped pool threads, whose
/// CPU a thread-scoped clock would misattribute to the coordinator
/// residual — and since those threads only live inside the eval call,
/// blocking waits still accrue ~zero. Unlike `/proc/*/schedstat` or
/// `utime`, which only advance on scheduler ticks, it measures
/// millisecond spans exactly. Where the CPU clock is unavailable it
/// falls back to a process-wide wall clock.
pub(crate) fn busy_now_ns() -> u64 {
    crate::sys::process_cpu_ns().unwrap_or_else(|| {
        use std::sync::OnceLock;
        use std::time::Instant;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    })
}
