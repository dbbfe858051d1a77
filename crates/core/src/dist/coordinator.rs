//! The coordinator side of the distributed trainer: the distributed entry
//! points, the worker fleet, and the plain-protocol epoch backend.
//!
//! Both protocols run under the one guarded driver
//! (`TcssTrainer::drive` in [`crate::train`]), which owns the watchdog,
//! rollback, checkpoints and worker-loss recovery; this module supplies
//! what is specific to running an epoch over worker processes.
//!
//! * `Workers` spawns the fleet, replaces lost workers, and — on drop —
//!   shuts every worker down and reaps it, so no exit path leaks a child.
//! * `PlainFleet` is the plain protocol's backend. The coordinator owns
//!   the model, the Adam state, the whole-data Gram tail and the
//!   Hausdorff head; workers only evaluate chunks. Each epoch it
//!   broadcasts the model, gathers per-chunk deltas worker-by-worker in
//!   worker order (= ascending global chunk order, since blocks are
//!   contiguous), and replays each chunk's scatter adds — reproducing the
//!   in-process float stream bit-for-bit. See the module docs of
//!   [`crate::dist`] for the parity argument and failure model.

use super::wire::{
    apply_deltas, decode_hello, deltas_epoch, encode_frame, encode_setup, encode_shutdown,
    encode_step_into, tag_of, FrameBuf, FrameDecoder, Setup, WireLoss, TAG_DELTAS, TAG_HELLO,
};
use super::{read_frame, DistError};
use crate::config::LossStrategy;
use crate::fault::FaultPlan;
use crate::loss::{Grads, ENTRIES_PER_CHUNK};
use crate::model::TcssModel;
use crate::train::{
    AdamState, EpochBackend, Lost, TcssTrainer, TrainContext, TrainError, TrainReport,
};
use crate::workspace::TrainWorkspace;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// How to run a distributed training session: the worker fleet and the
/// program that plays the worker role.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker processes to spawn (≥ 1).
    pub workers: usize,
    /// Threads per worker (each worker pins `TCSS_NUM_THREADS`-style
    /// parallelism to this; `None` = 1 — workers should not each grab the
    /// whole machine).
    pub worker_threads: Option<usize>,
    /// Program to spawn for each worker. The coordinator appends
    /// `--socket <path> --worker <id>` to [`DistConfig::worker_args`].
    /// (`tcss` passes its own executable plus the hidden `dist-worker`
    /// subcommand; tests pass the `tcss-dist-worker` binary.)
    pub worker_program: PathBuf,
    /// Leading arguments for the worker program (e.g. a subcommand).
    pub worker_args: Vec<String>,
    /// Directory for the coordinator's Unix socket (`None`: the OS temp
    /// dir).
    pub socket_dir: Option<PathBuf>,
    /// Worker-loss recovery budget: how many respawn-and-rollback cycles
    /// are allowed before the run aborts with
    /// [`DistError::RespawnBudgetExhausted`].
    pub max_respawns: u32,
    /// Owner-computes tail sharding ([`super::sharded`]): workers keep
    /// resident Adam state for contiguous factor-row ranges and apply the
    /// optimizer themselves; the coordinator's serial epoch tail drops to
    /// a gather-and-splice. Bitwise identical to the plain protocol at any
    /// worker count. `false` runs the stateless-worker protocol.
    pub tail_shard: bool,
}

impl DistConfig {
    /// A fleet of `workers` running `worker_program`, defaults elsewhere.
    pub fn new(workers: usize, worker_program: impl Into<PathBuf>) -> Self {
        DistConfig {
            workers,
            worker_threads: None,
            worker_program: worker_program.into(),
            worker_args: Vec::new(),
            socket_dir: None,
            max_respawns: 3,
            tail_shard: false,
        }
    }
}

/// Outcome of a distributed run: the [`TrainReport`] plus transport and
/// recovery telemetry.
#[derive(Debug)]
pub struct DistReport {
    /// The single-process-identical training outcome.
    pub report: TrainReport,
    /// Worker processes used.
    pub workers: usize,
    /// Worker-loss recoveries performed.
    pub respawns: u32,
    /// Bytes the coordinator wrote to workers (frames included).
    pub bytes_sent: u64,
    /// Bytes of frames the coordinator read from workers.
    pub bytes_received: u64,
    /// Cumulative in-worker compute time (ns) per worker slot, as
    /// reported in each Deltas message — the bench derives critical-path
    /// scaling from this on hosts too small to run the fleet in parallel.
    pub worker_busy_ns: Vec<u64>,
    /// Epochs dispatched to the fleet, replays included.
    pub epochs_dispatched: u64,
}

/// One connected worker.
pub(super) struct WorkerSlot {
    pub(super) child: Child,
    pub(super) stream: UnixStream,
    dec: FrameDecoder,
    pub(super) chunk_start: usize,
    pub(super) chunk_end: usize,
    /// `U¹` rows this worker's chunk block can read — the entry list is
    /// sorted by `(i, j, k)`, so a contiguous chunk block touches a
    /// contiguous row window, and each Step ships only that window
    /// (everything, for negative sampling: its negatives hit any row).
    pub(super) u1_lo: usize,
    pub(super) u1_hi: usize,
}

/// Owns the listening socket path; removes the file on drop so aborted
/// runs don't litter the temp dir.
struct SocketGuard {
    path: PathBuf,
    listener: UnixListener,
}

/// Bind a fresh per-run coordinator socket in the configured directory.
fn bind_socket(dist: &DistConfig) -> Result<SocketGuard, DistError> {
    let dir = dist.socket_dir.clone().unwrap_or_else(std::env::temp_dir);
    let sock_path = dir.join(format!(
        "tcss-dist-{}-{}.sock",
        std::process::id(),
        SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&sock_path);
    let listener = UnixListener::bind(&sock_path).map_err(DistError::Io)?;
    Ok(SocketGuard {
        path: sock_path,
        listener,
    })
}

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TcssTrainer {
    /// Distributed counterpart of
    /// [`TcssTrainer::train_with_checkpoints`]: same guarantees, same
    /// bit-exact trajectory, with the entry-chunk work sharded across
    /// `dist.workers` processes.
    pub fn train_distributed(
        &self,
        dist: &DistConfig,
        on_epoch: impl FnMut(TrainContext),
    ) -> Result<DistReport, TrainError> {
        self.train_distributed_with_faults(dist, &FaultPlan::none(), on_epoch)
    }

    /// [`TcssTrainer::train_distributed`] with a deterministic
    /// [`FaultPlan`] — drives the worker-loss recovery path in tests via
    /// [`FaultPlan::kill_worker_at`].
    pub fn train_distributed_with_faults(
        &self,
        dist: &DistConfig,
        faults: &FaultPlan,
        mut on_epoch: impl FnMut(TrainContext),
    ) -> Result<DistReport, TrainError> {
        if dist.workers == 0 {
            return Err(TrainError::InvalidConfig(
                "dist.workers must be at least 1".into(),
            ));
        }
        if dist.tail_shard {
            let spawn = |model: &TcssModel| super::sharded::Fleet::spawn(self, dist, faults, model);
            let (report, mut fleet, respawns) = self.drive(None, faults, spawn, &mut on_epoch)?;
            Ok(fleet.workers.report(report, respawns))
        } else {
            let spawn = |model: &TcssModel| PlainFleet::spawn(self, dist, model);
            let (report, mut fleet, respawns) = self.drive(None, faults, spawn, &mut on_epoch)?;
            Ok(fleet.workers.report(report, respawns))
        }
    }
}

/// A spawned worker fleet — the coordinator socket and one connected
/// slot per worker, in worker order — plus its transport telemetry.
/// Dropping it shuts every worker down and reaps it, so no exit path of a
/// run (error or success) leaves a child process behind.
pub(super) struct Workers<'a> {
    pub(super) trainer: &'a TcssTrainer,
    pub(super) dist: &'a DistConfig,
    guard: SocketGuard,
    pub(super) slots: Vec<WorkerSlot>,
    pub(super) bytes_sent: u64,
    pub(super) bytes_received: u64,
    pub(super) worker_busy_ns: Vec<u64>,
    pub(super) epochs_dispatched: u64,
}

impl<'a> Workers<'a> {
    /// Bind the coordinator socket and spawn `dist.workers` workers, each
    /// owning a contiguous block of the global entry-chunk grid.
    pub(super) fn spawn(trainer: &'a TcssTrainer, dist: &'a DistConfig) -> Result<Self, DistError> {
        let n_entries = trainer.tensor.entries().len();
        let n_chunks = tcss_linalg::chunk_count(n_entries, ENTRIES_PER_CHUNK);
        let w = dist.workers;
        let mut fleet = Workers {
            trainer,
            dist,
            guard: bind_socket(dist)?,
            slots: Vec::with_capacity(w),
            bytes_sent: 0,
            bytes_received: 0,
            worker_busy_ns: vec![0; w],
            epochs_dispatched: 0,
        };
        for worker in 0..w {
            let slot = fleet.connect(worker, worker * n_chunks / w, (worker + 1) * n_chunks / w)?;
            fleet.slots.push(slot);
        }
        Ok(fleet)
    }

    /// `SIGKILL` worker `worker` and reap it (fault injection).
    pub(super) fn kill(&mut self, worker: usize) {
        if let Some(slot) = self.slots.get_mut(worker) {
            let _ = slot.child.kill();
            let _ = slot.child.wait();
        }
    }

    /// Replace worker `worker` with a fresh process on the same chunk
    /// block.
    pub(super) fn respawn(&mut self, worker: usize) -> Result<(), DistError> {
        let (chunk_start, chunk_end) =
            (self.slots[worker].chunk_start, self.slots[worker].chunk_end);
        self.kill(worker);
        self.slots[worker] = self.connect(worker, chunk_start, chunk_end)?;
        Ok(())
    }

    /// The [`DistReport`] of a finished run.
    fn report(&mut self, report: TrainReport, respawns: u32) -> DistReport {
        DistReport {
            report,
            workers: self.slots.len(),
            respawns,
            bytes_sent: self.bytes_sent,
            bytes_received: self.bytes_received,
            worker_busy_ns: std::mem::take(&mut self.worker_busy_ns),
            epochs_dispatched: self.epochs_dispatched,
        }
    }

    /// Spawn one worker process, accept its connection, verify its Hello,
    /// and send its Setup. A worker that fails the handshake is killed
    /// and reaped before the error returns.
    fn connect(
        &self,
        worker: usize,
        chunk_start: usize,
        chunk_end: usize,
    ) -> Result<WorkerSlot, DistError> {
        let dist = self.dist;
        let mut child = Command::new(&dist.worker_program)
            .args(&dist.worker_args)
            .arg("--socket")
            .arg(&self.guard.path)
            .arg("--worker")
            .arg(worker.to_string())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| DistError::Spawn {
                program: dist.worker_program.display().to_string(),
                source: e,
            })?;
        match self.handshake(&mut child, worker, chunk_start, chunk_end) {
            Ok((stream, dec, u1_lo, u1_hi)) => Ok(WorkerSlot {
                child,
                stream,
                dec,
                chunk_start,
                chunk_end,
                u1_lo,
                u1_hi,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Accept `child`'s connection, check its Hello, and send its Setup;
    /// returns the stream, its decoder, and the worker's `U¹` read window.
    fn handshake(
        &self,
        child: &mut Child,
        worker: usize,
        chunk_start: usize,
        chunk_end: usize,
    ) -> Result<(UnixStream, FrameDecoder, usize, usize), DistError> {
        let listener = &self.guard.listener;
        // Accept without ever hanging: a worker that dies before
        // connecting (bad program, crash on startup) surfaces as a typed
        // error, detected by polling the child between accept attempts.
        listener.set_nonblocking(true)?;
        let mut stream = loop {
            match listener.accept() {
                Ok((s, _addr)) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if let Some(status) = child.try_wait()? {
                        listener.set_nonblocking(false)?;
                        return Err(DistError::Protocol(format!(
                            "worker {worker} exited before connecting ({status})"
                        )));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(e) => {
                    listener.set_nonblocking(false)?;
                    return Err(DistError::Io(e));
                }
            }
        };
        listener.set_nonblocking(false)?;
        stream.set_nonblocking(false)?;
        let mut dec = FrameDecoder::new();
        let hello = read_frame(&mut stream, &mut dec)?.ok_or_else(|| {
            DistError::Protocol(format!("worker {worker} disconnected before Hello"))
        })?;
        if tag_of(&hello)? != TAG_HELLO {
            return Err(DistError::Protocol(format!(
                "worker {worker} sent tag {} before Hello",
                tag_of(&hello)?
            )));
        }
        let claimed = decode_hello(&hello)?;
        if claimed as usize != worker {
            return Err(DistError::Protocol(format!(
                "expected Hello from worker {worker}, got worker {claimed}"
            )));
        }
        let trainer = self.trainer;
        let cfg = &trainer.config;
        let setup = Setup {
            dims: trainer.tensor.dims(),
            rank: cfg.rank,
            w_plus: cfg.w_plus,
            w_minus: cfg.w_minus,
            loss: match cfg.loss {
                LossStrategy::WholeDataRewritten | LossStrategy::WholeDataNaive => {
                    WireLoss::L2Entries
                }
                LossStrategy::NegativeSampling => WireLoss::NegSampling,
            },
            seed: cfg.seed,
            chunk_start,
            chunk_end,
            threads: self.dist.worker_threads.unwrap_or(1).max(1),
            n_workers: self.dist.workers,
            tail_shard: self.dist.tail_shard,
            weight_decay: cfg.weight_decay,
            entries: trainer.tensor.entries().to_vec(),
        };
        stream.write_all(&encode_frame(&encode_setup(&setup)))?;
        let entries = trainer.tensor.entries();
        let lo = (chunk_start * ENTRIES_PER_CHUNK).min(entries.len());
        let hi = (chunk_end * ENTRIES_PER_CHUNK).min(entries.len());
        let (u1_lo, u1_hi) = match setup.loss {
            // Negative sampling draws rows anywhere in the tensor.
            WireLoss::NegSampling => (0, trainer.tensor.dims().0),
            WireLoss::L2Entries if lo < hi => (entries[lo].i, entries[hi - 1].i + 1),
            WireLoss::L2Entries => (0, 0),
        };
        Ok((stream, dec, u1_lo, u1_hi))
    }
}

impl Drop for Workers<'_> {
    /// Best-effort fleet teardown: Shutdown frame, then reap. Workers also
    /// exit on EOF, so a failed write still converges.
    fn drop(&mut self) {
        for slot in &mut self.slots {
            let _ = slot.stream.write_all(&encode_frame(&encode_shutdown()));
            let _ = slot.stream.shutdown(std::net::Shutdown::Both);
        }
        for slot in &mut self.slots {
            let _ = slot.child.wait();
        }
    }
}

/// The plain protocol's epoch backend: stateless workers evaluate their
/// chunk blocks, the coordinator merges their deltas, adds the Gram +
/// Hausdorff tail, and runs Adam over the whole model.
struct PlainFleet<'a> {
    workers: Workers<'a>,
    ws: TrainWorkspace,
    grads: Grads,
    tail: Grads,
    step_buf: FrameBuf,
}

impl<'a> PlainFleet<'a> {
    fn spawn(
        trainer: &'a TcssTrainer,
        dist: &'a DistConfig,
        model: &TcssModel,
    ) -> Result<Self, TrainError> {
        Ok(PlainFleet {
            workers: Workers::spawn(trainer, dist)?,
            ws: TrainWorkspace::new(),
            grads: Grads::zeros(model),
            tail: Grads::zeros(model),
            step_buf: FrameBuf::new(),
        })
    }
}

impl EpochBackend for PlainFleet<'_> {
    fn evaluate(&mut self, epoch: usize, model: &TcssModel) -> Result<(f64, f64, f64), Lost> {
        self.grads.set_zero();
        self.workers.epochs_dispatched += 1;
        let mut l2 = dispatch_epoch(
            &mut self.workers,
            epoch as u64,
            model,
            &mut self.grads,
            &mut self.step_buf,
        )?;
        // Coordinator-local tail: Gram term + Hausdorff head.
        let trainer = self.workers.trainer;
        let l1 = trainer.epoch_tail_into(model, epoch, &self.ws, &mut self.tail, &mut l2);
        if trainer.tail_active(epoch) {
            self.grads.add_scaled(1.0, &self.tail);
        }
        Ok((l2, l1, self.grads.norm()))
    }

    fn commit(
        &mut self,
        _epoch: usize,
        model: &mut TcssModel,
        adam: &mut AdamState,
        lr: f64,
    ) -> Result<(), Lost> {
        let weight_decay = self.workers.trainer.config.weight_decay;
        adam.step(model, &self.grads, lr, weight_decay);
        Ok(())
    }

    fn kill(&mut self, worker: usize) {
        self.workers.kill(worker);
    }

    fn replace(&mut self, worker: usize) -> Result<(), TrainError> {
        Ok(self.workers.respawn(worker)?)
    }

    fn max_respawns(&self) -> u32 {
        self.workers.dist.max_respawns
    }

    fn traffic(&self) -> (u64, u64) {
        (self.workers.bytes_sent, self.workers.bytes_received)
    }
}

/// One epoch over the fleet: broadcast the model to every worker, then
/// gather and merge deltas worker-by-worker **in worker order** — with
/// contiguous blocks that is ascending global chunk order, the exact add
/// sequence of the in-process fold. Returns the entry-loss sum.
///
/// Strict lockstep is maintained even under failure: every worker that
/// received a Step gets its reply read (and discarded on epoch mismatch)
/// before the next broadcast, so no stale frames can deadlock a later
/// broadcast against a worker blocked mid-write.
fn dispatch_epoch(
    fleet: &mut Workers<'_>,
    epoch: u64,
    model: &TcssModel,
    grads: &mut Grads,
    step_buf: &mut FrameBuf,
) -> Result<f64, Lost> {
    let mut lost: Option<Lost> = None;

    // Broadcast, each worker getting its own U¹ row window, the frame
    // encoded into a buffer reused across workers and epochs.
    let mut stepped = vec![false; fleet.slots.len()];
    for (w, slot) in fleet.slots.iter_mut().enumerate() {
        encode_step_into(step_buf.payload(), epoch, model, slot.u1_lo, slot.u1_hi);
        let step = step_buf.finish();
        match slot.stream.write_all(step) {
            Ok(()) => {
                stepped[w] = true;
                fleet.bytes_sent += step.len() as u64;
            }
            Err(e) => {
                lost.get_or_insert((w, format!("step broadcast failed: {e}")));
            }
        }
    }

    // Gather, in worker order. Keep reading even after a loss elsewhere:
    // lockstep requires draining every outstanding reply.
    let mut l2 = 0.0;
    for (w, slot) in fleet.slots.iter_mut().enumerate() {
        if !stepped[w] {
            continue;
        }
        loop {
            let frame = match read_frame(&mut slot.stream, &mut slot.dec) {
                Ok(Some(f)) => f,
                Ok(None) => {
                    lost.get_or_insert((w, "worker closed its socket mid-epoch".into()));
                    break;
                }
                Err(e) => {
                    lost.get_or_insert((w, format!("reading deltas failed: {e}")));
                    break;
                }
            };
            fleet.bytes_received +=
                (frame.len() + super::wire::HEADER_LEN + super::wire::TRAILER_LEN) as u64;
            match tag_of(&frame) {
                Ok(TAG_DELTAS) => match deltas_epoch(&frame) {
                    Ok(ep) if ep != epoch => continue, // stale replay reply
                    Ok(_) => {
                        if lost.is_none() {
                            match apply_deltas(&frame, epoch, grads, &mut l2) {
                                Ok((busy, _chunks)) => fleet.worker_busy_ns[w] += busy,
                                Err(e) => {
                                    lost.get_or_insert((w, format!("corrupt deltas: {e}")));
                                }
                            }
                        }
                        break;
                    }
                    Err(e) => {
                        lost.get_or_insert((w, format!("corrupt deltas header: {e}")));
                        break;
                    }
                },
                Ok(other) => {
                    lost.get_or_insert((w, format!("unexpected tag {other} during gather")));
                    break;
                }
                Err(e) => {
                    lost.get_or_insert((w, format!("corrupt frame: {e}")));
                    break;
                }
            }
        }
    }

    match lost {
        None => Ok(l2),
        Some(lost) => Err(lost),
    }
}
