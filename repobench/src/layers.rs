//! Direct calls into single layers, timed on a run's own state, and the
//! exact counts the benchmark reports.

use std::cell::Cell;
use std::path::Path;

use tcss_core::digest::fnv1a64_continue;
use tcss_core::{
    rewritten_loss_and_grad_ws, save_checkpoint, Checkpoint, Grads, SocialHausdorffHead,
    TcssConfig, TcssModel, TrainWorkspace,
};
use tcss_linalg::eigen::OrthIterConfig;
use tcss_linalg::kernels::{adam_update, AdamParams};
use tcss_linalg::{top_r_eigenvectors, Matrix, SymOp};
use tcss_serve::{snapshot, QuantMode, SnapshotModel};
use tcss_sparse::{Mode, ModeGramOp, SparseTensor3};

use crate::stats::{median_ms, timed_ms};

/// A [`SymOp`] that counts how often the eigensolver applies it.
pub struct CountingOp<'a> {
    inner: &'a dyn SymOp,
    applies: Cell<u64>,
}

impl<'a> CountingOp<'a> {
    /// Wrap `inner` with a zeroed counter.
    pub fn new(inner: &'a dyn SymOp) -> Self {
        CountingOp {
            inner,
            applies: Cell::new(0),
        }
    }

    /// Applies so far.
    pub fn applies(&self) -> u64 {
        self.applies.get()
    }
}

impl SymOp for CountingOp<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.applies.set(self.applies.get() + 1);
        self.inner.apply(x, y);
    }
}

/// One mode of spectral init, measured.
pub struct ModeInit {
    /// Wall time of the mode's eigensolve.
    pub ms: f64,
    /// Gram-operator applies the eigensolve made.
    pub gram_applies: u64,
    /// The mode's factor (top-`r` eigenvectors).
    pub factor: Matrix,
}

/// Spectral init mode by mode: the same calls, in the same order and with
/// the same solver settings, as `tcss_core::spectral_init`, each Gram
/// operator wrapped in a [`CountingOp`].
pub fn spectral_init_by_mode(tensor: &SparseTensor3, rank: usize, seed: u64) -> Vec<ModeInit> {
    let cfg = OrthIterConfig {
        seed,
        ..Default::default()
    };
    Mode::ALL
        .iter()
        .map(|&mode| {
            let gram = ModeGramOp::new(tensor, mode);
            let op = CountingOp::new(&gram);
            let (res, ms) = timed_ms(|| top_r_eigenvectors(&op, rank, &cfg));
            let (_vals, factor) = res.expect("rank was validated against the tensor dims");
            ModeInit {
                ms,
                gram_applies: op.applies(),
                factor,
            }
        })
        .collect()
}

/// `Σᵢ |N(vᵢ)| · |S(vᵢ)|`: the (target, candidate) pairs one head pass
/// visits on `model` — `N(vᵢ)` from [`SocialHausdorffHead::target_set`],
/// `S(vᵢ)` the POIs with positive visit probability (paper Eq 7, no
/// candidate cap).
pub fn head_pairs(head: &SocialHausdorffHead, model: &TcssModel) -> u64 {
    let (n_users, _, _) = model.dims();
    (0..n_users)
        .map(|i| {
            let targets = head.target_set(i).len() as u64;
            if targets == 0 {
                return 0;
            }
            let candidates = model
                .visit_probabilities(i)
                .iter()
                .filter(|&&p| p > 0.0)
                .count() as u64;
            targets * candidates
        })
        .sum()
}

/// FNV-1a digest over every parameter's little-endian bits — equal
/// digests mean bitwise-equal models.
pub fn model_digest(model: &TcssModel) -> u64 {
    let mut state = tcss_core::digest::fnv1a64(b"tcss-model");
    for part in [
        model.u1.as_slice(),
        model.u2.as_slice(),
        model.u3.as_slice(),
        &model.h,
    ] {
        for v in part {
            state = fnv1a64_continue(state, &v.to_le_bytes());
        }
    }
    state
}

/// Every parameter of `model` is finite.
pub fn model_is_finite(model: &TcssModel) -> bool {
    [
        model.u1.as_slice(),
        model.u2.as_slice(),
        model.u3.as_slice(),
        &model.h,
    ]
    .iter()
    .all(|part| part.iter().all(|v| v.is_finite()))
}

/// Median wall time of one `L₁` loss-and-gradient pass of `head` on
/// `model`, scaled by λ as the trainer calls it.
pub fn head_loss_grad_ms(
    head: &SocialHausdorffHead,
    model: &TcssModel,
    lambda: f64,
    reps: usize,
) -> f64 {
    let ws = TrainWorkspace::new();
    let mut grads = Grads::zeros(model);
    median_ms(reps, || {
        std::hint::black_box(head.loss_and_grad_ws(model, &mut grads, lambda, &ws));
    })
}

/// Median wall time of one rewritten whole-data `L₂` pass (entry chunks
/// plus the Gram tail) on `model`.
pub fn entry_loss_ms(
    model: &TcssModel,
    tensor: &SparseTensor3,
    cfg: &TcssConfig,
    reps: usize,
) -> f64 {
    let ws = TrainWorkspace::new();
    let mut grads = Grads::zeros(model);
    median_ms(reps, || {
        grads.set_zero();
        std::hint::black_box(rewritten_loss_and_grad_ws(
            model,
            tensor.entries(),
            cfg.w_plus,
            cfg.w_minus,
            &ws,
            &mut grads,
        ));
    })
}

/// Median wall time of one Adam step over model-sized buffers: the four
/// `adam_update` calls the trainer makes per epoch.
pub fn adam_update_ms(model: &TcssModel, cfg: &TcssConfig, reps: usize) -> f64 {
    let mut w = model.clone();
    let mut g = Grads::zeros(model);
    for part in [
        g.u1.as_mut_slice(),
        g.u2.as_mut_slice(),
        g.u3.as_mut_slice(),
        &mut g.h,
    ] {
        for (n, x) in part.iter_mut().enumerate() {
            *x = 1e-3 * ((n % 7) as f64 - 3.0);
        }
    }
    let mut m = Grads::zeros(model);
    let mut v = Grads::zeros(model);
    let mut t = 0u64;
    median_ms(reps, || {
        t += 1;
        let p = AdamParams::for_step(cfg.learning_rate, cfg.weight_decay, t);
        adam_update(
            w.u1.as_mut_slice(),
            g.u1.as_slice(),
            m.u1.as_mut_slice(),
            v.u1.as_mut_slice(),
            &p,
        );
        adam_update(
            w.u2.as_mut_slice(),
            g.u2.as_slice(),
            m.u2.as_mut_slice(),
            v.u2.as_mut_slice(),
            &p,
        );
        adam_update(
            w.u3.as_mut_slice(),
            g.u3.as_slice(),
            m.u3.as_mut_slice(),
            v.u3.as_mut_slice(),
            &p,
        );
        adam_update(&mut w.h, &g.h, &mut m.h, &mut v.h, &p);
        std::hint::black_box(&w);
    })
}

/// Median wall time of saving a full checkpoint of `model` (with
/// model-shaped Adam moments) to `path`, and the file's size in bytes.
pub fn checkpoint_save(
    model: &TcssModel,
    cfg: &TcssConfig,
    path: &Path,
    reps: usize,
) -> (f64, u64) {
    let ck = Checkpoint {
        epoch: cfg.epochs,
        adam_t: cfg.epochs as u64,
        lr_scale: 1.0,
        retries: 0,
        seed: cfg.seed,
        fingerprint: tcss_core::config_fingerprint(cfg),
        model: model.clone(),
        m: Grads::zeros(model),
        v: Grads::zeros(model),
    };
    let ms = median_ms(reps, || {
        save_checkpoint(&ck, path).expect("checkpoint save into the work directory");
    });
    (ms, file_bytes(path))
}

/// Median wall times of writing an f32 snapshot of `model` to `path` and
/// of opening it with full verification, and the file's size in bytes.
pub fn snapshot_write_open(model: &TcssModel, path: &Path, reps: usize) -> (f64, f64, u64) {
    let write_ms = median_ms(reps, || {
        snapshot::write_snapshot(model, QuantMode::F32, path)
            .expect("snapshot write into the work directory");
    });
    let open_ms = median_ms(reps, || {
        std::hint::black_box(SnapshotModel::open(path).expect("snapshot just written"));
    });
    (write_ms, open_ms, file_bytes(path))
}

/// Size of the file at `path` (0 if it is missing).
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}
