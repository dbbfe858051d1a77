//! # tcss-core
//!
//! The paper's core contribution: **TCSS** — Tensor Completion with
//! Social-Spatial regularization (Hui, Yan, Chen, Ku; ICDE 2022).
//!
//! TCSS recovers a binary user × POI × time check-in tensor from its
//! observed entries, using LBSN side information. The pieces, each mapped to
//! a module here:
//!
//! | Paper section | Module |
//! |---|---|
//! | Eq 4 — spectral embedding initialization | [`init`] |
//! | Eq 6 — factorization model `X̂ = hᵀ(U¹ᵢ ⊙ U²ⱼ ⊙ U³ₖ)` | [`model`] |
//! | Eq 9–13 — social Hausdorff loss head `L₁` | [`hausdorff`] |
//! | Eq 14/15 — whole-data least-squares head `L₂`, rewritten | [`loss`] |
//! | Eq 20 — joint training `L = λL₁ + L₂` with Adam | [`train`] |
//! | Table II — ablation variants | [`config`] (variant enums) |
//!
//! Beyond the paper, [`train`] hosts a fault-tolerant runtime
//! (checkpoint/resume + divergence watchdog, backed by [`checkpoint`])
//! and [`fault`] a deterministic fault-injection harness that proves its
//! recovery paths in `tests/fault_injection.rs`.
//!
//! ## Quick start
//!
//! ```no_run
//! use tcss_core::{TcssConfig, TcssTrainer};
//! use tcss_data::{train_test_split, Granularity, SynthPreset};
//!
//! let data = SynthPreset::Gowalla.generate();
//! let split = tcss_data::train_test_split(&data.checkins, data.n_users, 0.8, 42);
//! let trainer = TcssTrainer::new(&data, &split.train, Granularity::Month, TcssConfig::default());
//! let model = trainer.train(|_epoch, _loss| {});
//! let scores = model.scores_for(0, 5); // user 0, time unit 5, all POIs
//! # let _ = scores;
//! ```

pub mod checkpoint;
pub mod config;
pub mod digest;
pub mod dist;
pub mod fault;
pub mod frame;
pub mod hausdorff;
pub mod init;
pub mod loss;
pub mod model;
pub mod model_io;
pub mod sparse_grads;
pub mod sys;
pub mod topn;
pub mod train;
pub mod workspace;

pub use checkpoint::{
    config_fingerprint, load_checkpoint, save_checkpoint, Checkpoint, CHECKPOINT_FILE,
};
pub use config::{HausdorffVariant, InitMethod, LossStrategy, TcssConfig};
pub use dist::{DistConfig, DistError, DistReport};
pub use fault::FaultPlan;
pub use hausdorff::{SocialHausdorffHead, UserScratch};
pub use init::{onehot_init, random_init, solve_h, spectral_init};
pub use loss::{
    naive_whole_data_loss, negative_sampling_loss_and_grad, negative_sampling_loss_and_grad_ws,
    rewritten_loss_and_grad, rewritten_loss_and_grad_ws, Grads,
};
pub use model::{SliceScratch, TcssModel};
pub use model_io::{load_model, save_model, ModelIoError};
pub use sparse_grads::{GradScratch, SparseGrads};
pub use topn::{rank_order, top_n, top_n_full_sort};
pub use train::{TcssTrainer, TrainContext, TrainError, TrainReport};
pub use workspace::TrainWorkspace;
