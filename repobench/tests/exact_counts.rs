//! The counts the benchmark reports as exact must repeat exactly: two
//! measurements of the same inputs give the same number. Small inputs
//! keep these fast; the counting code is the code the benchmark runs.

use std::path::PathBuf;

use repobench::inputs::{self, Shape};
use repobench::layers;
use tcss_core::{
    spectral_init, DistConfig, HausdorffVariant, SocialHausdorffHead, TcssConfig, TcssModel,
    TcssTrainer,
};
use tcss_data::Granularity;
use tcss_geo::WeightedHausdorffParams;

const SEED: u64 = 2022;

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("test work directory");
    dir
}

fn tiny_config(epochs: usize) -> TcssConfig {
    TcssConfig {
        epochs,
        ..TcssConfig::default()
    }
}

fn trained(cfg: &TcssConfig) -> (inputs::Inputs, TcssModel) {
    let inp = inputs::inputs(Shape::Tiny);
    let trainer = TcssTrainer::new(&inp.data, &inp.split.train, Granularity::Month, cfg.clone());
    let model = trainer.train(|_, _| {});
    (inp, model)
}

#[test]
fn training_inputs_are_fixed() {
    let a = inputs::inputs(Shape::Tiny);
    let b = inputs::inputs(Shape::Tiny);
    assert_eq!(a.data.checkins, b.data.checkins);
    assert_eq!(a.split.train, b.split.train);
    assert_eq!(a.split.test, b.split.test);
    assert_ne!(
        inputs::stream_seed(SEED, "requests"),
        inputs::stream_seed(SEED + 1, "requests")
    );
}

#[test]
fn gram_applies_repeat_and_by_mode_init_is_spectral_init() {
    let inp = inputs::inputs(Shape::Tiny);
    let tensor = inp.data.tensor_from(&inp.split.train, Granularity::Month);
    let cfg = TcssConfig::default();
    let first = layers::spectral_init_by_mode(&tensor, cfg.rank, cfg.seed);
    let second = layers::spectral_init_by_mode(&tensor, cfg.rank, cfg.seed);
    let counts: Vec<u64> = first.iter().map(|m| m.gram_applies).collect();
    assert!(counts.iter().all(|&n| n > 0));
    assert_eq!(
        counts,
        second.iter().map(|m| m.gram_applies).collect::<Vec<_>>()
    );
    // The wrapped calls are the ones spectral init makes: same factors,
    // bit for bit.
    let (u1, u2, u3) = spectral_init(&tensor, cfg.rank, cfg.seed);
    for (m, f) in first.iter().zip([&u1, &u2, &u3]) {
        assert_eq!(m.factor.as_slice(), f.as_slice());
    }
}

#[test]
fn head_pairs_repeat() {
    let cfg = tiny_config(6);
    let (inp, model) = trained(&cfg);
    let head = || {
        SocialHausdorffHead::new(
            &inp.data,
            &inp.split.train,
            HausdorffVariant::Social,
            WeightedHausdorffParams {
                alpha: cfg.alpha,
                epsilon: cfg.epsilon,
                floor: 1e-9,
            },
            None,
        )
    };
    let pairs = layers::head_pairs(&head(), &model);
    assert!(pairs > 0);
    assert_eq!(pairs, layers::head_pairs(&head(), &model));
    let (_, again) = trained(&cfg);
    assert_eq!(layers::model_digest(&model), layers::model_digest(&again));
    assert_eq!(pairs, layers::head_pairs(&head(), &again));
}

#[test]
fn checkpoint_and_snapshot_bytes_repeat() {
    let cfg = tiny_config(3);
    let (_, model) = trained(&cfg);
    let dir = work_dir("bytes");
    let (_, ck_a) = layers::checkpoint_save(&model, &cfg, &dir.join("a.tcssck"), 1);
    let (_, ck_b) = layers::checkpoint_save(&model, &cfg, &dir.join("b.tcssck"), 2);
    assert!(ck_a > 0);
    assert_eq!(ck_a, ck_b);
    let (_, _, snap_a) = layers::snapshot_write_open(&model, &dir.join("a.tcsssnap"), 1);
    let (_, _, snap_b) = layers::snapshot_write_open(&model, &dir.join("b.tcsssnap"), 2);
    assert!(snap_a > 0);
    assert_eq!(snap_a, snap_b);
}

#[test]
fn dist_bytes_per_epoch_repeat_and_match_in_process_bits() {
    let cfg = tiny_config(7);
    let inp = inputs::inputs(Shape::Tiny);
    let trainer = TcssTrainer::new(&inp.data, &inp.split.train, Granularity::Month, cfg);
    let dist = DistConfig {
        worker_threads: Some(1),
        worker_args: vec!["dist-worker".into()],
        socket_dir: Some(work_dir("dist")),
        tail_shard: true,
        ..DistConfig::new(2, env!("CARGO_BIN_EXE_repobench"))
    };
    let per_epoch = || {
        let r = trainer
            .train_distributed(&dist, |_| {})
            .expect("distributed training");
        assert_eq!(r.respawns, 0);
        let bytes = (r.bytes_sent + r.bytes_received) as f64 / r.epochs_dispatched as f64;
        (bytes, layers::model_digest(&r.report.model))
    };
    let (a, digest_a) = per_epoch();
    let (b, digest_b) = per_epoch();
    assert!(a > 0.0);
    assert_eq!(a.to_bits(), b.to_bits());
    assert_eq!(digest_a, digest_b);
    let local = trainer.train(|_, _| {});
    assert_eq!(digest_a, layers::model_digest(&local));
}
