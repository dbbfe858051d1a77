//! Workload inputs: the synthetic LBSN and its train/test split.
//!
//! Training inputs are fixed: the Gowalla preset's LBSN (the generator at
//! the preset's own seed) and the 80/20 split the CLI's `evaluate` uses.
//! The benchmark seed draws the evaluation negatives and the request
//! streams. Seeding the training data instead moves `train_s` by up to a
//! third between seeds, against ~5% between runs of one seed: spectral
//! init converges in a number of sweeps that depends on the exact tensor,
//! and the head's work follows the social graph. That spread would hide
//! any change smaller than it.

use tcss_data::{synth, train_test_split, Dataset, Split, SynthConfig, SynthPreset};

/// Dataset shapes the workloads train on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The Gowalla preset as the CLI generates it (220 users, 520 POIs).
    Gowalla,
    /// The Gowalla generator scaled to 1000 users and 1265 POIs. Spectral
    /// init grows superlinearly in the user count (the mode-3 Gram apply
    /// touches an `I·J` fibre buffer), so this stays well below the
    /// ~2000 users where init alone takes minutes.
    Wide,
    /// A few dozen users, for the benchmark's own tests.
    Tiny,
}

/// Share of each user's check-ins kept for training (the paper's 80/20).
pub const TRAIN_FRACTION: f64 = 0.8;

/// Generator settings for `shape`.
pub fn synth_config(shape: Shape) -> SynthConfig {
    let base = SynthPreset::Gowalla.config();
    match shape {
        Shape::Gowalla => base,
        Shape::Wide => SynthConfig {
            n_users: 1000,
            n_pois: 1265,
            ..base
        },
        Shape::Tiny => SynthConfig {
            n_users: 40,
            n_pois: 90,
            n_clusters: 4,
            n_communities: 3,
            avg_checkins_per_user: 30,
            ..base
        },
    }
}

/// Seed of one input stream, derived from the benchmark seed and the
/// stream's name, so one argument fixes every input.
pub fn stream_seed(seed: u64, stream: &str) -> u64 {
    tcss_core::digest::fnv1a64_continue(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), stream.as_bytes())
}

/// A generated dataset and its train/test split.
pub struct Inputs {
    /// The synthetic LBSN.
    pub data: Dataset,
    /// Per-user 80/20 split of its check-ins.
    pub split: Split,
}

/// Generate the dataset of `shape` (the `data.generate` layer).
pub fn generate(shape: Shape) -> Dataset {
    synth::generate(&synth_config(shape))
}

/// Seed of the 80/20 split (the one `tcss evaluate` uses).
pub const SPLIT_SEED: u64 = 42;

/// Split `data` 80/20 per user.
pub fn split(data: &Dataset) -> Split {
    train_test_split(&data.checkins, data.n_users, TRAIN_FRACTION, SPLIT_SEED)
}

/// Generate and split in one call.
pub fn inputs(shape: Shape) -> Inputs {
    let data = generate(shape);
    let split = split(&data);
    Inputs { data, split }
}
