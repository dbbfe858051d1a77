//! Building blocks of the repository benchmark (`src/main.rs` runs the
//! workloads; see `README.md` beside `Cargo.toml` for the workloads, the
//! metrics and the layer → end-to-end interaction map).
//!
//! Everything here calls the workspace crates through their public API;
//! no span or counter lives inside the program. Per-layer numbers come
//! from timing direct calls into each layer on a run's own state, and
//! from the per-epoch training callback.

pub mod inputs;
pub mod layers;
pub mod load;
pub mod report;
pub mod stats;
