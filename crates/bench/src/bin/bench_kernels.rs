//! Training hot-path kernel benchmark: sparse chunk-local gradients and
//! pooled workspaces (the "after" path) against the retained dense-chunk
//! reference implementations (the "before" path), plus the cache-blocked
//! matmul/gram kernels, at 1/2/4 worker threads.
//!
//! Emits `BENCH_train_kernels.json` into the current directory:
//! Criterion-shim-shaped `benchmarks` entries (mean/min/max ns per op)
//! plus two extra sections the shim cannot produce —
//!
//! * `allocations_per_epoch`: heap allocations during one steady-state
//!   epoch-gradient evaluation (pools warmed), counted by a global
//!   counting allocator **in this binary only**, at two tensor sizes.
//!   The sparse path's count must not scale with the chunk count; the
//!   dense path's does (one `Grads`-sized buffer per chunk).
//! * `epoch_speedup`: before/after throughput ratio of a full training
//!   epoch (L₂ gradients + Adam step) per thread count. The epoch fixture
//!   disables the Hausdorff head (the λ = 0 ablation of Table II) because
//!   the head's cost is dominated by per-user slice evaluation, which
//!   this rewrite leaves untouched — the head is timed separately.
//!
//! `TCSS_BENCH_SMOKE=1` shrinks every fixture to CI-smoke sizes: the run
//! finishes in seconds and only the JSON shape is meaningful.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tcss_core::loss::reference;
use tcss_core::{
    negative_sampling_loss_and_grad_ws, random_init, rewritten_loss_and_grad_ws, Grads,
    HausdorffVariant, SocialHausdorffHead, TcssModel, TrainWorkspace,
};
use tcss_data::synth::{generate, SynthConfig};
use tcss_data::{Dataset, Granularity, SynthPreset};
use tcss_linalg::{set_num_threads, Matrix};

// --- Counting allocator (bench binary only) ------------------------------

/// Forwards to the system allocator, counting every allocation. The
/// production crates never see this: `#[global_allocator]` only applies to
/// this binary.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count over one invocation of `f`.
fn allocs_during(mut f: impl FnMut()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

// --- Timing --------------------------------------------------------------

struct BenchResult {
    name: String,
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
}

/// Warm up, calibrate a batch size so each sample runs ≥ `target_ns`, then
/// take `samples` timed batches.
fn run_bench(name: &str, samples: usize, target_ns: u64, mut f: impl FnMut()) -> BenchResult {
    f(); // warmup
    let t0 = Instant::now();
    f();
    let once = (t0.elapsed().as_nanos() as u64).max(1);
    let iters = (target_ns / once).clamp(1, 100_000);
    let mut per_op = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_op.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    let mean = per_op.iter().sum::<f64>() / per_op.len() as f64;
    let min = per_op.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = per_op.iter().cloned().fold(0.0f64, f64::max);
    println!("{name:<44} {:>12.0} ns/op  (n={samples}×{iters})", mean);
    BenchResult {
        name: name.to_string(),
        mean_ns: mean,
        min_ns: min,
        max_ns: max,
        samples,
    }
}

// --- Local Adam (mirror of the trainer's update, for the epoch bench) ----

struct Adam {
    m: Grads,
    v: Grads,
    t: u64,
}

impl Adam {
    fn new(model: &TcssModel) -> Self {
        Adam {
            m: Grads::zeros(model),
            v: Grads::zeros(model),
            t: 0,
        }
    }

    fn step(&mut self, model: &mut TcssModel, g: &Grads, lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        fn upd(
            w: &mut [f64],
            g: &[f64],
            m: &mut [f64],
            v: &mut [f64],
            lr: f64,
            bc1: f64,
            bc2: f64,
        ) {
            for idx in 0..w.len() {
                m[idx] = B1 * m[idx] + (1.0 - B1) * g[idx];
                v[idx] = B2 * v[idx] + (1.0 - B2) * g[idx] * g[idx];
                w[idx] -= lr * ((m[idx] / bc1) / ((v[idx] / bc2).sqrt() + EPS));
            }
        }
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        upd(
            model.u1.as_mut_slice(),
            g.u1.as_slice(),
            self.m.u1.as_mut_slice(),
            self.v.u1.as_mut_slice(),
            lr,
            bc1,
            bc2,
        );
        upd(
            model.u2.as_mut_slice(),
            g.u2.as_slice(),
            self.m.u2.as_mut_slice(),
            self.v.u2.as_mut_slice(),
            lr,
            bc1,
            bc2,
        );
        upd(
            model.u3.as_mut_slice(),
            g.u3.as_slice(),
            self.m.u3.as_mut_slice(),
            self.v.u3.as_mut_slice(),
            lr,
            bc1,
            bc2,
        );
        upd(
            &mut model.h,
            &g.h,
            &mut self.m.h,
            &mut self.v.h,
            lr,
            bc1,
            bc2,
        );
    }
}

// --- Fixtures ------------------------------------------------------------

/// Large sparse fixture for the L₂/epoch benchmarks: enough check-ins that
/// the entry loop spans ~100 chunks, so per-chunk buffer overhead (what
/// this PR removes) is visible next to the arithmetic.
fn epoch_fixture(smoke: bool) -> Dataset {
    if smoke {
        SynthPreset::Gmu5k.generate()
    } else {
        generate(&SynthConfig {
            name: "bench-epoch-synth".into(),
            seed: 2026,
            n_users: 600,
            n_pois: 3000,
            n_clusters: 12,
            n_communities: 8,
            avg_checkins_per_user: 170,
            ..SynthPreset::Gowalla.config()
        })
    }
}

fn main() {
    let smoke = std::env::var("TCSS_BENCH_SMOKE").is_ok();
    let samples = if smoke { 2 } else { 7 };
    let target_ns: u64 = if smoke { 500_000 } else { 20_000_000 };
    let threads = [1usize, 2, 4];
    let mut results: Vec<BenchResult> = Vec::new();

    // --- matmul / gram ---------------------------------------------------
    let (m, n, p) = if smoke { (32, 24, 16) } else { (384, 256, 192) };
    let a = Matrix::from_fn(m, n, |i, j| ((i * 31 + j * 17) % 97) as f64 * 0.013 - 0.5);
    let b = Matrix::from_fn(n, p, |i, j| ((i * 13 + j * 29) % 89) as f64 * 0.011 - 0.4);
    let (gr, gc) = if smoke { (48, 8) } else { (512, 96) };
    let g = Matrix::from_fn(gr, gc, |i, j| ((i * 7 + j * 41) % 83) as f64 * 0.017 - 0.6);
    for t in threads {
        set_num_threads(Some(t));
        results.push(run_bench(
            &format!("matmul_{m}x{n}x{p}/t{t}"),
            samples,
            target_ns,
            || {
                black_box(a.matmul(&b).expect("shapes agree"));
            },
        ));
        results.push(run_bench(
            &format!("gram_{gr}x{gc}/t{t}"),
            samples,
            target_ns,
            || {
                black_box(g.gram());
            },
        ));
    }

    // --- L₂ heads: dense reference vs sparse+pooled ----------------------
    let data = epoch_fixture(smoke);
    let train = if smoke {
        data.checkins.iter().take(1500).copied().collect()
    } else {
        data.checkins.clone()
    };
    let tensor = data.tensor_from(&train, Granularity::Month);
    let entries = tensor.entries();
    println!(
        "epoch fixture: {} users × {} POIs, {} tensor entries",
        data.n_users,
        data.n_pois(),
        entries.len()
    );
    let (u1, u2, u3) = random_init(tensor.dims(), 10, 7);
    let model = TcssModel::new(u1, u2, u3);
    let ws = TrainWorkspace::new();
    let mut grads = Grads::zeros(&model);
    for t in threads {
        set_num_threads(Some(t));
        results.push(run_bench(
            &format!("l2_rewritten/dense_before/t{t}"),
            samples,
            target_ns,
            || {
                black_box(reference::rewritten_loss_and_grad_dense(
                    &model, entries, 0.95, 0.05,
                ));
            },
        ));
        results.push(run_bench(
            &format!("l2_rewritten/sparse_after/t{t}"),
            samples,
            target_ns,
            || {
                grads.set_zero();
                black_box(rewritten_loss_and_grad_ws(
                    &model, entries, 0.95, 0.05, &ws, &mut grads,
                ));
            },
        ));
        results.push(run_bench(
            &format!("negative_sampling/dense_before/t{t}"),
            samples,
            target_ns,
            || {
                black_box(reference::negative_sampling_loss_and_grad_dense(
                    &model, &tensor, 0.95, 0.05, 42,
                ));
            },
        ));
        results.push(run_bench(
            &format!("negative_sampling/sparse_after/t{t}"),
            samples,
            target_ns,
            || {
                grads.set_zero();
                black_box(negative_sampling_loss_and_grad_ws(
                    &model, &tensor, 0.95, 0.05, 42, &ws, &mut grads,
                ));
            },
        ));
    }

    // --- Social-Hausdorff head -------------------------------------------
    // Timed on the Gowalla preset with a candidate cap: the head's cost is
    // dominated by the per-user J×K slice evaluation (unchanged here), so
    // its before/after delta is modest by design — see DESIGN.md.
    let (hdata, htrain, cap) = if smoke {
        (data, train, Some(8))
    } else {
        let d = SynthPreset::Gowalla.generate();
        let t = d.checkins.clone();
        (d, t, Some(32))
    };
    let htensor = hdata.tensor_from(&htrain, Granularity::Month);
    let (hu1, hu2, hu3) = random_init(htensor.dims(), 10, 7);
    let hmodel = TcssModel::new(hu1, hu2, hu3);
    let head = SocialHausdorffHead::new(
        &hdata,
        &htrain,
        HausdorffVariant::Social,
        Default::default(),
        cap,
    );
    let hws = TrainWorkspace::new();
    let mut hgrads = Grads::zeros(&hmodel);
    for t in threads {
        set_num_threads(Some(t));
        results.push(run_bench(
            &format!("hausdorff_head/dense_before/t{t}"),
            samples,
            target_ns,
            || {
                hgrads.set_zero();
                black_box(head.loss_and_grad_dense(&hmodel, &mut hgrads, 240.0));
            },
        ));
        results.push(run_bench(
            &format!("hausdorff_head/sparse_after/t{t}"),
            samples,
            target_ns,
            || {
                hgrads.set_zero();
                black_box(head.loss_and_grad_ws(&hmodel, &mut hgrads, 240.0, &hws));
            },
        ));
    }

    // --- Full epoch: L₂ gradients + Adam step (λ = 0 ablation config) ----
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    for t in threads {
        set_num_threads(Some(t));
        let mut model_b = model.clone();
        let mut adam_b = Adam::new(&model_b);
        let before = run_bench(
            &format!("epoch_l2/dense_before/t{t}"),
            samples,
            target_ns,
            || {
                let (_, g) =
                    reference::rewritten_loss_and_grad_dense(&model_b, entries, 0.95, 0.05);
                adam_b.step(&mut model_b, &g, 0.05);
            },
        );
        let mut model_a = model.clone();
        let mut adam_a = Adam::new(&model_a);
        let after = run_bench(
            &format!("epoch_l2/sparse_after/t{t}"),
            samples,
            target_ns,
            || {
                grads.set_zero();
                rewritten_loss_and_grad_ws(&model_a, entries, 0.95, 0.05, &ws, &mut grads);
                adam_a.step(&mut model_a, &grads, 0.05);
            },
        );
        speedups.push((t, before.mean_ns / after.mean_ns));
        results.push(before);
        results.push(after);
    }

    // --- Allocations per epoch (steady state, 4 threads) -----------------
    // Both paths warmed above. Measured at two tensor sizes: the sparse
    // path's count must stay flat while the dense path's roughly halves
    // with the entry count (one Grads per chunk).
    set_num_threads(Some(4));
    let half = &entries[..entries.len() / 2];
    // One warm call per shape so pool/result capacities reach steady state.
    grads.set_zero();
    rewritten_loss_and_grad_ws(&model, half, 0.95, 0.05, &ws, &mut grads);
    let sparse_full = allocs_during(|| {
        grads.set_zero();
        black_box(rewritten_loss_and_grad_ws(
            &model, entries, 0.95, 0.05, &ws, &mut grads,
        ));
    });
    let sparse_half = allocs_during(|| {
        grads.set_zero();
        black_box(rewritten_loss_and_grad_ws(
            &model, half, 0.95, 0.05, &ws, &mut grads,
        ));
    });
    let dense_full = allocs_during(|| {
        black_box(reference::rewritten_loss_and_grad_dense(
            &model, entries, 0.95, 0.05,
        ));
    });
    let dense_half = allocs_during(|| {
        black_box(reference::rewritten_loss_and_grad_dense(
            &model, half, 0.95, 0.05,
        ));
    });
    set_num_threads(None);
    println!(
        "allocations/epoch  dense: {dense_full} (full) / {dense_half} (half)   \
         sparse: {sparse_full} (full) / {sparse_half} (half)"
    );
    for (t, s) in &speedups {
        println!("epoch speedup at {t} thread(s): {s:.2}×");
    }

    // --- SIMD lane-kernel micro-benchmarks -------------------------------
    // Each lane kernel against its scalar counterpart (the index-based
    // loop shape the hot paths used before `tcss_linalg::kernels`), single
    // threaded. GFLOP/s = useful flops / mean ns.
    set_num_threads(Some(1));
    struct KernelBench {
        name: String,
        n: usize,
        flops: u64,
        kernel_ns: f64,
        scalar_ns: f64,
    }
    let mut kernel_benches: Vec<KernelBench> = Vec::new();
    let big = 4096usize;
    let rank = 10usize; // the training rank — the size predict/backprop run at
    let mk = |len: usize, seed: usize| -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 37 + seed * 101) % 211) as f64 * 0.009 - 0.8)
            .collect()
    };
    {
        let mut bench_pair = |name: &str,
                              n: usize,
                              flops: u64,
                              kernel: &mut dyn FnMut(),
                              scalar: &mut dyn FnMut()| {
            let k = run_bench(
                &format!("simd/{name}/kernel"),
                samples,
                target_ns / 4,
                kernel,
            );
            let s = run_bench(
                &format!("simd/{name}/scalar"),
                samples,
                target_ns / 4,
                scalar,
            );
            println!(
                "  {name:<24} {:>7.2} GFLOP/s kernel vs {:>7.2} scalar  ({:.2}x)",
                flops as f64 / k.mean_ns,
                flops as f64 / s.mean_ns,
                s.mean_ns / k.mean_ns
            );
            kernel_benches.push(KernelBench {
                name: name.to_string(),
                n,
                flops,
                kernel_ns: k.mean_ns,
                scalar_ns: s.mean_ns,
            });
        };
        let (xa, xb, xc, xd) = (mk(big, 1), mk(big, 2), mk(big, 3), mk(big, 4));
        let (ra, rb, rc, rd) = (mk(rank, 5), mk(rank, 6), mk(rank, 7), mk(rank, 8));
        bench_pair(
            &format!("dot_{big}"),
            big,
            2 * big as u64,
            &mut || {
                black_box(tcss_linalg::kernels::dot(black_box(&xa), black_box(&xb)));
            },
            &mut || {
                black_box(scalar_kernels::dot(black_box(&xa), black_box(&xb)));
            },
        );
        bench_pair(
            &format!("dot4_{big}"),
            big,
            4 * big as u64,
            &mut || {
                black_box(tcss_linalg::kernels::dot4(
                    black_box(&xa),
                    black_box(&xb),
                    black_box(&xc),
                    black_box(&xd),
                ));
            },
            &mut || {
                black_box(scalar_kernels::dot4(
                    black_box(&xa),
                    black_box(&xb),
                    black_box(&xc),
                    black_box(&xd),
                ));
            },
        );
        bench_pair(
            &format!("dot4_rank{rank}"),
            rank,
            4 * rank as u64,
            &mut || {
                black_box(tcss_linalg::kernels::dot4(
                    black_box(&ra),
                    black_box(&rb),
                    black_box(&rc),
                    black_box(&rd),
                ));
            },
            &mut || {
                black_box(scalar_kernels::dot4(
                    black_box(&ra),
                    black_box(&rb),
                    black_box(&rc),
                    black_box(&rd),
                ));
            },
        );
        bench_pair(
            &format!("sum_{big}"),
            big,
            big as u64,
            &mut || {
                black_box(tcss_linalg::kernels::sum(black_box(&xa)));
            },
            &mut || {
                black_box(scalar_kernels::sum(black_box(&xa)));
            },
        );
        let mut ybuf = mk(big, 9);
        let mut bench_pair_y = |name: &str,
                                n: usize,
                                flops: u64,
                                y: &mut Vec<f64>,
                                kernel: &mut dyn FnMut(&mut [f64]),
                                scalar: &mut dyn FnMut(&mut [f64])| {
            let k = run_bench(
                &format!("simd/{name}/kernel"),
                samples,
                target_ns / 4,
                || {
                    kernel(black_box(&mut y[..]));
                },
            );
            let s = run_bench(
                &format!("simd/{name}/scalar"),
                samples,
                target_ns / 4,
                || {
                    scalar(black_box(&mut y[..]));
                },
            );
            println!(
                "  {name:<24} {:>7.2} GFLOP/s kernel vs {:>7.2} scalar  ({:.2}x)",
                flops as f64 / k.mean_ns,
                flops as f64 / s.mean_ns,
                s.mean_ns / k.mean_ns
            );
            kernel_benches.push(KernelBench {
                name: name.to_string(),
                n,
                flops,
                kernel_ns: k.mean_ns,
                scalar_ns: s.mean_ns,
            });
        };
        bench_pair_y(
            &format!("axpy_{big}"),
            big,
            2 * big as u64,
            &mut ybuf,
            &mut |y| tcss_linalg::kernels::axpy(1e-9, &xa, y),
            &mut |y| scalar_kernels::axpy(1e-9, &xa, y),
        );
        let (qa, qb, qc, qd) = (mk(big, 10), mk(big, 11), mk(big, 12), mk(big, 13));
        let mut qy = mk(big, 14);
        bench_pair_y(
            &format!("fused_mul3_axpy_{big}"),
            big,
            4 * big as u64,
            &mut qy,
            &mut |y| tcss_linalg::kernels::fused_mul3_axpy(1e-9, &qa, &qb, &qc, y),
            &mut |y| scalar_kernels::fused_mul3_axpy(1e-9, &qa, &qb, &qc, y),
        );
        let w = [1e-9, -1e-9, 2e-9, -2e-9];
        let mut wy = mk(big, 15);
        bench_pair_y(
            &format!("update_row_quad_{big}"),
            big,
            8 * big as u64,
            &mut wy,
            &mut |y| tcss_linalg::kernels::update_row_quad(y, w, &qa, &qb, &qc, &qd),
            &mut |y| scalar_kernels::update_row_quad(y, w, &qa, &qb, &qc, &qd),
        );
    }

    // --- SIMD epoch: scalar pre-kernel arithmetic vs lane kernels ---------
    // Before = `scalar_before`: the sparse-delta + pooled-workspace epoch
    // exactly as it ran before the lane kernels landed (index loops,
    // sequential reductions, scalar Gram/matmul in the whole-data term).
    // After = the production path. Same algorithm on both sides — the delta
    // is purely the kernel rewrite.
    let pools = scalar_before::Pools::default();
    let mut simd_epoch: Vec<(usize, f64, f64)> = Vec::new();
    for t in threads {
        set_num_threads(Some(t));
        let mut model_b = model.clone();
        let mut adam_b = Adam::new(&model_b);
        let before = run_bench(
            &format!("epoch_simd/scalar_before/t{t}"),
            samples,
            target_ns,
            || {
                grads.set_zero();
                scalar_before::rewritten_loss_and_grad(
                    &model_b, entries, 0.95, 0.05, &pools, &mut grads,
                );
                adam_b.step(&mut model_b, &grads, 0.05);
            },
        );
        let mut model_a = model.clone();
        let mut adam_a = Adam::new(&model_a);
        let after = run_bench(
            &format!("epoch_simd/kernel_after/t{t}"),
            samples,
            target_ns,
            || {
                grads.set_zero();
                rewritten_loss_and_grad_ws(&model_a, entries, 0.95, 0.05, &ws, &mut grads);
                adam_a.step(&mut model_a, &grads, 0.05);
            },
        );
        println!(
            "epoch (simd) speedup at {t} thread(s): {:.2}x",
            before.mean_ns / after.mean_ns
        );
        simd_epoch.push((t, before.mean_ns, after.mean_ns));
    }
    set_num_threads(None);

    // --- JSON -------------------------------------------------------------
    let mut json = String::from("{\n  \"group\": \"train_kernels\",\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \
             \"max_ns\": {:.1}, \"samples\": {}}}{sep}\n",
            r.name, r.mean_ns, r.min_ns, r.max_ns, r.samples
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"allocations_per_epoch\": {{\n    \"entries_full\": {},\n    \
         \"entries_half\": {},\n    \"dense_before_full\": {dense_full},\n    \
         \"dense_before_half\": {dense_half},\n    \
         \"sparse_after_full\": {sparse_full},\n    \
         \"sparse_after_half\": {sparse_half}\n  }},\n",
        entries.len(),
        half.len(),
    ));
    json.push_str("  \"epoch_speedup\": {");
    for (i, (t, s)) in speedups.iter().enumerate() {
        let sep = if i + 1 == speedups.len() { "" } else { ", " };
        json.push_str(&format!("\"t{t}\": {s:.3}{sep}"));
    }
    json.push_str("}\n}\n");
    std::fs::write("BENCH_train_kernels.json", json).expect("write BENCH_train_kernels.json");
    println!("wrote BENCH_train_kernels.json");

    // --- BENCH_simd_kernels.json ------------------------------------------
    let fixture = if smoke {
        format!("gmu5k-smoke ({} entries)", entries.len())
    } else {
        format!("synth-600x3000 ({} entries)", entries.len())
    };
    let mut sj = String::from("{\n  \"group\": \"simd_kernels\",\n");
    sj.push_str(&format!("  \"lanes\": {},\n", tcss_linalg::LANES));
    sj.push_str("  \"kernels\": [\n");
    for (i, k) in kernel_benches.iter().enumerate() {
        let sep = if i + 1 == kernel_benches.len() {
            ""
        } else {
            ","
        };
        sj.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"flops\": {}, \
             \"kernel_ns\": {:.1}, \"scalar_ns\": {:.1}, \
             \"kernel_gflops\": {:.3}, \"scalar_gflops\": {:.3}, \
             \"speedup\": {:.3}}}{sep}\n",
            k.name,
            k.n,
            k.flops,
            k.kernel_ns,
            k.scalar_ns,
            k.flops as f64 / k.kernel_ns,
            k.flops as f64 / k.scalar_ns,
            k.scalar_ns / k.kernel_ns,
        ));
    }
    sj.push_str("  ],\n");
    sj.push_str(&format!(
        "  \"epoch\": {{\n    \"fixture\": \"{fixture}\",\n    \"threads\": [\n"
    ));
    for (i, (t, before_ns, after_ns)) in simd_epoch.iter().enumerate() {
        let sep = if i + 1 == simd_epoch.len() { "" } else { "," };
        sj.push_str(&format!(
            "      {{\"threads\": {t}, \"before_ns\": {before_ns:.1}, \
             \"after_ns\": {after_ns:.1}, \"speedup\": {:.3}}}{sep}\n",
            before_ns / after_ns,
        ));
    }
    sj.push_str("    ]\n  }\n}\n");
    std::fs::write("BENCH_simd_kernels.json", sj).expect("write BENCH_simd_kernels.json");
    println!("wrote BENCH_simd_kernels.json");
}

// --- Scalar kernel counterparts (micro-benchmark baselines) ---------------

/// The index-based loop shapes the hot paths used before
/// `tcss_linalg::kernels` existed: sequential reductions (one accumulator,
/// left-to-right) and per-element bounds-checked elementwise updates.
// The bounds-checked index loops ARE the baseline being measured; iterator
// rewrites would turn this module into the thing it is compared against.
#[allow(clippy::needless_range_loop)]
mod scalar_kernels {
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        let mut s = 0.0;
        for i in 0..a.len() {
            s += a[i] * b[i];
        }
        s
    }

    pub fn dot4(a: &[f64], b: &[f64], c: &[f64], d: &[f64]) -> f64 {
        let mut s = 0.0;
        for i in 0..a.len() {
            s += a[i] * b[i] * c[i] * d[i];
        }
        s
    }

    pub fn sum(a: &[f64]) -> f64 {
        let mut s = 0.0;
        for i in 0..a.len() {
            s += a[i];
        }
        s
    }

    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for i in 0..y.len() {
            y[i] += alpha * x[i];
        }
    }

    pub fn fused_mul3_axpy(c: f64, a: &[f64], b: &[f64], d: &[f64], y: &mut [f64]) {
        for i in 0..y.len() {
            y[i] += c * a[i] * b[i] * d[i];
        }
    }

    /// Four separate weighted-row passes — what the tiled matmul/gram inner
    /// loops did per source row before the quad micro-kernel fused them.
    pub fn update_row_quad(
        y: &mut [f64],
        w: [f64; 4],
        r0: &[f64],
        r1: &[f64],
        r2: &[f64],
        r3: &[f64],
    ) {
        for (wk, row) in w.iter().zip([r0, r1, r2, r3]) {
            for i in 0..y.len() {
                y[i] += wk * row[i];
            }
        }
    }
}

// --- Scalar pre-kernel epoch (the "before" side of the SIMD epoch bench) --

/// Self-contained re-implementation of the rewritten-loss epoch exactly as
/// it ran before the lane kernels landed: the same sparse chunk-delta +
/// pooled-workspace algorithm as production, but with index-based rank
/// loops, a single sequential accumulator in `predict`, and scalar
/// Gram/matmul in the whole-data term. Lives in this binary (not the
/// library) so the production crates carry exactly one implementation of
/// each kernel.
// Same rationale as `scalar_kernels`: the index loops are the point.
#[allow(clippy::needless_range_loop)]
mod scalar_before {
    use tcss_core::{Grads, TcssModel};
    use tcss_linalg::{map_chunks_with, Matrix, WorkspacePool};
    use tcss_sparse::TensorEntry;

    const EMPTY: u32 = u32::MAX;
    const ENTRIES_PER_CHUNK: usize = 1024;

    fn predict(m: &TcssModel, i: usize, j: usize, k: usize) -> f64 {
        let r = m.h.len();
        let ui = m.u1.row(i);
        let uj = m.u2.row(j);
        let uk = m.u3.row(k);
        let mut s = 0.0;
        for t in 0..r {
            s += m.h[t] * ui[t] * uj[t] * uk[t];
        }
        s
    }

    #[derive(Default)]
    struct Factor {
        rows: Vec<u32>,
        data: Vec<f64>,
    }

    impl Factor {
        fn row_mut(&mut self, slots: &mut [u32], row: usize, r: usize) -> &mut [f64] {
            let mut slot = slots[row];
            if slot == EMPTY {
                slot = self.rows.len() as u32;
                slots[row] = slot;
                self.rows.push(row as u32);
                self.data.resize(self.data.len() + r, 0.0);
            }
            let lo = slot as usize * r;
            &mut self.data[lo..lo + r]
        }

        fn scatter_into(&self, r: usize, dense: &mut Matrix) {
            for (slot, &row) in self.rows.iter().enumerate() {
                let src = &self.data[slot * r..(slot + 1) * r];
                for (d, &s) in dense.row_mut(row as usize).iter_mut().zip(src) {
                    *d += s;
                }
            }
        }

        fn detach(&self, slots: &mut [u32]) {
            for &row in &self.rows {
                slots[row as usize] = EMPTY;
            }
        }

        fn clear(&mut self) {
            self.rows.clear();
            self.data.clear();
        }
    }

    #[derive(Default)]
    pub struct Delta {
        r: usize,
        u1: Factor,
        u2: Factor,
        u3: Factor,
        h: Vec<f64>,
    }

    impl Delta {
        fn begin(&mut self, m: &TcssModel) {
            self.r = m.h.len();
            self.u1.clear();
            self.u2.clear();
            self.u3.clear();
            self.h.clear();
            self.h.resize(self.r, 0.0);
        }

        fn detach(&self, slots: &mut Slots) {
            self.u1.detach(&mut slots.s1);
            self.u2.detach(&mut slots.s2);
            self.u3.detach(&mut slots.s3);
        }

        fn scatter_into(&self, grads: &mut Grads) {
            self.u1.scatter_into(self.r, &mut grads.u1);
            self.u2.scatter_into(self.r, &mut grads.u2);
            self.u3.scatter_into(self.r, &mut grads.u3);
            for (d, &s) in grads.h.iter_mut().zip(self.h.iter()) {
                *d += s;
            }
        }
    }

    pub struct Slots {
        s1: Vec<u32>,
        s2: Vec<u32>,
        s3: Vec<u32>,
    }

    impl Slots {
        fn for_model(m: &TcssModel) -> Self {
            let (i, j, k) = m.dims();
            Slots {
                s1: vec![EMPTY; i],
                s2: vec![EMPTY; j],
                s3: vec![EMPTY; k],
            }
        }

        fn ensure(&mut self, m: &TcssModel) {
            let (i, j, k) = m.dims();
            if self.s1.len() != i || self.s2.len() != j || self.s3.len() != k {
                *self = Slots::for_model(m);
            }
        }
    }

    #[derive(Default)]
    pub struct Pools {
        slots: WorkspacePool<Slots>,
        deltas: WorkspacePool<Delta>,
    }

    fn backprop(
        m: &TcssModel,
        d: &mut Delta,
        sl: &mut Slots,
        i: usize,
        j: usize,
        k: usize,
        c: f64,
    ) {
        let r = m.h.len();
        let ui = m.u1.row(i);
        let uj = m.u2.row(j);
        let uk = m.u3.row(k);
        let g1 = d.u1.row_mut(&mut sl.s1, i, r);
        for t in 0..r {
            g1[t] += c * m.h[t] * uj[t] * uk[t];
        }
        let g2 = d.u2.row_mut(&mut sl.s2, j, r);
        for t in 0..r {
            g2[t] += c * m.h[t] * ui[t] * uk[t];
        }
        let g3 = d.u3.row_mut(&mut sl.s3, k, r);
        for t in 0..r {
            g3[t] += c * m.h[t] * ui[t] * uj[t];
        }
        for t in 0..r {
            d.h[t] += c * ui[t] * uj[t] * uk[t];
        }
    }

    fn gram_scalar(m: &Matrix) -> Matrix {
        let r = m.cols();
        let mut g = Matrix::zeros(r, r);
        for i in 0..m.rows() {
            let row = m.row(i);
            for a in 0..r {
                let ra = row[a];
                for b in a..r {
                    *g.get_mut(a, b) += ra * row[b];
                }
            }
        }
        for a in 0..r {
            for b in 0..a {
                let v = g.get(b, a);
                *g.get_mut(a, b) = v;
            }
        }
        g
    }

    /// `out += 2 · u · d` via the textbook scalar triple loop.
    fn add_2ud(u: &Matrix, d: &Matrix, out: &mut Matrix) {
        let r = d.rows();
        for i in 0..u.rows() {
            let urow = u.row(i);
            let orow = out.row_mut(i);
            for c in 0..r {
                let mut acc = 0.0;
                for t in 0..r {
                    acc += urow[t] * d.get(t, c);
                }
                orow[c] += 2.0 * acc;
            }
        }
    }

    fn whole_data_term(model: &TcssModel, w_minus: f64, loss: &mut f64, grads: &mut Grads) {
        let r = model.h.len();
        let g1 = gram_scalar(&model.u1);
        let g2 = gram_scalar(&model.u2);
        let g3 = gram_scalar(&model.u3);
        let mut d1 = Matrix::zeros(r, r);
        let mut d2 = Matrix::zeros(r, r);
        let mut d3 = Matrix::zeros(r, r);
        for r1 in 0..r {
            for r2 in 0..r {
                let w = w_minus * model.h[r1] * model.h[r2];
                *loss += w * (g1.get(r1, r2) * g2.get(r1, r2) * g3.get(r1, r2));
                *d1.get_mut(r1, r2) = w * g2.get(r1, r2) * g3.get(r1, r2);
                *d2.get_mut(r1, r2) = w * g1.get(r1, r2) * g3.get(r1, r2);
                *d3.get_mut(r1, r2) = w * g1.get(r1, r2) * g2.get(r1, r2);
            }
        }
        add_2ud(&model.u1, &d1, &mut grads.u1);
        add_2ud(&model.u2, &d2, &mut grads.u2);
        add_2ud(&model.u3, &d3, &mut grads.u3);
        for r1 in 0..r {
            let mut acc = 0.0;
            for r2 in 0..r {
                acc += model.h[r2] * g1.get(r1, r2) * g2.get(r1, r2) * g3.get(r1, r2);
            }
            grads.h[r1] += 2.0 * w_minus * acc;
        }
    }

    /// Scalar-arithmetic clone of `tcss_core::rewritten_loss_and_grad_ws`:
    /// same chunk grid, same sparse deltas, same pooling — only the inner
    /// loops differ.
    pub fn rewritten_loss_and_grad(
        model: &TcssModel,
        positives: &[TensorEntry],
        w_plus: f64,
        w_minus: f64,
        pools: &Pools,
        grads: &mut Grads,
    ) -> f64 {
        let partials = map_chunks_with(
            positives.len(),
            ENTRIES_PER_CHUNK,
            || {
                let mut s = pools.slots.acquire(|| Slots::for_model(model));
                s.ensure(model);
                s
            },
            |slots, range| {
                let mut delta = pools.deltas.take(Delta::default);
                delta.begin(model);
                let mut loss = 0.0;
                for e in &positives[range] {
                    let s = predict(model, e.i, e.j, e.k);
                    loss += (w_plus - w_minus) * s * s - 2.0 * w_plus * e.value * s;
                    let c = 2.0 * (w_plus - w_minus) * s - 2.0 * w_plus * e.value;
                    backprop(model, &mut delta, slots, e.i, e.j, e.k, c);
                }
                delta.detach(slots);
                (loss, delta)
            },
        );
        let mut loss = 0.0;
        for (l, delta) in partials {
            loss += l;
            delta.scatter_into(grads);
            pools.deltas.put(delta);
        }
        whole_data_term(model, w_minus, &mut loss, grads);
        loss
    }
}
