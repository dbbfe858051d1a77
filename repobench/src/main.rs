//! Repository benchmark: default-config, wide λ=0 and 2-worker TCSS
//! training, and loopback serving under model republishing.
//!
//! ```text
//! cargo run --release --offline --manifest-path repobench/Cargo.toml -- \
//!     --workload <train-social|train-wide|serve-republish|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! JSON result; the lines before it name every metric with its unit and
//! every output check with its verdict. The exit code is 0 only when
//! every output check passed. `README.md` beside `Cargo.toml` describes
//! the workloads, the metrics and which layer moves which end-to-end
//! metric.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use repobench::inputs::{self, Shape};
use repobench::layers;
use repobench::load::{self, Ladder, LoadConfig};
use repobench::report::{json_str, Report};
use repobench::stats::{fastest, median, quantile, secs_since, timed_ms, SplitMix64};
use tcss_core::{
    DistConfig, HausdorffVariant, InitMethod, SocialHausdorffHead, TcssConfig, TcssModel,
    TcssTrainer, TrainContext,
};
use tcss_data::{Dataset, Granularity, Split};
use tcss_eval::{evaluate_ranking, EvalConfig};
use tcss_geo::WeightedHausdorffParams;
use tcss_serve::net::{NetClient, NetServer, ServerConfig, ServerHandle};
use tcss_serve::{QuantMode, ServingEngine, SnapshotModel};

const WORKLOADS: [&str; 3] = ["train-social", "train-wide", "serve-republish"];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "train_s",
    "hit_at_10",
    "mrr",
    "peak_rss_mb",
    "serve_p50_us",
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not run reads 0. The fixed-rate open loop
/// (`serve.open_p50_us`, `serve.p99_us`) and the sustained rate are
/// reported here rather than gated end to end: each of their requests
/// pays the host's wake-up latency, and on a shared two-CPU host that
/// swings from run to run far more than any bound could allow.
const PER_LAYER: [&str; 36] = [
    "data.generate_ms",
    "train.construct_ms",
    "epoch.head_ms",
    "epoch.head_n",
    "head.loss_grad_ms",
    "head.pairs",
    "init.spectral_ms",
    "init.mode1_ms",
    "init.mode2_ms",
    "init.mode3_ms",
    "init.gram_applies",
    "epoch.plain_ms",
    "loss.entry_ms",
    "adam.update_ms",
    "epoch.checkpoint_ms",
    "checkpoint.save_ms",
    "checkpoint.bytes",
    "dist.train_s",
    "dist.bytes_per_epoch",
    "dist.epoch_plain_ms",
    "dist.epoch_head_ms",
    "dist.respawns",
    "snapshot.write_ms",
    "snapshot.open_ms",
    "snapshot.bytes",
    "engine.hit_us",
    "engine.miss_us",
    "engine.hit_ratio",
    "net.rtt_us",
    "net.shed",
    "serve.gen_lag_us",
    "serve.open_p50_us",
    "serve.p99_us",
    "serve.sustained_rps",
    "trace.overhead_s",
    "trace.coverage",
];

/// Set-up repeats at least this many times per run, and until
/// [`SETUP_MIN_S`] have passed; `setup_s` is the median.
const SETUP_REPS: usize = 7;
/// See [`SETUP_REPS`].
const SETUP_MIN_S: f64 = 2.0;
/// Output check: every trained model must reach this Hit@10 on its test
/// split (the workloads' trained models score 0.78–0.84).
const HIT_FLOOR: f64 = 0.3;
/// Requests the closed-loop serving stage keeps in flight.
const IN_FLIGHT: usize = 8;
/// Offered rate of the traced fixed-rate stage, requests per second.
const FIXED_RATE: f64 = 16000.0;
/// Length of every workload's closed-loop serving stage.
const SERVE_SECS: f64 = 5.0;
/// Length of the traced fixed-rate stage.
const OPEN_LOOP_SECS: f64 = 3.0;
/// `serve.p99_us` is the median of the p99s of windows this long.
const P99_WINDOW_S: f64 = 1.0;
/// Every serving stage republishes the snapshot after this many answers:
/// about 45% of the Gowalla keys come up between two swaps, so about a
/// quarter of the answers are cache hits (6% of `train-wide`'s). With
/// the cache emptied this often the server, not the client, is the
/// bottleneck of the closed loop and never waits for a wake-up; serving
/// warm keys only, the server idled between the client's bursts and its
/// median latency spread by 20% between runs.
const REPUBLISH_EVERY_ANSWERS: u64 = 1600;
/// ... and every 100 ms in the traced fixed-rate stage and the ladder,
/// where the rate is fixed: 1600 answers at 16 000 requests/s.
const REPUBLISH_EVERY: Duration = Duration::from_millis(100);
/// Top-`n` of every request.
const TOP: u32 = 10;
/// The traced run's coverage check: init plus the callback epoch
/// durations must come within this share of the traced training call.
/// Init is timed by a separate direct call; on `train-wide`, where it is
/// ~85% of the call, host drift between the two alone moves the sum by
/// ~10%.
const COVERAGE_TOL: f64 = 0.2;
/// Fine-tuning epochs that turn model A into the republished model B.
const FINE_TUNE_EPOCHS: usize = 25;

fn ladder() -> Ladder {
    Ladder {
        base: 2000.0,
        step: 1.05,
        rungs: 120,
        probe_secs: 0.5,
        p99_limit_us: 5000.0,
        blast_secs: 0.2,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2022u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Shared per-invocation state.
struct Ctx {
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Scratch directory for checkpoints, snapshots and the coordinator
    /// socket; relative to the working directory so socket paths stay
    /// short.
    work: PathBuf,
    /// This executable, re-invoked as the distributed worker.
    exe: PathBuf,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("dist-worker") {
        return dist_worker(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".repobench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("repobench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
        exe: std::env::current_exe().expect("own executable path"),
    };
    let code = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".repobench_work");
    code
}

fn run(args: &Args, ctx: &Ctx) -> ExitCode {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let wanted: &[&str] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    println!("context: {}", context_json(ctx));
    let mut all = Report::default();
    for name in &names {
        println!(
            "== {name} (seed {}, trace {})",
            ctx.seed,
            u8::from(ctx.trace)
        );
        let steal_before = repobench::stats::host_steal_s();
        let result = match *name {
            "train-social" => train_workload(ctx, Kind::Social),
            "train-wide" => train_workload(ctx, Kind::Wide),
            _ => serve_workload(ctx),
        };
        if let (Some(a), Some(b)) = (steal_before, repobench::stats::host_steal_s()) {
            println!("host steal during {name}: {:.2} s", b - a);
        }
        let mut report = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("repobench: {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let metrics = match report.select(wanted) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("repobench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let finite = metrics.iter().all(|m| m.value.is_finite());
        report.check(
            "metrics finite",
            finite,
            "every reported value is a finite number",
        );
        print!("{}", report.summary());
        if names.len() == 1 {
            println!("{}", report.json(&metrics));
            return exit_for(report.correct());
        }
        println!("result {name}: {}", report.json(&metrics));
        all.ops(report.attempted, report.failed);
        all.checks.extend(
            report
                .checks
                .iter()
                .map(|(c, ok, d)| (format!("{name}/{c}"), *ok, d.clone())),
        );
        for m in metrics {
            all.metric(&format!("{name}/{}", m.name), m.value, m.unit);
        }
    }
    let metrics = all.metrics.clone();
    println!("{}", all.json(&metrics));
    exit_for(all.correct())
}

fn exit_for(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("repobench: an output check failed");
        ExitCode::FAILURE
    }
}

fn dist_worker(args: &[String]) -> ExitCode {
    let (mut socket, mut worker) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = it.next().map(PathBuf::from),
            "--worker" => worker = it.next().and_then(|v| v.parse().ok()),
            _ => {}
        }
    }
    let (Some(socket), Some(worker)) = (socket, worker) else {
        eprintln!("usage: repobench dist-worker --socket <path> --worker <id>");
        return ExitCode::from(2);
    };
    match tcss_core::dist::run_worker(&socket, worker) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repobench dist-worker {worker}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Host CPUs, the revision under test and the seed.
fn context_json(ctx: &Ctx) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only this directory's own repository names the revision; a checkout
    // without `.git` is named by the source digest alone.
    let git = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    format!(
        "{{\"host_cpus\": {cpus}, \"git_rev\": {}, \"source_digest\": \"{:016x}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}}}",
        json_str(&git),
        source_digest(),
        ctx.seed,
        ctx.seconds,
        ctx.trace
    )
}

/// FNV-1a over every Rust source and manifest of the program under test,
/// in path order: names the revision where no git metadata exists.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    files.sort();
    let mut state = tcss_core::digest::fnv1a64(b"src");
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            state = tcss_core::digest::fnv1a64_continue(state, f.to_string_lossy().as_bytes());
            state = tcss_core::digest::fnv1a64_continue(state, &bytes);
        }
    }
    state
}

// ---------------------------------------------------------------------
// Training workloads

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Social,
    Wide,
}

/// Training threads of the workloads whose epochs are short (λ = 0):
/// every parallel region spawns its threads, and on a two-CPU host that
/// makes two threads slower than one and less steady. The head epochs of
/// `train-social` keep the default (the host's CPUs).
/// The thread count never changes a bit of the output.
const SHORT_EPOCH_THREADS: Option<usize> = Some(1);

/// One training call and what it observed.
struct TrainRun {
    secs: f64,
    model: TcssModel,
    /// Callback timestamps (traced runs only).
    stamps: Vec<(Instant, TrainContext)>,
    start: Instant,
    dist: Option<DistStats>,
}

struct DistStats {
    bytes: u64,
    epochs: u64,
    respawns: u32,
}

fn train_once(
    trainer: &TcssTrainer,
    dist: Option<&DistConfig>,
    traced: bool,
) -> Result<TrainRun, String> {
    let mut stamps = Vec::with_capacity(if traced { trainer.config.epochs } else { 0 });
    let on_epoch = |c: TrainContext| {
        if traced {
            stamps.push((Instant::now(), c));
        }
    };
    let start = Instant::now();
    let (model, dist) = match dist {
        None => {
            let r = trainer
                .train_with_checkpoints(on_epoch)
                .map_err(|e| e.to_string())?;
            (r.model, None)
        }
        Some(d) => {
            let r = trainer
                .train_distributed(d, on_epoch)
                .map_err(|e| e.to_string())?;
            let stats = DistStats {
                bytes: r.bytes_sent + r.bytes_received,
                epochs: r.epochs_dispatched,
                respawns: r.respawns,
            };
            (r.report.model, Some(stats))
        }
    };
    Ok(TrainRun {
        secs: secs_since(start),
        model,
        stamps,
        start,
        dist,
    })
}

/// Per-epoch durations from the callback timestamps, split by kind.
struct EpochStats {
    head: Vec<f64>,
    plain: Vec<f64>,
    checkpoint: Vec<f64>,
    /// Σ epoch durations in ms, epoch 0 estimated by the median of its
    /// kind (its interval also holds init, which is measured apart).
    covered_ms: f64,
}

fn epoch_stats(run: &TrainRun, checkpoint_every: Option<usize>) -> EpochStats {
    let mut s = EpochStats {
        head: Vec::new(),
        plain: Vec::new(),
        checkpoint: Vec::new(),
        covered_ms: 0.0,
    };
    let mut prev = run.start;
    for (n, &(t, c)) in run.stamps.iter().enumerate() {
        let ms = (t - prev).as_secs_f64() * 1e3;
        prev = t;
        if n == 0 {
            continue;
        }
        s.covered_ms += ms;
        if c.l1 != 0.0 {
            s.head.push(ms);
        } else if checkpoint_every.is_some_and(|k| c.epoch % k == 0) {
            s.checkpoint.push(ms);
        } else {
            s.plain.push(ms);
        }
    }
    if let Some(&(_, c0)) = run.stamps.first() {
        let same_kind = if c0.l1 != 0.0 { &s.head } else { &s.plain };
        if !same_kind.is_empty() {
            s.covered_ms += median(same_kind);
        }
    }
    s
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

struct Prepared {
    data: Dataset,
    split: Split,
    trainer: TcssTrainer,
}

/// One set-up: generate, split, construct. Returns the pieces and the
/// generate / construct times in ms.
fn prepare(shape: Shape, cfg: &TcssConfig) -> (Prepared, f64, f64) {
    let (data, gen_ms) = timed_ms(|| inputs::generate(shape));
    let split = inputs::split(&data);
    let (trainer, construct_ms) =
        timed_ms(|| TcssTrainer::new(&data, &split.train, Granularity::Month, cfg.clone()));
    (
        Prepared {
            data,
            split,
            trainer,
        },
        gen_ms,
        construct_ms,
    )
}

/// `prepare` repeated (see [`SETUP_REPS`]); records the medians of the
/// set-up, generate and construct times and returns the last set-up.
fn prepare_repeated(
    report: &mut Report,
    shape: Shape,
    cfg: &TcssConfig,
    mut extra: impl FnMut(&Prepared) -> Result<(), String>,
) -> Result<(Prepared, f64), String> {
    let (mut setup_s, mut gen_ms, mut construct_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let budget = Instant::now();
    while setup_s.len() < SETUP_REPS || secs_since(budget) < SETUP_MIN_S {
        let t = Instant::now();
        let (p, g, c) = prepare(shape, cfg);
        extra(&p)?;
        setup_s.push(secs_since(t));
        gen_ms.push(g);
        construct_ms.push(c);
        last = Some(p);
    }
    report.metric("data.generate_ms", median(&gen_ms), "ms");
    report.metric("train.construct_ms", median(&construct_ms), "ms");
    Ok((last.expect("at least one set-up"), median(&setup_s)))
}

fn train_workload(ctx: &Ctx, kind: Kind) -> Result<Report, String> {
    let mut report = Report::default();
    let ck_dir = ctx.work.join(format!("ck-{kind:?}"));
    let (shape, base) = match kind {
        Kind::Wide => (Shape::Wide, TcssConfig::ablation_no_l1()),
        Kind::Social => (Shape::Gowalla, TcssConfig::default()),
    };
    // The thread count is process-wide: set it for every workload, so
    // that `--workload all` runs each as it runs alone.
    tcss_linalg::set_num_threads(match kind {
        Kind::Wide => SHORT_EPOCH_THREADS,
        Kind::Social => None,
    });
    let cfg = TcssConfig {
        checkpoint_dir: Some(ck_dir.clone()),
        ..base
    };
    let (p, setup_s) = prepare_repeated(&mut report, shape, &cfg, |_| Ok(()))?;
    report.metric("setup_s", setup_s, "s");

    // Training calls until `--seconds` have passed (at least one).
    let mut train_secs = Vec::new();
    let mut digests = Vec::new();
    let budget = Instant::now();
    let model = loop {
        let run = train_once(&p.trainer, None, false)?;
        report.ops(1, 0);
        train_secs.push(run.secs);
        digests.push(layers::model_digest(&run.model));
        if secs_since(budget) >= ctx.seconds {
            break run.model;
        }
    };
    let train_s = fastest(&train_secs);
    report.metric("train_s", train_s, "s");
    check_trained(&mut report, &model, &digests);
    evaluate(&mut report, &p, ctx.seed, &p.trainer.score_fn(&model));

    if ctx.trace {
        let traced = train_once(&p.trainer, None, true)?;
        report.ops(1, 0);
        let init_ms =
            train_layers_and_coverage(&mut report, &p, &cfg, &model, train_s, &traced, &ck_dir)?;
        match kind {
            Kind::Social => dist_layers(ctx, &mut report, &p, &cfg, digests[0], init_ms)?,
            Kind::Wide => no_dist(&mut report),
        }
    }

    let snap = ctx.work.join("trained.tcsssnap");
    tcss_serve::snapshot::write_snapshot(&model, QuantMode::F32, &snap)
        .map_err(|e| format!("snapshot write: {e}"))?;
    let (n_users, _, n_times) = p.trainer.tensor.dims();
    serve_stage(ctx, &mut report, &model, &[snap], (n_users, n_times))?;
    Ok(report)
}

fn serve_workload(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    tcss_linalg::set_num_threads(SHORT_EPOCH_THREADS);
    // λ = 0 from a random init: a quick training that still serves a model
    // of full quality; spectral init and the head are the train workloads'
    // subject.
    let cfg = TcssConfig {
        init: InitMethod::Random,
        ..TcssConfig::ablation_no_l1()
    };
    let tune = TcssConfig {
        epochs: FINE_TUNE_EPOCHS,
        ..cfg.clone()
    };
    let snaps = [ctx.work.join("a.tcsssnap"), ctx.work.join("b.tcsssnap")];
    // Set-up: inputs, model A (timed as `train_s`), model B = A fine-tuned
    // for a few more epochs, and an f32 snapshot of each.
    let mut trained: Vec<(f64, TcssModel, TcssModel)> = Vec::new();
    let (p, setup_s) = prepare_repeated(&mut report, Shape::Gowalla, &cfg, |p| {
        let run = train_once(&p.trainer, None, false)?;
        let mut b = run.model.clone();
        TcssTrainer::from_tensor(p.trainer.tensor.clone(), tune.clone())
            .train_model(&mut b, &mut |_| {});
        for (m, path) in [&run.model, &b].into_iter().zip(&snaps) {
            tcss_serve::snapshot::write_snapshot(m, QuantMode::F32, path)
                .map_err(|e| format!("snapshot write: {e}"))?;
        }
        trained.push((run.secs, run.model, b));
        Ok(())
    })?;
    report.ops(trained.len() as u64, 0);
    let mut train_secs: Vec<f64> = trained.iter().map(|t| t.0).collect();
    let mut digests: Vec<u64> = trained.iter().map(|t| layers::model_digest(&t.1)).collect();
    let (_, a, b) = trained.pop().expect("at least one set-up");
    // A training takes ~0.1 s, and the host's speed changes over seconds:
    // model A is trained again until `--seconds` have passed, and
    // `train_s` is the fastest of all its trainings.
    let budget = Instant::now();
    while secs_since(budget) < ctx.seconds {
        let run = train_once(&p.trainer, None, false)?;
        report.ops(1, 0);
        train_secs.push(run.secs);
        digests.push(layers::model_digest(&run.model));
    }
    let train_s = fastest(&train_secs);
    report.metric("train_s", train_s, "s");
    check_trained(&mut report, &a, &digests);
    report.check(
        "republished model finite",
        layers::model_is_finite(&b),
        "every parameter of model B is finite",
    );

    // Quality of the model as served: the f32 snapshot's scores.
    let served = SnapshotModel::open(&snaps[0]).map_err(|e| format!("snapshot open: {e}"))?;
    let (n_users, _, n_times) = served.dims();
    let table: Vec<Vec<f64>> = (0..n_users * n_times)
        .map(|x| served.scores_for(x / n_times, x % n_times))
        .collect();
    evaluate(&mut report, &p, ctx.seed, &|i, j, k| {
        table[i * n_times + k][j]
    });

    if ctx.trace {
        let traced = train_once(&p.trainer, None, true)?;
        report.ops(1, 0);
        let ck_dir = ctx.work.join("ck-serve");
        train_layers_and_coverage(&mut report, &p, &cfg, &a, train_s, &traced, &ck_dir)?;
        no_dist(&mut report);
    }

    let start_s = serve_stage(ctx, &mut report, &a, &snaps, (n_users, n_times))?;
    report.metric("setup_s", setup_s + start_s, "s");
    Ok(report)
}

/// Output checks on a trained model: finite, and the same bits from
/// every training call of the run.
fn check_trained(report: &mut Report, model: &TcssModel, digests: &[u64]) {
    report.check(
        "model finite",
        layers::model_is_finite(model),
        "every trained parameter is finite",
    );
    report.check(
        "repeat digest",
        digests.iter().all(|&d| d == digests[0]),
        format!(
            "{} training call(s), digest {:016x}",
            digests.len(),
            digests[0]
        ),
    );
}

/// The distributed layer (`tcss_core::dist`), traced runs of
/// `train-social` only: the same training across 2 tail-sharded worker
/// processes of 1 thread each, which re-invoke this executable as
/// `dist-worker`. Checks process-count parity against `digest`, the
/// in-process model's, and covers the call's epochs like the in-process
/// traced call (`init_ms` is the spectral init's direct timing).
fn dist_layers(
    ctx: &Ctx,
    report: &mut Report,
    p: &Prepared,
    cfg: &TcssConfig,
    digest: u64,
    init_ms: f64,
) -> Result<(), String> {
    let dist_cfg = DistConfig {
        worker_threads: Some(1),
        worker_args: vec!["dist-worker".into()],
        socket_dir: Some(ctx.work.clone()),
        tail_shard: true,
        ..DistConfig::new(2, ctx.exe.clone())
    };
    let run = train_once(&p.trainer, Some(&dist_cfg), true)?;
    report.ops(1, 0);
    let got = layers::model_digest(&run.model);
    report.check(
        "process-count parity",
        got == digest,
        format!("2 workers {got:016x}, in process {digest:016x}"),
    );
    let d = run
        .dist
        .as_ref()
        .ok_or("the distributed call reported no traffic")?;
    let ep = epoch_stats(&run, Some(cfg.checkpoint_every));
    report.metric("dist.train_s", run.secs, "s");
    report.metric(
        "dist.bytes_per_epoch",
        d.bytes as f64 / d.epochs.max(1) as f64,
        "bytes",
    );
    report.metric("dist.epoch_plain_ms", median_or_zero(&ep.plain), "ms");
    report.metric("dist.epoch_head_ms", median_or_zero(&ep.head), "ms");
    report.metric("dist.respawns", f64::from(d.respawns), "count");
    check_coverage(report, "dist trace coverage", init_ms, &ep, run.secs);
    Ok(())
}

fn no_dist(report: &mut Report) {
    report.metric("dist.train_s", 0.0, "s");
    report.metric("dist.bytes_per_epoch", 0.0, "bytes");
    report.metric("dist.epoch_plain_ms", 0.0, "ms");
    report.metric("dist.epoch_head_ms", 0.0, "ms");
    report.metric("dist.respawns", 0.0, "count");
}

/// Hit@10 and MRR with 100 sampled negatives on the test split.
fn evaluate(
    report: &mut Report,
    p: &Prepared,
    seed: u64,
    score: &dyn Fn(usize, usize, usize) -> f64,
) {
    let cfg = EvalConfig {
        seed: inputs::stream_seed(seed, "negatives"),
        ..EvalConfig::default()
    };
    let m = evaluate_ranking(&p.split.test, p.data.n_pois(), &cfg, score);
    report.metric("hit_at_10", m.hit_at_k, "ratio");
    report.metric("mrr", m.mrr, "ratio");
    report.check(
        "hit_at_10 floor",
        m.hit_at_k >= HIT_FLOOR,
        format!(
            "{:.4} over {} test check-ins (floor {HIT_FLOOR})",
            m.hit_at_k, m.n
        ),
    );
}

/// Per-layer numbers of the training stack: epoch timings from the
/// traced in-process call's callback, direct calls on the run's own
/// tensor and trained model, and the coverage check of the traced call.
/// Returns the init time in ms.
fn train_layers_and_coverage(
    report: &mut Report,
    p: &Prepared,
    cfg: &TcssConfig,
    model: &TcssModel,
    train_s: f64,
    traced: &TrainRun,
    ck_dir: &Path,
) -> Result<f64, String> {
    let every = cfg.checkpoint_dir.as_ref().map(|_| cfg.checkpoint_every);
    let ep = epoch_stats(traced, every);
    report.metric("epoch.head_ms", median_or_zero(&ep.head), "ms");
    report.metric("epoch.head_n", ep.head.len() as f64, "count");
    report.metric("epoch.plain_ms", median_or_zero(&ep.plain), "ms");
    report.metric("epoch.plain_n", ep.plain.len() as f64, "count");
    report.metric("epoch.checkpoint_ms", median_or_zero(&ep.checkpoint), "ms");

    let init_ms = if cfg.init == InitMethod::Spectral {
        let modes = layers::spectral_init_by_mode(&p.trainer.tensor, cfg.rank, cfg.seed);
        for (i, m) in modes.iter().enumerate() {
            report.metric(&format!("init.mode{}_ms", i + 1), m.ms, "ms");
        }
        let ms: f64 = modes.iter().map(|m| m.ms).sum();
        report.metric("init.spectral_ms", ms, "ms");
        report.metric(
            "init.gram_applies",
            modes.iter().map(|m| m.gram_applies).sum::<u64>() as f64,
            "count",
        );
        ms
    } else {
        for name in [
            "init.spectral_ms",
            "init.mode1_ms",
            "init.mode2_ms",
            "init.mode3_ms",
        ] {
            report.metric(name, 0.0, "ms");
        }
        report.metric("init.gram_applies", 0.0, "count");
        let dims = p.trainer.tensor.dims();
        let (_, ms) = timed_ms(|| tcss_core::random_init(dims, cfg.rank, cfg.seed));
        ms
    };

    if cfg.hausdorff == HausdorffVariant::Social && cfg.lambda > 0.0 {
        let head = SocialHausdorffHead::new(
            &p.data,
            &p.split.train,
            cfg.hausdorff,
            WeightedHausdorffParams {
                alpha: cfg.alpha,
                epsilon: cfg.epsilon,
                floor: 1e-9,
            },
            cfg.hausdorff_candidates,
        );
        report.metric(
            "head.loss_grad_ms",
            layers::head_loss_grad_ms(&head, model, cfg.lambda, 5),
            "ms",
        );
        report.metric(
            "head.pairs",
            layers::head_pairs(&head, model) as f64,
            "count",
        );
    } else {
        report.metric("head.loss_grad_ms", 0.0, "ms");
        report.metric("head.pairs", 0.0, "count");
    }
    report.metric(
        "loss.entry_ms",
        layers::entry_loss_ms(model, &p.trainer.tensor, cfg, 21),
        "ms",
    );
    report.metric(
        "adam.update_ms",
        layers::adam_update_ms(model, cfg, 101),
        "ms",
    );
    std::fs::create_dir_all(ck_dir).map_err(|e| format!("{}: {e}", ck_dir.display()))?;
    let (save_ms, bytes) = layers::checkpoint_save(model, cfg, &ck_dir.join("layer.tcssck"), 5);
    report.metric("checkpoint.save_ms", save_ms, "ms");
    report.metric("checkpoint.bytes", bytes as f64, "bytes");

    report.metric("trace.overhead_s", traced.secs - train_s, "s");
    let coverage = check_coverage(report, "trace coverage", init_ms, &ep, traced.secs);
    report.metric("trace.coverage", coverage, "ratio");
    Ok(init_ms)
}

/// The coverage check of a traced call that took `secs`: init plus the
/// callback epoch durations must account for it within [`COVERAGE_TOL`].
/// Returns the covered share.
fn check_coverage(
    report: &mut Report,
    name: &str,
    init_ms: f64,
    ep: &EpochStats,
    secs: f64,
) -> f64 {
    let coverage = (init_ms + ep.covered_ms) / (secs * 1e3);
    report.check(
        name,
        (coverage - 1.0).abs() <= COVERAGE_TOL,
        format!(
            "init {init_ms:.1} ms + epochs {:.1} ms = {:.1}% of the traced call's {:.1} ms \
             (tolerance ±{:.0}%)",
            ep.covered_ms,
            coverage * 100.0,
            secs * 1e3,
            COVERAGE_TOL * 100.0
        ),
    );
    coverage
}

// ---------------------------------------------------------------------
// Serving

/// Serve the snapshots at `snaps` from an in-process `NetServer` with one
/// readiness loop: the first is installed, and on the republish cadence
/// the next one in turn (the same one again if there is only one) is
/// opened and swapped in, which empties the top-n cache. Measures the closed-loop serving
/// stage (and, traced, the fixed-rate open loop and the sustained-rate
/// ladder), checks the wire answers, and returns the time to open the
/// snapshot and start the server, in seconds. `model` is the f64 model of
/// the first snapshot (for the traced snapshot write/open timings).
fn serve_stage(
    ctx: &Ctx,
    report: &mut Report,
    model: &TcssModel,
    snaps: &[PathBuf],
    keyspace: (usize, usize),
) -> Result<f64, String> {
    let t = Instant::now();
    let first = SnapshotModel::open(&snaps[0]).map_err(|e| format!("snapshot open: {e}"))?;
    let engine = Arc::new(ServingEngine::new(first));
    let mut server = NetServer::start(
        Arc::clone(&engine),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    let start_s = secs_since(t);
    let stage = ServeStage {
        ctx,
        server: &server,
        engine: &engine,
        snaps,
        keyspace,
    };
    let result = stage.measure(report, model);
    server.shutdown();
    result.map(|()| start_s)
}

struct ServeStage<'a> {
    ctx: &'a Ctx,
    server: &'a ServerHandle,
    engine: &'a Arc<ServingEngine>,
    snaps: &'a [PathBuf],
    /// `(users, time units)` the request keys are drawn from.
    keyspace: (usize, usize),
}

impl ServeStage<'_> {
    fn measure(&self, report: &mut Report, model: &TcssModel) -> Result<(), String> {
        let (n_users, n_times) = self.keyspace;
        let addr = self.server.addr();
        if self.ctx.trace {
            self.trace_layers(report, model)?;
        }

        // The republisher alternates the snapshots and records which one
        // each version was published from.
        let engine = self.engine;
        let snaps = self.snaps;
        let mut versions: Vec<(u64, usize)> = vec![(engine.version(), 0)];
        let mut republish_errors = 0u64;
        let mut next = 1usize;
        let mut tick = || {
            let idx = next % snaps.len();
            next += 1;
            match SnapshotModel::open(&snaps[idx]) {
                Ok(m) => versions.push((engine.swap_model(m), idx)),
                Err(_) => republish_errors += 1,
            }
        };
        let cadence = Some(REPUBLISH_EVERY);
        let keys = LoadConfig {
            rate: FIXED_RATE,
            secs: SERVE_SECS,
            top: TOP,
            n_users,
            n_times,
            seed: inputs::stream_seed(self.ctx.seed, "requests"),
            sample_every: 16,
        };
        let _ = engine.take_metrics();
        let shed_before = self.server.metrics().overloaded;
        let every = Some(REPUBLISH_EVERY_ANSWERS);
        let closed = load::closed_loop(addr, &keys, IN_FLIGHT, every, &mut tick)?;
        let (em, _) = engine.take_metrics();
        report.ops(closed.sent, closed.shed + closed.errors + closed.late);
        if closed.ok == 0 {
            return Err("no request of the serving stage was answered".into());
        }
        report.metric("serve_p50_us", closed.p50_us, "us");
        report.metric("engine.hit_ratio", em.topn_hit_rate(), "ratio");
        // Peak memory of the program before the traced stages, whose
        // request buffers grow with the rates they reach.
        record_peak_rss(report);
        println!(
            "serve: {} requests, {IN_FLIGHT} in flight, {:.0}/s ({} shed, {} errors, {} late)",
            closed.sent,
            closed.ok as f64 / closed.elapsed_s,
            closed.shed,
            closed.errors,
            closed.late,
        );
        let mut samples = closed.samples;

        if self.ctx.trace {
            let keys = LoadConfig {
                secs: OPEN_LOOP_SECS,
                seed: inputs::stream_seed(self.ctx.seed, "open-loop"),
                ..keys
            };
            let fixed = load::open_loop(addr, &keys, cadence, &mut tick)?;
            report.ops(fixed.sent, fixed.shed + fixed.errors + fixed.late);
            if fixed.latencies.is_empty() {
                return Err("no request of the fixed-rate stage was answered".into());
            }
            report.metric("serve.open_p50_us", fixed.p50_us(), "us");
            report.metric("serve.p99_us", fixed.windowed_p99_us(P99_WINDOW_S), "us");
            report.metric("serve.gen_lag_us", quantile(&fixed.lag_us, 0.99), "us");
            println!(
                "fixed rate: {} requests at {FIXED_RATE}/s ({} shed, {} errors, {} late)",
                fixed.sent, fixed.shed, fixed.errors, fixed.late,
            );
            samples.extend(fixed.samples);

            let keys = LoadConfig {
                sample_every: 256,
                ..keys
            };
            let sustained = load::sustained_rps(addr, &ladder(), &keys, cadence, &mut tick)?;
            report.ops(sustained.sent, sustained.failed);
            report.metric("serve.sustained_rps", sustained.rps, "1/s");
            println!(
                "ladder: {} probes, {} requests ({} shed, {} failed)",
                sustained.probes, sustained.sent, sustained.shed, sustained.failed
            );
            samples.extend(sustained.samples);
        }
        let shed = self.server.metrics().overloaded - shed_before;
        report.metric("net.shed", shed as f64, "count");
        report.ops(versions.len() as u64 - 1, republish_errors);
        println!("republished {} time(s)", versions.len() - 1);
        self.check_parity(report, samples.iter(), &versions)
    }

    /// Wire answers must equal, bit for bit, the in-process engine's
    /// answers on the snapshot the answer's version was published from.
    fn check_parity<'s>(
        &self,
        report: &mut Report,
        samples: impl Iterator<Item = &'s load::Answer>,
        versions: &[(u64, usize)],
    ) -> Result<(), String> {
        let refs: Vec<ServingEngine> = self
            .snaps
            .iter()
            .map(|p| {
                SnapshotModel::open(p)
                    .map(ServingEngine::new)
                    .map_err(|e| format!("snapshot open: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let (mut checked, mut wrong) = (0u64, 0u64);
        for a in samples {
            checked += 1;
            let Some(&(_, idx)) = versions.iter().find(|(v, _)| *v == a.version) else {
                wrong += 1;
                continue;
            };
            let want = refs[idx]
                .recommend(a.user, a.time, TOP as usize)
                .map_err(|e| e.to_string())?;
            let same = want.len() == a.items.len()
                && want
                    .iter()
                    .zip(&a.items)
                    .all(|(&(p, s), &(wp, ws))| p as u64 == wp && s.to_bits() == ws.to_bits());
            if !same {
                wrong += 1;
            }
        }
        report.ops(0, wrong);
        report.check(
            "wire parity",
            wrong == 0 && checked > 0,
            format!(
                "{checked} sampled wire answers over {} model version(s); {wrong} differ \
                 from the in-process engine",
                versions.len()
            ),
        );
        Ok(())
    }

    /// Traced serving layers: snapshot write/open, the in-process engine
    /// on hits and misses, and closed-loop wire round trips.
    fn trace_layers(&self, report: &mut Report, model: &TcssModel) -> Result<(), String> {
        let (n_users, n_times) = self.keyspace;
        let path = self.ctx.work.join("layer.tcsssnap");
        let (write_ms, open_ms, bytes) = layers::snapshot_write_open(model, &path, 5);
        report.metric("snapshot.write_ms", write_ms, "ms");
        report.metric("snapshot.open_ms", open_ms, "ms");
        report.metric("snapshot.bytes", bytes as f64, "bytes");

        // A fresh key misses (weights, scores, selection); asking again
        // hits the top-n cache.
        let probe = SnapshotModel::open(&path)
            .map(ServingEngine::new)
            .map_err(|e| format!("snapshot open: {e}"))?;
        let mut keys = SplitMix64::new(inputs::stream_seed(self.ctx.seed, "probe-keys"));
        let (mut hit, mut miss) = (Vec::new(), Vec::new());
        for _ in 0..300 {
            let (u, k) = (keys.below(n_users), keys.below(n_times));
            let _ = probe.swap_model(SnapshotModel::open(&path).map_err(|e| e.to_string())?);
            for out in [&mut miss, &mut hit] {
                let t = Instant::now();
                let r = probe
                    .recommend(u, k, TOP as usize)
                    .map_err(|e| e.to_string())?;
                out.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(r);
            }
        }
        report.metric("engine.hit_us", median(&hit), "us");
        report.metric("engine.miss_us", median(&miss), "us");

        let mut client = NetClient::connect(self.server.addr()).map_err(|e| e.to_string())?;
        let mut rtt = Vec::new();
        for n in 0..500 {
            let (u, k) = (keys.below(n_users), keys.below(n_times));
            let t = Instant::now();
            client
                .recommend(u as u64, k as u64, TOP)
                .map_err(|e| format!("round trip {n}: {e}"))?;
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
        report.metric("net.rtt_us", median(&rtt), "us");
        Ok(())
    }
}

/// `peak_rss_mb`: the process's resident-memory high-water mark so far.
fn record_peak_rss(report: &mut Report) {
    if let Some(mb) = repobench::stats::peak_rss_mb() {
        report.metric("peak_rss_mb", mb, "MiB");
    }
}
