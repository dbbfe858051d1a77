//! `tcss` — command-line interface to the TCSS reproduction.
//!
//! ```text
//! tcss generate --preset gowalla --out data/gowalla     # write CSV dataset
//! tcss train    --data data/gowalla --model m.tcss      # train, save model
//! tcss recommend --data data/gowalla --model m.tcss --user 7 --month 5
//! tcss recommend-batch --data data/gowalla --model m.tcss --requests 7:5,3:1 --top 5
//! tcss evaluate --data data/gowalla --model m.tcss      # Hit@10 / MRR
//! tcss serve    --data data/gowalla --model m.tcss --addr 127.0.0.1:7464
//! tcss query    --addr 127.0.0.1:7464 --user 7 --month 5 --top 10
//! ```
//!
//! Datasets use the three-file CSV interchange format of `tcss_data::io`;
//! models use the text format of `tcss_core::model_io`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tcss::core::{load_model, save_model, TcssConfig, TcssModel, TcssTrainer, CHECKPOINT_FILE};
use tcss::data::io::{load_dataset, load_dataset_lenient, save_dataset};
use tcss::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  tcss generate  --preset <gowalla|yelp|foursquare|gmu-5k> --out <stem> [--no-preprocess]
  tcss train     (--data <stem> | --synth <preset>) [--model <file>]
                 [--epochs N] [--rank R] [--lambda L] [--seed S]
                 [--loss whole|naive|negsamp] [--init spectral|random|onehot]
                 [--granularity month|week|hour] [--threads T]
                 [--workers N] [--worker-threads T] [--tail-shard]
                 [--checkpoint-dir <dir>] [--checkpoint-every N] [--resume] [--lenient]
  tcss recommend --data <stem> --model <file> --user U --month M [--top N]
  tcss recommend-batch --data <stem> --model <file> --requests <U:M,U:M,...> [--top N]
  tcss evaluate  --data <stem> --model <file> [--test-fraction F]
  tcss export-snapshot --model <file> --out <file.tcsssnap> [--quant f32|i16]
  tcss serve     --data <stem> (--model <file> | --snapshot <file.tcsssnap>)
                 [--addr A] [--threads N] [--queue-depth D]
                 [--deadline-ms D] [--idle-timeout-ms I] [--drain-timeout-ms T]
                 [--maintenance-ms M]
  tcss query     --addr <host:port> --user U --month M [--top N]
                 [--timeout-ms T] [--retries N]

<stem> names the CSV triplet <stem>.pois.csv / .checkins.csv / .edges.csv.

serving:
  tcss serve binds a wire-protocol server (default 127.0.0.1:0, i.e. an
  OS-assigned port printed on startup) and runs until SIGINT/SIGTERM.
  --snapshot serves from a compact quantized snapshot (written by
  tcss export-snapshot) scored straight out of an mmap — O(1) cold start
  and a fraction of the f64 memory, within the documented quantization
  error budget. --threads sets worker readiness loops (default 2);
  --queue-depth bounds admitted in-flight requests (default 1024) —
  beyond it, requests are answered with a typed Overloaded response
  instead of queueing.
  --deadline-ms answers requests that waited longer than D before scoring
  with a typed DeadlineExceeded error; --idle-timeout-ms reaps
  connections silent for I ms; --maintenance-ms sets the periodic
  stale-cache reap interval (default 30000; 0 disables). On
  SIGINT/SIGTERM the server drains gracefully — stops accepting,
  finishes in-flight batches, flushes queued responses — force-closing
  stragglers after --drain-timeout-ms (default 5000). tcss query sends
  one recommendation request to a running server; --timeout-ms bounds
  each socket read (default 10000) and --retries retries
  Overloaded/transient failures with deterministic capped exponential
  backoff (default 0).

distributed training:
  tcss train --workers N shards each epoch across N worker processes
  (this executable re-invoked with a hidden dist-worker subcommand over a
  Unix socket); the trained model is bit-identical to the single-process
  run at any worker count. --worker-threads sets threads per worker
  (default 1). --tail-shard moves the optimizer tail to the workers
  (owner-computes Adam over contiguous factor-row ranges) — same bits,
  shorter coordinator critical path. Checkpoints stay
  coordinator-owned and worker-count-independent, so the run survives
  the loss of any single worker and checkpoints cross modes freely. The
  whole flag combination is validated up front — e.g. --workers 0, or a
  --checkpoint-every beyond --epochs when workers are set, is a typed
  error before anything spawns.

fault tolerance:
  --checkpoint-dir <dir>  write a rolling checkpoint to <dir>/checkpoint.tcssck
  --checkpoint-every N    checkpoint cadence in epochs (default 25)
  --resume                continue from <dir>/checkpoint.tcssck (needs --checkpoint-dir)
  --lenient               skip (and count) malformed check-in/edge CSV rows";

/// Pull `--flag value` out of the argument list; `None` when absent.
fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn req<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    opt(args, flag).ok_or_else(|| format!("missing required {flag}"))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {what}: {s:?}"))
}

fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("recommend") => cmd_recommend(&args[1..]),
        Some("recommend-batch") => cmd_recommend_batch(&args[1..]),
        Some("evaluate") => cmd_evaluate(&args[1..]),
        Some("export-snapshot") => cmd_export_snapshot(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        // Hidden: the worker role of `train --workers N`. Spawned by the
        // coordinator, never by hand.
        Some("dist-worker") => cmd_dist_worker(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

fn load(stem: &str) -> Result<Dataset, String> {
    load_with_mode(stem, false)
}

fn load_with_mode(stem: &str, lenient: bool) -> Result<Dataset, String> {
    let name = Path::new(stem)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("dataset");
    if lenient {
        let (data, report) = load_dataset_lenient(name, Path::new(stem))
            .map_err(|e| format!("loading dataset {stem:?}: {e}"))?;
        if report.skipped_checkins + report.skipped_edges > 0 {
            eprintln!(
                "warning: skipped {} malformed check-in row(s) and {} malformed edge row(s)",
                report.skipped_checkins, report.skipped_edges
            );
        }
        Ok(data)
    } else {
        load_dataset(name, Path::new(stem)).map_err(|e| format!("loading dataset {stem:?}: {e}"))
    }
}

fn parse_preset(name: &str) -> Result<SynthPreset, String> {
    match name.to_ascii_lowercase().as_str() {
        "gowalla" => Ok(SynthPreset::Gowalla),
        "yelp" => Ok(SynthPreset::Yelp),
        "foursquare" => Ok(SynthPreset::Foursquare),
        "gmu-5k" | "gmu5k" | "gmu" => Ok(SynthPreset::Gmu5k),
        other => Err(format!("unknown preset {other:?}")),
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let preset = parse_preset(req(args, "--preset")?)?;
    let out = PathBuf::from(req(args, "--out")?);
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        }
    }
    let mut data = preset.generate();
    if !has(args, "--no-preprocess") {
        data = preprocess(&data, &PreprocessConfig::default());
    }
    save_dataset(&data, &out).map_err(|e| format!("writing dataset: {e}"))?;
    println!("{}", data.summary(Granularity::Month));
    println!("wrote {}.{{pois,checkins,edges}}.csv", out.display());
    Ok(())
}

fn training_config(args: &[String]) -> Result<TcssConfig, String> {
    let mut cfg = TcssConfig::default();
    if let Some(v) = opt(args, "--epochs") {
        cfg.epochs = parse(v, "--epochs")?;
    }
    if let Some(v) = opt(args, "--rank") {
        cfg.rank = parse(v, "--rank")?;
    }
    if let Some(v) = opt(args, "--lambda") {
        cfg.lambda = parse(v, "--lambda")?;
        if cfg.lambda == 0.0 {
            cfg.hausdorff = tcss::core::HausdorffVariant::None;
        }
    }
    if let Some(v) = opt(args, "--seed") {
        cfg.seed = parse(v, "--seed")?;
    }
    if let Some(v) = opt(args, "--loss") {
        cfg.loss = match v {
            "whole" => LossStrategy::WholeDataRewritten,
            "naive" => LossStrategy::WholeDataNaive,
            "negsamp" => LossStrategy::NegativeSampling,
            other => return Err(format!("unknown loss strategy {other:?}")),
        };
    }
    if let Some(v) = opt(args, "--init") {
        cfg.init = match v {
            "spectral" => InitMethod::Spectral,
            "random" => InitMethod::Random,
            "onehot" => InitMethod::OneHot,
            other => return Err(format!("unknown init method {other:?}")),
        };
    }
    if let Some(v) = opt(args, "--threads") {
        cfg.num_threads = Some(parse(v, "--threads")?);
    }
    if let Some(v) = opt(args, "--workers") {
        cfg.workers = Some(parse(v, "--workers")?);
    }
    if let Some(v) = opt(args, "--checkpoint-dir") {
        cfg.checkpoint_dir = Some(PathBuf::from(v));
    }
    if let Some(v) = opt(args, "--checkpoint-every") {
        cfg.checkpoint_every = parse(v, "--checkpoint-every")?;
    }
    if has(args, "--resume") {
        let dir = cfg
            .checkpoint_dir
            .as_ref()
            .ok_or("--resume requires --checkpoint-dir")?;
        cfg.resume_from = Some(dir.join(CHECKPOINT_FILE));
    }
    // One cross-field validation pass owns every flag-interaction rule
    // (e.g. --workers 0, or --checkpoint-every beyond --epochs when
    // workers are set) — a bad combination is a typed error before any
    // data is loaded or any process spawned.
    cfg.validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(cfg)
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let cfg = training_config(args)?;
    let granularity = match opt(args, "--granularity") {
        Some("month") | None => Granularity::Month,
        Some("week") => Granularity::Week,
        Some("hour") => Granularity::Hour,
        Some(other) => return Err(format!("unknown granularity {other:?}")),
    };
    let data = match (opt(args, "--data"), opt(args, "--synth")) {
        (Some(stem), None) => load_with_mode(stem, has(args, "--lenient"))?,
        (None, Some(preset)) => parse_preset(preset)?.generate(),
        (Some(_), Some(_)) => return Err("--data and --synth are mutually exclusive".into()),
        (None, None) => return Err("train needs --data <stem> or --synth <preset>".into()),
    };
    let model_path = opt(args, "--model").map(PathBuf::from);
    let epochs = cfg.epochs;
    let lambda = cfg.lambda;
    let workers = cfg.workers;
    println!("{}", data.summary(granularity));
    let trainer = TcssTrainer::new(&data, &data.checkins, granularity, cfg);
    let t0 = std::time::Instant::now();
    let on_epoch = |ctx: tcss::core::TrainContext| {
        let loss = lambda * ctx.l1 + ctx.l2;
        if ctx.epoch == 0 || (ctx.epoch + 1).is_multiple_of(50) || ctx.epoch + 1 == epochs {
            println!("epoch {:>4}: loss {loss:.2}", ctx.epoch + 1);
        }
    };
    if workers.is_none() && has(args, "--tail-shard") {
        return Err("--tail-shard requires --workers".into());
    }
    let report = match workers {
        None => trainer
            .train_with_checkpoints(on_epoch)
            .map_err(|e| format!("training failed: {e}"))?,
        Some(n) => {
            // The workers are this same executable, re-invoked with the
            // hidden dist-worker subcommand.
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot locate own executable: {e}"))?;
            let worker_threads = match opt(args, "--worker-threads") {
                Some(v) => Some(parse(v, "--worker-threads")?),
                None => None,
            };
            let dist = tcss::core::dist::DistConfig {
                worker_threads,
                worker_args: vec!["dist-worker".into()],
                tail_shard: has(args, "--tail-shard"),
                ..tcss::core::dist::DistConfig::new(n, exe)
            };
            let dr = trainer
                .train_distributed(&dist, on_epoch)
                .map_err(|e| format!("distributed training failed: {e}"))?;
            println!(
                "distributed across {} worker process(es): {} respawn(s), \
                 {} B sent / {} B received over {} epoch(s)",
                dr.workers, dr.respawns, dr.bytes_sent, dr.bytes_received, dr.epochs_dispatched
            );
            dr.report
        }
    };
    if report.start_epoch > 0 {
        println!("resumed from checkpoint at epoch {}", report.start_epoch);
    }
    if report.rollbacks > 0 {
        println!(
            "divergence watchdog rolled back {} time(s); final learning-rate scale {}",
            report.rollbacks, report.lr_scale
        );
    }
    let model = report.model;
    println!(
        "trained {} parameters in {:.1}s",
        model.num_params(),
        t0.elapsed().as_secs_f64()
    );
    match model_path {
        Some(path) => {
            save_model(&model, &path).map_err(|e| format!("saving model: {e}"))?;
            println!("model written to {}", path.display());
        }
        None => println!("no --model given; trained model discarded"),
    }
    Ok(())
}

fn cmd_dist_worker(args: &[String]) -> Result<(), String> {
    let socket = PathBuf::from(req(args, "--socket")?);
    let worker: u32 = parse(req(args, "--worker")?, "--worker")?;
    tcss::core::dist::run_worker(&socket, worker).map_err(|e| format!("dist-worker {worker}: {e}"))
}

fn load_model_checked(path: &str, data: &Dataset) -> Result<TcssModel, String> {
    let model = load_model(Path::new(path)).map_err(|e| format!("loading model: {e}"))?;
    let (i, j, _) = model.dims();
    if i != data.n_users || j != data.n_pois() {
        return Err(format!(
            "model was trained on {i} users × {j} POIs but the dataset has {} × {}",
            data.n_users,
            data.n_pois()
        ));
    }
    Ok(model)
}

fn cmd_recommend(args: &[String]) -> Result<(), String> {
    let data = load(req(args, "--data")?)?;
    let model = load_model_checked(req(args, "--model")?, &data)?;
    let user: usize = parse(req(args, "--user")?, "--user")?;
    let month: usize = parse(req(args, "--month")?, "--month")?;
    let top: usize = match opt(args, "--top") {
        Some(v) => parse(v, "--top")?,
        None => 10,
    };
    if user >= data.n_users {
        return Err(format!("user {user} out of range (0..{})", data.n_users));
    }
    if month >= 12 {
        return Err(format!("month {month} out of range (0..12)"));
    }
    println!("top-{top} POIs for user {user} in month {month}:");
    for (rank, (poi, score)) in model.recommend(user, month, top).into_iter().enumerate() {
        let p = &data.pois[poi];
        println!(
            "{:>3}. poi {poi:>5}  [{}]  ({:>9.4}, {:>8.4})  score {score:.4}",
            rank + 1,
            p.category.label(),
            p.location.lon,
            p.location.lat
        );
    }
    Ok(())
}

/// `--requests 7:5,3:1,7:5` → `[{user 7, month 5}, {user 3, month 1}, ...]`.
fn parse_requests(spec: &str) -> Result<Vec<ScoreRequest>, String> {
    spec.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (u, m) = part
                .split_once(':')
                .ok_or_else(|| format!("bad request {part:?}: expected <user>:<month>"))?;
            Ok(ScoreRequest {
                user: parse(u, "request user")?,
                time: parse(m, "request month")?,
            })
        })
        .collect()
}

fn cmd_recommend_batch(args: &[String]) -> Result<(), String> {
    let data = load(req(args, "--data")?)?;
    let model = load_model_checked(req(args, "--model")?, &data)?;
    let requests = parse_requests(req(args, "--requests")?)?;
    if requests.is_empty() {
        return Err("--requests needs at least one <user>:<month> pair".into());
    }
    let top: usize = match opt(args, "--top") {
        Some(v) => parse(v, "--top")?,
        None => 10,
    };
    let engine = ServingEngine::new(model);
    let results = engine
        .recommend_batch(&requests, top)
        .map_err(|e| format!("scoring batch: {e}"))?;
    for (q, ranked) in requests.iter().zip(&results) {
        println!("user {} month {}:", q.user, q.time);
        for (rank, (poi, score)) in ranked.iter().enumerate() {
            println!(
                "{:>3}. poi {poi:>5}  [{}]  score {score:.4}",
                rank + 1,
                data.pois[*poi].category.label()
            );
        }
    }
    let m = engine.metrics();
    let stats = engine.cache_stats();
    println!(
        "served {} request(s) in {} batch(es) under model version {}",
        m.requests,
        m.batches,
        engine.version()
    );
    println!(
        "caches: {} weight / {} top-n entries; weight hits {} misses {}, top-n hits {} misses {}",
        stats.weight_entries,
        stats.topn_entries,
        m.weight_hits,
        m.weight_misses,
        m.topn_hits,
        m.topn_misses
    );
    Ok(())
}

fn cmd_export_snapshot(args: &[String]) -> Result<(), String> {
    use tcss::serve::snapshot::{write_snapshot, SnapshotModel};
    use tcss::serve::QuantMode;

    let model_path = req(args, "--model")?;
    let out = PathBuf::from(req(args, "--out")?);
    let mode = match opt(args, "--quant") {
        Some(v) => {
            QuantMode::parse(v).ok_or_else(|| format!("--quant must be f32 or i16, got {v:?}"))?
        }
        None => QuantMode::F32,
    };
    let model = load_model(Path::new(model_path)).map_err(|e| format!("loading model: {e}"))?;
    write_snapshot(&model, mode, &out).map_err(|e| format!("writing snapshot: {e}"))?;
    // Reopen with full verification so the operator knows the bytes on
    // disk load cleanly, not just that the write returned.
    let snap = SnapshotModel::open(&out).map_err(|e| format!("verifying snapshot: {e}"))?;
    let (i, j, k) = snap.dims();
    let f64_bytes = model.num_params() * 8;
    println!(
        "wrote {} ({mode} factors): {i} users × {j} POIs × {k} slots, rank {}",
        out.display(),
        snap.rank()
    );
    println!(
        "{} payload bytes vs {} bytes of f64 factors in memory ({:.1}%); \
         {:.1} bytes/user across all factors",
        snap.payload_bytes(),
        f64_bytes,
        100.0 * snap.payload_bytes() as f64 / f64_bytes as f64,
        snap.payload_bytes() as f64 / i as f64
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let data = load(req(args, "--data")?)?;
    let mut cfg = tcss::serve::net::ServerConfig::default();
    if let Some(v) = opt(args, "--addr") {
        cfg.addr = parse(v, "--addr")?;
    }
    if let Some(v) = opt(args, "--threads") {
        cfg.workers = parse(v, "--threads")?;
    }
    if let Some(v) = opt(args, "--queue-depth") {
        cfg.queue_depth = parse(v, "--queue-depth")?;
    }
    if let Some(v) = opt(args, "--deadline-ms") {
        cfg.request_deadline = Some(std::time::Duration::from_millis(parse(v, "--deadline-ms")?));
    }
    if let Some(v) = opt(args, "--idle-timeout-ms") {
        cfg.idle_timeout = Some(std::time::Duration::from_millis(parse(
            v,
            "--idle-timeout-ms",
        )?));
    }
    if let Some(v) = opt(args, "--maintenance-ms") {
        let ms: u64 = parse(v, "--maintenance-ms")?;
        cfg.maintenance_interval = if ms == 0 {
            None
        } else {
            Some(std::time::Duration::from_millis(ms))
        };
    }
    let drain_timeout = std::time::Duration::from_millis(match opt(args, "--drain-timeout-ms") {
        Some(v) => parse(v, "--drain-timeout-ms")?,
        None => 5000u64,
    });

    let (engine, source) = if let Some(snap_path) = opt(args, "--snapshot") {
        let snap = tcss::serve::SnapshotModel::open(Path::new(snap_path))
            .map_err(|e| format!("opening snapshot: {e}"))?;
        let (i, j, _) = snap.dims();
        if i != data.n_users || j != data.n_pois() {
            return Err(format!(
                "snapshot holds {i} users × {j} POIs but the dataset has {} × {}",
                data.n_users,
                data.n_pois()
            ));
        }
        let mode = snap.mode();
        (
            std::sync::Arc::new(ServingEngine::new(snap)),
            format!("compact {mode} snapshot {snap_path}"),
        )
    } else {
        let model = load_model_checked(req(args, "--model")?, &data)?;
        (
            std::sync::Arc::new(ServingEngine::new(model)),
            "f64 model".to_string(),
        )
    };
    let (i, j, k) = engine.snapshot().model.dims();
    let mut handle = tcss::serve::net::NetServer::start(std::sync::Arc::clone(&engine), cfg)
        .map_err(|e| format!("starting server: {e}"))?;
    println!(
        "serving {i} users × {j} POIs × {k} slots ({source}) on {}",
        handle.addr()
    );
    println!("listening; Ctrl-C (or SIGTERM) drains and stops");
    let stop = tcss::core::sys::stop_on_signals();
    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!(
        "signal received; draining (timeout {} ms)...",
        drain_timeout.as_millis()
    );
    let clean = handle.drain(drain_timeout);
    let m = handle.metrics();
    println!(
        "drained {}: {} requests served ({} ok, {} shed, {} errors), {} deadline misses, \
         {} panics isolated, {} idle reaps",
        if clean { "cleanly" } else { "with force-close" },
        m.requests,
        m.ok,
        m.overloaded,
        m.errors,
        m.deadline_exceeded,
        m.panics,
        m.reaped_idle
    );
    // Warm-path health next to the resilience block: cache hit rates and
    // what the maintenance tick reclaimed, without needing a bench run.
    let sm = engine.metrics();
    let stats = engine.cache_stats();
    println!(
        "caches: weight hits {} misses {} ({:.1}% hit), top-n hits {} misses {} ({:.1}% hit); \
         {} weight / {} top-n entries live, {} stale entries reaped",
        sm.weight_hits,
        sm.weight_misses,
        100.0 * sm.weight_hit_rate(),
        sm.topn_hits,
        sm.topn_misses,
        100.0 * sm.topn_hit_rate(),
        stats.weight_entries,
        stats.topn_entries,
        sm.reaped_stale
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let addr: std::net::SocketAddr = parse(req(args, "--addr")?, "--addr")?;
    let user: u64 = parse(req(args, "--user")?, "--user")?;
    let month: u64 = parse(req(args, "--month")?, "--month")?;
    let top: u32 = match opt(args, "--top") {
        Some(v) => parse(v, "--top")?,
        None => 10,
    };
    let mut ccfg = tcss::serve::net::ClientConfig::default();
    if let Some(v) = opt(args, "--timeout-ms") {
        ccfg.read_timeout = std::time::Duration::from_millis(parse(v, "--timeout-ms")?);
    }
    if let Some(v) = opt(args, "--retries") {
        ccfg.retries = parse(v, "--retries")?;
    }
    let mut client = tcss::serve::net::NetClient::connect_with_config(addr, ccfg)
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let resp = client
        .recommend_with_retry(user, month, top)
        .map_err(|e| format!("query failed: {e}"))?;
    let stats = client.stats();
    if stats.retries > 0 {
        eprintln!(
            "note: {} retry attempt(s), {} reconnect(s)",
            stats.retries, stats.reconnects
        );
    }
    match resp.body {
        tcss::serve::net::ResponseBody::Ranking { version, items } => {
            println!("top-{top} POIs for user {user} in month {month} (model v{version}):");
            for (rank, (poi, score)) in items.into_iter().enumerate() {
                println!("{:>3}. poi {poi:>5}  score {score:.4}", rank + 1);
            }
            Ok(())
        }
        tcss::serve::net::ResponseBody::Overloaded { queue_depth } => Err(format!(
            "server overloaded (admission queue depth {queue_depth}); retry later"
        )),
        tcss::serve::net::ResponseBody::Error { code, message } => {
            Err(format!("server error ({code:?}): {message}"))
        }
        other => Err(format!("unexpected response: {other:?}")),
    }
}

fn cmd_evaluate(args: &[String]) -> Result<(), String> {
    let data = load(req(args, "--data")?)?;
    let model = load_model_checked(req(args, "--model")?, &data)?;
    let fraction: f64 = match opt(args, "--test-fraction") {
        Some(v) => parse(v, "--test-fraction")?,
        None => 0.2,
    };
    if !(0.0..1.0).contains(&fraction) {
        return Err("--test-fraction must be in [0, 1)".into());
    }
    let split = train_test_split(&data.checkins, data.n_users, 1.0 - fraction, 42);
    let m = evaluate_ranking(
        &split.test,
        data.n_pois(),
        &EvalConfig::default(),
        |i, j, k| model.predict(i, j, k),
    );
    println!(
        "Hit@10 = {:.4}, MRR = {:.4} over {} held-out interactions",
        m.hit_at_k, m.mrr, m.n
    );
    println!(
        "(note: if the model was trained on the full dataset, this measures \
         reconstruction; train on a split for generalization numbers)"
    );
    Ok(())
}
