//! Load generation over one wire connection.
//!
//! One connection, driven by one client thread, in one of two shapes:
//!
//! * [`closed_loop`] keeps a fixed number of requests in flight and sends
//!   the next one as each answer arrives. Neither side waits for a
//!   wake-up between requests, so the latency it measures is the serving
//!   path's own work (framing, socket calls, engine) times the depth,
//!   without the host's wake-up latency.
//! * [`open_loop`] sends on a fixed schedule whether or not answers have
//!   come back (independent users make an open loop), so a stalled server
//!   shows up as queueing delay instead of as a lower offered rate. Every
//!   latency is taken from the moment the request was *due*, which
//!   charges a stall to every request queued behind it; how late the
//!   sender itself ran is reported separately. Between requests both
//!   sides sleep, so each request also pays the host's wake-up latency.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tcss_serve::net::{frame, proto, FrameDecoder, Request, RequestBody, ResponseBody};

use crate::stats::{median, quantile, secs_since, SplitMix64};

/// A request slower than this, counted from when it was due, is a missed
/// deadline: a failed operation, not a latency sample.
pub const DEADLINE: Duration = Duration::from_secs(1);

/// One open-loop run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Offered requests per second.
    pub rate: f64,
    /// Length of the schedule in seconds.
    pub secs: f64,
    /// Top-`n` asked for in every request.
    pub top: u32,
    /// Users to draw from (uniform).
    pub n_users: usize,
    /// Time units to draw from (uniform).
    pub n_times: usize,
    /// Seed of the request-key stream.
    pub seed: u64,
    /// Keep every `sample_every`-th answer for the parity check.
    pub sample_every: u64,
}

/// One wire answer kept for the parity check.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Requested user.
    pub user: usize,
    /// Requested time unit.
    pub time: usize,
    /// Model version the server says it answered under.
    pub version: u64,
    /// `(poi, score)` as they came off the wire.
    pub items: Vec<(u64, f64)>,
}

/// What one open-loop run observed.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// Requests sent.
    pub sent: u64,
    /// Requests answered with a ranking within the deadline.
    pub ok: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Typed errors and unexpected bodies.
    pub errors: u64,
    /// Rankings that arrived after [`DEADLINE`].
    pub late: u64,
    /// `(due offset in s, latency in µs)` of every ranking in time.
    pub latencies: Vec<(f64, f64)>,
    /// How late the sender issued each request, in µs.
    pub lag_us: Vec<f64>,
    /// Sampled answers.
    pub samples: Vec<Answer>,
    /// Seconds from the schedule's start to the last answer.
    pub elapsed_s: f64,
}

impl LoadOutcome {
    /// Latencies in µs, in schedule order.
    pub fn latency_us(&self) -> Vec<f64> {
        self.latencies.iter().map(|&(_, l)| l).collect()
    }

    /// Median latency in µs.
    pub fn p50_us(&self) -> f64 {
        median(&self.latency_us())
    }

    /// Whether queueing delay grew over the schedule: the median latency
    /// of its last quarter exceeds twice that of its first quarter plus
    /// 200 µs.
    pub fn backlog_grew(&self, secs: f64) -> bool {
        let part = |lo: f64, hi: f64| -> Vec<f64> {
            self.latencies
                .iter()
                .filter(|&&(at, _)| at >= lo * secs && at < hi * secs)
                .map(|&(_, l)| l)
                .collect()
        };
        let (first, last) = (part(0.0, 0.25), part(0.75, 1.0));
        if first.is_empty() || last.is_empty() {
            return true;
        }
        median(&last) > 2.0 * median(&first) + 200.0
    }

    /// Median over consecutive `window_s`-long slices of the schedule of
    /// each slice's p99 latency. A single stall of the host lifts one
    /// window, not the reported figure.
    pub fn windowed_p99_us(&self, window_s: f64) -> f64 {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for &(at, lat) in &self.latencies {
            let w = (at / window_s) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(lat);
        }
        let p99s: Vec<f64> = windows
            .iter()
            .filter(|w| w.len() >= 100)
            .map(|w| quantile(w, 0.99))
            .collect();
        if p99s.is_empty() {
            quantile(&self.latency_us(), 0.99)
        } else {
            median(&p99s)
        }
    }
}

/// Run `cfg` against the server at `addr`. While the schedule runs, the
/// calling thread calls `tick` every `cadence` (the model republisher).
///
/// Request keys and their encoded frames are built before the schedule
/// starts, and a request's due time follows from its id, so the sender
/// and receiver do little beyond the socket calls: on a small host the
/// load generator must not be what saturates first.
pub fn open_loop(
    addr: SocketAddr,
    cfg: &LoadConfig,
    cadence: Option<Duration>,
    tick: &mut dyn FnMut(),
) -> Result<LoadOutcome, String> {
    let total = ((cfg.rate * cfg.secs).round() as usize).max(1);
    let mut rng = SplitMix64::new(cfg.seed);
    let keys: Vec<(usize, usize)> = (0..total)
        .map(|_| (rng.below(cfg.n_users), rng.below(cfg.n_times)))
        .collect();
    let mut frames = Vec::new();
    let mut offsets = Vec::with_capacity(total + 1);
    offsets.push(0);
    for (i, &(user, time)) in keys.iter().enumerate() {
        let req = Request {
            id: i as u64 + 1,
            body: RequestBody::Recommend {
                user: user as u64,
                time: time as u64,
                n: cfg.top,
            },
        };
        frame::write_frame(&mut frames, &proto::encode_request(&req));
        offsets.push(frames.len());
    }

    let mut stream = connect(addr)?;
    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(2),
        interval: 1.0 / cfg.rate,
        total,
    };
    let finished = AtomicBool::new(false);

    std::thread::scope(|s| {
        let client = s.spawn(|| {
            let out = drive(&mut stream, cfg, &schedule, &frames, &offsets, &keys);
            finished.store(true, Ordering::Release);
            out
        });
        if let Some(cadence) = cadence {
            let mut next = schedule.start + cadence;
            while !finished.load(Ordering::Acquire) {
                let now = Instant::now();
                if now >= next {
                    tick();
                    next += cadence;
                } else {
                    std::thread::sleep((next - now).min(Duration::from_millis(1)));
                }
            }
        }
        client.join().expect("client thread panicked")
    })
}

/// Run `cfg` against the server at `addr` as a closed loop that keeps
/// `depth` requests in flight for `cfg.secs` seconds, then waits for the
/// last answers. `cfg.rate` and `cfg.sample_every` are not used. Each
/// latency is taken from the moment the request was queued for sending.
///
/// While the loop runs, the calling thread calls `tick` each time another
/// `every` answers have come back. Counting answers rather than seconds
/// gives every model version the same number of requests, so the share
/// of cache misses does not depend on how fast the server runs.
pub fn closed_loop(
    addr: SocketAddr,
    cfg: &LoadConfig,
    depth: usize,
    every: Option<u64>,
    tick: &mut dyn FnMut(),
) -> Result<ClosedOutcome, String> {
    let mut stream = connect(addr)?;
    let start = Instant::now();
    let finished = AtomicBool::new(false);
    let ticks_due = AtomicU64::new(0);
    let republisher = std::thread::current();
    std::thread::scope(|s| {
        let client = s.spawn(|| {
            let on_answer = |answered: u64| {
                if every.is_some_and(|n| answered.is_multiple_of(n)) {
                    ticks_due.fetch_add(1, Ordering::Release);
                    republisher.unpark();
                }
            };
            let out = drive_closed(&mut stream, cfg, depth.max(1), start, &on_answer);
            finished.store(true, Ordering::Release);
            republisher.unpark();
            out
        });
        let mut ticked = 0;
        while !finished.load(Ordering::Acquire) {
            if ticks_due.load(Ordering::Acquire) > ticked {
                tick();
                ticked += 1;
            } else {
                std::thread::park_timeout(Duration::from_millis(10));
            }
        }
        client.join().expect("client thread panicked")
    })
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    Ok(stream)
}

struct Schedule {
    start: Instant,
    /// Seconds between due times.
    interval: f64,
    total: usize,
}

impl Schedule {
    fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 * self.interval)
    }

    /// Requests due by `now`.
    fn due_by(&self, now: Instant) -> usize {
        if now < self.start {
            return 0;
        }
        let n = ((now - self.start).as_secs_f64() / self.interval).floor() as usize + 1;
        n.min(self.total)
    }
}

/// The client loop: release every request that has come due, write what
/// the socket takes, read what has arrived, and yield when neither moved.
/// Sending and receiving share one thread so that on a two-CPU host the
/// client and the server's readiness loop each keep a CPU; a blocked
/// write can never stall reading, so the two sides cannot deadlock on
/// full socket buffers.
fn drive(
    stream: &mut TcpStream,
    cfg: &LoadConfig,
    schedule: &Schedule,
    frames: &[u8],
    offsets: &[usize],
    keys: &[(usize, usize)],
) -> Result<LoadOutcome, String> {
    let total = schedule.total;
    let mut out = LoadOutcome {
        latencies: Vec::with_capacity(total),
        lag_us: Vec::with_capacity(total),
        sent: total as u64,
        ..LoadOutcome::default()
    };
    let mut seen = vec![false; total];
    let mut dec = FrameDecoder::new(tcss_serve::net::DEFAULT_MAX_FRAME_LEN);
    let mut buf = vec![0u8; 64 * 1024];
    let (mut released, mut written, mut got) = (0usize, 0usize, 0usize);
    let mut last_progress = Instant::now();
    while got < total {
        let now = Instant::now();
        let due = schedule.due_by(now);
        for i in released..due {
            out.lag_us
                .push(now.saturating_duration_since(schedule.due(i)).as_secs_f64() * 1e6);
        }
        released = released.max(due);
        let mut progressed = false;
        if written < offsets[released] {
            match stream.write(&frames[written..offsets[released]]) {
                Ok(n) => {
                    written += n;
                    progressed = n > 0;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("send failed: {e}")),
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(format!("server closed after {got}/{total} answers")),
            Ok(n) => {
                progressed = true;
                dec.push(&buf[..n]);
                let at = Instant::now();
                while let Some(payload) = dec.next_frame().map_err(|e| format!("bad frame: {e}"))? {
                    record_answer(&mut out, &mut seen, &payload, at, cfg, schedule, keys)?;
                    got += 1;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(format!("receive failed after {got}/{total} answers: {e}")),
        }
        if progressed {
            last_progress = now;
        } else if now.duration_since(last_progress) > STALL_LIMIT && released == total {
            return Err(format!(
                "no answer for {STALL_LIMIT:?} after {got}/{total} answers"
            ));
        } else {
            std::thread::yield_now();
        }
    }
    out.elapsed_s = secs_since(schedule.start);
    Ok(out)
}

/// A server that sends nothing for this long while requests are
/// outstanding has hung.
const STALL_LIMIT: Duration = Duration::from_secs(5);

/// Closed loop: keep `depth` requests in flight until `secs` have passed
/// since `start`, then collect the outstanding answers; `on_answer` is
/// called with the count of answers so far after each one. Memory stays
/// fixed however many requests the server turns over: latencies are
/// folded into per-window medians and the parity samples are a
/// reservoir.
fn drive_closed(
    stream: &mut TcpStream,
    cfg: &LoadConfig,
    depth: usize,
    start: Instant,
    on_answer: &dyn Fn(u64),
) -> Result<ClosedOutcome, String> {
    let stop = start + Duration::from_secs_f64(cfg.secs);
    let mut keys = SplitMix64::new(cfg.seed);
    let mut reservoir = SplitMix64::new(cfg.seed ^ 0x5a3b_1e00);
    let mut out = ClosedOutcome::default();
    let mut outstanding: HashMap<u64, (Instant, (usize, usize))> = HashMap::new();
    let mut window = Vec::new();
    let mut window_end = start + CLOSED_WINDOW;
    let mut window_p50s = Vec::new();
    let mut dec = FrameDecoder::new(tcss_serve::net::DEFAULT_MAX_FRAME_LEN);
    let mut buf = vec![0u8; 64 * 1024];
    let (mut pending, mut written) = (Vec::new(), 0usize);
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        if now >= window_end {
            if !window.is_empty() {
                window_p50s.push(median(&window));
                window.clear();
            }
            window_end += CLOSED_WINDOW;
        }
        let issuing = now < stop;
        if !issuing && outstanding.is_empty() {
            break;
        }
        let mut progressed = false;
        while issuing && outstanding.len() < depth {
            out.sent += 1;
            let key = (keys.below(cfg.n_users), keys.below(cfg.n_times));
            let req = Request {
                id: out.sent,
                body: RequestBody::Recommend {
                    user: key.0 as u64,
                    time: key.1 as u64,
                    n: cfg.top,
                },
            };
            frame::write_frame(&mut pending, &proto::encode_request(&req));
            outstanding.insert(out.sent, (now, key));
        }
        if written < pending.len() {
            match stream.write(&pending[written..]) {
                Ok(n) => {
                    written += n;
                    progressed = n > 0;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("send failed: {e}")),
            }
            if written == pending.len() {
                pending.clear();
                written = 0;
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(format!("server closed after {} answers", out.answered())),
            Ok(n) => {
                progressed = true;
                dec.push(&buf[..n]);
                let at = Instant::now();
                while let Some(payload) = dec.next_frame().map_err(|e| format!("bad frame: {e}"))? {
                    let resp = proto::decode_response(&payload)
                        .map_err(|e| format!("bad response: {e:?}"))?;
                    let Some((sent, (user, time))) = outstanding.remove(&resp.id) else {
                        return Err(format!("answer with unknown or repeated id {}", resp.id));
                    };
                    on_answer(out.answered() + 1);
                    match resp.body {
                        ResponseBody::Ranking { version, items } => {
                            let lat = at.saturating_duration_since(sent);
                            if lat > DEADLINE {
                                out.late += 1;
                                continue;
                            }
                            out.ok += 1;
                            window.push(lat.as_secs_f64() * 1e6);
                            // Reservoir sampling: every answer is kept with
                            // the same chance.
                            let slot = if out.samples.len() < CLOSED_SAMPLES {
                                Some(out.samples.len())
                            } else {
                                Some(reservoir.below(out.ok as usize))
                                    .filter(|&i| i < CLOSED_SAMPLES)
                            };
                            if let Some(i) = slot {
                                let a = Answer {
                                    user,
                                    time,
                                    version,
                                    items,
                                };
                                if i == out.samples.len() {
                                    out.samples.push(a);
                                } else {
                                    out.samples[i] = a;
                                }
                            }
                        }
                        ResponseBody::Overloaded { .. } => out.shed += 1,
                        _ => out.errors += 1,
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => {
                return Err(format!(
                    "receive failed after {} answers: {e}",
                    out.answered()
                ))
            }
        }
        if progressed {
            last_progress = now;
        } else if now.duration_since(last_progress) > STALL_LIMIT {
            return Err(format!(
                "no answer for {STALL_LIMIT:?} after {} answers",
                out.answered()
            ));
        } else {
            std::thread::yield_now();
        }
    }
    if !window.is_empty() {
        window_p50s.push(median(&window));
    }
    out.elapsed_s = secs_since(start);
    out.p50_us = if window_p50s.is_empty() {
        f64::NAN
    } else {
        median(&window_p50s)
    };
    Ok(out)
}

/// The closed loop's latencies are summarised per window this long; a
/// stall of the host lifts one window's median, not the reported one.
const CLOSED_WINDOW: Duration = Duration::from_millis(100);
/// Answers the closed loop keeps for the parity check.
const CLOSED_SAMPLES: usize = 4096;

/// What one closed-loop run observed.
#[derive(Debug, Default)]
pub struct ClosedOutcome {
    /// Requests sent.
    pub sent: u64,
    /// Requests answered with a ranking within the deadline.
    pub ok: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Typed errors and unexpected bodies.
    pub errors: u64,
    /// Rankings that arrived after [`DEADLINE`].
    pub late: u64,
    /// Median over the run's 100 ms windows of each window's median
    /// latency, in µs (NaN if nothing was answered in time).
    pub p50_us: f64,
    /// A uniform sample of the answers, at most 4096.
    pub samples: Vec<Answer>,
    /// Seconds from the start to the last answer.
    pub elapsed_s: f64,
}

impl ClosedOutcome {
    fn answered(&self) -> u64 {
        self.ok + self.shed + self.errors + self.late
    }
}

fn record_answer(
    out: &mut LoadOutcome,
    seen: &mut [bool],
    payload: &[u8],
    at: Instant,
    cfg: &LoadConfig,
    schedule: &Schedule,
    keys: &[(usize, usize)],
) -> Result<(), String> {
    let resp = proto::decode_response(payload).map_err(|e| format!("bad response: {e:?}"))?;
    // Shed answers go out ahead of admitted ones, so answers are matched
    // by id, not by arrival order.
    let idx = resp.id.wrapping_sub(1) as usize;
    if idx >= seen.len() || seen[idx] {
        return Err(format!("answer with unknown or repeated id {}", resp.id));
    }
    seen[idx] = true;
    let due = schedule.due(idx);
    match resp.body {
        ResponseBody::Ranking { version, items } => {
            let lat = at.saturating_duration_since(due);
            if lat > DEADLINE {
                out.late += 1;
                return Ok(());
            }
            out.ok += 1;
            let offset = (due - schedule.start).as_secs_f64();
            out.latencies.push((offset, lat.as_secs_f64() * 1e6));
            if resp.id % cfg.sample_every == 0 {
                let (user, time) = keys[idx];
                out.samples.push(Answer {
                    user,
                    time,
                    version,
                    items,
                });
            }
        }
        ResponseBody::Overloaded { .. } => out.shed += 1,
        _ => out.errors += 1,
    }
    Ok(())
}

/// The fixed ladder of offered rates searched for the sustained rate.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// Lowest rung, requests per second.
    pub base: f64,
    /// Ratio between neighbouring rungs.
    pub step: f64,
    /// Number of rungs.
    pub rungs: usize,
    /// Schedule length of one probe, in seconds.
    pub probe_secs: f64,
    /// A rung holds when its p99 latency and the sender's p99 lag stay
    /// under this many µs, its queueing delay does not grow, and nothing
    /// is shed or fails.
    pub p99_limit_us: f64,
    /// Length of the goodput blast at the top rung, in seconds.
    pub blast_secs: f64,
}

impl Ladder {
    /// Offered rate of rung `i`.
    pub fn rate(&self, i: usize) -> f64 {
        self.base * self.step.powi(i as i32)
    }
}

/// Result of the sustained-rate search.
#[derive(Debug, Default)]
pub struct Sustained {
    /// Highest rung that held (0 if none of the rungs tried did).
    pub rps: f64,
    /// Probes run.
    pub probes: u32,
    /// Requests shed over all probes (expected past saturation).
    pub shed: u64,
    /// Typed errors over all probes. Sheds and missed deadlines past
    /// saturation are what the search looks for, not failures.
    pub failed: u64,
    /// Requests sent over all probes.
    pub sent: u64,
    /// Sampled answers from all probes.
    pub samples: Vec<Answer>,
}

/// Highest rung of `ladder` that holds. A short blast at the top rung
/// measures the server's goodput (answered rankings per second while
/// overloaded); no rung above it can hold, so a bisection over the rungs
/// up to it (holding taken as monotone in the rate) finds the answer.
pub fn sustained_rps(
    addr: SocketAddr,
    ladder: &Ladder,
    keys: &LoadConfig,
    cadence: Option<Duration>,
    tick: &mut dyn FnMut(),
) -> Result<Sustained, String> {
    let mut res = Sustained::default();
    let record = |res: &mut Sustained, out: &LoadOutcome| {
        res.probes += 1;
        res.sent += out.sent;
        res.shed += out.shed;
        res.failed += out.errors;
        res.samples.extend(out.samples.iter().cloned());
    };
    let top = ladder.rungs - 1;
    let blast = LoadConfig {
        rate: ladder.rate(top),
        secs: ladder.blast_secs,
        seed: keys.seed ^ 0xb1a5,
        ..keys.clone()
    };
    let out = open_loop(addr, &blast, cadence, tick)?;
    record(&mut res, &out);
    let goodput = out.ok as f64 / out.elapsed_s.max(1e-9);
    let cap = ((goodput / ladder.base).ln() / ladder.step.ln()).floor();
    let (mut lo, mut hi) = (-1i64, cap.clamp(0.0, top as f64) as i64 + 1);
    let mut step = 0u64;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        step += 1;
        let cfg = LoadConfig {
            rate: ladder.rate(mid as usize),
            secs: ladder.probe_secs,
            seed: keys.seed ^ step,
            ..keys.clone()
        };
        let out = open_loop(addr, &cfg, cadence, tick)?;
        record(&mut res, &out);
        let held = out.shed == 0
            && out.errors == 0
            && out.late == 0
            && !out.latencies.is_empty()
            && quantile(&out.latency_us(), 0.99) <= ladder.p99_limit_us
            && quantile(&out.lag_us, 0.99) <= ladder.p99_limit_us
            && !out.backlog_grew(cfg.secs);
        if held {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    if lo >= 0 {
        res.rps = ladder.rate(lo as usize);
    }
    Ok(res)
}
