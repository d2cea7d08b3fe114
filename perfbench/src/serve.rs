//! The `serve-learning` workload: an open-loop request schedule into an
//! in-process `rtlfixer_serve::Daemon` started with its default config
//! (two workers, distillation on).
//!
//! Requests repair entries of the paper's VerilogEval-syntax set, each with
//! its own episode seed, so no two requests coalesce. The request plan is
//! the same for every workload seed. A quarter of the set is known before the measured
//! window; the rest arrives one entry at a time, spread over the window,
//! so new distilled briefs keep landing, and re-keying the retrieval
//! index, while other requests read it. Requests are sent at evenly spaced due
//! times over [`connections`] connections, each with a sender and a
//! receiver thread, and correlated to their `result` events by the `fp`
//! field. Latency runs from each request's due time, so a stall also
//! delays every request due during it.
//!
//! A run sends a warm-up phase over the known entries (the daemon is
//! long-lived, so its caches and distilled store are warm in use), then
//! the measured fixed-rate window, then a closed-loop capacity phase for
//! `sustained_rps`. The window and the capacity phase run under a
//! [`Pacer`], and their timings are scaled to the reference pace.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use rtlfixer_compilers::CompilerKind;
use rtlfixer_dataset::SyntaxBenchEntry;
use rtlfixer_eval::{episode_seed, mean_pass_at_k, run_repair};
use rtlfixer_rag::DistilledStore;
use rtlfixer_serve::{Daemon, JobSpec, Request, ServeConfig};

use crate::pace::{self, PaceLog, Pacer};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::{digest_hex, json_bool, json_str, nproc, spans, Record};

/// Offered rate of the warm-up and the measured window, in requests per
/// second. It sits well below the default daemon's measured capacity.
pub const RATE_RPS: f64 = 200.0;
/// Share of the measured time spent in the fixed-rate window; the
/// capacity phase gets the rest.
pub const WINDOW_SHARE: f64 = 0.6;
/// Requests the capacity phase keeps outstanding: four per worker of the
/// default daemon, enough to keep both busy, while the admission queue
/// stays far below its limit of 64.
pub const CAPACITY_OUTSTANDING: usize = 8;
/// The capacity phase sends this many requests per second of its share
/// of `--seconds`: about what the default daemon completes on the 2-core
/// box, so the phase lasts about its share.
pub const CAPACITY_PLAN_RPS: f64 = 600.0;
/// Equal consecutive rounds of the capacity phase; `sustained_rps` is the
/// median of their paced completion rates, so one stall of the host moves
/// at most one round.
pub const CAPACITY_ROUNDS: usize = 5;
/// How far a served window's fix rate may stray from the serial replay's
/// recorded in `expected.json`. Across workload seeds the served rate
/// spans about ±0.005, since every run requests the same mix of entries.
pub const SERVED_FIX_RATE_TOLERANCE: f64 = 0.015;
/// Dataset seed of the request pool: the paper's VerilogEval-syntax set.
pub const POOL_SEED: u64 = 7;
/// Base of the requests' episode seeds (`episode_seed(base, 0, entry,
/// k)` for the `k`-th request for an entry).
const EPISODE_BASE: u64 = 0x5e7e;
/// Seed of the shuffles requests are dealt from. Like the episode seeds
/// it is the same for every workload seed, so every run sends the same
/// requests in the same order: which slow episodes land close together
/// decides the tail latency, and with the order and the episodes drawn
/// from the workload seed `request_p99_ms` moved by up to a half between
/// seeds (the same seeds reading high in every set of runs).
const DEAL_SEED: u64 = 0x5e5e_1ea4;
/// Share of the pool known before the window: the warm-up draws only from
/// it, and the rest arrives during the window.
pub const KNOWN_SHARE: f64 = 0.25;
/// Seed of the fixed order in which pool entries arrive, the same for
/// every workload seed so every run brings the same new entries at the
/// same points of its window.
const ARRIVAL_SEED: u64 = 0xa441;
/// Consecutive equal slices of the window; `request_p50_ms` and
/// `request_p99_ms` are the medians of the slices' p50 and p99 latencies.
/// In about one run of ten a host stall that pacing cannot see queues
/// requests behind it and lifts the whole window's p99 to about twice its
/// usual value; the median ignores up to two stalled slices. New entries,
/// and so brief writes, arrive evenly over the window, so every slice
/// carries its share of them, and the traced run reports each slice's
/// p99. At `--seconds 30` a slice holds 720 requests, 7 of them beyond
/// its p99.
pub const SLICES: usize = 5;
/// Warm-up length, in seconds; not measured.
pub const WARMUP_S: f64 = 2.0;
/// How long after its last due time a phase waits for stragglers; a
/// request still unanswered then is lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Due time, from the start of its phase.
    pub due: Duration,
    /// Index of the VerilogEval-syntax entry it repairs.
    pub entry: usize,
    /// The parsed job, as the daemon will see it.
    pub spec: JobSpec,
    /// The request line sent on the wire.
    pub line: String,
    /// The job's `fp` token, which correlates the response events.
    pub fp: String,
}

/// The seeded request plan of a run: warm-up, measured window, then the
/// capacity phase.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Warm-up requests.
    pub warmup: Vec<Planned>,
    /// The measured fixed-rate window.
    pub window: Vec<Planned>,
    /// The closed-loop capacity phase; due times are not used.
    pub capacity: Vec<Planned>,
}

impl Plan {
    /// Builds the plan over `pool`: a `seconds`-long measured run,
    /// [`WINDOW_SHARE`] of it the window and the rest the capacity phase.
    pub fn new(pool: &[SyntaxBenchEntry], seconds: f64) -> Plan {
        let mut order: Vec<usize> = (0..pool.len()).collect();
        shuffle(&mut order, &mut StdRng::seed_from_u64(ARRIVAL_SEED));
        let known = ((pool.len() as f64 * KNOWN_SHARE).round() as usize).clamp(1, pool.len());
        let mut rng = StdRng::seed_from_u64(DEAL_SEED);
        let (mut deck, mut arrived) = (Vec::new(), 0usize);
        // The `k`-th request for an entry always gets the same episode
        // seed.
        let mut requested = vec![0u64; pool.len()];
        // `arrivals(index, count)` is how many entries have arrived by
        // request `index` of a `count`-request phase. A newly arrived entry
        // is requested at once; otherwise entries are dealt from seeded
        // shuffles of those arrived, so each phase carries an even mix.
        let mut phase = |rate: f64, length_s: f64, arrivals: &dyn Fn(usize, usize) -> usize| {
            let count = (rate * length_s).round().max(1.0) as usize;
            (0..count)
                .map(|index| {
                    let entry = if arrived < arrivals(index, count) {
                        arrived += 1;
                        order[arrived - 1]
                    } else {
                        if deck.is_empty() {
                            deck = order[..arrived].to_vec();
                            shuffle(&mut deck, &mut rng);
                        }
                        deck.pop().expect("refilled above")
                    };
                    let due = Duration::from_secs_f64(index as f64 / rate);
                    let episode = episode_seed(EPISODE_BASE, 0, entry as u64, requested[entry]);
                    requested[entry] += 1;
                    plan_request(pool, entry, episode, due)
                })
                .collect::<Vec<_>>()
        };
        let warmup = phase(RATE_RPS, WARMUP_S, &|_, _| known);
        let new = pool.len() - known;
        let window = phase(RATE_RPS, seconds * WINDOW_SHARE, &|index, count| {
            known + (new * (index + 1)).div_ceil(count)
        });
        let capacity = phase(CAPACITY_PLAN_RPS, seconds * (1.0 - WINDOW_SHARE), &|_, _| pool.len());
        Plan { warmup, window, capacity }
    }

    /// The requests the traced replay repeats: warm-up then window.
    pub fn replay_list(&self) -> impl Iterator<Item = &Planned> {
        self.warmup.iter().chain(&self.window)
    }
}

/// Fisher-Yates shuffle.
fn shuffle(items: &mut [usize], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn plan_request(pool: &[SyntaxBenchEntry], entry: usize, seed: u64, due: Duration) -> Planned {
    let source = &pool[entry];
    let request = Request {
        op: "fix".to_owned(),
        code: Some(source.code.clone()),
        problem: Some(source.description.clone()),
        compiler: None,
        strategy: None,
        rag: None,
        capability: None,
        seed: Some(seed),
        tenant: None,
        deadline_ms: None,
    };
    let spec = JobSpec::from_request(&request, None).expect("dataset entries are valid requests");
    let quote = |text: &str| serde_json::to_string(text).expect("strings serialise");
    let line = format!(
        "{{\"op\":\"fix\",\"code\":{},\"problem\":{},\"seed\":{seed}}}\n",
        quote(&source.code),
        quote(&source.description)
    );
    let fp = spec.fp_hex();
    Planned { due, entry, spec, line, fp }
}

/// What became of one request.
#[derive(Debug, Clone, PartialEq)]
enum Fate {
    Pending,
    Done { latency_ms: f64, success: bool, code: String },
    Rejected,
    Shed,
    Error,
    Lost,
}

/// One client connection with its receive buffer.
struct Conn {
    stream: TcpStream,
    buffer: Vec<u8>,
}

/// Per-phase results, in request order.
#[derive(Debug)]
pub struct PhaseResult {
    /// Due-to-result latency per request; a request that got no result
    /// counts as the drain timeout, which misses any limit.
    pub latencies_ms: Vec<f64>,
    /// The instant each request's latency runs from: its due time, or in
    /// a closed-loop phase its send time.
    pub due: Vec<Instant>,
    /// How late each request was sent after its due time.
    pub lateness_ms: Vec<f64>,
    /// Requests answered with a `result` event.
    pub completed: usize,
    /// Completed requests whose result was `success:true`.
    pub fixed: usize,
    /// `(entry, success)` per completed request.
    pub per_entry: Vec<(usize, bool)>,
    /// Refused at admission.
    pub rejected: usize,
    /// Shed after admission.
    pub shed: usize,
    /// Answered with an `error` event.
    pub errors: usize,
    /// Unanswered at the drain timeout, or cut off by a disconnect.
    pub lost: usize,
    /// Final code of every `success:true` result.
    pub fixed_codes: Vec<String>,
    /// Highest sampled admission-queue depth.
    pub queue_max: usize,
    /// Queue depth sampled at the phase's last due time.
    pub queue_at_last_due: usize,
    /// When the phase started and when its last response arrived.
    pub span: (Instant, Instant),
}

impl PhaseResult {
    /// Requests that did not complete.
    pub fn failed(&self) -> usize {
        self.rejected + self.shed + self.errors + self.lost
    }

    /// First due time to last response, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.span.1.duration_since(self.span.0).as_secs_f64()
    }
}

/// What one connection's sender and receiver share: when each request
/// went out, and how many are outstanding.
struct Flow {
    /// Send time of each of the connection's requests, in nanoseconds
    /// after the phase start.
    sent_ns: Vec<AtomicU64>,
    outstanding: Mutex<usize>,
    settled: Condvar,
}

impl Flow {
    fn new(requests: usize) -> Flow {
        Flow {
            sent_ns: (0..requests).map(|_| AtomicU64::new(0)).collect(),
            outstanding: Mutex::new(0),
            settled: Condvar::new(),
        }
    }

    /// Waits until fewer than `limit` requests are outstanding (or
    /// `give_up` passes), then counts one more.
    fn acquire(&self, limit: usize, give_up: Instant) {
        let mut outstanding = self.outstanding.lock().expect("flow lock");
        while *outstanding >= limit && Instant::now() < give_up {
            outstanding = self
                .settled
                .wait_timeout(outstanding, Duration::from_millis(100))
                .expect("flow lock")
                .0;
        }
        *outstanding += 1;
    }

    fn release(&self) {
        let mut outstanding = self.outstanding.lock().expect("flow lock");
        *outstanding = outstanding.saturating_sub(1);
        self.settled.notify_one();
    }
}

/// How a phase paces its sends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pacing {
    /// Each request at its planned due time.
    Open,
    /// Each request as soon as fewer than this many are outstanding on its
    /// connection.
    Closed(usize),
}

/// What one connection's sender observed.
struct Sent {
    lateness_ms: Vec<f64>,
    queue_max: usize,
    queue_at_last_due: usize,
}

/// Sends one connection's share of a phase, each request at its due time
/// or, closed-loop, when its connection has room. `sampler`, set on one
/// connection, samples the daemon's admission queue at every send.
fn send(
    mut stream: &TcpStream,
    requests: &[Planned],
    mine: &[usize],
    (start, give_up): (Instant, Instant),
    (pacing, flow): (Pacing, &Flow),
    sampler: Option<&Daemon>,
) -> Sent {
    let mut sent =
        Sent { lateness_ms: Vec::with_capacity(mine.len()), queue_max: 0, queue_at_last_due: 0 };
    for (k, &index) in mine.iter().enumerate() {
        let due = match pacing {
            Pacing::Open => start + requests[index].due,
            Pacing::Closed(limit) => {
                flow.acquire(limit, give_up);
                Instant::now()
            }
        };
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let now = Instant::now();
        flow.sent_ns[k].store(now.duration_since(start).as_nanos() as u64, Ordering::Release);
        if stream.write_all(requests[index].line.as_bytes()).is_err() {
            break;
        }
        sent.lateness_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
        if let Some(daemon) = sampler {
            sent.queue_at_last_due = daemon.queue_depth();
            sent.queue_max = sent.queue_max.max(sent.queue_at_last_due);
        }
    }
    sent
}

/// What one connection's receiver observed, per request in send order.
struct Received {
    fates: Vec<Fate>,
    /// The instant each request's latency runs from.
    due: Vec<Instant>,
    /// Arrival of the connection's last event.
    last_event: Instant,
}

/// Reads one connection's responses until each of its requests is settled
/// or `give_up` passes. Acks and rejects arrive in send order; `result`,
/// `shed` and `error` events carry the request's `fp`.
fn receive(
    conn: &mut Conn,
    requests: &[Planned],
    mine: &[usize],
    (start, give_up): (Instant, Instant),
    (pacing, flow): (Pacing, &Flow),
) -> Received {
    let due_of = |k: usize| match pacing {
        Pacing::Open => start + requests[mine[k]].due,
        Pacing::Closed(_) => start + Duration::from_nanos(flow.sent_ns[k].load(Ordering::Acquire)),
    };
    let mut fates = vec![Fate::Pending; mine.len()];
    let by_fp: HashMap<&str, usize> =
        mine.iter().enumerate().map(|(k, &i)| (requests[i].fp.as_str(), k)).collect();
    let (mut acked, mut open, mut last_event) = (0usize, mine.len(), start);
    let mut chunk = vec![0u8; 1 << 16];
    // The timeout only bounds how long a silent daemon can hold the phase;
    // arrival times are taken when data arrives.
    conn.stream.set_read_timeout(Some(Duration::from_millis(100))).expect("valid timeout");
    while open > 0 && Instant::now() < give_up {
        let n = match conn.stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                continue
            }
            Err(_) => break,
        };
        let arrived = Instant::now();
        conn.buffer.extend_from_slice(&chunk[..n]);
        let mut consumed = 0;
        while let Some(offset) = conn.buffer[consumed..].iter().position(|&b| b == b'\n') {
            let line = &conn.buffer[consumed..consumed + offset];
            consumed += offset + 1;
            // Trace steps carry no outcome; skip them unparsed.
            if line.starts_with(b"{\"ev\":\"trace\"") {
                continue;
            }
            let Some(event) =
                std::str::from_utf8(line).ok().and_then(|t| serde_json::from_str::<Value>(t).ok())
            else {
                continue;
            };
            last_event = arrived;
            let ev = json_str(&event, "ev");
            if matches!(ev, Some("accepted" | "rejected")) {
                acked += 1;
            }
            let by_event_fp = || json_str(&event, "fp").and_then(|fp| by_fp.get(fp)).copied();
            let settled = match ev {
                Some("rejected") => Some((acked - 1, Fate::Rejected)),
                Some("result") => by_event_fp().map(|k| {
                    let fate = Fate::Done {
                        latency_ms: arrived.duration_since(due_of(k)).as_secs_f64() * 1e3,
                        success: json_bool(&event, "success") == Some(true),
                        code: json_str(&event, "code").unwrap_or("").to_owned(),
                    };
                    (k, fate)
                }),
                Some("shed") => by_event_fp().map(|k| (k, Fate::Shed)),
                Some("error") => by_event_fp().map(|k| (k, Fate::Error)),
                _ => None,
            };
            if let Some((k, fate)) = settled {
                if k < fates.len() && fates[k] == Fate::Pending {
                    fates[k] = fate;
                    open -= 1;
                    flow.release();
                }
            }
        }
        conn.buffer.drain(..consumed);
    }
    for fate in &mut fates {
        if *fate == Fate::Pending {
            *fate = Fate::Lost;
        }
    }
    let due = (0..mine.len()).map(due_of).collect();
    Received { fates, due, last_event }
}

/// Runs one phase over all connections (request `i` goes to connection
/// `i % connections`), each with a sender and a receiver thread, and folds
/// the per-connection results.
fn run_phase(
    daemon: &Daemon,
    conns: &mut [Conn],
    requests: &[Planned],
    pacing: Pacing,
) -> PhaseResult {
    let start = Instant::now() + Duration::from_millis(2);
    let last_due = match pacing {
        Pacing::Open => requests.last().map_or(Duration::ZERO, |r| r.due),
        // A closed-loop phase has no schedule; allow it a second per
        // hundred requests, far beyond any daemon that keeps up.
        Pacing::Closed(_) => Duration::from_millis(10 * requests.len() as u64),
    };
    let window = (start, start + last_due + DRAIN_TIMEOUT);
    let count = conns.len();
    let parts: Vec<(Sent, Vec<usize>, Received)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<usize> = (c..requests.len()).step_by(count).collect();
                let flow = Arc::new(Flow::new(mine.len()));
                let writer = conn.stream.try_clone().expect("clone the client socket");
                let sampler = (c == 0).then_some(daemon);
                let sender = {
                    let (mine, flow) = (mine.clone(), Arc::clone(&flow));
                    scope.spawn(move || {
                        send(&writer, requests, &mine, window, (pacing, &flow), sampler)
                    })
                };
                let receiver = scope.spawn(move || {
                    let received = receive(conn, requests, &mine, window, (pacing, &flow));
                    (mine, received)
                });
                (sender, receiver)
            })
            .collect();
        handles
            .into_iter()
            .map(|(sender, receiver)| {
                let sent = sender.join().expect("sender thread panicked");
                let (mine, received) = receiver.join().expect("receiver thread panicked");
                (sent, mine, received)
            })
            .collect()
    });
    let mut fates: Vec<Fate> = vec![Fate::Lost; requests.len()];
    let mut result = PhaseResult {
        latencies_ms: Vec::with_capacity(requests.len()),
        due: vec![start; requests.len()],
        lateness_ms: Vec::with_capacity(requests.len()),
        completed: 0,
        fixed: 0,
        per_entry: Vec::new(),
        rejected: 0,
        shed: 0,
        errors: 0,
        lost: 0,
        fixed_codes: Vec::new(),
        queue_max: 0,
        queue_at_last_due: 0,
        span: (start, start),
    };
    let mut last_event = start;
    for (sent, mine, received) in parts {
        for ((index, fate), due) in mine.into_iter().zip(received.fates).zip(received.due) {
            fates[index] = fate;
            result.due[index] = due;
        }
        result.lateness_ms.extend(sent.lateness_ms);
        result.queue_max = result.queue_max.max(sent.queue_max);
        result.queue_at_last_due = result.queue_at_last_due.max(sent.queue_at_last_due);
        last_event = last_event.max(received.last_event);
    }
    result.span = (start, last_event);
    let missed_ms = DRAIN_TIMEOUT.as_secs_f64() * 1e3;
    for (planned, fate) in requests.iter().zip(fates) {
        let latency = match fate {
            Fate::Done { latency_ms, success, code } => {
                result.completed += 1;
                result.per_entry.push((planned.entry, success));
                if success {
                    result.fixed += 1;
                    result.fixed_codes.push(code);
                }
                latency_ms
            }
            Fate::Rejected => {
                result.rejected += 1;
                missed_ms
            }
            Fate::Shed => {
                result.shed += 1;
                missed_ms
            }
            Fate::Error => {
                result.errors += 1;
                missed_ms
            }
            Fate::Pending | Fate::Lost => {
                result.lost += 1;
                missed_ms
            }
        };
        result.latencies_ms.push(latency);
    }
    result
}

/// pass@1 (Eq. 2, k = 1) per VerilogEval-syntax entry, averaged over the
/// entries, from `(entry, success)` outcomes.
fn per_entry_pass1(outcomes: &[(usize, bool)]) -> f64 {
    let mut per_entry: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for &(entry, success) in outcomes {
        let slot = per_entry.entry(entry).or_default();
        slot.0 += usize::from(success);
        slot.1 += 1;
    }
    let per_entry: Vec<(usize, usize)> = per_entry.into_values().collect();
    mean_pass_at_k(&per_entry, 1)
}

/// The `q`-quantile latency of each of [`SLICES`] consecutive equal
/// slices of `phase`, each scaled to the reference pace by the chunks run
/// during the slice. One factor per slice, not per request: with a factor
/// per request the tail picked the requests whose few nearby chunks ran
/// fast.
fn paced_slice_quantiles(phase: &PhaseResult, log: &PaceLog, q: f64) -> Vec<f64> {
    let size = phase.latencies_ms.len().div_ceil(SLICES).max(1);
    phase
        .latencies_ms
        .chunks(size)
        .zip(phase.due.chunks(size))
        .map(|(latencies, due)| {
            let pace_s = log.mean_between(due[0], due[due.len() - 1]);
            pace::at_reference(quantile(latencies, q), pace_s)
        })
        .collect()
}

/// Prints one phase's raw figures to standard error.
fn report_phase(label: &str, phase: &PhaseResult) {
    eprintln!(
        "perfbench: serve {label}: {} requests in {:.2} s, p50 {:.2} ms, p99 {:.2} ms, failed {}, queue max {}, send lateness p99 {:.2} ms",
        phase.latencies_ms.len(),
        phase.wall_s(),
        median(&phase.latencies_ms),
        quantile(&phase.latencies_ms, 0.99),
        phase.failed(),
        phase.queue_max,
        quantile(&phase.lateness_ms, 0.99),
    );
}

/// A phase's wall time scaled to the reference pace.
fn paced_wall_s(phase: &PhaseResult, log: &PaceLog) -> f64 {
    pace::at_reference(phase.wall_s(), log.mean_between(phase.span.0, phase.span.1))
}

/// Whether every fixed result recompiles cleanly under the Quartus
/// personality (uncached, so the check does not trust the daemon's
/// compile cache).
fn recompile_clean(codes: &[String]) -> bool {
    let quartus = CompilerKind::Quartus.build();
    codes.iter().all(|code| quartus.compile(code, "main.sv").success)
}

/// Client connections: each has a sender and a receiver thread, so
/// `nproc / 2` connections (at least one) keep the client within `nproc`
/// threads.
pub fn connections() -> usize {
    (nproc() / 2).max(1)
}

/// Builds the request pool and the retrieval state, starts the daemon and
/// opens the client connections.
fn setup() -> (Arc<Vec<SyntaxBenchEntry>>, Daemon, Vec<Conn>) {
    let pool = rtlfixer_dataset::verilog_eval_syntax_shared(POOL_SEED);
    crate::batch::warm_retrieval();
    let daemon = Daemon::start(ServeConfig::default()).expect("daemon binds a loopback port");
    let conns = (0..connections())
        .map(|_| {
            let stream = TcpStream::connect(("127.0.0.1", daemon.port())).expect("daemon accepts");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            Conn { stream, buffer: Vec::new() }
        })
        .collect();
    (pool, daemon, conns)
}

/// Set-up only, for the `setup_s` median.
pub fn child_setup(started: Instant) -> Record {
    let (_pool, daemon, conns) = setup();
    let record = crate::batch::record_setup(started.elapsed().as_secs_f64());
    drop(conns);
    daemon.drain();
    record
}

/// A served run in this (fresh) process: warm-up, measured window,
/// capacity phase, then the output checks. Every phase drains before the
/// next starts, so the phases are independent.
pub fn child_serve(seconds: f64, started: Instant) -> Record {
    let (pool, daemon, mut conns) = setup();
    // Taken before the plan is built, so every `setup_s` sample times the
    // same work as a set-up-only process.
    let mut record = crate::batch::record_setup(started.elapsed().as_secs_f64());
    let plan = Plan::new(&pool, seconds);
    // Without the spinners a served request's median latency moved by a
    // third between runs with the host's load, as halted CPUs woke slowly.
    // The capacity phase keeps every CPU busy without them, and there they
    // only disturbed the pacer.
    let awake = pace::KeepAwake::start(nproc());
    let pacer = Pacer::start();
    let warmup = run_phase(&daemon, &mut conns, &plan.warmup, Pacing::Open);
    let distilled_before = daemon.distilled_entries();
    let window = run_phase(&daemon, &mut conns, &plan.window, Pacing::Open);
    let distilled = daemon.distilled_entries();
    drop(awake);
    let per_connection = CAPACITY_OUTSTANDING.div_ceil(conns.len()).max(1);
    let round_size = plan.capacity.len().div_ceil(CAPACITY_ROUNDS);
    let rounds: Vec<PhaseResult> = plan
        .capacity
        .chunks(round_size)
        .map(|round| run_phase(&daemon, &mut conns, round, Pacing::Closed(per_connection)))
        .collect();
    let log = pacer.finish();
    drop(conns);
    daemon.drain();
    report_phase(&format!("window at {RATE_RPS} req/s"), &window);
    for (index, round) in rounds.iter().enumerate() {
        report_phase(
            &format!("capacity round {index} with {CAPACITY_OUTSTANDING} outstanding"),
            round,
        );
    }
    let phases = || [&warmup, &window].into_iter().chain(&rounds);
    let errors: usize = phases().map(|p| p.errors).sum();
    let clean = phases().all(|p| recompile_clean(&p.fixed_codes));

    // The window's length is set by its schedule, so the workload's fixed
    // item set, whose time `wall_s` reports, is the capacity phase's: its
    // requests at the median round's paced completion rate.
    let rates: Vec<f64> =
        rounds.iter().map(|round| round.completed as f64 / paced_wall_s(round, &log)).collect();
    let sustained_rps = median(&rates);
    record.num("wall_s", plan.capacity.len() as f64 / sustained_rps);
    record.num("wall_raw_s", rounds.iter().map(PhaseResult::wall_s).sum());
    let last = rounds.last().expect("the capacity phase has a round");
    record.num("pace_ms", log.mean_between(window.span.0, last.span.1) * 1e3);
    let sent = plan.window.len();
    record.num("items", sent as f64);
    record.num("failed", window.failed() as f64);
    record.num("fix_rate", window.fixed as f64 / sent as f64);
    record.num("pass1_fixed", per_entry_pass1(&window.per_entry));
    record.num("completed_share", window.completed as f64 / sent as f64);
    record.num("request_p50_ms", median(&paced_slice_quantiles(&window, &log, 0.5)));
    let p99s = paced_slice_quantiles(&window, &log, 0.99);
    record.num("request_p99_ms", median(&p99s));
    for (slice, p99) in p99s.iter().enumerate() {
        record.num(&format!("serve.window_p99_slice{slice}_ms"), *p99);
    }
    record.num("sustained_rps", sustained_rps);
    let round_p99s: Vec<f64> = rounds
        .iter()
        .map(|round| {
            let pace_s = log.mean_between(round.span.0, round.span.1);
            pace::at_reference(quantile(&round.latencies_ms, 0.99), pace_s)
        })
        .collect();
    record.num("serve.capacity_p99_ms", median(&round_p99s));
    record
        .num("serve.capacity_failed", rounds.iter().map(PhaseResult::failed).sum::<usize>() as f64);
    record.num("peak_rss_mb", peak_rss_mb());
    record.num("serve.queue_depth_max", window.queue_max as f64);
    record.num("serve.queue_at_window_end", window.queue_at_last_due as f64);
    record.num("serve.rejected", window.rejected as f64);
    record.num("serve.shed", window.shed as f64);
    record.num("serve.distilled_entries", distilled as f64);
    record.num("serve.window_distilled", (distilled - distilled_before) as f64);
    record.num("bench.generator_lateness_p99_ms", quantile(&window.lateness_ms, 0.99));
    record.num("errors", errors as f64);
    record.num("recompile_clean", f64::from(u8::from(clean)));
    record
}

/// Replays the plan's warm-up and window requests serially in this
/// process through the canonical episode path, merging a distilled store
/// after each job as a serve worker does. The digest covers every
/// replayed request; the fix rates and `rag.window_generations` cover the
/// window only, as the served run's do. Traced, each episode runs with
/// the timing wrappers under the span recorder.
pub fn child_replay(seconds: f64, traced: bool) -> Record {
    let build = Instant::now();
    let pool = rtlfixer_dataset::verilog_eval_syntax_shared(POOL_SEED);
    let mut record = Record::new();
    record.num("dataset.build_s", build.elapsed().as_secs_f64());
    crate::batch::warm_retrieval();
    let plan = Plan::new(&pool, seconds);
    let store = Arc::new(DistilledStore::new());
    let replay = || {
        let mut digest_input = Vec::new();
        let mut window = Vec::new();
        let mut window_start_generation = 0;
        for (item, planned) in plan.replay_list().enumerate() {
            if item == plan.warmup.len() {
                window_start_generation = store.snapshot().generation();
            }
            spans::set_item(item as u64);
            let mut job = planned.spec.as_repair_job();
            job.distilled = Some(&store);
            let outcome = if traced { crate::batch::traced_repair(&job) } else { run_repair(&job) };
            {
                let _span = spans::span("rag.merge");
                store.merge(&outcome.distilled);
            }
            crate::batch::count_episode(&outcome);
            if item >= plan.warmup.len() {
                window.push((planned.entry, outcome.success));
            }
            digest_input.push(u8::from(outcome.success));
            digest_input.extend_from_slice(&(outcome.revisions as u64).to_le_bytes());
            digest_input.extend_from_slice(outcome.final_code.as_bytes());
            digest_input.push(0);
        }
        let fixed = window.iter().filter(|(_, success)| *success).count();
        let generations = store.snapshot().generation() - window_start_generation;
        let rates = (fixed as f64 / window.len() as f64, per_entry_pass1(&window));
        (digest_hex(&digest_input), rates, generations, plan.replay_list().count())
    };
    let timer = Instant::now();
    let ((digest, (fix_rate, pass1), window_generations, items), pace_s) =
        pace::paced(|| if traced { crate::batch::traced(replay, &mut record) } else { replay() });
    record.num("replay_s", timer.elapsed().as_secs_f64());
    record.num("replay_pace_ms", pace_s * 1e3);
    record.text("digest", &digest);
    record.num("fix_rate", fix_rate);
    record.num("pass1_fixed", pass1);
    record.num("items", items as f64);
    record.num("rag.db_generations", store.snapshot().generation() as f64);
    record.num("rag.window_generations", window_generations as f64);
    crate::batch::record_caches(&mut record);
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_warm_up_sees_only_known_entries_and_the_window_brings_the_rest() {
        let pool = rtlfixer_dataset::verilog_eval_syntax_shared(POOL_SEED);
        let plan = Plan::new(&pool, 25.0);
        let entries =
            |phase: &[Planned]| -> BTreeSet<usize> { phase.iter().map(|p| p.entry).collect() };
        let known = entries(&plan.warmup);
        assert_eq!(known.len(), (pool.len() as f64 * KNOWN_SHARE).round() as usize);
        // New entries arrive throughout the window, not all at its start.
        let half = plan.window.len() / 2;
        let first_half_new = entries(&plan.window[..half]).difference(&known).count();
        let all_new = entries(&plan.window).difference(&known).count();
        assert_eq!(all_new, pool.len() - known.len());
        assert!(first_half_new > all_new / 3 && first_half_new < all_new * 2 / 3);
        // The plan is fixed: every run sends the same requests in order.
        let again = Plan::new(&pool, 25.0);
        assert!(plan.window.iter().zip(&again.window).all(|(a, b)| a.line == b.line));
    }
}
