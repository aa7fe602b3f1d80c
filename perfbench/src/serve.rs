//! The three serve workloads: an open-loop Poisson load against a
//! 2-shard `TcamService` on the behavioural tier (`jobs: 1`, default
//! audit period), one generator thread, every request timed from its
//! due time.

use crate::gen::{self, Rng, SurvivalKeys};
use crate::probe::table_factor;
use crate::spans::Spans;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::{Opts, Outcome};
use ferrotcam::fom::SearchMetrics;
use ferrotcam::{Calibration, DesignKind, PackedQuery};
use ferrotcam_serve::batch;
use ferrotcam_serve::{
    audit_compare, reference_search, BackendKind, BatchSpec, BehaviouralBackend, ExecBackend,
    LiveTable, Overloaded, RequestKind, SearchResponse, ServiceClient, ServiceConfig,
    ServiceMetrics, ShardedTcam, SnapView, TcamService, Ticket, WriteOp,
};
use ferrotcam_spice::trace::{self as ftrace, TraceLevel};
use std::path::Path;
use std::time::{Duration, Instant};

const WIDTH: usize = 64;
const SHARDS: usize = 2;
/// The p99 latency limit `slo_qps` holds to (ns).
const SLO_P99_NS: f64 = 1e6;
/// Requests and writes kept per window for the traced replays.
const RECORD: usize = 4096;
/// The pacer sleeps only through gaps longer than this and wakes this
/// early. On a small VM a sleeping thread can take a millisecond to be
/// scheduled again, so shorter gaps are spun, not slept.
const SLEEP_MARGIN: Duration = Duration::from_micros(1500);
const QUEUE_CAPACITY: usize = 16 * 1024;
/// How long the end of a window polls the requests still in flight
/// before it blocks on them. A request the service dropped never
/// answers a poll; blocking on it resolves it as unanswered.
const DRAIN_POLL: Duration = Duration::from_secs(2);
/// A rung stops sending once this many requests are in flight, which
/// no rung that holds a 1 ms p99 comes near.
const ABORT_BACKLOG: usize = 768;
/// Slices the reference window's and each rung's p99 are taken over
/// (see [`p99_us`]).
const REF_PARTS: usize = 8;
const RUNG_PARTS: usize = 4;
/// Rungs of the offered-rate ladder above the reference rate.
const LADDER_STEPS: i32 = 22;
const THRESHOLD: RequestKind = RequestKind::Threshold { t: 2 };
const TOP_K: RequestKind = RequestKind::TopK { k: 8 };

/// Which traffic mix a serve workload offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Key-routed exact search at 10 % step-1 survival, half hits.
    Exact,
    /// Fan-out threshold (t=2) / top-k (k=8) / range in equal thirds.
    Approx,
    /// 90 % routed exact search on uniform keys, 8 % update, 1 % insert,
    /// 1 % delete.
    Churn,
}

/// Sizes and rates of one run.
#[derive(Debug, Clone)]
pub struct Shape {
    pub rows: usize,
    /// Offered rate of the reference window (ops/s).
    pub ref_rate: f64,
    /// Offered rates `slo_qps` is chosen from, ascending.
    pub ladder: Vec<f64>,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed warm-up before the windows (s).
    pub warmup_s: f64,
    /// Responses per reference window compared with `reference_search`.
    pub checks: usize,
}

impl Shape {
    pub fn full(mix: Mix) -> Self {
        let (ref_rate, checks) = match mix {
            Mix::Exact | Mix::Churn => (20_000.0, 4000),
            Mix::Approx => (10_000.0, 90),
        };
        Self {
            rows: 16384,
            ref_rate,
            // 10 % steps from the reference rate up to 8x it.
            ladder: (0..=LADDER_STEPS)
                .map(|k| ref_rate * 1.1f64.powi(k))
                .collect(),
            setups: 24,
            warmup_s: 0.5,
            checks,
        }
    }

    /// The self-test's tiny shape: every phase runs, briefly.
    pub fn tiny(mix: Mix) -> Self {
        Self {
            rows: 512,
            ref_rate: 2000.0,
            ladder: vec![2000.0, 4000.0],
            setups: 2,
            warmup_s: 0.05,
            checks: if mix == Mix::Approx { 20 } else { 200 },
        }
    }
}

/// One generated request. Words travel as their 64-digit bit pattern.
#[derive(Debug, Clone)]
enum Op {
    Search {
        kind: RequestKind,
        query: PackedQuery,
        routed: bool,
    },
    Insert(u64),
    Update {
        row: usize,
        bits: u64,
    },
    Delete {
        row: usize,
    },
}

/// The seeded table and request stream of one mix.
#[derive(Debug, Clone)]
struct Workload {
    mix: Mix,
    seed: u64,
    rows: usize,
    keys: SurvivalKeys,
    /// Binary stand-ins of the stored words (wildcards as random bits),
    /// from which hitting and near queries are drawn.
    stored: Vec<u64>,
}

impl Workload {
    fn new(mix: Mix, seed: u64, rows: usize) -> Self {
        Self {
            mix,
            seed,
            rows,
            keys: SurvivalKeys::new(&mut Rng::new(seed, 1), 0.10),
            stored: Vec::new(),
        }
    }

    /// Build the table and the binary stand-ins of its words; the same
    /// seed gives the same table. Exact and churn tables are
    /// key-partitioned: every word lives on its hash shard.
    fn build_table(&self, metrics: &SearchMetrics, calib: &Calibration) -> (ShardedTcam, Vec<u64>) {
        let mut rng = Rng::new(self.seed, 2);
        let mut table = ShardedTcam::new(WIDTH, SHARDS);
        let mut stored = Vec::with_capacity(self.rows);
        for _ in 0..self.rows {
            let bits = match self.mix {
                Mix::Exact | Mix::Churn => {
                    let bits = if self.mix == Mix::Exact {
                        self.keys.key(&mut rng)
                    } else {
                        rng.next_u64()
                    };
                    let shard = table.route_packed(&gen::packed(bits));
                    table.store_in(shard, gen::word(bits));
                    bits
                }
                Mix::Approx => {
                    let (word, bits) = gen::wildcard_word(&mut rng);
                    table.store(word);
                    bits
                }
            };
            stored.push(bits);
        }
        table.attach_metrics(metrics.clone());
        if self.mix == Mix::Churn {
            table.attach_write_metrics(calib.write_metrics(WIDTH));
        }
        (table, stored)
    }

    /// The next request. `live_rows` tracks the table size the
    /// generator believes in, for row-addressed writes.
    fn next_op(&self, rng: &mut Rng, live_rows: &mut usize) -> Op {
        let search = |kind, bits, routed| Op::Search {
            kind,
            query: gen::packed(bits),
            routed,
        };
        match self.mix {
            Mix::Exact => {
                let bits = if rng.below(2) == 0 {
                    self.stored[rng.below(self.stored.len())]
                } else {
                    self.keys.key(rng)
                };
                search(RequestKind::Exact, bits, true)
            }
            Mix::Approx => {
                let base = self.stored[rng.below(self.stored.len())];
                let flips = rng.below(4);
                let near = gen::flip(rng, base, flips);
                let kind = [THRESHOLD, TOP_K, RequestKind::Range][rng.below(3)];
                search(kind, near, false)
            }
            Mix::Churn => match rng.below(100) {
                0..=89 => search(RequestKind::Exact, rng.next_u64(), true),
                90..=97 => Op::Update {
                    row: rng.below(*live_rows),
                    bits: rng.next_u64(),
                },
                98 => {
                    *live_rows += 1;
                    Op::Insert(rng.next_u64())
                }
                _ => {
                    let row = rng.below(*live_rows);
                    *live_rows = (*live_rows - 1).max(1);
                    Op::Delete { row }
                }
            },
        }
    }
}

fn submit(client: &ServiceClient, op: &Op) -> Result<Ticket, Overloaded> {
    match op {
        Op::Search {
            query,
            routed: true,
            ..
        } => client.submit_packed_routed(0, query.clone()),
        Op::Search { kind, query, .. } => client.submit_kind(0, query.clone(), *kind, None),
        Op::Insert(bits) => client.submit_insert(1, gen::word(*bits)),
        Op::Update { row, bits } => client.submit_update(1, *row, gen::word(*bits)),
        Op::Delete { row } => client.submit_delete(1, *row),
    }
}

fn write_op(op: &Op) -> WriteOp {
    match op {
        Op::Insert(bits) => WriteOp::Insert(gen::word(*bits)),
        Op::Update { row, bits } => WriteOp::Update {
            row: *row,
            word: gen::word(*bits),
        },
        Op::Delete { row } => WriteOp::Delete { row: *row },
        Op::Search { .. } => unreachable!("searches are not writes"),
    }
}

/// A search as sent: what the reference needs to recompute it.
#[derive(Debug, Clone)]
struct Sent {
    kind: RequestKind,
    query: PackedQuery,
    target: Option<usize>,
}

/// A request in flight.
#[derive(Debug)]
struct Pending {
    ticket: Ticket,
    /// When the request was due: its latency counts from here to when
    /// this thread sees the response.
    due: Instant,
    write: bool,
    /// Set for responses kept for the reference comparison.
    check: Option<Sent>,
}

/// Everything one paced window produced.
#[derive(Debug, Default)]
struct Window {
    search_lat_ns: Vec<f64>,
    write_lat_ns: Vec<f64>,
    lag_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Submissions stopped because the backlog passed the abort mark.
    aborted: bool,
    /// Requests in flight when the last one was sent.
    backlog_end: usize,
    energy_j: f64,
    exact_rows: u64,
    exact_step1_misses: u64,
    checks: Vec<(Sent, SearchResponse)>,
    /// Searches and writes as sent (bounded), replayed against the
    /// layers' public functions in traced runs.
    sent_searches: Vec<Sent>,
    sent_writes: Vec<WriteOp>,
}

/// Served energy against the standalone `core::fom` figure for the
/// same outcome, to 1e-9.
fn energy_matches_fom(m: &SearchMetrics, r: &SearchResponse) -> bool {
    let rows = r.rows_searched;
    let Some(served) = r.energy_j else {
        return false;
    };
    if rows == 0 || r.matches.len() + r.step1_misses + r.step2_misses != rows {
        return false;
    }
    let miss_rate = match r.kind {
        RequestKind::Exact => r.step1_misses as f64 / rows as f64,
        // Approximate kinds race every match line: no early termination.
        _ => 0.0,
    };
    let fom = rows as f64 * m.energy_avg(miss_rate);
    (served - fom).abs() <= 1e-9 * fom.abs().max(1e-30)
}

/// Drives paced windows of requests through the service.
struct Generator<'a> {
    client: &'a ServiceClient,
    metrics: &'a SearchMetrics,
    workload: &'a Workload,
    /// Rows the generator believes the table holds (churn addressing).
    live_rows: usize,
    spans: Spans,
    seq: u64,
}

impl Generator<'_> {
    /// Offer one window: arrivals at `rate` for `secs`, ops from stream
    /// `stream`. Every `check_every`-th search (0: none) is kept for the
    /// reference comparison; submissions stop once more than `abort_at`
    /// requests are in flight; up to `record` searches and writes are
    /// kept as sent.
    fn drive(
        &mut self,
        stream: u64,
        rate: f64,
        secs: f64,
        check_every: usize,
        abort_at: usize,
        record: usize,
    ) -> Window {
        let seed = self.workload.seed;
        let arrivals = gen::poisson_arrivals(&mut Rng::new(seed, 1000 + stream), rate, secs);
        let mut rng = Rng::new(seed, stream);
        let mut w = Window::default();
        let mut pending: Vec<Pending> = Vec::new();
        let mut searches_sent = 0usize;
        let t0 = Instant::now() + Duration::from_micros(500);
        for &at in &arrivals {
            let op = self.workload.next_op(&mut rng, &mut self.live_rows);
            let due = t0 + Duration::from_secs_f64(at);
            // With nothing in flight, sleep through long gaps; otherwise
            // spin to the due time, polling every request in flight so
            // each response is timed when it arrives. Requests go out one
            // at a time at their due times, never in bursts.
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let left = due - now;
                if !pending.is_empty() {
                    self.poll(&mut pending, &mut w);
                } else if left > 2 * SLEEP_MARGIN {
                    std::thread::sleep(left - SLEEP_MARGIN);
                } else {
                    std::hint::spin_loop();
                }
            }
            let sent = Instant::now();
            let span = self.spans.begin("service.submit", None, Some(self.seq));
            let res = submit(self.client, &op);
            self.spans.end(span);
            self.seq += 1;
            w.attempted += 1;
            let lag_ns =
                u64::try_from(sent.saturating_duration_since(due).as_nanos()).unwrap_or(u64::MAX);
            w.lag_ns.push(lag_ns as f64);
            let (write, check) = match op {
                Op::Search {
                    kind,
                    query,
                    routed,
                } => {
                    let target = routed.then(|| self.client.route_packed(&query));
                    let sent = Sent {
                        kind,
                        query,
                        target,
                    };
                    searches_sent += 1;
                    let keep = check_every > 0 && searches_sent.is_multiple_of(check_every);
                    if w.sent_searches.len() < record {
                        w.sent_searches.push(sent.clone());
                    }
                    (false, keep.then_some(sent))
                }
                other => {
                    if w.sent_writes.len() < record {
                        w.sent_writes.push(write_op(&other));
                    }
                    (true, None)
                }
            };
            match res {
                Ok(ticket) => pending.push(Pending {
                    ticket,
                    due,
                    write,
                    check,
                }),
                Err(_) => w.failed += 1,
            }
            if pending.len() > abort_at {
                w.aborted = true;
                break;
            }
        }
        w.backlog_end = pending.len();
        let polled = Instant::now();
        while !pending.is_empty() && polled.elapsed() < DRAIN_POLL {
            self.poll(&mut pending, &mut w);
        }
        for p in pending {
            let resp = p.ticket.wait();
            self.record(&mut w, Instant::now() - p.due, p.write, p.check, resp);
        }
        w
    }

    /// Record every request in flight that has been answered, timed by
    /// this thread's clock.
    fn poll(&self, pending: &mut Vec<Pending>, w: &mut Window) {
        let mut i = 0;
        while i < pending.len() {
            if let Some(resp) = pending[i].ticket.try_wait() {
                let latency = Instant::now() - pending[i].due;
                let p = pending.swap_remove(i);
                self.record(w, latency, p.write, p.check, Some(resp));
            } else {
                i += 1;
            }
        }
    }

    fn record(
        &self,
        w: &mut Window,
        latency: Duration,
        write: bool,
        check: Option<Sent>,
        resp: Option<SearchResponse>,
    ) {
        // Every accepted request must be answered (writes: acked).
        let Some(r) = resp else {
            w.failed += 1;
            return;
        };
        let latency = latency.as_nanos() as f64;
        if write {
            w.write_lat_ns.push(latency);
            return;
        }
        w.search_lat_ns.push(latency);
        w.energy_j += r.energy_j.unwrap_or(0.0);
        if !energy_matches_fom(self.metrics, &r) {
            w.failed += 1;
        }
        if r.kind == RequestKind::Exact {
            w.exact_rows += r.rows_searched as u64;
            w.exact_step1_misses += r.step1_misses as u64;
        }
        if let Some(sent) = check {
            w.checks.push((sent, r));
        }
    }
}

/// Responses that disagree with `reference_search` on `view`.
fn wrong_answers(view: &SnapView, checks: &[(Sent, SearchResponse)]) -> u64 {
    checks
        .iter()
        .filter(|(s, r)| {
            let (o, hits) = reference_search(view, s.kind, &s.query, s.target);
            o.matches != r.matches
                || o.step1_misses != r.step1_misses
                || o.step2_misses != r.step2_misses
                || hits != r.hits
        })
        .count() as u64
}

/// The served configuration: defaults except the tier, one worker per
/// batch, and a queue deep enough that a host stall of a few tens of
/// milliseconds delays requests instead of shedding them.
fn config() -> ServiceConfig {
    ServiceConfig {
        backend: BackendKind::Behavioural,
        jobs: 1,
        queue_capacity: QUEUE_CAPACITY,
        ..ServiceConfig::default()
    }
}

fn q_us(samples: &[f64], p: f64) -> f64 {
    quantile(&mut samples.to_vec(), p) / 1e3
}

/// p99 (us) of each of `parts` consecutive slices of `samples` (in
/// completion order, so about equal stretches of time), and the median
/// of those. A host stall of a few milliseconds moves one slice's p99,
/// not the median.
fn p99_us(samples: &[f64], parts: usize) -> f64 {
    let len = samples.len().div_ceil(parts.max(1)).max(1);
    let mut per: Vec<f64> = samples.chunks(len).map(|c| q_us(c, 0.99)).collect();
    median(&mut per)
}

/// A started service and what its set-up loaded.
struct Started {
    svc: TcamService,
    calib: Calibration,
    metrics: SearchMetrics,
    stored: Vec<u64>,
}

/// Times of the run's set-ups.
#[derive(Debug, Default)]
struct SetupTimes {
    /// Whole set-up (s), at the host-speed probe's reference speed.
    norm_s: Vec<f64>,
    /// Whole set-up (s) as measured.
    raw_s: Vec<f64>,
    /// `Calibration::load` (ms) as measured.
    load_ms: Vec<f64>,
}

/// One set-up, right after a host-speed probe: calibration load, table
/// build, `TcamService::start`.
fn setup(workload: &Workload, times: &mut SetupTimes) -> Result<Started, String> {
    let speed = table_factor();
    let t0 = Instant::now();
    let calib = Calibration::load(Path::new("results"), DesignKind::T15Dg);
    times.load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    if calib.sources.is_empty() {
        return Err("no calibration datasheets under results/".into());
    }
    let metrics = calib.search_metrics(WIDTH);
    let (table, stored) = workload.build_table(&metrics, &calib);
    let svc = TcamService::start(table, &config());
    let secs = t0.elapsed().as_secs_f64();
    times.raw_s.push(secs);
    times.norm_s.push(secs * speed);
    Ok(Started {
        svc,
        calib,
        metrics,
        stored,
    })
}

/// Run one serve workload. `Err` when the run could not start.
pub fn run(mix: Mix, opts: &Opts, shape: &Shape) -> Result<Outcome, String> {
    ftrace::set_level(TraceLevel::Off);
    let mut workload = Workload::new(mix, opts.seed, shape.rows);

    // Set-ups run with no service alive, as at process start: an idle
    // service's dispatchers wake every few microseconds and would share
    // the cores with them. Half run before the windows (the last one's
    // service serves the run) and half after it has drained.
    let mut setups = SetupTimes::default();
    let mut started = setup(&workload, &mut setups)?;
    while setups.raw_s.len() < shape.setups.div_ceil(2) {
        drop(started);
        started = setup(&workload, &mut setups)?;
    }
    let Started {
        svc,
        calib,
        metrics,
        stored,
    } = started;
    workload.stored = stored;
    let client = svc.client();
    let mut generator = Generator {
        client: &client,
        metrics: &metrics,
        workload: &workload,
        live_rows: shape.rows,
        spans: Spans::new(false),
        seq: 0,
    };

    let mut out = Outcome::default();
    let mut windows = Vec::new();
    windows.push(generator.drive(10, shape.ref_rate, shape.warmup_s, 0, usize::MAX, 0));
    // An untraced run spends its time on the reference window; a traced
    // run splits it between the same window untraced and traced, and
    // the offered-rate ladder.
    let ref_s = opts.seconds * if opts.trace { 0.35 } else { 1.0 };
    // Churn's table moves under the searches, so its answers are left
    // to the audit lane, which replays them against their own snapshot.
    let check_every = match mix {
        Mix::Churn => 0,
        _ => ((shape.ref_rate * ref_s) as usize / shape.checks.max(1)).max(1),
    };
    let mut reference = generator.drive(11, shape.ref_rate, ref_s, check_every, usize::MAX, RECORD);
    // The ladder's deepest backlog would otherwise set the peak.
    let rss_mb = peak_rss_mb();
    if opts.inject_wrong {
        if let Some((_, r)) = reference.checks.first_mut() {
            r.matches.push(usize::MAX);
        }
    }

    let mut slo_qps = 0.0;
    let mut traced = None;
    if opts.trace {
        ftrace::reset();
        ftrace::set_level(TraceLevel::Summary);
        generator.spans = Spans::new(true);
        let w = generator.drive(12, shape.ref_rate, ref_s, check_every, usize::MAX, 0);
        let spans = std::mem::replace(&mut generator.spans, Spans::new(false));
        traced = Some((w, ftrace::summary(), client.metrics(), spans));
        ftrace::set_level(TraceLevel::Off);

        // Climb the ladder until a rung misses the limits twice in a row:
        // one retry keeps a single host stall from ending the climb.
        let step_s = opts.seconds * 0.3 / shape.ladder.len() as f64;
        let mut stream = 100;
        'climb: for &rate in &shape.ladder {
            // A quarter of the reference window's checks per rung.
            let every = if check_every == 0 {
                0
            } else {
                ((rate * step_s) as usize / (shape.checks / 4).max(1)).max(1)
            };
            for _attempt in 0..2 {
                stream += 1;
                let w = generator.drive(stream, rate, step_s, every, ABORT_BACKLOG, 0);
                // Not growing: at most a millisecond of offered work is
                // still in flight when the rung's last request goes out.
                let p99 = p99_us(&w.search_lat_ns, RUNG_PARTS);
                let pass = !w.aborted
                    && w.failed == 0
                    && p99 * 1e3 <= SLO_P99_NS
                    && p99_us(&w.lag_ns, RUNG_PARTS) * 1e3 <= SLO_P99_NS
                    && w.backlog_end as f64 <= (rate * 1e-3).max(64.0);
                out.notes.push(format!(
                    "ladder {rate:.0}/s: p99 {p99:.1} us over {} searches, backlog {}, {}",
                    w.search_lat_ns.len(),
                    w.backlog_end,
                    if pass {
                        "meets the limits"
                    } else {
                        "misses the limits"
                    }
                ));
                windows.push(w);
                if pass {
                    slo_qps = rate;
                    continue 'climb;
                }
            }
            break;
        }
    }

    let view = client.table();
    let epochs: u64 = view.epochs().iter().sum();
    let lag_p99_us = p99_us(&reference.lag_ns, REF_PARTS);
    let p50_us = q_us(&reference.search_lat_ns, 0.5);
    let p99 = p99_us(&reference.search_lat_ns, REF_PARTS);
    let sm = svc.drain();
    while setups.raw_s.len() < shape.setups {
        drop(setup(&workload, &mut setups)?);
    }
    out.setups = setups.raw_s.len();

    // Answer checks: read-only tables never change, so the served view
    // is the reference's table; churn relies on the audit lane.
    let mut all: Vec<&Window> = windows.iter().collect();
    all.push(&reference);
    if let Some((w, ..)) = &traced {
        all.push(w);
    }
    let mut wrong = 0;
    for w in &all {
        out.attempted += w.attempted;
        out.failed += w.failed;
        if mix != Mix::Churn {
            wrong += wrong_answers(&view, &w.checks);
        }
    }
    let checked: usize = all.iter().map(|w| w.checks.len()).sum();
    let divergences = sm.audit_match_divergences + sm.audit_energy_divergences;
    out.failed += wrong + divergences;
    out.correct = out.failed == 0;
    if lag_p99_us * 1e3 > SLO_P99_NS {
        out.invalid = Some(format!(
            "generator lag p99 {lag_p99_us:.0} us exceeds the 1 ms latency limit"
        ));
    }
    out.notes.push(format!(
        "{} searches in the reference window at {:.0}/s: p50 {p50_us:.1} us, p99 {p99:.1} us (median of {REF_PARTS} slices, whole window {:.1} us); generator lag p99 {lag_p99_us:.1} us",
        reference.search_lat_ns.len(),
        shape.ref_rate,
        q_us(&reference.search_lat_ns, 0.99)
    ));
    out.notes.push(format!(
        "checks: {checked} responses against reference_search ({wrong} wrong), every response's energy against core::fom, audit lane {} sampled / {divergences} divergent",
        sm.audit_sampled
    ));
    let survival = if reference.exact_rows == 0 {
        0.0
    } else {
        1.0 - reference.exact_step1_misses as f64 / reference.exact_rows as f64
    };
    out.notes
        .push(format!("packed.step1_survival {survival:.4}"));

    let setup_s = median(&mut setups.norm_s);
    out.notes.push(format!(
        "{} set-ups: median {:.2} ms, {:.2} ms at the reference speed",
        setups.raw_s.len(),
        median(&mut setups.raw_s) * 1e3,
        setup_s * 1e3
    ));
    out.metric("setup_s", setup_s);
    out.metric("p50_us", p50_us);
    out.metric(
        "energy_fj_per_search",
        reference.energy_j / reference.search_lat_ns.len().max(1) as f64 * 1e15,
    );
    out.metric("peak_rss_mb", rss_mb);

    // `at_ref` snapshots the service after the two reference windows,
    // before the ladder: batch sizes at the reference rate.
    if let Some((tw, summary, at_ref, mut spans)) = traced {
        let submit_ns = median(&mut spans.durations_ns("service.submit"));
        let batch_us = summary
            .spans
            .iter()
            .find(|s| s.name == "serve.batch")
            .map_or(0.0, |s| s.mean / 1e3);
        let (table, _) = workload.build_table(&metrics, &calib);
        let layers = replay_layers(&mut spans, &table, &reference, &at_ref, metrics.latency());
        let backend_ns = match mix {
            Mix::Approx => (layers.threshold_ns + layers.topk_ns + layers.range_ns) / 3.0,
            _ => layers.exact_ns,
        };
        out.metric("p99_us", p99);
        out.metric("slo_qps", slo_qps);
        out.metric("loadgen.lag_p99_us", lag_p99_us);
        out.metric("service.submit_ns", submit_ns);
        out.metric(
            "service.overhead_us",
            p50_us - (backend_ns + submit_ns) / 1e3,
        );
        out.metric("service.batch_us", batch_us);
        out.metric("admission.shed", sm.shed_rate_limited as f64);
        out.metric("queue.shed_full", sm.shed_queue_full as f64);
        out.metric("queue.depth_max", sm.max_queue_depth as f64);
        out.metric("batch.mean_size", at_ref.batch.mean_size);
        out.metric("batch.plan_ns", layers.plan_ns);
        out.metric("backend.exact_ns", layers.exact_ns);
        out.metric("backend.threshold_ns", layers.threshold_ns);
        out.metric("backend.topk_ns", layers.topk_ns);
        out.metric("backend.range_ns", layers.range_ns);
        out.metric("backend.audit_us", layers.audit_us);
        out.metric("backend.audit_sampled", sm.audit_sampled as f64);
        out.metric("packed.step1_survival", survival);
        out.metric("shard.apply_ns_per_write", layers.apply_ns_per_write);
        out.metric("shard.snapshot_ns", layers.snapshot_ns);
        out.metric("shard.epochs", epochs as f64);
        out.metric("calib.load_ms", median(&mut setups.load_ms));
        out.metric("write_p99_us", p99_us(&reference.write_lat_ns, REF_PARTS));
        out.metric(
            "trace.overhead_frac",
            q_us(&tw.search_lat_ns, 0.5) / p50_us - 1.0,
        );
        out.notes.extend(spans.summary());
    }
    Ok(out)
}

/// Per-layer times from replaying the run's own requests against the
/// layers' public functions, each call inside a span.
#[derive(Debug, Default)]
struct Layers {
    exact_ns: f64,
    threshold_ns: f64,
    topk_ns: f64,
    range_ns: f64,
    audit_us: f64,
    plan_ns: f64,
    apply_ns_per_write: f64,
    snapshot_ns: f64,
}

/// Repeat `f` until `min_s` seconds have passed (at least once, at most
/// `max_passes` times); returns the passes made.
fn passes(min_s: f64, max_passes: usize, mut f: impl FnMut()) -> usize {
    let t0 = Instant::now();
    let mut n = 0;
    while n < max_passes && (n == 0 || t0.elapsed().as_secs_f64() < min_s) {
        f();
        n += 1;
    }
    n
}

fn replay_layers(
    spans: &mut Spans,
    table: &ShardedTcam,
    w: &Window,
    sm: &ServiceMetrics,
    t_bank: f64,
) -> Layers {
    let live = LiveTable::from_sharded(table);
    let view = live.snapshot();
    let batch_size = (sm.batch.mean_size.round() as usize).max(1);
    let mut l = Layers::default();
    let layer = spans.begin("layer.backend", None, None);
    for (name, pick) in [
        ("backend.exact", RequestKind::Exact),
        ("backend.threshold", THRESHOLD),
        ("backend.topk", TOP_K),
        ("backend.range", RequestKind::Range),
    ] {
        let sent: Vec<&Sent> = w.sent_searches.iter().filter(|s| s.kind == pick).collect();
        if sent.is_empty() {
            continue;
        }
        let queries: Vec<PackedQuery> = sent.iter().map(|s| s.query.clone()).collect();
        let kinds: Vec<RequestKind> = sent.iter().map(|s| s.kind).collect();
        let targets: Vec<Option<usize>> = sent.iter().map(|s| s.target).collect();
        let costs = vec![1.0; sent.len()];
        let n = passes(0.2, 200, || {
            for start in (0..sent.len()).step_by(batch_size) {
                let end = (start + batch_size).min(sent.len());
                let spec = BatchSpec {
                    queries: &queries[start..end],
                    kinds: &kinds[start..end],
                    targets: &targets[start..end],
                    costs: &costs[start..end],
                };
                let r = spans.time(name, layer, || {
                    BehaviouralBackend.execute(&view, &spec, 1, t_bank)
                });
                std::hint::black_box(r);
            }
        });
        let per_query = spans.total_ns(name) / (n * sent.len()) as f64;
        match pick {
            RequestKind::Exact => l.exact_ns = per_query,
            RequestKind::Range => l.range_ns = per_query,
            RequestKind::TopK { .. } => l.topk_ns = per_query,
            _ => l.threshold_ns = per_query,
        }
    }
    spans.end(layer);

    // The audit lane's replay: reference search plus comparison.
    for s in w.sent_searches.iter().take(32) {
        let one = std::slice::from_ref(s);
        let spec = BatchSpec {
            queries: std::slice::from_ref(&one[0].query),
            kinds: &[s.kind],
            targets: &[s.target],
            costs: &[1.0],
        };
        let fast = BehaviouralBackend.execute(&view, &spec, 1, t_bank);
        let fast_energy = view.energy_of_kind(s.kind, &fast.outcomes[0]);
        let verdict = spans.time("backend.audit", None, || {
            let (o, hits) = reference_search(&view, s.kind, &s.query, s.target);
            let e = view.energy_of_kind(s.kind, &o);
            audit_compare(
                &fast.outcomes[0],
                &fast.hits[0],
                fast_energy,
                &o,
                &hits,
                e,
                1e-9,
            )
        });
        std::hint::black_box(verdict);
    }
    l.audit_us = crate::stats::mean(&spans.durations_ns("backend.audit")) / 1e3;

    let targets: Vec<Option<usize>> = w.sent_searches.iter().map(|s| s.target).collect();
    if !targets.is_empty() {
        let n = passes(0.05, 1000, || {
            for chunk in targets.chunks(batch_size) {
                let p = spans.time("batch.plan", None, || batch::plan(chunk, SHARDS));
                std::hint::black_box(p);
            }
        });
        l.plan_ns = spans.total_ns("batch.plan") / (n * targets.len().div_ceil(batch_size)) as f64;
    }

    for _ in 0..20_000 {
        let v = spans.time("shard.snapshot", None, || live.snapshot());
        std::hint::black_box(v);
    }
    l.snapshot_ns = crate::stats::mean(&spans.durations_ns("shard.snapshot"));

    if !w.sent_writes.is_empty() {
        // Writes arrive in batches holding their share of a mean batch.
        let share =
            w.sent_writes.len() as f64 / (w.sent_writes.len() + w.sent_searches.len()) as f64;
        let per_batch = ((sm.batch.mean_size * share).round() as usize).max(1);
        for chunk in w.sent_writes.chunks(per_batch) {
            let acks = spans.time("shard.apply", None, || live.apply(chunk));
            std::hint::black_box(acks);
        }
        l.apply_ns_per_write = spans.total_ns("shard.apply") / w.sent_writes.len() as f64;
    }
    l
}
