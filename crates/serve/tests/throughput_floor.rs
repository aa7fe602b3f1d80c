//! Throughput floors of the service at the reference shape: 16384 rows
//! × 64 digits, key-partitioned over 4 shards, energy priced from the
//! committed calibration under `results/`.
//!
//! - Each approximate kind (threshold t=2, top-k k=8, range) sustains
//!   ≥ 100k searches/s when offered 600k/s open loop.
//! - Exact searches sustain ≥ 100k/s under a 90/8/1/1
//!   search/update/insert/delete mix offered at 1.2M/s.
//! - A closed-loop exact sweep over 1, 2 and 4 shards holds each shard
//!   count's rate at ≥ 0.7× the previous one's. Only shard counts that
//!   fit beside the client threads on this machine's cores are run:
//!   with more threads than cores the clients and dispatchers take
//!   turns on a core and the rate measures the scheduler.
//!
//! Every open-loop run samples the reference-oracle audit lane, which
//! must see no divergence and an energy error within 1e-9.
//!
//! A test binary of its own, so no other test's threads compete for the
//! cores, and the tests below take turns. Debug builds skip it; run it
//! with `cargo test --release -p ferrotcam-serve --test throughput_floor`.

use ferrotcam::{Calibration, DesignKind, PackedQuery, TernaryWord};
use ferrotcam_serve::{
    Overloaded, Rejected, Request, RequestKind, Route, ServiceConfig, ServiceMetrics, ShardedTcam,
    TcamService,
};
use rand::split_mix64;
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

const ROWS: usize = 16384;
const WIDTH: usize = 64;
/// Shard count of the open-loop runs.
const SHARDS: usize = 4;
/// The searches-per-second floor of every open-loop run.
const FLOOR_QPS: f64 = 1e5;
/// Length of each measured run.
const SECS: f64 = 0.5;
const SEED: u64 = 42;

/// Serialises the tests: each one measures a rate on every core.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn calibration() -> Calibration {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    Calibration::load(&dir, DesignKind::T15Dg)
}

/// One random 64-digit query off the SplitMix64 stream.
fn random_packed(state: &mut u64) -> PackedQuery {
    PackedQuery::from_words(WIDTH, &[split_mix64(state)])
}

/// A key-partitioned table: every stored word lives on the shard its
/// own bit pattern hashes to, so a `Route::Home` query scans only
/// `ROWS / shards` rows.
fn table(shards: usize, cal: &Calibration) -> ShardedTcam {
    let mut t = ShardedTcam::new(WIDTH, shards);
    let mut state = SEED;
    for _ in 0..ROWS {
        let q = random_packed(&mut state);
        let shard = t.route_packed(&q);
        t.store_in(shard, TernaryWord::from_bits(&q.to_bits()));
    }
    t.attach_metrics(cal.search_metrics(WIDTH));
    t
}

/// A deep queue and the default 1024-request batch, so the kernel's
/// per-query cost, not dispatch overhead, sets the rate; the audit lane
/// replays one request in 500.
fn config() -> ServiceConfig {
    ServiceConfig {
        audit_period: 500,
        queue_capacity: 16 * 1024,
        max_batch: 0,
        ..ServiceConfig::default()
    }
}

/// Offer `offered_qps` with exponential inter-arrivals for `SECS`,
/// sending each `next` request fire-and-forget (searches as tenant 0,
/// writes as tenant 1) and never waiting for a response; `accepted`
/// sees the kind of every request the service took. Returns the
/// elapsed time including the drain, so every completed request ran
/// inside it, and the drained metrics.
fn drive_open(
    svc: TcamService,
    offered_qps: f64,
    mut state: u64,
    mut next: impl FnMut(&mut u64) -> Request,
    mut accepted: impl FnMut(RequestKind),
) -> (f64, ServiceMetrics) {
    let client = svc.client();
    let started = Instant::now();
    let horizon = Duration::from_secs_f64(SECS);
    let mut next_arrival = 0.0f64; // seconds since start
    while started.elapsed() < horizon {
        while next_arrival <= started.elapsed().as_secs_f64() {
            // -ln(U)/λ with U ∈ (0, 1].
            let u = (split_mix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            next_arrival += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / offered_qps;
            let req = next(&mut state);
            let kind = req.kind();
            match client.send(u32::from(kind.is_write()), req) {
                Ok(()) => accepted(kind),
                Err(Rejected::Overloaded(Overloaded::QueueFull)) => {} // counted by the service
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let metrics = svc.drain();
    (started.elapsed().as_secs_f64(), metrics)
}

/// The audit lane sampled requests of the run and every replay agreed
/// with the kernel on matches and on energy.
fn assert_audit_clean(run: &str, m: &ServiceMetrics) {
    assert!(m.audit_sampled > 0, "{run}: audit lane sampled nothing");
    assert_eq!(
        (m.audit_match_divergences, m.audit_energy_divergences),
        (0, 0),
        "{run}: audit lane diverged (match, energy)"
    );
    assert!(
        m.audit_worst_energy_rel <= 1e-9,
        "{run}: audit energy error {:.3e} beyond 1e-9",
        m.audit_worst_energy_rel
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "measures release-build throughput")]
fn approx_kinds_sustain_the_floor_open_loop() {
    let _serial = serial();
    let cal = calibration();
    for kind in [
        RequestKind::Threshold { t: 2 },
        RequestKind::TopK { k: 8 },
        RequestKind::Range,
    ] {
        let svc = TcamService::start(table(SHARDS, &cal), &config());
        let search = |s: &mut u64| Request::search(kind, random_packed(s), Route::Home);
        let (elapsed, m) = drive_open(svc, 6e5, SEED ^ 0xDEAD_BEEF, search, |_| {});
        let qps = m.completed as f64 / elapsed;
        eprintln!(
            "{kind:?}: {qps:.0} searches/s, audit {} sampled",
            m.audit_sampled
        );
        assert!(
            qps >= FLOOR_QPS,
            "{kind:?}: sustained {qps:.0} searches/s, below the {FLOOR_QPS:.0} floor"
        );
        assert_audit_clean(&format!("{kind:?}"), &m);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "measures release-build throughput")]
fn searches_sustain_the_floor_under_write_churn() {
    let _serial = serial();
    let cal = calibration();
    let mut t = table(SHARDS, &cal);
    t.attach_write_metrics(cal.write_metrics(WIDTH));
    let svc = TcamService::start(t, &config());
    // Writes address rows by a locally tracked table size; a stale index
    // past the end is an `OutOfRange` no-op ack, as a racing client's.
    let rows = Cell::new(ROWS);
    let mix = |s: &mut u64| {
        let row = |s: &mut u64| split_mix64(s) as usize % rows.get().max(1);
        let word = |s: &mut u64| TernaryWord::from_bits(&random_packed(s).to_bits());
        match split_mix64(s) % 100 {
            0..90 => Request::search(RequestKind::Exact, random_packed(s), Route::Home),
            90..98 => Request::update(row(s), word(s)),
            98 => Request::insert(word(s)),
            _ => Request::delete(row(s)),
        }
    };
    let track = |kind| match kind {
        RequestKind::Insert => rows.set(rows.get() + 1),
        RequestKind::Delete { .. } => rows.set(rows.get().saturating_sub(1).max(1)),
        _ => {}
    };
    let (elapsed, m) = drive_open(svc, 1.2e6, SEED ^ 0x3317_ED00, mix, track);
    let done = &m.completed_by_kind;
    let qps = done.exact as f64 / elapsed;
    let writes = done.insert + done.update + done.delete;
    eprintln!(
        "mixed: {qps:.0} searches/s + {writes} writes, audit {} sampled",
        m.audit_sampled
    );
    assert!(writes > 0, "no write completed");
    assert!(
        qps >= FLOOR_QPS,
        "mixed: sustained {qps:.0} searches/s under writes, below the {FLOOR_QPS:.0} floor"
    );
    assert_audit_clean("mixed", &m);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "measures release-build throughput")]
fn closed_loop_rate_holds_across_the_shard_sweep() {
    const CLIENTS: usize = 2;
    let _serial = serial();
    let cal = calibration();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut swept: Vec<(usize, f64)> = Vec::new();
    for shards in [1, 2, 4] {
        if shards + CLIENTS > cores {
            eprintln!(
                "shards={shards}: skipped, {shards} + {CLIENTS} client threads > {cores} cores"
            );
            continue;
        }
        let svc = TcamService::start(table(shards, &cal), &config());
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(SECS);
        let done: u64 = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let client = svc.client();
                    let mut state = SEED ^ (0x9E37 + c as u64);
                    scope.spawn(move || {
                        let mut done = 0u64;
                        while Instant::now() < deadline {
                            let req = Request::search(
                                RequestKind::Exact,
                                random_packed(&mut state),
                                Route::Home,
                            );
                            match client.submit(c as u32, req) {
                                Ok(ticket) => {
                                    ticket.wait().expect("no deadline configured");
                                    done += 1;
                                }
                                Err(_) => std::thread::yield_now(),
                            }
                        }
                        done
                    })
                })
                .collect();
            clients.into_iter().map(|h| h.join().expect("client")).sum()
        });
        let qps = done as f64 / started.elapsed().as_secs_f64();
        assert_eq!(svc.drain().completed, done, "every answered search counted");
        eprintln!("shards={shards}: {qps:.0} searches/s closed loop");
        if let Some(&(prev_shards, prev)) = swept.last() {
            assert!(
                qps >= 0.7 * prev,
                "shards={shards}: {qps:.0}/s fell below 0.7x shards={prev_shards}'s {prev:.0}/s"
            );
        }
        swept.push((shards, qps));
    }
}
