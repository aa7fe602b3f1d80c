//! Serve-layer integration tests: concurrent submission integrity,
//! overload shedding, and energy-true accounting against `core::fom`.

use ferrotcam::fom::SearchMetrics;
use ferrotcam::{program_duration, DesignKind, RowWriteMetrics, TernaryWord};
use ferrotcam_serve::{Overloaded, RatePolicy, ServiceConfig, ShardedTcam, TcamService};
use std::sync::Arc;
use std::time::Duration;

fn bits(v: u64, width: usize) -> Vec<bool> {
    (0..width).rev().map(|b| (v >> b) & 1 == 1).collect()
}

fn metrics() -> SearchMetrics {
    // Table IV-shaped figures for the 1.5T1DG design; the exact values
    // are irrelevant to the invariants, only the accounting formula is.
    SearchMetrics {
        design: DesignKind::T15Dg,
        word_len: 16,
        latency_1step: 231e-12,
        latency_2step: Some(481e-12),
        energy_1step: 0.13e-15 * 16.0,
        energy_2step: Some(0.21e-15 * 16.0),
    }
}

fn table(rows: u64, shards: usize) -> ShardedTcam {
    let mut t = ShardedTcam::new(16, shards);
    for i in 0..rows {
        t.store(TernaryWord::from_u64(
            i.wrapping_mul(2654435761) & 0xFFFF,
            16,
        ));
    }
    t.attach_metrics(metrics());
    t
}

/// N threads submitting concurrently yield exactly N responses, each
/// correct for its own query — nothing lost, nothing duplicated.
#[test]
fn n_threads_yield_exactly_n_responses() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 64;

    let t = table(128, 4);
    let reference: Vec<TernaryWord> = (0..128u64)
        .map(|i| TernaryWord::from_u64(i.wrapping_mul(2654435761) & 0xFFFF, 16))
        .collect();
    let svc = TcamService::start(t, &ServiceConfig::default());
    let client = svc.client();

    let responses: Vec<(u64, ferrotcam_serve::SearchResponse)> = {
        let handles: Vec<_> = (0..THREADS)
            .map(|p| {
                let client = client.clone();
                std::thread::spawn(move || {
                    let mut out = Vec::with_capacity(PER_THREAD);
                    for i in 0..PER_THREAD {
                        let key = (p * PER_THREAD + i) as u64 & 0xFFFF;
                        let ticket = client
                            .submit(p as u32, bits(key, 16), None)
                            .expect("unlimited tenants, roomy queue");
                        out.push((key, ticket.wait().expect("no deadline configured")));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("no panics"))
            .collect()
    };

    assert_eq!(responses.len(), THREADS * PER_THREAD);
    // Each response matches the single-threaded reference for its query.
    let flat = {
        let mut f = ferrotcam::BehavioralTcam::new(16);
        for w in &reference {
            f.store(w.clone());
        }
        f
    };
    for (key, resp) in &responses {
        assert_eq!(
            &resp.matches,
            &flat.search_naive(&bits(*key, 16)),
            "key {key}"
        );
        assert_eq!(resp.rows_searched, 128);
    }

    let m = svc.drain();
    assert_eq!(m.submitted, (THREADS * PER_THREAD) as u64);
    assert_eq!(m.completed, (THREADS * PER_THREAD) as u64);
    assert_eq!(
        m.shed_queue_full + m.shed_rate_limited + m.shed_shutting_down,
        0
    );
    // Energy was attributed to every response.
    assert!(m.energy_total_j > 0.0);
    assert_eq!(m.wall_latency_ns.count, (THREADS * PER_THREAD) as u64);
}

/// Offered load beyond capacity is shed with typed errors; the queue
/// never grows beyond its bound and the service never panics.
#[test]
fn overload_sheds_and_queue_stays_bounded() {
    let cfg = ServiceConfig {
        queue_capacity: 16,
        max_batch: 4,
        ..ServiceConfig::default()
    };
    let svc = TcamService::start(table(512, 2), &cfg);
    let client = svc.client();

    let mut accepted = 0u64;
    let mut shed = 0u64;
    let mut tickets = Vec::new();
    // Blast far more submissions than a 16-deep queue can hold while
    // the dispatcher chews 512-row fan-out scans.
    for i in 0..2000u64 {
        match client.submit(0, bits(i & 0xFFFF, 16), None) {
            Ok(t) => {
                accepted += 1;
                tickets.push(t);
            }
            Err(Overloaded::QueueFull) => shed += 1,
            Err(e) => panic!("unexpected shed kind: {e}"),
        }
    }
    assert!(shed > 0, "a 16-deep queue must shed under a 2000-burst");
    let m = svc.drain();
    assert_eq!(m.completed, accepted);
    assert_eq!(m.shed_queue_full, shed);
    assert!(
        m.max_queue_depth <= cfg.queue_capacity,
        "queue depth {} exceeded bound {}",
        m.max_queue_depth,
        cfg.queue_capacity
    );
    for t in tickets {
        let _ = t.wait();
    }
}

/// Every response's energy equals the standalone `core::fom` figure
/// for the same query — rows × energy_avg(measured miss rate) — to
/// within 1e-9 relative.
#[test]
fn response_energy_matches_standalone_fom() {
    let m = metrics();
    for shards in [1usize, 2, 4] {
        let svc = TcamService::start(table(96, shards), &ServiceConfig::default());
        let client = svc.client();
        for q in 0..32u64 {
            let resp = client
                .submit(0, bits((q * 37) & 0xFFFF, 16), None)
                .unwrap()
                .wait()
                .expect("no deadline configured");
            let total = resp.matches.len() + resp.step1_misses + resp.step2_misses;
            assert_eq!(total, resp.rows_searched);
            let miss_rate = resp.step1_misses as f64 / total as f64;
            let standalone = total as f64 * m.energy_avg(miss_rate);
            let served = resp.energy_j.expect("metrics attached");
            let tol = 1e-9 * standalone.abs().max(1e-30);
            assert!(
                (served - standalone).abs() < tol,
                "shards={shards} q={q}: served {served:.12e} vs fom {standalone:.12e}"
            );
        }
        drop(svc);
    }
}

/// Rate limits shed per tenant without touching other tenants, and a
/// drain mid-traffic still answers everything accepted.
#[test]
fn tenant_isolation_under_concurrency() {
    let svc = TcamService::start(table(64, 2), &ServiceConfig::default());
    let client = svc.client();
    client.set_policy(9, RatePolicy::per_second(0.0, 4.0));

    let throttled = Arc::new(client.clone());
    let free = Arc::new(client);
    let h1 = std::thread::spawn({
        let c = Arc::clone(&throttled);
        move || {
            let mut ok = 0;
            let mut limited = 0;
            for i in 0..64u64 {
                match c.submit(9, bits(i, 16), None) {
                    Ok(t) => {
                        let _ = t.wait();
                        ok += 1;
                    }
                    Err(Overloaded::RateLimited { tenant: 9 }) => limited += 1,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            (ok, limited)
        }
    });
    let h2 = std::thread::spawn({
        let c = Arc::clone(&free);
        move || {
            for i in 0..64u64 {
                let _ = c.submit(1, bits(i, 16), None).unwrap().wait();
            }
        }
    });
    let (ok, limited) = h1.join().unwrap();
    h2.join().unwrap();
    assert_eq!(ok, 4, "burst of 4, zero refill");
    assert_eq!(limited, 60);
    let m = svc.drain();
    assert_eq!(m.completed, 64 + 4);
    assert_eq!(m.shed_rate_limited, 60);
}

/// The torn-word detector: one writer flips row 0 between all-zeros and
/// all-ones while searchers probe the half-and-half pattern 0x00FF. A
/// snapshot-consistent table can only ever hold one of the two extremes,
/// so the torn pattern must never match — a single hit would mean a
/// search observed a row mid-program. The sampled audit lane replays
/// against the same captured snapshot and must stay divergence-free.
#[test]
fn concurrent_writes_never_expose_a_torn_word() {
    const FLIPS: usize = 400;
    const PROBES: usize = 400;

    let mut t = ShardedTcam::new(16, 1);
    t.store(TernaryWord::from_u64(0, 16));
    t.attach_metrics(metrics());
    let cfg = ServiceConfig {
        audit_period: 4,
        ..ServiceConfig::default()
    };
    let svc = TcamService::start(t, &cfg);
    let client = svc.client();

    let writer = std::thread::spawn({
        let c = client.clone();
        move || {
            for i in 0..FLIPS {
                let v = if i % 2 == 0 { 0xFFFFu64 } else { 0 };
                let ack = c
                    .submit_update(0, 0, TernaryWord::from_u64(v, 16))
                    .expect("unlimited write policy")
                    .wait()
                    .expect("writes are never deadline-shed");
                assert_eq!(ack.matches, vec![0], "update acks the addressed row");
            }
        }
    });
    let searchers: Vec<_> = (0..2)
        .map(|p| {
            let c = client.clone();
            std::thread::spawn(move || {
                for _ in 0..PROBES {
                    let resp = c
                        .submit(p + 1, bits(0x00FF, 16), None)
                        .expect("roomy queue")
                        .wait()
                        .expect("no deadline configured");
                    assert!(
                        resp.matches.is_empty(),
                        "torn word observed: half-zeros/half-ones probe matched {:?}",
                        resp.matches
                    );
                    assert_eq!(resp.rows_searched, 1);
                }
            })
        })
        .collect();
    writer.join().expect("writer");
    for s in searchers {
        s.join().expect("searcher");
    }

    let m = svc.drain();
    assert_eq!(m.completed, (FLIPS + 2 * PROBES) as u64);
    assert!(m.audit_sampled > 0, "audit lane sampled under writes");
    assert_eq!(
        m.audit_match_divergences, 0,
        "audit replays agree on the snapshot"
    );
    assert_eq!(m.audit_energy_divergences, 0);
}

/// With an already-expired deadline every *search* is shed at dispatch
/// (its ticket resolves `None`) while writes — which are never
/// deadline-shed — still land and still answer.
#[test]
fn expired_deadline_sheds_searches_but_never_writes() {
    let cfg = ServiceConfig {
        deadline: Some(Duration::ZERO),
        ..ServiceConfig::default()
    };
    let svc = TcamService::start(table(64, 2), &cfg);
    let client = svc.client();

    let mut searches = Vec::new();
    for i in 0..32u64 {
        searches.push(client.submit(0, bits(i, 16), None).unwrap());
    }
    let ack = client
        .submit_insert(0, TernaryWord::from_u64(0xBEEF, 16))
        .unwrap()
        .wait()
        .expect("writes bypass the deadline");
    assert_eq!(ack.matches.len(), 1, "insert acks the assigned slot");

    let mut shed = 0u64;
    for t in searches {
        if t.wait().is_none() {
            shed += 1;
        }
    }
    assert_eq!(shed, 32, "a zero deadline has always expired at dispatch");

    let m = svc.drain();
    assert_eq!(m.shed_deadline, 32);
    assert_eq!(m.completed, 1, "only the write completed");
}

/// Write responses are priced by the calibrated 3-step program: energy
/// is `energy_per_cell x width` and the modelled latency is the fixed
/// program schedule, independent of table size or shard count.
#[test]
fn write_responses_price_the_three_step_program() {
    let wm = RowWriteMetrics {
        design: DesignKind::T15Dg,
        word_len: 16,
        energy_per_cell: 0.3816e-15,
        energy: 0.3816e-15 * 16.0,
        latency: program_duration(),
    };
    let mut t = table(32, 2);
    t.attach_write_metrics(wm);
    let svc = TcamService::start(t, &ServiceConfig::default());
    let client = svc.client();

    let ins = client
        .submit_insert(0, TernaryWord::from_u64(0x1234, 16))
        .unwrap()
        .wait()
        .expect("answered");
    let energy = ins.energy_j.expect("write metrics attached");
    assert!(
        (energy - wm.energy).abs() < 1e-30,
        "3-step energy: {energy:e}"
    );

    let del = client
        .submit_delete(0, ins.matches[0])
        .unwrap()
        .wait()
        .expect("answered");
    assert_eq!(del.matches, vec![ins.matches[0]]);
    assert_eq!(del.energy_j, Some(wm.energy));

    let m = svc.drain();
    assert_eq!(m.completed, 2);
    let writes = (m.energy_total_j - 2.0 * wm.energy).abs();
    assert!(
        writes < 1e-28,
        "drained energy is the two programs: {writes:e}"
    );
}
