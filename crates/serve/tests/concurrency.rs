//! Serve-layer integration tests: concurrent submission integrity,
//! overload shedding, and energy-true accounting against `core::fom`.

use ferrotcam::fom::SearchMetrics;
use ferrotcam::{program_duration, DesignKind, PackedQuery, RowWriteMetrics, TernaryWord};
use ferrotcam_serve::{
    AdmissionClass, Overloaded, RatePolicy, Rejected, Request, RequestKind, Route, ServiceConfig,
    ShardedTcam, TcamService,
};
use std::sync::Arc;
use std::time::Duration;

fn bits(v: u64, width: usize) -> Vec<bool> {
    (0..width).rev().map(|b| (v >> b) & 1 == 1).collect()
}

/// A fan-out exact search for the 16-digit key `v`.
fn exact(v: u64) -> Request {
    let query = PackedQuery::from_bits(&bits(v, 16));
    Request::search(RequestKind::Exact, query, Route::FanOut)
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
                            .submit(p as u32, exact(key))
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

/// Submit `req` as a `send` (which always queues) unless `ticketed`,
/// and as a `submit` (which queues behind work on any ring, or runs on
/// the caller when every ring is empty) if it is. Ok carries the
/// ticket of a `submit`.
fn offer(
    client: &ferrotcam_serve::ServiceClient,
    req: Request,
    ticketed: bool,
) -> Result<Option<ferrotcam_serve::Ticket>, Rejected> {
    if ticketed {
        client.submit(0, req).map(Some)
    } else {
        client.send(0, req).map(|()| None)
    }
}

/// Offered load beyond capacity is shed with typed errors; the queue
/// never grows beyond its bound and the service never panics. The
/// burst is mostly `send`s, so it reaches the dispatchers even though
/// an idle fan-out `submit` would run on this thread; every eighth
/// request is a `submit` whose ticket must resolve.
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
    // the dispatchers chew 512-row fan-out scans.
    for i in 0..2000u64 {
        match offer(&client, exact(i & 0xFFFF), i % 8 == 7) {
            Ok(t) => {
                accepted += 1;
                tickets.extend(t);
            }
            Err(Rejected::Overloaded(Overloaded::QueueFull)) => shed += 1,
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
    assert!(
        m.batch.batches > m.caller_runs,
        "the dispatchers ran batches: {m:?}"
    );
    for t in tickets {
        assert!(t.wait().is_some(), "no deadline: every ticket answers");
    }
}

/// A parked service still sheds and drains. Both dispatchers park
/// before each burst; 4 client threads then burst into 2-slot rings
/// (`queue_capacity: 4` over 2 shards) faster than the woken
/// dispatchers scan 512 rows per query. The bursts are `send`s with a
/// `submit` every eighth request, as in
/// `overload_sheds_and_queue_stays_bounded`. A full ring sheds a typed
/// `QueueFull` that the metrics count, every accepted ticket resolves,
/// the dispatchers run batches, and the drain returns with exactly the
/// accepted requests completed.
#[test]
fn parked_service_sheds_and_drains() {
    const CLIENTS: u64 = 4;
    const BURST: u64 = 64;
    let cfg = ServiceConfig {
        queue_capacity: 4,
        ..ServiceConfig::default()
    };
    let svc = TcamService::start(table(512, 2), &cfg);
    let (mut accepted, mut shed) = (0u64, 0u64);
    // A burst that never overflows (the dispatchers outran every
    // client) proves nothing, so burst again, up to a bound.
    for _round in 0..50 {
        // Let both dispatchers finish the last burst and park.
        std::thread::sleep(Duration::from_millis(5));
        let bursts: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = svc.client();
                std::thread::spawn(move || {
                    let (mut tickets, mut accepted, mut shed) = (Vec::new(), 0u64, 0u64);
                    for i in 0..BURST {
                        match offer(&client, exact((c * BURST + i) & 0xFFFF), i % 8 == 7) {
                            Ok(t) => {
                                accepted += 1;
                                tickets.extend(t);
                            }
                            Err(Rejected::Overloaded(Overloaded::QueueFull)) => shed += 1,
                            Err(e) => panic!("unexpected rejection: {e}"),
                        }
                    }
                    (tickets, accepted, shed)
                })
            })
            .collect();
        for burst in bursts {
            let (tickets, a, s) = burst.join().unwrap();
            shed += s;
            accepted += a;
            for t in tickets {
                assert!(t.wait().is_some(), "no deadline: every ticket answers");
            }
        }
        if shed > 0 {
            break;
        }
    }
    assert!(shed > 0, "4 bursting clients must overflow 2-slot rings");
    let m = svc.drain();
    assert_eq!(m.shed_queue_full, shed, "every QueueFull shed is counted");
    assert_eq!(m.submitted, accepted);
    assert_eq!(m.completed, accepted, "the drain answered every accept");
    assert!(
        m.dispatcher_parks > 0,
        "the dispatchers parked between bursts"
    );
    assert!(
        m.batch.batches > m.caller_runs,
        "the dispatchers ran batches: {m:?}"
    );
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
                .submit(0, exact((q * 37) & 0xFFFF))
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
    client.set_class_policy(9, AdmissionClass::Exact, RatePolicy::per_second(0.0, 4.0));

    let throttled = Arc::new(client.clone());
    let free = Arc::new(client);
    let h1 = std::thread::spawn({
        let c = Arc::clone(&throttled);
        move || {
            let mut ok = 0;
            let mut limited = 0;
            for i in 0..64u64 {
                match c.submit(9, exact(i)) {
                    Ok(t) => {
                        let _ = t.wait();
                        ok += 1;
                    }
                    Err(e) if e == Overloaded::RateLimited { tenant: 9 }.into() => limited += 1,
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
                let _ = c.submit(1, exact(i)).unwrap().wait();
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
                    .submit(0, Request::update(0, TernaryWord::from_u64(v, 16)))
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
                        .submit(p + 1, exact(0x00FF))
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
        searches.push(client.submit(0, exact(i)).unwrap());
    }
    let ack = client
        .submit(0, Request::insert(TernaryWord::from_u64(0xBEEF, 16)))
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
        .submit(0, Request::insert(TernaryWord::from_u64(0x1234, 16)))
        .unwrap()
        .wait()
        .expect("answered");
    let energy = ins.energy_j.expect("write metrics attached");
    assert!(
        (energy - wm.energy).abs() < 1e-30,
        "3-step energy: {energy:e}"
    );

    let del = client
        .submit(0, Request::delete(ins.matches[0]))
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
