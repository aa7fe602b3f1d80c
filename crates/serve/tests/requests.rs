//! Request validation: a malformed request is refused with
//! `Rejected::Invalid` before admission — never a panic in the caller
//! or a dispatcher — and every accepted request resolves across a
//! drain. The ticket contract: `try_wait` polls without blocking and
//! yields an answer exactly once, `wait` works from any thread, and a
//! deadline-shed ticket resolves to `None`. And the caller-run rule: a
//! pinned `submit` whose ring is empty is answered on the submitting
//! thread, and nothing else is.

use ferrotcam::{PackedQuery, TernaryWord};
use ferrotcam_serve::{
    Invalid, Rejected, Request, RequestKind, Route, ServiceConfig, ShardedTcam, TcamService, Ticket,
};
use proptest::prelude::*;
use rand::split_mix64;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

fn table(width: usize, shards: usize, rows: u64) -> ShardedTcam {
    let mut t = ShardedTcam::new(width, shards);
    let mut seed = 0x7ab1_e000 ^ rows;
    for _ in 0..rows {
        t.store(TernaryWord::from_bits(&random_bits(&mut seed, width)));
    }
    t
}

fn random_bits(seed: &mut u64, width: usize) -> Vec<bool> {
    (0..width).map(|_| split_mix64(seed) & 1 == 1).collect()
}

/// Run `body` on its own thread and fail unless it finishes within
/// `limit`. A dispatcher that never quiesces hangs `drain()` — or the
/// service's `Drop` while a failed assertion unwinds — so this turns a
/// hang into a test failure.
fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Err(RecvTimeoutError::Timeout) => panic!("service did not drain within {limit:?}"),
        // Finished, or panicked and unwound: join to re-raise a panic.
        _ => {
            if let Err(panic) = worker.join() {
                resume_unwind(panic);
            }
        }
    }
}

/// A write kind submitted as a search is refused in the caller. It
/// used to be admitted and panic a dispatcher, so its ticket resolved
/// to `None` and `drain()` never returned.
#[test]
fn write_kind_as_search_is_invalid_and_drain_returns() {
    within(Duration::from_secs(30), || {
        let svc = TcamService::start(table(8, 2, 16), &ServiceConfig::default());
        let client = svc.client();
        let q = PackedQuery::from_bits(&[false; 8]);
        for kind in [RequestKind::Insert, RequestKind::Update { row: 0 }] {
            let req = Request::search(kind, q.clone(), Route::FanOut);
            assert_eq!(
                client.submit(0, req).unwrap_err(),
                Rejected::Invalid(Invalid::NotASearch(kind)),
            );
        }
        let shim = catch_unwind(AssertUnwindSafe(|| {
            client.submit_kind(0, q.clone(), RequestKind::Insert, None)
        }));
        assert!(shim.is_err(), "submit_kind panics in the caller on Invalid");
        let m = svc.drain();
        assert_eq!(m.submitted, 0, "invalid requests are never admitted");
        assert_eq!(m.completed, 0);
    });
}

/// One generated request: the kind index (0..7), a width draw, a route
/// draw and a payload seed. The widths and shards are reduced against
/// the table inside the property, so they span 0..=2x its shape.
type Spec = (usize, usize, usize, u64);

/// Build the request a spec describes, and whether it breaks one of
/// the validation rules (width, shard range, even width for range, a
/// search kind for `Request::search`).
fn build(spec: Spec, width: usize, shards: usize, rows: usize) -> (Request, bool) {
    let (kind_ix, width_draw, route_draw, mut seed) = spec;
    let w = width_draw % (2 * width + 1);
    let bits = random_bits(&mut seed, w);
    let route = match route_draw % 3 {
        0 => Route::Home,
        1 => Route::FanOut,
        _ => Route::Shard((split_mix64(&mut seed) as usize) % (2 * shards + 1)),
    };
    let row = (split_mix64(&mut seed) as usize) % (2 * rows + 1);
    let param = split_mix64(&mut seed);
    let kind = match kind_ix {
        0 => RequestKind::Exact,
        1 => RequestKind::Threshold {
            t: (param % (2 * width as u64 + 2)) as u32,
        },
        // Small k around the row count, or a huge one that must not
        // size anything.
        2 => RequestKind::TopK {
            k: if param & 2 == 0 {
                (param % (2 * rows as u64 + 2)) as usize
            } else {
                usize::MAX >> (param % 32)
            },
        },
        3 => RequestKind::Range,
        4 => RequestKind::Insert,
        5 => RequestKind::Delete { row },
        _ => RequestKind::Update { row },
    };
    let bad_width = w != width;
    let bad_shard = matches!(route, Route::Shard(s) if s >= shards);
    // Write kinds alternate between their own constructor and a
    // (malformed) search carrying them.
    let as_search = !kind.is_write() || param & 1 == 1;
    if as_search {
        let bad = kind.is_write()
            || bad_width
            || bad_shard
            || (kind == RequestKind::Range && width % 2 == 1);
        return (
            Request::search(kind, PackedQuery::from_bits(&bits), route),
            bad,
        );
    }
    let word = TernaryWord::from_bits(&bits);
    match kind {
        RequestKind::Insert => (Request::insert(word), bad_width),
        RequestKind::Update { row } => (Request::update(row, word), bad_width),
        _ => (Request::delete(row), false),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random requests of every kind, width and route: nothing panics,
    /// `submit` returns `Invalid` exactly when a rule is broken, and
    /// every accepted request resolves after `drain()`.
    fn submit_is_invalid_exactly_when_a_rule_breaks(
        width in 5usize..=10,
        shards in 1usize..=3,
        rows in 0usize..=24,
        specs in proptest::collection::vec(
            (0usize..7, any::<usize>(), any::<usize>(), any::<u64>()),
            1..24,
        ),
    ) {
        within(Duration::from_secs(30), move || {
            let table = table(width, shards, rows as u64);
            let svc = TcamService::start(table, &ServiceConfig::default());
            let client = svc.client();
            let mut tickets = Vec::new();
            for spec in specs {
                let (req, bad) = build(spec, width, shards, rows);
                let kind = req.kind();
                match client.submit(0, req) {
                    Ok(ticket) => {
                        assert!(!bad, "{kind} accepted despite a broken rule: {spec:?}");
                        tickets.push((kind, ticket));
                    }
                    Err(Rejected::Invalid(e)) => {
                        assert!(bad, "{kind} refused as {e} with no rule broken: {spec:?}");
                    }
                    Err(e) => panic!("unexpected shed on an idle service: {e}"),
                }
            }
            let accepted = tickets.len() as u64;
            let m = svc.drain();
            assert_eq!(m.submitted, accepted);
            assert_eq!(m.completed, accepted);
            for (kind, ticket) in tickets {
                let resp = ticket.wait().expect("accepted requests resolve");
                assert_eq!(resp.kind, kind);
            }
        });
    }
}

/// A client may hand its ticket to another thread.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Ticket>();
};

/// The 16-bit query for `v`, most significant bit first.
fn query16(v: u64) -> PackedQuery {
    let bits: Vec<bool> = (0..16).rev().map(|b| (v >> b) & 1 == 1).collect();
    PackedQuery::from_bits(&bits)
}

/// A `kind` search for `v` over a table of `from_u64(i, 16)` words.
fn search16(kind: RequestKind, v: u64, route: Route) -> Request {
    Request::search(kind, query16(v), route)
}

/// A fan-out exact search for `v`.
fn exact16(v: u64) -> Request {
    search16(RequestKind::Exact, v, Route::FanOut)
}

fn counting_table(rows: u64) -> ShardedTcam {
    let mut t = ShardedTcam::new(16, 1);
    for i in 0..rows {
        t.store(TernaryWord::from_u64(i, 16));
    }
    t
}

/// `try_wait` reads `None` while the request is pending, the answer
/// once, then `None` again, and a later `wait` returns `None`. One
/// shard means one dispatcher, which answers in submission order, so a
/// ticket submitted after one that is still unanswered was pending
/// when it was polled. Eight top-k scans ahead of it keep that window
/// open for a while even when the dispatcher preempts the client.
#[test]
fn try_wait_is_none_while_pending_then_some_exactly_once() {
    within(Duration::from_secs(60), || {
        let svc = TcamService::start(counting_table(16_384), &ServiceConfig::default());
        let client = svc.client();
        let heavy = || {
            let q = PackedQuery::from_bits(&[false; 16]);
            Request::search(RequestKind::TopK { k: 8 }, q, Route::FanOut)
        };
        let mut saw_pending = false;
        for _ in 0..100 {
            let ahead: Vec<Ticket> = (0..8).map(|_| client.submit(0, heavy()).unwrap()).collect();
            let probe = client.submit(0, exact16(77)).unwrap();
            let polled = probe.try_wait();
            let last_ahead = ahead[7].try_wait();
            if last_ahead.is_none() {
                assert!(polled.is_none(), "answered behind an unanswered request");
                saw_pending = true;
            }
            let mut answer = polled;
            while answer.is_none() {
                answer = probe.try_wait();
                std::thread::yield_now();
            }
            assert_eq!(answer.expect("answered").matches, vec![77]);
            assert!(probe.try_wait().is_none(), "an answer is taken once");
            assert!(probe.try_wait().is_none());
            assert!(probe.wait().is_none(), "a taken answer waits to None");
            let (rest, last) = ahead.split_at(7);
            assert!(last_ahead.or_else(|| last[0].try_wait()).is_some());
            assert!(rest.iter().all(|t| t.try_wait().is_some()));
            if saw_pending {
                break;
            }
        }
        assert!(saw_pending, "no poll ever caught a request pending");
        let m = svc.drain();
        assert_eq!(m.completed, m.submitted);
    });
}

/// A ticket waited on by a thread other than the submitter's resolves
/// there.
#[test]
fn wait_resolves_on_another_thread() {
    within(Duration::from_secs(30), || {
        let svc = TcamService::start(counting_table(64), &ServiceConfig::default());
        let client = svc.client();
        let waiters: Vec<_> = (0..8u64)
            .map(|v| {
                let ticket = client.submit(0, exact16(v)).unwrap();
                std::thread::spawn(move || (v, ticket.wait()))
            })
            .collect();
        for w in waiters {
            let (v, resp) = w.join().unwrap();
            let usize_v = usize::try_from(v).unwrap();
            assert_eq!(resp.expect("answered").matches, vec![usize_v]);
        }
        let _ = svc.drain();
    });
}

/// A deadline-shed query's ticket polls `None` and then waits to
/// `None`: the shed closes the ticket instead of leaving it hanging.
#[test]
fn deadline_shed_ticket_polls_then_waits_to_none() {
    within(Duration::from_secs(30), || {
        let config = ServiceConfig {
            deadline: Some(Duration::ZERO),
            ..ServiceConfig::default()
        };
        let svc = TcamService::start(counting_table(64), &config);
        let client = svc.client();
        let ticket = client.submit(0, exact16(5)).unwrap();
        assert!(ticket.try_wait().is_none());
        assert!(ticket.wait().is_none(), "a shed query has no answer");
        let m = svc.drain();
        assert_eq!(m.submitted, 1);
        assert_eq!(m.shed_deadline, 1);
        assert_eq!(m.completed, 0, "a shed query delivers no response");
    });
}

/// On an idle service a pinned `submit` of any search kind is answered
/// before `submit` returns: the first `try_wait` holds the answer, and
/// `caller_runs` counts it as well as `submitted`.
#[test]
fn a_pinned_submit_on_an_idle_service_runs_on_the_caller() {
    within(Duration::from_secs(30), || {
        let svc = TcamService::start(counting_table(64), &ServiceConfig::default());
        let client = svc.client();
        let kinds = [
            RequestKind::Exact,
            RequestKind::Threshold { t: 1 },
            RequestKind::TopK { k: 2 },
            RequestKind::Range,
        ];
        let mut runs = 0;
        for route in [Route::Home, Route::Shard(0)] {
            for kind in kinds {
                let ticket = client.submit(0, search16(kind, 9, route)).unwrap();
                let resp = ticket.try_wait().expect("answered before submit returned");
                assert_eq!(resp.kind, kind);
                assert_eq!(resp.rows_searched, 64);
                runs += 1;
                assert_eq!(client.metrics().caller_runs, runs, "{kind} on {route:?}");
            }
        }
        let exact = client.submit(0, search16(RequestKind::Exact, 9, Route::Home));
        assert_eq!(
            exact.unwrap().try_wait().expect("answered").matches,
            vec![9]
        );
        let m = svc.drain();
        assert_eq!(m.caller_runs, runs + 1);
        assert_eq!(m.submitted, runs + 1, "a caller-run is a submission");
        assert_eq!(m.completed, m.submitted);
    });
}

/// Fan-outs, writes and fire-and-forget `send`s always take the queue,
/// even on an idle service.
#[test]
fn fan_outs_writes_and_sends_never_run_on_the_caller() {
    within(Duration::from_secs(30), || {
        let svc = TcamService::start(counting_table(64), &ServiceConfig::default());
        let client = svc.client();
        // The sends first, while the ring is surely empty.
        for kind in [RequestKind::Exact, RequestKind::TopK { k: 1 }] {
            client.send(0, search16(kind, 5, Route::Home)).unwrap();
        }
        let mut tickets = vec![
            client.submit(0, exact16(3)).unwrap(),
            client
                .submit(0, Request::insert(TernaryWord::from_u64(0xBEEF, 16)))
                .unwrap(),
            client
                .submit(0, Request::update(1, TernaryWord::from_u64(0xCAFE, 16)))
                .unwrap(),
            client.submit(0, Request::delete(2)).unwrap(),
        ];
        for t in tickets.drain(..) {
            assert!(t.wait().is_some(), "every ticket answers");
        }
        let m = svc.drain();
        assert_eq!(m.caller_runs, 0);
        assert_eq!(m.submitted, 6);
        assert_eq!(m.completed, m.submitted);
    });
}

/// A pinned read submitted while a write sits queued on its ring takes
/// the queue too, so it answers after the write and sees it. One shard
/// means one dispatcher, and `max_batch: 1` makes it pop one job at a
/// time in ring order, so while the top-k scan queued just ahead of the
/// write is unanswered, the write is still in the ring.
#[test]
fn a_pinned_read_behind_a_queued_write_takes_the_queue() {
    within(Duration::from_secs(60), || {
        let config = ServiceConfig {
            max_batch: 1,
            ..ServiceConfig::default()
        };
        let svc = TcamService::start(counting_table(16_384), &config);
        let client = svc.client();
        let heavy = || {
            let q = PackedQuery::from_bits(&[false; 16]);
            Request::search(RequestKind::TopK { k: 8 }, q, Route::FanOut)
        };
        let mut caught = false;
        for round in 0..100u64 {
            let word = 0xA000 + round;
            let ahead: Vec<Ticket> = (0..8).map(|_| client.submit(0, heavy()).unwrap()).collect();
            let update = Request::update(0, TernaryWord::from_u64(word, 16));
            let write = client.submit(0, update).unwrap();
            let before = client.metrics().caller_runs;
            let read = client
                .submit(0, search16(RequestKind::Exact, word, Route::Shard(0)))
                .unwrap();
            let last_ahead = ahead[7].try_wait();
            if last_ahead.is_none() {
                caught = true;
                assert_eq!(
                    client.metrics().caller_runs,
                    before,
                    "ran past a queued write"
                );
                assert_eq!(read.wait().expect("answered").matches, vec![0]);
            } else {
                let _ = read.wait();
            }
            assert!(write.wait().is_some());
            for t in &ahead[..7] {
                let _ = t.try_wait();
            }
            if caught {
                break;
            }
        }
        assert!(caught, "no read was ever submitted behind a queued write");
        let m = svc.drain();
        assert_eq!(m.completed, m.submitted);
    });
}

/// The audit lane samples caller-runs: at period 1 every pinned read
/// answered on the caller is replayed through the oracle, cleanly.
#[test]
fn the_audit_lane_samples_caller_runs() {
    within(Duration::from_secs(30), || {
        let config = ServiceConfig {
            audit_period: 1,
            ..ServiceConfig::default()
        };
        let mut t = ShardedTcam::new(16, 2);
        for v in 0..64u64 {
            let home = t.route_packed(&query16(v));
            t.store_in(home, TernaryWord::from_u64(v, 16));
        }
        let svc = TcamService::start(t, &config);
        let client = svc.client();
        for v in 0..32u64 {
            let kind = [RequestKind::Exact, RequestKind::Threshold { t: 2 }][(v % 2) as usize];
            let resp = client
                .submit(0, search16(kind, v, Route::Home))
                .unwrap()
                .wait();
            assert!(resp.is_some());
        }
        let m = svc.drain();
        assert!(m.caller_runs > 0, "idle rings: reads run on the caller");
        assert_eq!(m.audit_sampled, 32, "period 1 replays every answer");
        assert_eq!(m.audit_match_divergences, 0);
        assert_eq!(m.audit_energy_divergences, 0);
        assert_eq!(m.completed, m.submitted);
    });
}
