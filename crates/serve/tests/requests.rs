//! Request validation: a malformed request is refused with
//! `Rejected::Invalid` before admission — never a panic in the caller
//! or a dispatcher — and every accepted request resolves across a
//! drain. The ticket contract: `try_wait` polls without blocking and
//! yields an answer exactly once, `wait` works from any thread, and a
//! deadline-shed ticket resolves to `None`. And the caller-run rule: a
//! `submit`ted search that finds every ring it would wait behind empty
//! (its own shard's when pinned, all of them when it fans out) is
//! answered on the submitting thread, and nothing else is.

use ferrotcam::{PackedQuery, TernaryWord};
use ferrotcam_serve::{
    reference_search, Invalid, Rejected, Request, RequestKind, Route, ServiceClient, ServiceConfig,
    ShardedTcam, TcamService, Ticket,
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

/// A top-k scan of a 16 384-row table: long enough to keep a
/// dispatcher busy while the client submits behind it.
fn heavy() -> Request {
    let q = PackedQuery::from_bits(&[false; 16]);
    Request::search(RequestKind::TopK { k: 8 }, q, Route::FanOut)
}

/// Poll the metrics until `completed` reaches `n`: every request
/// offered so far has been answered and no ring holds work.
fn settle(client: &ServiceClient, n: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.metrics().completed < n {
        assert!(
            std::time::Instant::now() < deadline,
            "{n} requests never completed"
        );
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// `try_wait` reads `None` while the request is pending, the answer
/// once, then `None` again, and a later `wait` returns `None`. One
/// shard means one dispatcher, which answers what it pops in ring
/// order, so a queued ticket submitted after one that is still
/// unanswered was pending when it was polled. Eight top-k scans sent
/// ahead (a `send` always queues) keep the ring busy, so the eight
/// ticketed scans and the probe behind them queue too, and keep the
/// window open for a while even when the dispatcher preempts the
/// client. A probe that still found the ring empty ran on the caller
/// (`caller_runs` moved) and is not held to the order.
#[test]
fn try_wait_is_none_while_pending_then_some_exactly_once() {
    within(Duration::from_secs(60), || {
        let svc = TcamService::start(counting_table(16_384), &ServiceConfig::default());
        let client = svc.client();
        let mut saw_pending = false;
        for _ in 0..100 {
            for _ in 0..8 {
                client.send(0, heavy()).unwrap();
            }
            let ahead: Vec<Ticket> = (0..8).map(|_| client.submit(0, heavy()).unwrap()).collect();
            let before = client.metrics().caller_runs;
            let probe = client.submit(0, exact16(77)).unwrap();
            let polled = probe.try_wait();
            let last_ahead = ahead[7].try_wait();
            let queued = client.metrics().caller_runs == before;
            if last_ahead.is_none() && queued {
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
            if queued {
                // Answered in ring order: all that was ahead is answered.
                let (rest, last) = ahead.split_at(7);
                assert!(last_ahead.or_else(|| last[0].try_wait()).is_some());
                assert!(rest.iter().all(|t| t.try_wait().is_some()));
            }
            if saw_pending {
                break;
            }
        }
        assert!(saw_pending, "no poll ever caught a request pending");
        let m = svc.drain();
        assert_eq!(m.completed, m.submitted);
        assert!(
            m.batch.batches > m.caller_runs,
            "the dispatcher ran batches"
        );
    });
}

/// A ticket waited on by a thread other than the submitter's resolves
/// there, including one still pending when that thread got it. Four
/// top-k scans sent ahead (a `send` always queues) keep the one ring
/// busy, so the eight tickets queue behind them; each waiter reports
/// whether its first `try_wait` found the answer missing, and rounds
/// repeat until one did, so `wait` really blocked on the other thread.
#[test]
fn wait_resolves_on_another_thread() {
    within(Duration::from_secs(60), || {
        let svc = TcamService::start(counting_table(16_384), &ServiceConfig::default());
        let client = svc.client();
        let mut saw_pending = false;
        for _ in 0..100 {
            for _ in 0..4 {
                client.send(0, heavy()).unwrap();
            }
            let waiters: Vec<_> = (0..8u64)
                .map(|v| {
                    let ticket = client.submit(0, exact16(v)).unwrap();
                    std::thread::spawn(move || match ticket.try_wait() {
                        Some(resp) => (v, false, Some(resp)),
                        None => (v, true, ticket.wait()),
                    })
                })
                .collect();
            for w in waiters {
                let (v, pending, resp) = w.join().unwrap();
                let usize_v = usize::try_from(v).unwrap();
                assert_eq!(resp.expect("answered").matches, vec![usize_v]);
                saw_pending |= pending;
            }
            if saw_pending {
                break;
            }
        }
        assert!(saw_pending, "no waiter ever found its ticket pending");
        let m = svc.drain();
        assert_eq!(m.completed, m.submitted);
        assert!(
            m.batch.batches > m.caller_runs,
            "the dispatcher ran batches"
        );
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

/// On an idle service a fan-out `submit` of any search kind finds every
/// ring empty and is answered before `submit` returns: the first
/// `try_wait` holds the answer, `caller_runs` counts it as well as
/// `submitted`, no dispatcher runs a batch, and the answer is the
/// oracle's over a snapshot of the same table. At `audit_period: 1`
/// the audit lane replays every one of them, cleanly.
#[test]
fn an_idle_fan_out_submit_runs_on_the_caller_and_equals_the_oracle() {
    within(Duration::from_secs(30), || {
        let config = ServiceConfig {
            audit_period: 1,
            ..ServiceConfig::default()
        };
        let svc = TcamService::start(table(16, 3, 200), &config);
        let client = svc.client();
        let view = client.table();
        let mut seed = 0xfa40_0001;
        let mut runs = 0;
        for kind in [
            RequestKind::Exact,
            RequestKind::Threshold { t: 5 },
            RequestKind::TopK { k: 7 },
            RequestKind::Range,
        ] {
            for _ in 0..4 {
                let q = PackedQuery::from_bits(&random_bits(&mut seed, 16));
                let req = Request::search(kind, q.clone(), Route::FanOut);
                let ticket = client.submit(0, req).unwrap();
                let resp = ticket.try_wait().expect("answered before submit returned");
                runs += 1;
                assert_eq!(client.metrics().caller_runs, runs, "{kind}");
                let (want, want_hits) = reference_search(&view, kind, &q, None);
                assert_eq!(resp.kind, kind);
                assert_eq!(resp.matches, want.matches, "{kind}");
                assert_eq!(resp.hits, want_hits, "{kind}");
                assert_eq!(resp.step1_misses, want.step1_misses, "{kind}");
                assert_eq!(resp.step2_misses, want.step2_misses, "{kind}");
                assert_eq!(resp.rows_searched, 200, "a fan-out scans every shard");
            }
        }
        let m = svc.drain();
        assert_eq!(m.caller_runs, runs);
        assert_eq!(m.submitted, runs, "a caller-run is a submission");
        assert_eq!(m.completed, m.submitted);
        assert_eq!(m.batch.batches, runs, "no dispatcher ran a batch");
        assert_eq!(m.audit_sampled, runs, "period 1 replays every answer");
        assert_eq!(m.audit_match_divergences, 0);
        assert_eq!(m.audit_energy_divergences, 0);
    });
}

/// A fan-out submitted while another shard's ring holds work takes the
/// queue. Two shards and `max_batch: 1`: two top-k scans pinned to
/// shard 1 are sent, then three updates of shard-1 rows (odd rows) are
/// submitted, all onto ring 1, while ring 0 stays empty. A dispatcher
/// holds at most one popped, unanswered job, so while all three writes
/// are still unanswered after the fan-out's `submit` returned, at least
/// one of them was in ring 1 when the fan-out checked the rings.
#[test]
fn a_fan_out_while_another_ring_holds_work_takes_the_queue() {
    within(Duration::from_secs(60), || {
        let config = ServiceConfig {
            max_batch: 1,
            ..ServiceConfig::default()
        };
        let svc = TcamService::start(table(16, 2, 32_768), &config);
        let client = svc.client();
        let heavy_on_1 = || {
            let q = PackedQuery::from_bits(&[false; 16]);
            Request::search(RequestKind::TopK { k: 8 }, q, Route::Shard(1))
        };
        let mut caught = false;
        for round in 0..100u64 {
            for _ in 0..2 {
                client.send(0, heavy_on_1()).unwrap();
            }
            let writes: Vec<Ticket> = (0..3)
                .map(|i| {
                    let row = 2 * (round * 3 + i) + 1;
                    let word = TernaryWord::from_u64(row, 16);
                    let update = Request::update(usize::try_from(row).unwrap(), word);
                    client.submit(0, update).unwrap()
                })
                .collect();
            let before = client.metrics().caller_runs;
            let fan_out = client.submit(0, exact16(1)).unwrap();
            let polls: Vec<_> = writes.iter().map(Ticket::try_wait).collect();
            if polls.iter().all(Option::is_none) {
                caught = true;
                assert_eq!(
                    client.metrics().caller_runs,
                    before,
                    "a fan-out ran past work queued on another ring"
                );
            }
            assert!(fan_out.wait().is_some());
            for (write, poll) in writes.into_iter().zip(polls) {
                assert!(poll.or_else(|| write.wait()).is_some());
            }
            if caught {
                break;
            }
        }
        assert!(
            caught,
            "no fan-out was ever submitted behind three queued writes"
        );
        let m = svc.drain();
        assert_eq!(m.completed, m.submitted);
        assert!(
            m.batch.batches > m.caller_runs,
            "the dispatchers ran batches"
        );
    });
}

/// A fan-out submitted after a write on shard 1 was acknowledged sees
/// the write. The ack means a dispatcher popped the write, so every
/// ring is empty again and each fan-out runs on the caller.
#[test]
fn a_fan_out_after_a_write_ack_sees_the_write() {
    within(Duration::from_secs(30), || {
        let svc = TcamService::start(table(16, 2, 64), &ServiceConfig::default());
        let client = svc.client();
        for round in 0..16u64 {
            let row = 2 * round + 1;
            let word = 0xB000 + round;
            let update = Request::update(
                usize::try_from(row).unwrap(),
                TernaryWord::from_u64(word, 16),
            );
            assert!(client.submit(0, update).unwrap().wait().is_some());
            let resp = client.submit(0, exact16(word)).unwrap();
            let resp = resp.try_wait().expect("answered on the caller");
            assert!(
                resp.matches.contains(&usize::try_from(row).unwrap()),
                "round {round}: the fan-out missed the acknowledged write"
            );
            assert_eq!(client.metrics().caller_runs, round + 1);
        }
        let m = svc.drain();
        assert_eq!(m.completed, m.submitted);
    });
}

/// Writes and fire-and-forget `send`s, pinned or fanned out, always
/// take the queue, even on an idle service: each is offered only once
/// every earlier request has completed, so every ring is empty then,
/// and each runs as a dispatcher's batch of its own.
#[test]
fn writes_and_sends_never_run_on_the_caller() {
    within(Duration::from_secs(30), || {
        let svc = TcamService::start(counting_table(64), &ServiceConfig::default());
        let client = svc.client();
        let mut offered = 0;
        for kind in [RequestKind::Exact, RequestKind::TopK { k: 1 }] {
            for route in [Route::Home, Route::FanOut] {
                client.send(0, search16(kind, 5, route)).unwrap();
                offered += 1;
                settle(&client, offered);
            }
        }
        for write in [
            Request::insert(TernaryWord::from_u64(0xBEEF, 16)),
            Request::update(1, TernaryWord::from_u64(0xCAFE, 16)),
            Request::delete(2),
        ] {
            assert!(client.submit(0, write).unwrap().wait().is_some());
            offered += 1;
            settle(&client, offered);
        }
        let m = svc.drain();
        assert_eq!(m.caller_runs, 0);
        assert_eq!(m.submitted, 7);
        assert_eq!(m.completed, m.submitted);
        assert_eq!(m.batch.batches, 4, "one dispatcher batch per search");
    });
}

/// A pinned read submitted while a write sits queued on its ring takes
/// the queue too, so it answers after the write and sees it. One shard
/// means one dispatcher, and `max_batch: 1` makes it pop one job at a
/// time in ring order. Seven top-k scans sent ahead keep the ring busy
/// and a ticketed one queues behind them, so while that last scan is
/// unanswered, the write queued after it is still in the ring. (A last
/// scan that found the ring empty ran on the caller and is answered.)
#[test]
fn a_pinned_read_behind_a_queued_write_takes_the_queue() {
    within(Duration::from_secs(60), || {
        let config = ServiceConfig {
            max_batch: 1,
            ..ServiceConfig::default()
        };
        let svc = TcamService::start(counting_table(16_384), &config);
        let client = svc.client();
        let mut caught = false;
        for round in 0..100u64 {
            let word = 0xA000 + round;
            for _ in 0..7 {
                client.send(0, heavy()).unwrap();
            }
            let ahead = client.submit(0, heavy()).unwrap();
            let update = Request::update(0, TernaryWord::from_u64(word, 16));
            let write = client.submit(0, update).unwrap();
            let before = client.metrics().caller_runs;
            let read = client
                .submit(0, search16(RequestKind::Exact, word, Route::Shard(0)))
                .unwrap();
            let last_ahead = ahead.try_wait();
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
            if caught {
                break;
            }
        }
        assert!(caught, "no read was ever submitted behind a queued write");
        let m = svc.drain();
        assert_eq!(m.completed, m.submitted);
        assert!(
            m.batch.batches > m.caller_runs,
            "the dispatcher ran batches"
        );
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
