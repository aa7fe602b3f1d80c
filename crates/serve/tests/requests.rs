//! Request validation: a malformed request is refused with
//! `Rejected::Invalid` before admission — never a panic in the caller
//! or a dispatcher — and every accepted request resolves across a
//! drain.

use ferrotcam::{PackedQuery, TernaryWord};
use ferrotcam_serve::{
    Invalid, Rejected, Request, RequestKind, Route, ServiceConfig, ShardedTcam, TcamService,
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
