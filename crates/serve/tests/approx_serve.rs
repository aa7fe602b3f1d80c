//! Approximate-match serving integration: threshold / top-k / range
//! requests served end to end, per-kind accounting, sense-grounded
//! audit cleanliness, and class-split admission.

use ferrotcam::fom::SearchMetrics;
use ferrotcam::{DesignKind, PackedQuery};
use ferrotcam_serve::{
    reference_search, AdmissionClass, Overloaded, RatePolicy, RequestKind, ServiceConfig,
    ShardedTcam, TcamService,
};
use rand::split_mix64;

const WIDTH: usize = 16;

fn metrics() -> SearchMetrics {
    SearchMetrics {
        design: DesignKind::T15Dg,
        word_len: WIDTH,
        latency_1step: 231e-12,
        latency_2step: Some(481e-12),
        energy_1step: 0.13e-15 * WIDTH as f64,
        energy_2step: Some(0.21e-15 * WIDTH as f64),
    }
}

fn table(rows: u64, shards: usize) -> ShardedTcam {
    let mut t = ShardedTcam::new(WIDTH, shards);
    let mut seed = 0x5eed_0000_0000_0000 ^ rows;
    for _ in 0..rows {
        // A few wildcards so masked distance differs from plain Hamming.
        let v = split_mix64(&mut seed);
        let s: String = (0..WIDTH)
            .map(|b| match (v >> (2 * b)) & 0b11 {
                0b00 => 'X',
                0b01 | 0b10 => '1',
                _ => '0',
            })
            .collect();
        t.store(s.parse().expect("ternary word"));
    }
    t.attach_metrics(metrics());
    t
}

fn rand_query(seed: &mut u64) -> PackedQuery {
    PackedQuery::from_words(WIDTH, &[split_mix64(seed)])
}

/// Every kind, fan-out and routed, through the whole service: the
/// served answer equals the reference oracle's on the served table.
#[test]
fn served_approximate_answers_equal_the_reference() {
    let mut seed = 0xa11c_e5ed_dead_beef;
    let queries: Vec<PackedQuery> = (0..12).map(|_| rand_query(&mut seed)).collect();
    let kinds = [
        RequestKind::Threshold { t: 0 },
        RequestKind::Threshold { t: 3 },
        RequestKind::TopK { k: 1 },
        RequestKind::TopK { k: 7 },
        RequestKind::Range,
        RequestKind::Exact,
    ];
    let svc = TcamService::start(
        table(96, 3),
        &ServiceConfig {
            audit_period: 0,
            ..ServiceConfig::default()
        },
    );
    let client = svc.client();
    for (i, q) in queries.iter().enumerate() {
        let kind = kinds[i % kinds.len()];
        let shard = if i % 2 == 0 { None } else { Some(i % 3) };
        let resp = client
            .submit_kind(7, q.clone(), kind, shard)
            .unwrap()
            .wait()
            .expect("no deadline configured");
        let (ref_out, ref_hits) = reference_search(&client.table(), kind, q, shard);
        assert_eq!(resp.matches, ref_out.matches, "{kind} q{i}");
        assert_eq!(resp.hits, ref_hits, "{kind} q{i}");
        assert_eq!(resp.step1_misses, ref_out.step1_misses, "{kind}");
        assert_eq!(resp.kind, kind);
        // Top-k answers are capped and sorted best-first.
        if let RequestKind::TopK { k } = kind {
            assert!(resp.hits.len() <= k);
            assert!(resp.hits.windows(2).all(|w| w[0] < w[1]));
        }
    }
    drop(svc);
}

/// Threshold semantics end to end: t = 0 equals exact-match rows;
/// growing t only ever adds rows.
#[test]
fn threshold_zero_equals_exact_and_grows_monotonically() {
    let svc = TcamService::start(table(64, 2), &ServiceConfig::default());
    let client = svc.client();
    let mut seed = 0x70_70_70;
    for _ in 0..6 {
        let q = rand_query(&mut seed);
        let exact = client
            .submit_packed(0, q.clone(), None)
            .unwrap()
            .wait()
            .expect("no deadline configured");
        let mut prev = Vec::new();
        for t in 0..4u32 {
            let resp = client
                .submit_threshold(0, q.clone(), t, None)
                .unwrap()
                .wait()
                .expect("no deadline configured");
            if t == 0 {
                assert_eq!(resp.matches, exact.matches, "t=0 is exact match");
            }
            assert!(
                prev.iter().all(|m| resp.matches.contains(m)),
                "threshold {t} keeps every t-1 match"
            );
            prev = resp.matches;
        }
    }
    drop(svc);
}

/// Range serving: a level query built from `submit_range` matches
/// exactly the rows whose per-cell windows contain it.
#[test]
fn range_requests_honour_cell_windows() {
    let mut t = ShardedTcam::new(8, 2);
    // Cells (hi, lo): "11XX" = cells [3,3] and [0,3]; "0110" = [1,1],[2,2].
    for s in ["11XX", "0110", "XXXX", "10X1"] {
        let w: String = s
            .chars()
            .flat_map(|c| match c {
                '0' => ['0', '0'],
                '1' => ['1', '1'],
                _ => ['X', 'X'],
            })
            .collect();
        t.store(w.parse().expect("word"));
    }
    let svc = TcamService::start(t, &ServiceConfig::default());
    let client = svc.client();
    // Level 3 in both cells: rows "11XX" (windows [3,3],[0,3]) and
    // "XXXX" ([0,3],[0,3]) contain (3,3); "0110" and "10X1" don't.
    let resp = client
        .submit_range(0, &[3, 3, 3, 3], None)
        .unwrap()
        .wait()
        .expect("no deadline configured");
    assert_eq!(resp.kind, RequestKind::Range);
    let (ref_out, _) = reference_search(
        &client.table(),
        RequestKind::Range,
        &ferrotcam::levels_to_query(&[3, 3, 3, 3]),
        None,
    );
    assert_eq!(resp.matches, ref_out.matches);
    assert!(resp.matches.contains(&client.table().global_row(2, 0)));
    drop(svc);
}

/// The kernel's approximate answers survive a period-1 audit (every
/// query replayed through the reference oracle, threshold in sense
/// mode) with zero divergences.
#[test]
fn approx_audit_lane_stays_clean_at_period_one() {
    let svc = TcamService::start(
        table(96, 3),
        &ServiceConfig {
            audit_period: 1,
            ..ServiceConfig::default()
        },
    );
    let client = svc.client();
    let mut seed = 0xc1ea_0001u64;
    let mut sent = 0u64;
    for i in 0..48usize {
        let q = rand_query(&mut seed);
        let kind = match i % 4 {
            0 => RequestKind::Threshold { t: (i % 5) as u32 },
            1 => RequestKind::TopK { k: 1 + i % 6 },
            2 => RequestKind::Range,
            _ => RequestKind::Exact,
        };
        let _ = client
            .submit_kind(0, q, kind, None)
            .unwrap()
            .wait()
            .expect("no deadline configured");
        sent += 1;
    }
    let m = svc.drain();
    assert_eq!(m.completed, sent);
    assert_eq!(m.audit_sampled, sent, "period-1 lane replays everything");
    assert_eq!(
        m.audit_match_divergences, 0,
        "kernel ≡ oracle on every kind"
    );
    assert_eq!(m.audit_energy_divergences, 0);
    assert_eq!(m.audit_sampled_by_kind.total(), sent);
    assert!(m.audit_sampled_by_kind.threshold > 0);
    assert!(m.audit_sampled_by_kind.range > 0);
}

/// Completed/shed metrics split by kind, and the approximate admission
/// class budgets independently of the exact one.
#[test]
fn per_kind_accounting_and_class_admission() {
    let svc = TcamService::start(table(32, 2), &ServiceConfig::default());
    let client = svc.client();
    // Tenant 4's approximate lane gets 2 tokens and no refill.
    client.set_class_policy(4, AdmissionClass::Approx, RatePolicy::per_second(0.0, 2.0));
    let mut seed = 0xbeef;
    let q = rand_query(&mut seed);
    assert!(client.submit_threshold(4, q.clone(), 1, None).is_ok());
    assert!(client.submit_top_k(4, q.clone(), 3, None).is_ok());
    let shed = client.submit_threshold(4, q.clone(), 1, None).unwrap_err();
    assert_eq!(shed, Overloaded::RateLimited { tenant: 4 });
    // The same tenant's exact traffic rides the unlimited default.
    for _ in 0..8 {
        assert!(client.submit_packed(4, q.clone(), None).is_ok());
    }
    let m = svc.drain();
    assert_eq!(m.completed_by_kind.threshold, 1);
    assert_eq!(m.completed_by_kind.top_k, 1);
    assert_eq!(m.completed_by_kind.exact, 8);
    assert_eq!(m.shed_by_kind.threshold, 1);
    assert_eq!(m.shed_by_kind.exact, 0);
    assert_eq!(m.shed_rate_limited, 1);
}

/// Level round-trip sanity for the public helper the range client path
/// uses.
#[test]
fn levels_round_trip_through_packed_queries() {
    let levels = [0u8, 1, 2, 3, 3, 0, 2, 1];
    let q = ferrotcam::levels_to_query(&levels);
    assert_eq!(q.width(), 16);
    assert_eq!(ferrotcam::approx::query_levels(&q), levels);
}
