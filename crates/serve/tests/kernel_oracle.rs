//! Kernel ≡ oracle: the serving kernel (`BehaviouralBackend::execute`)
//! answers every job of a randomized batch exactly as the reference
//! oracle (`reference_search`) does on the same snapshot — matches,
//! ranked hits and both miss counters — for every search kind, fanned
//! out and routed, across word widths that cross a 64-bit boundary,
//! 1–4 shards, shards spanning several copy-on-write blocks, wildcard
//! rows, and random write batches between rounds.

use ferrotcam::{PackedQuery, SenseModel, Ternary, TernaryWord};
use ferrotcam_serve::{
    reference_search, reference_walk, BatchSpec, BehaviouralBackend, ExecBackend, LiveTable,
    RequestKind, ShardedTcam, SnapView, WriteOp, BLOCK_ROWS,
};
use rand::split_mix64;

/// A random ternary word with about one wildcard in four digits.
fn rand_word(seed: &mut u64, width: usize) -> TernaryWord {
    let digits = (0..width)
        .map(|_| match split_mix64(seed) % 8 {
            0 | 1 => Ternary::X,
            2..=4 => Ternary::Zero,
            _ => Ternary::One,
        })
        .collect();
    TernaryWord::new(digits)
}

/// A query near a stored row: its wildcards resolved at random, then
/// up to three bits flipped, so exact hits and small distances occur.
/// On an empty table, a uniformly random query.
fn rand_query(seed: &mut u64, view: &SnapView) -> PackedQuery {
    let width = view.width();
    let mut bits: Vec<bool> = (0..width).map(|_| split_mix64(seed) & 1 == 1).collect();
    if !view.is_empty() {
        let s = loop {
            let s = (split_mix64(seed) % view.shard_count() as u64) as usize;
            if view.shard(s).rows() > 0 {
                break s;
            }
        };
        let l = (split_mix64(seed) % view.shard(s).rows() as u64) as usize;
        let word = view.shard(s).row_word(l);
        for (b, d) in bits.iter_mut().zip(word.digits()) {
            match d {
                Ternary::Zero => *b = false,
                Ternary::One => *b = true,
                Ternary::X => {}
            }
        }
        for _ in 0..split_mix64(seed) % 4 {
            let i = (split_mix64(seed) % width as u64) as usize;
            bits[i] = !bits[i];
        }
    }
    PackedQuery::from_bits(&bits)
}

fn rand_kind(seed: &mut u64) -> RequestKind {
    match split_mix64(seed) % 4 {
        0 => RequestKind::Exact,
        1 => RequestKind::Threshold {
            t: (split_mix64(seed) % 6) as u32,
        },
        2 => RequestKind::TopK {
            k: (split_mix64(seed) % 10) as usize,
        },
        _ => RequestKind::Range,
    }
}

/// A random write batch of inserts, updates and deletes (some
/// addressing rows past the end, which must be no-op acks).
fn rand_writes(seed: &mut u64, width: usize, rows: usize) -> Vec<WriteOp> {
    let span = 2 * rows.max(1) as u64;
    (0..1 + split_mix64(seed) % 40)
        .map(|_| match split_mix64(seed) % 3 {
            0 => WriteOp::Insert(rand_word(seed, width)),
            1 => WriteOp::Update {
                row: (split_mix64(seed) % span) as usize,
                word: rand_word(seed, width),
            },
            _ => WriteOp::Delete {
                row: (split_mix64(seed) % span) as usize,
            },
        })
        .collect()
}

/// Run one randomized batch on `view` and check every job against the
/// oracle.
fn check_round(seed: &mut u64, view: &SnapView, label: &str) {
    let n = 48;
    let queries: Vec<PackedQuery> = (0..n).map(|_| rand_query(seed, view)).collect();
    let kinds: Vec<RequestKind> = (0..n).map(|_| rand_kind(seed)).collect();
    let targets: Vec<Option<usize>> = (0..n)
        .map(
            |_| match split_mix64(seed) % (view.shard_count() as u64 + 1) {
                0 => None,
                s => Some(s as usize - 1),
            },
        )
        .collect();
    let costs = vec![1.0; n];
    let spec = BatchSpec {
        queries: &queries,
        kinds: &kinds,
        targets: &targets,
        costs: &costs,
    };
    let got = BehaviouralBackend.execute(view, &spec, 2, 1e-9);
    for j in 0..n {
        let (want, want_hits) = reference_search(view, kinds[j], &queries[j], targets[j]);
        let ctx = format!("{label} job {j} {} target {:?}", kinds[j], targets[j]);
        assert_eq!(got.outcomes[j].matches, want.matches, "{ctx}");
        assert_eq!(got.hits[j], want_hits, "{ctx}");
        assert_eq!(got.outcomes[j].step1_misses, want.step1_misses, "{ctx}");
        assert_eq!(got.outcomes[j].step2_misses, want.step2_misses, "{ctx}");
    }
}

#[test]
fn kernel_matches_reference_oracle_on_random_batches() {
    // (width, shards, initial rows): even widths on both sides of the
    // 64-digit word boundary; the larger tables put more than
    // BLOCK_ROWS rows on each shard.
    let shapes = [
        (8usize, 1usize, 40usize),
        (62, 2, 300),
        (64, 2, 2 * BLOCK_ROWS + 150),
        (66, 3, 200),
        (100, 4, 4 * BLOCK_ROWS + 40),
        (130, 1, BLOCK_ROWS + 77),
    ];
    let mut seed = 0x07ac_1e00_u64;
    for (width, shards, rows) in shapes {
        let mut built = ShardedTcam::new(width, shards);
        for _ in 0..rows {
            built.store(rand_word(&mut seed, width));
        }
        let live = LiveTable::from_sharded(&built);
        for round in 0..4 {
            let view = live.snapshot();
            check_round(
                &mut seed,
                &view,
                &format!("width {width} shards {shards} round {round}"),
            );
            live.apply(&rand_writes(&mut seed, width, view.len()));
        }
    }
}

#[test]
fn sense_mode_threshold_equals_digital_threshold() {
    let width = 66;
    let mut seed = 0x5e05e_u64;
    let mut built = ShardedTcam::new(width, 3);
    for _ in 0..BLOCK_ROWS + 200 {
        built.store(rand_word(&mut seed, width));
    }
    let view = LiveTable::from_sharded(&built).snapshot();
    let sense = SenseModel::analytic(231e-12);
    for i in 0..64 {
        let q = rand_query(&mut seed, &view);
        let kind = RequestKind::Threshold { t: i % 9 };
        let target = (i % 2 == 0).then_some(i as usize % 3);
        let digital = reference_search(&view, kind, &q, target);
        let sensed = reference_walk(&view, kind, &q, target, Some(&sense));
        assert_eq!(sensed, digital, "{kind} target {target:?}");
    }
}
