//! Property tests pinning the approximate-match kernels to naive
//! oracles: packed masked-Hamming distance ≡ per-digit
//! [`TernaryWord::mismatch_count`] (wildcards never mismatch, including
//! all-wildcard rows and zero-care corpora), threshold search (both
//! the row-major kernel and the served planes-or-row-major entry point,
//! also after row mutations) ≡ a `distance ≤ t` filter over the
//! oracle, top-k ≡ the sorted prefix of
//! [`BehavioralTcam::nearest`] with its `(distance, row)` tie-break,
//! and the bit-sliced range kernel ≡ a per-cell window comparison.

use ferrotcam::approx::{self, ApproxHit};
use ferrotcam::{BehavioralTcam, BitSlices, PackedQuery, PackedRows, Ternary, TernaryWord};
use proptest::prelude::*;

fn ternary_digit() -> impl Strategy<Value = Ternary> {
    prop_oneof![
        3 => Just(Ternary::Zero),
        3 => Just(Ternary::One),
        2 => Just(Ternary::X),
    ]
}

/// Widths inside one word, at the boundary, and spanning words.
fn width() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(7),
        Just(63),
        Just(64),
        Just(65),
        Just(130)
    ]
}

/// Even widths only (range mode pairs digits into 4-level cells),
/// from no cells at all to cells spanning three packed words.
fn even_width() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(2),
        Just(8),
        Just(64),
        Just(66),
        Just(130)
    ]
}

/// Row counts for the range kernel: inside one 512-row plane block,
/// and across the block boundary so the second block's tail padding
/// is searched too.
fn range_rows() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..30, 500usize..530]
}

fn corpus_and_query() -> impl Strategy<Value = (usize, Vec<Vec<Ternary>>, Vec<bool>)> {
    width().prop_flat_map(|w| {
        (
            Just(w),
            proptest::collection::vec(proptest::collection::vec(ternary_digit(), w), 0..40),
            proptest::collection::vec(any::<bool>(), w),
        )
    })
}

fn build(width: usize, rows: &[Vec<Ternary>]) -> (BehavioralTcam, PackedRows) {
    let mut reference = BehavioralTcam::new(width);
    for r in rows {
        reference.store(TernaryWord::new(r.clone()));
    }
    let packed = PackedRows::from_tcam(&reference);
    (reference, packed)
}

/// Every row within masked-Hamming distance `t`, by
/// [`TernaryWord::mismatch_count`].
fn distance_filter(rows: &[TernaryWord], query: &[bool], t: u32) -> Vec<ApproxHit> {
    rows.iter()
        .enumerate()
        .filter_map(|(r, row)| {
            let d = row.mismatch_count(query) as u32;
            (d <= t).then_some(ApproxHit {
                row: r,
                distance: d,
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn packed_distance_equals_naive_mismatch_count(
        (width, rows, query) in corpus_and_query(),
    ) {
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        for (r, row) in reference.rows().iter().enumerate() {
            prop_assert_eq!(
                approx::row_distance(&packed, r, &q) as usize,
                row.mismatch_count(&query),
                "row {}", r
            );
        }
    }

    #[test]
    fn threshold_search_is_distance_filter(
        (width, rows, query) in corpus_and_query(),
        t in 0u32..80,
    ) {
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        let want = distance_filter(reference.rows(), &query, t);
        prop_assert_eq!(approx::threshold_search(&packed, &q, t), want.clone());
        // The served entry point: the planes kernel for small `t`, the
        // row-major one above the cut-off.
        prop_assert_eq!(BitSlices::build(packed).threshold_search(&q, t), want);
    }

    #[test]
    fn threshold_search_after_row_mutations(
        width in width(),
        n in range_rows(),
        ops in proptest::collection::vec((0u8..3, any::<u64>()), 0..24),
        seed in any::<u64>(),
        t in 0u32..8,
    ) {
        // Writes, appends and swap-removes keep the planes in step with
        // the row-major words, across the 512-row block boundary.
        let mut state = seed;
        let mut word = || -> Vec<Ternary> {
            (0..width)
                .map(|_| match rand::split_mix64(&mut state) % 8 {
                    0 => Ternary::X,
                    1..=4 => Ternary::Zero,
                    _ => Ternary::One,
                })
                .collect()
        };
        let mut mirror: Vec<TernaryWord> = (0..n).map(|_| TernaryWord::new(word())).collect();
        let (_, packed) = build(width, &mirror.iter().map(|w| w.digits().to_vec()).collect::<Vec<_>>());
        let mut live = BitSlices::build(packed);
        for (op, pick) in ops {
            let w = TernaryWord::new(word());
            match (op, mirror.len()) {
                (0, len) if len > 0 => {
                    let r = pick as usize % len;
                    live.write_row(r, &w);
                    mirror[r] = w;
                }
                (1, len) if len > 0 => {
                    let r = pick as usize % len;
                    live.swap_remove_row(r);
                    mirror.swap_remove(r);
                }
                _ => {
                    live.push_row(&w);
                    mirror.push(w);
                }
            }
        }
        // A query near a stored row, so small thresholds hit.
        let query: Vec<bool> = match mirror.first() {
            Some(row) => row.digits().iter().map(|&d| d == Ternary::One).collect(),
            None => (0..width).map(|_| rand::split_mix64(&mut state) & 1 == 1).collect(),
        };
        let q = PackedQuery::from_bits(&query);
        prop_assert_eq!(live.threshold_search(&q, t), distance_filter(&mirror, &query, t));
    }

    #[test]
    fn top_k_equals_nearest_prefix(
        (width, rows, query) in corpus_and_query(),
        k in 0usize..12,
    ) {
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        let got: Vec<(usize, usize)> = approx::top_k([(0, &packed)], &q, k)
            .into_iter()
            .map(|h| (h.row, h.distance as usize))
            .collect();
        let want: Vec<(usize, usize)> =
            reference.nearest(&query).into_iter().take(k).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn top_k_chunked_equals_contiguous_top_k(
        (width, rows, query) in corpus_and_query(),
        k in 0usize..12,
        chunk in 1usize..7,
    ) {
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        // Split the corpus into `chunk`-row pieces, as the serving
        // layer's copy-on-write row blocks do, and check the shared
        // cross-chunk bound changes nothing about the answer — hits,
        // distances, and (distance, row) tie order alike.
        let all = reference.rows();
        let mut chunks: Vec<(usize, PackedRows)> = Vec::new();
        let mut base = 0usize;
        while base < all.len() {
            let end = (base + chunk).min(all.len());
            let mut t = BehavioralTcam::new(width);
            for w in &all[base..end] {
                t.store(w.clone());
            }
            chunks.push((base, PackedRows::from_tcam(&t)));
            base = end;
        }
        let got = approx::top_k(chunks.iter().map(|(b, p)| (*b, p)), &q, k);
        prop_assert_eq!(got, approx::top_k([(0, &packed)], &q, k));
    }

    #[test]
    fn sharded_top_k_merge_is_global(
        (width, rows, query) in corpus_and_query(),
        k in 1usize..8,
        shards in 1usize..5,
    ) {
        // Round-robin the rows over shards (the serve layer's row
        // interleave), take local top-k per shard, merge: must equal
        // the unsharded top-k after mapping local → global row ids.
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        let mut locals: Vec<Vec<ApproxHit>> = Vec::new();
        for s in 0..shards {
            let mut shard = PackedRows::new(width);
            let globals: Vec<usize> =
                (0..reference.len()).filter(|r| r % shards == s).collect();
            for &g in &globals {
                shard.push(reference.row(g).expect("row exists"));
            }
            let local = approx::top_k([(0, &shard)], &q, k)
                .into_iter()
                .map(|h| ApproxHit { row: globals[h.row], distance: h.distance })
                .collect();
            locals.push(local);
        }
        prop_assert_eq!(approx::merge_top_k(&locals, k), approx::top_k([(0, &packed)], &q, k));
    }

    #[test]
    fn forced_tie_sharded_merge_matches_unsharded_top_k(
        width in prop_oneof![Just(8usize), Just(64)],
        pattern_picks in proptest::collection::vec(0usize..3, 4..48),
        k in 1usize..10,
        shards in prop_oneof![Just(2usize), Just(4)],
        seed in any::<u64>(),
    ) {
        // Corpus drawn from a 3-pattern alphabet, so by pigeonhole the
        // distance multiset always collides: the (distance, row)
        // tie-break must act on *global* slot ids after the shard
        // merge, or sharded top-k diverges from the single-table
        // oracle exactly on these ties.
        let mut state = seed;
        let query: Vec<bool> =
            (0..width).map(|_| rand::split_mix64(&mut state) & 1 == 1).collect();
        let patterns: Vec<Vec<Ternary>> = (0..3).map(|p| {
            (0..width).map(|i| match (i + p) % 3 {
                0 => Ternary::X,
                1 => Ternary::One,
                _ => Ternary::Zero,
            }).collect()
        }).collect();
        let rows: Vec<Vec<Ternary>> =
            pattern_picks.iter().map(|&p| patterns[p].clone()).collect();
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        // The tie premise really holds: some two rows are equidistant.
        let dists: Vec<u32> =
            (0..packed.rows()).map(|r| approx::row_distance(&packed, r, &q)).collect();
        prop_assert!(
            dists.iter().any(|d| dists.iter().filter(|&x| x == d).count() > 1),
            "alphabet corpus must force a distance tie"
        );
        let mut locals: Vec<Vec<ApproxHit>> = Vec::new();
        for s in 0..shards {
            // The serve layer's row interleave: global = local·n + s.
            let mut shard = PackedRows::new(width);
            let globals: Vec<usize> =
                (0..reference.len()).filter(|r| r % shards == s).collect();
            for &g in &globals {
                shard.push(reference.row(g).expect("row exists"));
            }
            locals.push(approx::top_k([(0, &shard)], &q, k)
                .into_iter()
                .map(|h| ApproxHit { row: globals[h.row], distance: h.distance })
                .collect());
        }
        prop_assert_eq!(approx::merge_top_k(&locals, k), approx::top_k([(0, &packed)], &q, k));
    }

    #[test]
    fn range_kernel_equals_per_cell_oracle(
        width in even_width(),
        n in range_rows(),
        seed in any::<u64>(),
        near in any::<bool>(),
    ) {
        // Rows are random ternary words (one digit in four a
        // wildcard); the query is either random or a stored row's
        // digits (wildcards read as 0), so hits occur at every width.
        let mut state = seed;
        let rows: Vec<Vec<Ternary>> = (0..n)
            .map(|_| {
                (0..width)
                    .map(|_| match rand::split_mix64(&mut state) % 8 {
                        0 | 1 => Ternary::X,
                        2..=4 => Ternary::Zero,
                        _ => Ternary::One,
                    })
                    .collect()
            })
            .collect();
        let query: Vec<bool> = match rows.get(rand::split_mix64(&mut state) as usize % n.max(1)) {
            Some(row) if near => row.iter().map(|&d| d == Ternary::One).collect(),
            _ => (0..width).map(|_| rand::split_mix64(&mut state) & 1 == 1).collect(),
        };
        let (reference, packed) = build(width, &rows);
        let ranged = BitSlices::build(packed.clone());
        let q = PackedQuery::from_bits(&query);
        let levels = approx::query_levels(&q);
        let want: Vec<usize> = reference
            .rows()
            .iter()
            .enumerate()
            .filter(|(_, row)| {
                approx::word_windows(row)
                    .iter()
                    .zip(&levels)
                    .all(|(&(lo, hi), &l)| lo <= l && l <= hi)
            })
            .map(|(r, _)| r)
            .collect();
        prop_assert_eq!(ranged.range_search(&q), want);
        // The scalar digit-case check (the audit lane's oracle) is a
        // third witness of the same predicate.
        let scalar: Vec<usize> = (0..packed.rows())
            .filter(|&r| approx::row_in_windows(&packed, r, &q))
            .collect();
        prop_assert_eq!(scalar, want);
        // Range match is implied by ternary match: every exact match
        // is inside its own windows.
        for m in reference.search(&query).matches {
            prop_assert!(
                approx::row_in_windows(&packed, m, &q),
                "exact match {} must be in-window", m
            );
        }
    }

    #[test]
    fn all_wildcard_and_zero_care_rows(
        width in width(),
        n in 1usize..16,
        seed in any::<u64>(),
    ) {
        // All-X rows have distance 0 from every query, so they lead
        // every top-k and pass every threshold.
        let rows = vec![vec![Ternary::X; width]; n];
        let mut state = seed;
        let query: Vec<bool> =
            (0..width).map(|_| rand::split_mix64(&mut state) & 1 == 1).collect();
        let (_, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        let hits = approx::threshold_search(&packed, &q, 0);
        prop_assert_eq!(hits.len(), n);
        prop_assert!(hits.iter().all(|h| h.distance == 0));
        for k in [n + 4, usize::MAX] {
            let top = approx::top_k([(0, &packed)], &q, k);
            prop_assert_eq!(top.len(), n);
            prop_assert_eq!(top.iter().map(|h| h.row).collect::<Vec<_>>(),
                (0..n).collect::<Vec<_>>());
        }
    }
}
