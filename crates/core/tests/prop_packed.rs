//! Property tests pinning the bit-packed search kernels to the boolean
//! reference: for arbitrary corpora (any width, wildcards anywhere,
//! including all-wildcard rows and empty arrays) the word-parallel
//! [`PackedRows`]/[`BitSlices`] kernels must return *exactly* the
//! [`BehavioralTcam`] outcome — same match set, same step-1 and step-2
//! miss counters. The serve layer's audit lane samples this equivalence
//! in production; this test owns the exhaustive version.

use ferrotcam::{BehavioralTcam, BitSlices, PackedQuery, PackedRows, Ternary, TernaryWord};
use proptest::prelude::*;

fn ternary_digit() -> impl Strategy<Value = Ternary> {
    prop_oneof![
        3 => Just(Ternary::Zero),
        3 => Just(Ternary::One),
        2 => Just(Ternary::X),
    ]
}

/// Corpora over interesting widths: inside one word, at the word
/// boundary, and spanning multiple words (none divisible by 64 except
/// 64 itself).
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

fn corpus_and_query() -> impl Strategy<Value = (usize, Vec<Vec<Ternary>>, Vec<bool>)> {
    width().prop_flat_map(|w| {
        (
            Just(w),
            proptest::collection::vec(proptest::collection::vec(ternary_digit(), w), 0..40),
            proptest::collection::vec(any::<bool>(), w),
        )
    })
}

fn check_equivalence(width: usize, rows: Vec<Vec<Ternary>>, query: &[bool]) {
    let mut reference = BehavioralTcam::new(width);
    for r in rows {
        reference.store(TernaryWord::new(r));
    }
    let packed = PackedRows::from_tcam(&reference);
    let sliced = BitSlices::from_tcam(&reference);
    let q = PackedQuery::from_bits(query);
    prop_assert_eq!(q.to_bits(), query, "pack/unpack roundtrip");

    let want = reference.search(query);
    for (kernel, got) in [("rows", packed.search(&q)), ("slices", sliced.search(&q))] {
        prop_assert_eq!(&got.matches, &want.matches, "{} matches", kernel);
        prop_assert_eq!(got.step1_misses, want.step1_misses, "{} step1", kernel);
        prop_assert_eq!(got.step2_misses, want.step2_misses, "{} step2", kernel);
        prop_assert_eq!(
            got.matches.len() + got.step1_misses + got.step2_misses,
            reference.len(),
            "{} partitions the rows",
            kernel
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn packed_kernels_equal_boolean_search((width, rows, query) in corpus_and_query()) {
        check_equivalence(width, rows, &query);
    }

    #[test]
    fn all_wildcard_rows_always_match(
        width in width(),
        n in 0usize..24,
        seed in any::<u64>(),
    ) {
        // Rows of pure X never reject at either step; mixed in with a
        // random corpus they must all come back as matches.
        let mut state = seed;
        let mut rows: Vec<Vec<Ternary>> = Vec::new();
        for i in 0..n {
            rows.push(if i % 3 == 0 {
                vec![Ternary::X; width]
            } else {
                (0..width)
                    .map(|_| {
                        if rand::split_mix64(&mut state) & 1 == 1 {
                            Ternary::One
                        } else {
                            Ternary::Zero
                        }
                    })
                    .collect()
            });
        }
        let query: Vec<bool> = (0..width).map(|_| rand::split_mix64(&mut state) & 1 == 1).collect();
        let wild: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
        let mut reference = BehavioralTcam::new(width);
        for r in &rows {
            reference.store(TernaryWord::new(r.clone()));
        }
        let sliced = BitSlices::from_tcam(&reference);
        let got = sliced.search(&PackedQuery::from_bits(&query));
        for w in &wild {
            prop_assert!(got.matches.contains(w), "all-X row {} must match", w);
        }
        check_equivalence(width, rows, &query);
    }
}

/// A corpus in which step 2 does real work: about `survive_pct` % of the
/// rows copy the query's even digits (an `X` now and then), so they
/// survive step 1, and their odd digits agree with the query or are
/// `X` except for 0–2 flipped digits at random odd positions, so a
/// survivor is a match or a step-2 miss at any odd plane, the last
/// ones included. The other rows are random ternary words.
fn survival_corpus(width: usize, n: usize, survive_pct: u64, seed: u64) -> Vec<Vec<Ternary>> {
    let mut state = seed;
    let mut next = move |m: u64| rand::split_mix64(&mut state) % m;
    let query_digit = |b: bool| if b { Ternary::One } else { Ternary::Zero };
    let query = survival_query(width, seed);
    let odds = width / 2;
    (0..n)
        .map(|_| {
            if next(100) >= survive_pct {
                return (0..width)
                    .map(|_| match next(8) {
                        0..=1 => Ternary::X,
                        2..=4 => Ternary::Zero,
                        _ => Ternary::One,
                    })
                    .collect();
            }
            let mut row: Vec<Ternary> = query
                .iter()
                .map(|&b| {
                    if next(6) == 0 {
                        Ternary::X
                    } else {
                        query_digit(b)
                    }
                })
                .collect();
            if odds > 0 {
                for _ in 0..next(3) {
                    let d = 2 * next(odds as u64) as usize + 1;
                    row[d] = query_digit(!query[d]);
                }
            }
            row
        })
        .collect()
}

/// The query [`survival_corpus`] keys its survivors on.
fn survival_query(width: usize, seed: u64) -> Vec<bool> {
    let mut state = seed ^ 0x5eed_0dd5;
    (0..width)
        .map(|_| rand::split_mix64(&mut state) & 1 == 1)
        .collect()
}

/// Widths for the step-2 property: width 1 has no odd planes, widths
/// 2, 3 and 8 have at most four (the dead check never cuts step 2
/// short), and the rest straddle the 64-digit word boundary.
fn step2_width() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2),
        Just(3),
        Just(8),
        Just(63),
        Just(64),
        Just(65),
        Just(130)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn step2_on_the_odd_planes_equals_boolean_search(
        width in step2_width(),
        n in prop_oneof![0usize..=40, 500usize..=1100],
        survive_pct in 0u64..=100,
        seed in any::<u64>(),
    ) {
        // Row counts 500–1100 cross the 512- and 1024-row block edges.
        let rows = survival_corpus(width, n, survive_pct, seed);
        check_equivalence(width, rows, &survival_query(width, seed));
    }
}

#[test]
fn zero_row_corpus_is_empty_outcome() {
    for width in [1usize, 64, 100] {
        let reference = BehavioralTcam::new(width);
        let sliced = BitSlices::from_tcam(&reference);
        let q = PackedQuery::from_bits(&vec![true; width]);
        let got = sliced.search(&q);
        assert!(got.matches.is_empty());
        assert_eq!(got.step1_misses, 0);
        assert_eq!(got.step2_misses, 0);
    }
}
