//! Approximate-match kernels over the packed two-plane layout:
//! masked-Hamming distance (threshold and top-k search), and the
//! FeCAM-style per-cell range match's level and window definitions
//! with its scalar oracle.
//!
//! **Hamming.** A ternary row's mismatch count against a binary query
//! is `popcount((q ^ value) & care)` per packed word — wildcard digits
//! never mismatch, exactly [`TernaryWord::mismatch_count`]. In the
//! array this is TAP-CAM's observation: every mismatching cell pair
//! adds one match-line pull-down path, so the ML discharge *rate*
//! encodes the distance and the sense time becomes a tunable distance
//! threshold (see `calib::SenseModel` for the circuit-fitted timing).
//! [`threshold_search`] returns every row within distance `t`;
//! [`top_k`] returns the `k` nearest rows with deterministic
//! tie-breaking — ordered by `(distance, row)`, so the lowest row id
//! wins among equidistant rows, matching [`BehavioralTcam::nearest`].
//!
//! **Range.** FeCAM stores an analog `[lo, hi]` Vth window per cell
//! and matches when the query voltage falls inside. Here each ternary
//! digit *pair* `(2j, 2j+1)` is one 4-level cell: digit `2j` is the
//! high bit and digit `2j+1` the low bit of level `j`, so a stored
//! ternary row induces a window per cell (`X` widens the corresponding
//! bit to both values) and a binary query induces a level per cell.
//! The serving kernel is [`BitSlices::range_search`]: it runs on the
//! bit-sliced match planes exact search already holds, one plane
//! expression per cell ([`RangePlan`]), with the same early exit once a
//! 512-row block is dead. [`row_in_windows`] checks one row from the
//! row-major words instead, independently of the planes; it is the
//! audit lane's oracle. Range match is a genuinely different
//! predicate from ternary match: stored `X1` gives the window
//! `[1, 3]`, which admits query level `2` (`10`) — a query ternary
//! match rejects.
//!
//! [`BitSlices::range_search`]: crate::packed::BitSlices::range_search
//! [`RangePlan`]: crate::packed::RangePlan
//! [`BehavioralTcam::nearest`]: crate::behav::BehavioralTcam::nearest
//! [`TernaryWord::mismatch_count`]: crate::ternary::TernaryWord::mismatch_count

use crate::packed::{PackedQuery, PackedRows};
use crate::ternary::{Ternary, TernaryWord};
use std::collections::BinaryHeap;

/// One approximate-search hit: a stored row and its masked-Hamming
/// distance from the query. Orders by `(distance, row)` so sorting a
/// hit list puts the best match first and breaks distance ties toward
/// the lowest row id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxHit {
    /// Stored row index.
    pub row: usize,
    /// Masked Hamming distance (mismatching cared digits).
    pub distance: u32,
}

impl Ord for ApproxHit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.distance, self.row).cmp(&(other.distance, other.row))
    }
}

impl PartialOrd for ApproxHit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Bitmask of rows in one ≤64-row block whose masked-Hamming distance
/// from `qh` is strictly below `lim` (bit `i` set for `vs[i]`/`cs[i]`).
/// The branchless XOR/AND/POPCNT/compare shape keeps the loop
/// vectorizable; both block-scan kernels share it.
#[inline]
fn block_candidates(qh: u64, vs: &[u64], cs: &[u64], lim: u32) -> u64 {
    let mut mask = 0u64;
    for (i, (&v, &c)) in vs.iter().zip(cs.iter()).enumerate() {
        let d = ((qh ^ v) & c).count_ones();
        mask |= u64::from(d < lim) << i;
    }
    mask
}

/// Masked Hamming distance of one stored row from a query.
///
/// # Panics
/// Panics if `row` is out of range or the query width mismatches.
#[must_use]
pub fn row_distance(rows: &PackedRows, row: usize, q: &PackedQuery) -> u32 {
    assert_eq!(q.width(), rows.width(), "query width mismatch");
    assert!(row < rows.rows(), "row {row} out of range");
    let base = row * rows.wpr;
    let mut d = 0u32;
    for w in 0..rows.wpr {
        d += ((q.word(w) ^ rows.value[base + w]) & rows.care[base + w]).count_ones();
    }
    d
}

/// Every row within masked-Hamming distance `t` of the query, in
/// ascending row order (each with its distance). Distance-threshold
/// search is the behavioural mirror of sensing the match line at
/// `SenseModel` window `t`: rows with ≤ `t` pull-down paths have not
/// discharged yet when the sense fires.
///
/// # Panics
/// Panics on query-width mismatch.
#[must_use]
pub fn threshold_search(rows: &PackedRows, q: &PackedQuery, t: u32) -> Vec<ApproxHit> {
    assert_eq!(q.width(), rows.width(), "query width mismatch");
    let mut hits = Vec::new();
    if rows.wpr == 1 {
        // Serving hot path (≤64-digit rows). Rows go by in 64-row
        // blocks: a branchless pass builds a candidate bitmask (one
        // XOR/AND/POPCNT/compare per row — a shape the compiler can
        // keep in vector registers), and only blocks that actually
        // contain a candidate are revisited to emit hits. For small
        // `t` nearly every block dies in the first pass.
        let qh = q.word(0);
        for (block, (vs, cs)) in rows.value.chunks(64).zip(rows.care.chunks(64)).enumerate() {
            let mut mask = block_candidates(qh, vs, cs, t.saturating_add(1));
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let d = ((qh ^ vs[i]) & cs[i]).count_ones();
                hits.push(ApproxHit {
                    row: block * 64 + i,
                    distance: d,
                });
            }
        }
    } else {
        for row in 0..rows.rows() {
            let d = row_distance(rows, row, q);
            if d <= t {
                hits.push(ApproxHit { row, distance: d });
            }
        }
    }
    hits
}

/// The `k` nearest stored rows by masked-Hamming distance, sorted by
/// `(distance, row)` — deterministic tie-breaking, lowest row wins.
/// Returns fewer than `k` hits only when the table has fewer rows.
///
/// The table arrives as `(base, rows)` chunks and hit rows are emitted
/// as `base + local`: a contiguous table is the single chunk
/// `[(0, &rows)]`, and the serving layer passes its copy-on-write row
/// blocks. One bounded max-heap (its root the worst of the current
/// best k) and one distance bound mirroring that root carry across
/// every chunk, so a chunked table prunes exactly as hard as a
/// contiguous one. Chunks must arrive in ascending row order for the
/// `(distance, row)` tie-break to match a contiguous scan of their
/// concatenation.
///
/// ≤64-digit rows go by in 64-row blocks: a branchless mask loop (one
/// XOR/AND/POPCNT/compare per row, a shape the compiler can vectorize)
/// flags rows that beat the bound, and only flagged rows touch the
/// heap. Rows scan in ascending order, so a later row that merely ties
/// the k-th best can never displace it — the strict `d < bound` flag
/// is exact — and once the heap fills almost every block contributes
/// nothing. Wider rows are scored one by one against the same bound.
///
/// # Panics
/// Panics if any chunk's width mismatches the query's.
#[must_use]
pub fn top_k<'a, I>(chunks: I, q: &PackedQuery, k: usize) -> Vec<ApproxHit>
where
    I: IntoIterator<Item = (usize, &'a PackedRows)>,
{
    if k == 0 {
        return Vec::new();
    }
    // Sized from the first chunk's rows, never from `k` alone, so a
    // huge `k` reserves nothing it will not fill.
    let mut chunks = chunks.into_iter().peekable();
    let cap = chunks.peek().map_or(0, |(_, rows)| k.min(rows.rows()) + 1);
    let mut heap: BinaryHeap<ApproxHit> = BinaryHeap::with_capacity(cap);
    let mut bound = u32::MAX;
    let offer = |heap: &mut BinaryHeap<ApproxHit>, bound: &mut u32, hit: ApproxHit| {
        if heap.len() < k {
            heap.push(hit);
        } else if hit < *heap.peek().expect("heap is non-empty at capacity") {
            heap.pop();
            heap.push(hit);
        } else {
            return;
        }
        if heap.len() == k {
            *bound = heap.peek().expect("heap holds k hits").distance;
        }
    };
    for (chunk_base, rows) in chunks {
        assert_eq!(q.width(), rows.width(), "query width mismatch");
        if rows.wpr == 1 {
            let qh = q.word(0);
            let blocks = rows.value.chunks(64).zip(rows.care.chunks(64));
            for (block, (vs, cs)) in blocks.enumerate() {
                let mut mask = block_candidates(qh, vs, cs, bound);
                if mask == 0 {
                    continue;
                }
                let base = chunk_base + block * 64;
                while mask != 0 {
                    let i = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let hit = ApproxHit {
                        row: base + i,
                        distance: ((qh ^ vs[i]) & cs[i]).count_ones(),
                    };
                    offer(&mut heap, &mut bound, hit);
                }
            }
        } else {
            for row in 0..rows.rows() {
                let hit = ApproxHit {
                    row: chunk_base + row,
                    distance: row_distance(rows, row, q),
                };
                if hit.distance < bound || heap.len() < k {
                    offer(&mut heap, &mut bound, hit);
                }
            }
        }
    }
    let mut hits = heap.into_vec();
    hits.sort_unstable();
    hits
}

/// Merge per-shard top-k hit lists into the global top-k. Each input
/// must already be sorted by `(distance, row)` (the order [`top_k`]
/// returns); the merge re-sorts the union and truncates, so local
/// top-k per shard followed by this merge is exactly the global top-k.
#[must_use]
pub fn merge_top_k(lists: &[Vec<ApproxHit>], k: usize) -> Vec<ApproxHit> {
    let mut all: Vec<ApproxHit> = lists.iter().flatten().copied().collect();
    all.sort_unstable();
    all.truncate(k);
    all
}

/// The 4-level cell levels a binary query drives: level `j` is
/// `(digit 2j << 1) | digit 2j+1`.
///
/// # Panics
/// Panics on odd query width.
#[must_use]
pub fn query_levels(q: &PackedQuery) -> Vec<u8> {
    assert!(q.width().is_multiple_of(2), "query width must be even");
    (0..q.width() / 2)
        .map(|j| (u8::from(q.bit(2 * j)) << 1) | u8::from(q.bit(2 * j + 1)))
        .collect()
}

/// Inverse of [`query_levels`]: pack per-cell 4-ary levels into the
/// two-digit-per-cell binary query a range search drives.
///
/// # Panics
/// Panics if any level exceeds 3.
#[must_use]
pub fn levels_to_query(levels: &[u8]) -> PackedQuery {
    let mut bits = Vec::with_capacity(levels.len() * 2);
    for &l in levels {
        assert!(l <= 3, "cell level {l} out of range (0..=3)");
        bits.push(l & 0b10 != 0);
        bits.push(l & 0b01 != 0);
    }
    PackedQuery::from_bits(&bits)
}

/// The per-cell windows a stored ternary word induces, digit by digit
/// (the range oracle the kernel's plane expressions are held to).
///
/// # Panics
/// Panics on odd word length.
#[must_use]
pub fn word_windows(w: &TernaryWord) -> Vec<(u8, u8)> {
    assert!(w.len().is_multiple_of(2), "word length must be even");
    let bit = |d: Ternary| -> (u8, u8) {
        match d {
            Ternary::One => (1, 1),
            Ternary::Zero => (0, 0),
            Ternary::X => (0, 1),
        }
    };
    (0..w.len() / 2)
        .map(|j| {
            let (hi_lo, hi_hi) = bit(w.digit(2 * j));
            let (lo_lo, lo_hi) = bit(w.digit(2 * j + 1));
            ((hi_lo << 1) | lo_lo, (hi_hi << 1) | lo_hi)
        })
        .collect()
}

/// Whether one stored row's per-cell windows contain the query's
/// levels — a digit-case evaluation over the row-major packed words,
/// derived independently of the bit-sliced kernel's per-level plane
/// expressions so the two stay separate witnesses of the same
/// predicate (this one is the audit lane's oracle). Containment splits by
/// the cell's care pattern: a cared hi digit pins the level's high
/// bit (and with the lo digit also cared the window is a point); a
/// wildcard hi digit over a cared lo value `v` spans `[v, v + 2]`,
/// which excludes exactly the level whose two bits both equal `!v`;
/// a fully wildcard cell admits everything.
///
/// # Panics
/// Panics on width mismatch, odd width, or an out-of-range row.
#[must_use]
pub fn row_in_windows(rows: &PackedRows, row: usize, q: &PackedQuery) -> bool {
    assert_eq!(q.width(), rows.width(), "query width mismatch");
    assert!(rows.width().is_multiple_of(2), "range cells pair digits");
    assert!(row < rows.rows(), "row {row} out of range");
    // Even digit lanes hold each cell's hi bit, odd lanes the lo bit;
    // shifting the odd lanes down aligns both on the hi-lane mask.
    const HI: u64 = 0x5555_5555_5555_5555;
    let base = row * rows.wpr;
    for w in 0..rows.wpr {
        let (v, c, qw) = (rows.value[base + w], rows.care[base + w], q.word(w));
        let (vh, vl) = (v & HI, (v >> 1) & HI);
        let (ch, cl) = (c & HI, (c >> 1) & HI);
        let (qh, ql) = (qw & HI, (qw >> 1) & HI);
        let fail = ((qh ^ vh) & ch) | ((ql ^ vl) & cl & ch) | ((ql ^ vl) & (qh ^ vl) & cl & !ch);
        if fail != 0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behav::BehavioralTcam;
    use crate::packed::BitSlices;

    fn table() -> (BehavioralTcam, PackedRows) {
        let mut t = BehavioralTcam::new(6);
        for s in ["101010", "10XX10", "011001", "XXXXXX", "101011"] {
            t.store(s.parse().unwrap());
        }
        let p = PackedRows::from_tcam(&t);
        (t, p)
    }

    #[test]
    fn distance_matches_mismatch_count() {
        let (t, p) = table();
        let q = [true, false, true, false, true, false];
        let pq = PackedQuery::from_bits(&q);
        for (r, row) in t.rows().iter().enumerate() {
            assert_eq!(row_distance(&p, r, &pq) as usize, row.mismatch_count(&q));
        }
    }

    #[test]
    fn threshold_is_distance_filter() {
        let (t, p) = table();
        let q = [true, false, true, false, true, false];
        let pq = PackedQuery::from_bits(&q);
        for t_d in 0..=6u32 {
            let hits = threshold_search(&p, &pq, t_d);
            let want: Vec<usize> = t
                .rows()
                .iter()
                .enumerate()
                .filter(|(_, row)| row.mismatch_count(&q) as u32 <= t_d)
                .map(|(r, _)| r)
                .collect();
            assert_eq!(hits.iter().map(|h| h.row).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn top_k_matches_nearest_with_lowest_row_ties() {
        let (t, p) = table();
        let q = [true, false, true, false, true, false];
        let pq = PackedQuery::from_bits(&q);
        let oracle = t.nearest(&q);
        for k in 0..=6usize {
            let hits = top_k([(0, &p)], &pq, k);
            let want: Vec<(usize, u32)> =
                oracle.iter().take(k).map(|&(r, d)| (r, d as u32)).collect();
            let got: Vec<(usize, u32)> = hits.iter().map(|h| (h.row, h.distance)).collect();
            assert_eq!(got, want, "k = {k}");
        }
    }

    #[test]
    fn merge_equals_global_top_k() {
        let (_, p) = table();
        let q = PackedQuery::from_bits(&[true, false, true, false, true, false]);
        let global = top_k([(0, &p)], &q, 3);
        // Split the same rows into two "shards" by parity of row id.
        let all = threshold_search(&p, &q, u32::MAX);
        let (mut e, mut o): (Vec<ApproxHit>, Vec<ApproxHit>) =
            all.into_iter().partition(|h| h.row % 2 == 0);
        e.sort_unstable();
        o.sort_unstable();
        e.truncate(3);
        o.truncate(3);
        let merged = merge_top_k(&[e, o], 3);
        assert_eq!(merged, global);
    }

    #[test]
    fn range_admits_mid_window_levels_ternary_match_rejects() {
        // Stored "X1" = window [1, 3]: query level 2 ("10") is inside
        // the window but is not a ternary match of "X1".
        let mut t = BehavioralTcam::new(2);
        t.store("X1".parse().unwrap());
        let r = BitSlices::from_tcam(&t);
        let q = PackedQuery::from_bits(&[true, false]); // level 2
        assert!(t.search(&[true, false]).matches.is_empty());
        assert_eq!(r.range_search(&q), vec![0]);
        let q0 = PackedQuery::from_bits(&[false, false]); // level 0 < lo
        assert!(r.range_search(&q0).is_empty());
    }

    #[test]
    fn range_spans_words_and_blocks() {
        // 33 cells → 66 digits → 2 packed words per row, over 514 rows
        // so a second block holds two rows and 510 rows of padding.
        // Row r stores "X0" in cell r % 33 and "01" elsewhere: windows
        // [0, 2] and [1, 1], so the all-level-1 query admits every row
        // and setting cell c to level 2 keeps exactly the rows whose
        // wildcard cell is c (cell 17 is row 512's, in the second block).
        let cells = 33;
        let mut t = BehavioralTcam::new(2 * cells);
        for r in 0..514 {
            let s: String = (0..cells)
                .map(|c| if c == r % cells { "X0" } else { "01" })
                .collect();
            t.store(s.parse().unwrap());
        }
        let r = BitSlices::from_tcam(&t);
        let mut levels = vec![1u8; cells];
        assert_eq!(
            r.range_search(&levels_to_query(&levels)),
            (0..514).collect::<Vec<_>>()
        );
        for c in [0usize, 17, 31, 32] {
            levels[c] = 2;
            let want: Vec<usize> = (0..514).filter(|row| row % cells == c).collect();
            assert_eq!(r.range_search(&levels_to_query(&levels)), want, "cell {c}");
            levels[c] = 1;
        }
    }

    #[test]
    fn zero_width_range_returns_every_row_and_no_padding() {
        let mut t = BehavioralTcam::new(0);
        for _ in 0..3 {
            t.store(TernaryWord::from_bits(&[]));
        }
        let r = BitSlices::from_tcam(&t);
        assert_eq!(r.range_search(&PackedQuery::from_bits(&[])), vec![0, 1, 2]);
    }
}
