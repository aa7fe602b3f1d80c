//! Behavioural (functional) TCAM array.
//!
//! This is the cycle-free logical model: store ternary words, search a
//! binary query against every row in parallel, return matches. It also
//! collects the **two-step search statistics** that drive the early-
//! termination energy model of Sec. III-B3: in the 1.5T1Fe array, step 1
//! searches the even-indexed cells (`cell₁` of every pair) and only rows
//! that survive step 1 spend energy on step 2.

use crate::ternary::{Ternary, TernaryWord};
use serde::{Deserialize, Serialize};

/// A functional TCAM array of fixed word width.
#[derive(Debug, Clone, Default)]
pub struct BehavioralTcam {
    width: usize,
    rows: Vec<TernaryWord>,
}

/// Result of a two-step search over the whole array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Indices of rows matching the full query, ascending.
    pub matches: Vec<usize>,
    /// Rows that mismatched already in step 1 (early-terminated).
    pub step1_misses: usize,
    /// Rows that survived step 1 but mismatched in step 2.
    pub step2_misses: usize,
}

impl SearchOutcome {
    /// Outcome of searching nothing: no matches, no misses.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            matches: Vec::new(),
            step1_misses: 0,
            step2_misses: 0,
        }
    }

    /// Lowest-index (highest-priority) match, if any.
    #[must_use]
    pub fn best(&self) -> Option<usize> {
        self.matches.first().copied()
    }

    /// Rows that survived step 1 and therefore paid the full two-step
    /// energy: matches plus step-2 misses. Together with
    /// `step1_misses` this is the pair the calibrated attribution
    /// formula (`misses × E₁ + survivors × E₂`) consumes.
    #[must_use]
    pub fn survivors(&self) -> usize {
        self.matches.len() + self.step2_misses
    }

    /// Total rows this outcome accounts for (misses + survivors).
    #[must_use]
    pub fn rows_examined(&self) -> usize {
        self.step1_misses + self.survivors()
    }

    /// Fold another outcome (e.g. one shard's) into this one. Match
    /// ids concatenate unsorted; callers merging shards sort once at
    /// the end.
    pub fn absorb(&mut self, other: SearchOutcome) {
        self.matches.extend(other.matches);
        self.step1_misses += other.step1_misses;
        self.step2_misses += other.step2_misses;
    }

    /// Fraction of rows early-terminated after step 1 (the paper's
    /// "step-1 miss rate"; ~0.9–0.95 in real workloads).
    #[must_use]
    pub fn step1_miss_rate(&self) -> f64 {
        let total = self.matches.len() + self.step1_misses + self.step2_misses;
        if total == 0 {
            0.0
        } else {
            self.step1_misses as f64 / total as f64
        }
    }
}

impl BehavioralTcam {
    /// Create an empty array with `width`-digit words.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            width,
            rows: Vec::new(),
        }
    }

    /// Word width in digits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a word; returns its row index.
    ///
    /// # Panics
    /// Panics if the word width differs from the array width.
    pub fn store(&mut self, word: TernaryWord) -> usize {
        assert_eq!(word.len(), self.width, "word width mismatch");
        self.rows.push(word);
        self.rows.len() - 1
    }

    /// Overwrite a row in place.
    ///
    /// # Panics
    /// Panics on width mismatch or out-of-range index.
    pub fn write(&mut self, row: usize, word: TernaryWord) {
        assert_eq!(word.len(), self.width, "word width mismatch");
        self.rows[row] = word;
    }

    /// Read a stored row.
    #[must_use]
    pub fn row(&self, index: usize) -> Option<&TernaryWord> {
        self.rows.get(index)
    }

    /// Stored rows in index order.
    #[must_use]
    pub fn rows(&self) -> &[TernaryWord] {
        &self.rows
    }

    /// Parallel search of a binary query with two-step statistics.
    ///
    /// Step 1 compares even digit positions (cell₁ of each 2-cell pair),
    /// step 2 the odd positions — the digit interleaving of the 1.5T1Fe
    /// array (Fig. 5(c)).
    ///
    /// # Panics
    /// Panics if the query width differs from the array width.
    #[must_use]
    pub fn search(&self, query: &[bool]) -> SearchOutcome {
        assert_eq!(query.len(), self.width, "query width mismatch");
        let mut out = SearchOutcome {
            matches: Vec::new(),
            step1_misses: 0,
            step2_misses: 0,
        };
        for (ri, row) in self.rows.iter().enumerate() {
            let step1_ok = row
                .iter()
                .zip(query)
                .step_by(2)
                .all(|(&d, &q)| d.matches(q));
            if !step1_ok {
                out.step1_misses += 1;
                continue;
            }
            let step2_ok = row
                .iter()
                .zip(query)
                .skip(1)
                .step_by(2)
                .all(|(&d, &q)| d.matches(q));
            if step2_ok {
                out.matches.push(ri);
            } else {
                out.step2_misses += 1;
            }
        }
        out
    }

    /// Brute-force match set (reference implementation for tests).
    ///
    /// # Panics
    /// Panics if the query width differs from the array width.
    #[must_use]
    pub fn search_naive(&self, query: &[bool]) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.matches_query(query).then_some(i))
            .collect()
    }

    /// Rows sorted by ascending mismatch count — the approximate-match
    /// primitive behind CAM-based one-shot learning and DNA read
    /// mapping. Returns `(row, mismatches)`.
    ///
    /// # Panics
    /// Panics if the query width differs from the array width.
    #[must_use]
    pub fn nearest(&self, query: &[bool]) -> Vec<(usize, usize)> {
        let mut scored: Vec<(usize, usize)> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.mismatch_count(query)))
            .collect();
        scored.sort_by_key(|&(i, m)| (m, i));
        scored
    }

    /// Average step-1 miss rate over a query workload — the statistic
    /// plugged into the early-termination energy model.
    #[must_use]
    pub fn workload_step1_miss_rate<'a>(
        &self,
        queries: impl IntoIterator<Item = &'a [bool]>,
    ) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for q in queries {
            sum += self.search(q).step1_miss_rate();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Per-row ternary state of a digit column (used by the circuit
    /// array builder to program FeFETs).
    ///
    /// # Panics
    /// Panics if `col` is out of range.
    #[must_use]
    pub fn column(&self, col: usize) -> Vec<Ternary> {
        assert!(col < self.width, "column out of range");
        self.rows.iter().map(|r| r.digit(col)).collect()
    }
}

impl Extend<TernaryWord> for BehavioralTcam {
    fn extend<I: IntoIterator<Item = TernaryWord>>(&mut self, iter: I) {
        for w in iter {
            self.store(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> BehavioralTcam {
        let mut t = BehavioralTcam::new(4);
        t.store("1010".parse().unwrap()); // row 0
        t.store("10XX".parse().unwrap()); // row 1
        t.store("0110".parse().unwrap()); // row 2
        t.store("XXXX".parse().unwrap()); // row 3
        t
    }

    #[test]
    fn search_matches_naive() {
        let t = array();
        let q = [true, false, true, false];
        let out = t.search(&q);
        assert_eq!(out.matches, t.search_naive(&q));
        assert_eq!(out.matches, vec![0, 1, 3]);
        assert_eq!(out.best(), Some(0));
    }

    #[test]
    fn step_statistics_partition_rows() {
        let t = array();
        // Query 0110: row2+row3 match; row0 mismatches at digit0 (step1);
        // row1 mismatches digit0 too (stored 1, query 0) → step-1 miss.
        let q = [false, true, true, false];
        let out = t.search(&q);
        assert_eq!(out.matches, vec![2, 3]);
        assert_eq!(out.step1_misses, 2);
        assert_eq!(out.step2_misses, 0);
        assert!((out.step1_miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn step2_miss_detected() {
        let mut t = BehavioralTcam::new(4);
        // Mismatch only in an odd (step-2) position.
        t.store("1111".parse().unwrap());
        let out = t.search(&[true, false, true, true]);
        assert_eq!(out.step1_misses, 0);
        assert_eq!(out.step2_misses, 1);
        assert!(out.matches.is_empty());
    }

    #[test]
    fn nearest_orders_by_hamming() {
        let t = array();
        let q = [true, false, true, true];
        let scored = t.nearest(&q);
        assert_eq!(scored[0], (1, 0)); // 10XX matches exactly
        assert_eq!(scored[1], (3, 0)); // wildcard row
        assert_eq!(scored[2], (0, 1)); // 1010 differs in last digit
    }

    #[test]
    fn write_overwrites_row() {
        let mut t = array();
        t.write(0, "0000".parse().unwrap());
        assert_eq!(t.row(0).unwrap().to_string(), "0000");
        assert!(t.search(&[false; 4]).matches.contains(&0));
    }

    #[test]
    fn column_extraction() {
        let t = array();
        let c0 = t.column(0);
        assert_eq!(
            c0,
            vec![Ternary::One, Ternary::One, Ternary::Zero, Ternary::X]
        );
    }

    #[test]
    fn zero_row_array_statistics() {
        let t = BehavioralTcam::new(4);
        assert!(t.is_empty());
        let out = t.search(&[true, false, true, false]);
        assert!(out.matches.is_empty());
        assert_eq!(out.step1_misses, 0);
        assert_eq!(out.step2_misses, 0);
        assert_eq!(out.best(), None);
        // The empty-workload convention: a search over zero rows has a
        // 0.0 miss rate, not NaN.
        assert_eq!(out.step1_miss_rate(), 0.0);
        assert_eq!(t.workload_step1_miss_rate(std::iter::empty()), 0.0);
    }

    #[test]
    fn all_wildcard_rows_survive_both_steps() {
        let mut t = BehavioralTcam::new(6);
        for _ in 0..5 {
            t.store("XXXXXX".parse().unwrap());
        }
        for q in [[false; 6], [true; 6]] {
            let out = t.search(&q);
            // Wildcards match everything: no row ever early-terminates,
            // so step 1 saves no energy at all on this content.
            assert_eq!(out.matches, vec![0, 1, 2, 3, 4]);
            assert_eq!(out.step1_misses, 0);
            assert_eq!(out.step2_misses, 0);
            assert_eq!(out.step1_miss_rate(), 0.0);
        }
    }

    #[test]
    fn odd_width_wildcards_and_step_split() {
        // Width 3: step 1 covers digits {0, 2}, step 2 covers {1}.
        let mut t = BehavioralTcam::new(3);
        t.store("XXX".parse().unwrap()); // always matches
        t.store("X0X".parse().unwrap()); // step-2-only constraint
        let hit = t.search(&[true, false, true]);
        assert_eq!(hit.matches, vec![0, 1]);
        assert_eq!(hit.step1_misses, 0);
        let miss = t.search(&[true, true, true]);
        // Row 1 survives step 1 (both step-1 digits are X) and dies in
        // step 2 — the early-termination stats must say so.
        assert_eq!(miss.matches, vec![0]);
        assert_eq!(miss.step1_misses, 0);
        assert_eq!(miss.step2_misses, 1);
    }

    #[test]
    fn survivor_accounting_and_merge() {
        let t = array();
        let out = t.search(&[false, true, true, false]);
        assert_eq!(out.survivors(), out.matches.len() + out.step2_misses);
        assert_eq!(out.rows_examined(), t.len());
        let mut merged = SearchOutcome::empty();
        merged.absorb(out.clone());
        merged.absorb(out.clone());
        assert_eq!(merged.rows_examined(), 2 * t.len());
        assert_eq!(merged.step1_misses, 2 * out.step1_misses);
        assert_eq!(merged.matches.len(), 2 * out.matches.len());
    }

    #[test]
    fn workload_miss_rate_average() {
        let t = array();
        let q1 = vec![false, true, true, false];
        let q2 = vec![true, false, true, false];
        let rate = t.workload_step1_miss_rate([q1.as_slice(), q2.as_slice()]);
        // q1: 2/4 step1 misses; q2: row2 misses at digit0 → 1/4.
        assert!((rate - (0.5 + 0.25) / 2.0).abs() < 1e-12);
    }
}
