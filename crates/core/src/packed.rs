//! Bit-packed two-plane TCAM representation and the word-parallel
//! behavioural search kernel.
//!
//! A ternary row packs into two `u64` planes — a *value* plane and a
//! *care* plane (`care = 0` for wildcard digits) — so one query checks
//! 64 digits per instruction: `mismatch = (query ^ value) & care`.
//! Digit `i` lives in word `i / 64` at bit `i % 64`, and because 64 is
//! even, the array's two-step digit interleave (step 1 = even digit
//! positions, step 2 = odd positions; Fig. 5(c)) is a pair of constant
//! masks: [`STEP1_MASK`] and [`STEP2_MASK`].
//!
//! Two layouts share the packing:
//!
//! * [`PackedRows`] — row-major, the literal `(q ^ v) & care` scan.
//!   Exact and simple; the oracle the property tests and the serve
//!   audit lane pin the sliced kernel against. No search kernel reads
//!   it.
//! * [`BitSlices`] — transposed (bit-sliced) match planes in blocks of
//!   512 rows. Step 1 is an AND-chain over the even-digit planes with
//!   early exit on an all-zero accumulator, so a query touches only as
//!   many planes as it takes to kill every row in the block — the
//!   in-software analogue of the paper's early-termination search.
//!   Step 2 runs only on a block with step-1 survivors, as the
//!   paper's second phase runs only on the match lines still high: it
//!   continues the same AND chain over the odd-digit planes, so a
//!   step-2 miss is a step-1 survivor bit that the odd planes clear.
//!   The same planes answer the FeCAM range match
//!   ([`BitSlices::range_search`]): each 4-level cell ANDs one
//!   expression over its two digits' planes into the accumulator, with
//!   the same early exit. A query's plane offsets ([`ExactPlan`],
//!   [`RangePlan`]) are built once and shared by every block of its
//!   width.
//!
//! Both return the same [`SearchOutcome`] as [`BehavioralTcam::search`],
//! bit-identically — including per-step miss counts, which is what the
//! serving layer's calibrated energy attribution consumes.

use crate::behav::{BehavioralTcam, SearchOutcome};
use crate::ternary::{Ternary, TernaryWord};

/// Mask selecting the even digit positions (step 1) of any packed word.
pub const STEP1_MASK: u64 = 0x5555_5555_5555_5555;
/// Mask selecting the odd digit positions (step 2) of any packed word.
pub const STEP2_MASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Rows per bit-slice block word (the accumulator register count).
const WPB: usize = 8;
/// Rows per bit-slice block.
const ROWS_PER_BLOCK: usize = 64 * WPB;

/// A binary query packed LSB-first into `u64` words (digit `i` → word
/// `i / 64`, bit `i % 64`).
///
/// The first word is stored inline so queries up to 64 digits — the
/// serving hot path — never allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedQuery {
    width: usize,
    head: u64,
    rest: Vec<u64>,
}

impl PackedQuery {
    /// Pack a boolean query (`bits[i]` is digit `i`).
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut head = 0u64;
        let mut rest = Vec::new();
        for (i, &b) in bits.iter().enumerate() {
            if b {
                let w = i / 64;
                if w == 0 {
                    head |= 1 << i;
                } else {
                    if rest.len() < w {
                        rest.resize(w, 0);
                    }
                    rest[w - 1] |= 1 << (i % 64);
                }
            }
        }
        let words = bits.len().div_ceil(64);
        if words > 1 {
            rest.resize(words - 1, 0);
        }
        Self {
            width: bits.len(),
            head,
            rest,
        }
    }

    /// Pack from raw little-endian words; tail bits beyond `width` are
    /// masked off. The fast path for generated workloads: a random
    /// `u64` is a random 64-digit query with no per-bit loop.
    ///
    /// # Panics
    /// Panics if `words` is shorter than `width` requires.
    #[must_use]
    pub fn from_words(width: usize, words: &[u64]) -> Self {
        let need = width.div_ceil(64);
        assert!(words.len() >= need, "need {need} words for width {width}");
        let mask = |w: usize| -> u64 {
            let bits = width.saturating_sub(w * 64);
            match bits {
                0 => 0,
                b if b >= 64 => !0,
                b => (1u64 << b) - 1,
            }
        };
        let head = if need == 0 { 0 } else { words[0] & mask(0) };
        let rest = (1..need).map(|w| words[w] & mask(w)).collect();
        Self { width, head, rest }
    }

    /// Mirror of [`TernaryWord::from_u64`]: digit `i` is bit `n-1-i`
    /// of `value` (MSB-first display order).
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[must_use]
    pub fn from_u64(value: u64, n: usize) -> Self {
        assert!(n <= 64, "u64 queries are at most 64 digits");
        let bits: Vec<bool> = (0..n).map(|i| (value >> (n - 1 - i)) & 1 == 1).collect();
        Self::from_bits(&bits)
    }

    /// Query width in digits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Packed word `w` (zero beyond the width).
    #[must_use]
    pub fn word(&self, w: usize) -> u64 {
        if w == 0 {
            self.head
        } else {
            self.rest.get(w - 1).copied().unwrap_or(0)
        }
    }

    /// Digit `i` of the query.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.width, "digit {i} out of range");
        (self.word(i / 64) >> (i % 64)) & 1 == 1
    }

    /// Unpack to the boolean form the behavioural layer consumes.
    #[must_use]
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.width)
            .map(|i| (self.word(i / 64) >> (i % 64)) & 1 == 1)
            .collect()
    }
}

/// Row-major two-plane packed table: `value`/`care` words per row.
#[derive(Debug, Clone, Default)]
pub struct PackedRows {
    width: usize,
    pub(crate) wpr: usize,
    rows: usize,
    pub(crate) value: Vec<u64>,
    pub(crate) care: Vec<u64>,
}

impl PackedRows {
    /// Empty packed table of `width`-digit rows.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            width,
            wpr: width.div_ceil(64),
            rows: 0,
            value: Vec::new(),
            care: Vec::new(),
        }
    }

    /// Pack every row of a behavioural array (same row order).
    #[must_use]
    pub fn from_tcam(tcam: &BehavioralTcam) -> Self {
        let mut p = Self::new(tcam.width());
        for row in tcam.rows() {
            p.push(row);
        }
        p
    }

    /// Append one ternary row.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn push(&mut self, word: &TernaryWord) {
        assert_eq!(word.len(), self.width, "row width mismatch");
        let base = self.value.len();
        self.value.resize(base + self.wpr, 0);
        self.care.resize(base + self.wpr, 0);
        for (i, &d) in word.digits().iter().enumerate() {
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            match d {
                Ternary::One => {
                    self.value[base + w] |= bit;
                    self.care[base + w] |= bit;
                }
                Ternary::Zero => self.care[base + w] |= bit,
                Ternary::X => {}
            }
        }
        self.rows += 1;
    }

    /// Overwrite row `row` in place with `word`.
    ///
    /// # Panics
    /// Panics on width mismatch or an out-of-range row.
    pub fn write_row(&mut self, row: usize, word: &TernaryWord) {
        assert!(row < self.rows, "row {row} out of range");
        assert_eq!(word.len(), self.width, "row width mismatch");
        let base = row * self.wpr;
        for w in 0..self.wpr {
            self.value[base + w] = 0;
            self.care[base + w] = 0;
        }
        for (i, &d) in word.digits().iter().enumerate() {
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            match d {
                Ternary::One => {
                    self.value[base + w] |= bit;
                    self.care[base + w] |= bit;
                }
                Ternary::Zero => self.care[base + w] |= bit,
                Ternary::X => {}
            }
        }
    }

    /// Remove row `row` by moving the last row into its slot (O(1) in
    /// rows; the moved row changes id, which callers surface as the
    /// slot-reuse semantics of a delete).
    ///
    /// # Panics
    /// Panics on an out-of-range row.
    pub fn swap_remove_row(&mut self, row: usize) {
        assert!(row < self.rows, "row {row} out of range");
        let last = self.rows - 1;
        if row != last {
            let (lb, rb) = (last * self.wpr, row * self.wpr);
            for w in 0..self.wpr {
                self.value[rb + w] = self.value[lb + w];
                self.care[rb + w] = self.care[lb + w];
            }
        }
        self.value.truncate(last * self.wpr);
        self.care.truncate(last * self.wpr);
        self.rows = last;
    }

    /// Stored row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row width in digits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per packed row.
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.wpr
    }

    /// Reconstruct row `row` as a ternary word: `X` where the care bit
    /// is clear, else the value bit. Inverse of [`PackedRows::push`].
    ///
    /// # Panics
    /// Panics on an out-of-range row.
    #[must_use]
    pub fn row_word(&self, row: usize) -> TernaryWord {
        assert!(row < self.rows, "row {row} out of range");
        let base = row * self.wpr;
        let digits = (0..self.width)
            .map(|i| {
                let (w, bit) = (i / 64, 1u64 << (i % 64));
                if self.care[base + w] & bit == 0 {
                    Ternary::X
                } else if self.value[base + w] & bit != 0 {
                    Ternary::One
                } else {
                    Ternary::Zero
                }
            })
            .collect();
        TernaryWord::new(digits)
    }

    /// Word-parallel two-step search over every row, bit-identical to
    /// [`BehavioralTcam::search`]: the row-major oracle of
    /// [`BitSlices::search`], which reads none of these words.
    ///
    /// # Panics
    /// Panics on query-width mismatch.
    #[must_use]
    pub fn search(&self, q: &PackedQuery) -> SearchOutcome {
        assert_eq!(q.width(), self.width, "query width mismatch");
        let mut out = SearchOutcome::empty();
        for r in 0..self.rows {
            let base = r * self.wpr;
            let (mut s1, mut s2) = (0u64, 0u64);
            for w in 0..self.wpr {
                let mis = (q.word(w) ^ self.value[base + w]) & self.care[base + w];
                s1 |= mis & STEP1_MASK;
                s2 |= mis & STEP2_MASK;
            }
            if s1 != 0 {
                out.step1_misses += 1;
            } else if s2 != 0 {
                out.step2_misses += 1;
            } else {
                out.matches.push(r);
            }
        }
        out
    }
}

/// Transposed (bit-sliced) match planes over blocks of 512 rows, plus
/// the row-major packed words the approximate kernels and the oracle
/// read. Exact and range search read only the planes.
///
/// Per block, per digit (even digits first, then odd), two row-bitmap
/// planes of `WPB` (8) words each: `m0` (rows matching a searched `0`)
/// and `m1` (rows matching a searched `1`). A wildcard row sets its
/// bit in both planes; a row absent from the block (tail padding) sets
/// neither, so padding dies on the first AND.
#[derive(Debug, Clone)]
pub struct BitSlices {
    packed: PackedRows,
    planes: Vec<u64>,
    blocks: usize,
    evens: usize,
}

impl BitSlices {
    /// Build the sliced planes from a packed table.
    #[must_use]
    pub fn build(packed: PackedRows) -> Self {
        let width = packed.width();
        let evens = width.div_ceil(2);
        let per_block = width * 2 * WPB;
        let blocks = packed.rows().div_ceil(ROWS_PER_BLOCK);
        let mut planes = vec![0u64; blocks * per_block];
        for r in 0..packed.rows() {
            let b = r / ROWS_PER_BLOCK;
            let w = (r / 64) % WPB;
            let bit = 1u64 << (r % 64);
            let rbase = r * packed.words_per_row();
            for d in 0..width {
                let care = (packed.care[rbase + d / 64] >> (d % 64)) & 1 == 1;
                let val = (packed.value[rbase + d / 64] >> (d % 64)) & 1 == 1;
                let pbase = b * per_block + plane_of(d, evens) + w;
                if !care || !val {
                    planes[pbase] |= bit; // matches a searched 0
                }
                if !care || val {
                    planes[pbase + WPB] |= bit; // matches a searched 1
                }
            }
        }
        Self {
            packed,
            planes,
            blocks,
            evens,
        }
    }

    /// Pack and slice a behavioural array in one step.
    #[must_use]
    pub fn from_tcam(tcam: &BehavioralTcam) -> Self {
        Self::build(PackedRows::from_tcam(tcam))
    }

    /// The underlying row-major packed table.
    #[must_use]
    pub fn packed(&self) -> &PackedRows {
        &self.packed
    }

    /// Stored row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.packed.rows()
    }

    /// Row width in digits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.packed.width()
    }

    /// Clear row `r`'s bit from every plane of its block.
    fn clear_row_planes(&mut self, r: usize) {
        let width = self.packed.width();
        let per_block = width * 2 * WPB;
        let b = r / ROWS_PER_BLOCK;
        let w = (r / 64) % WPB;
        let bit = 1u64 << (r % 64);
        for d in 0..width {
            let pbase = b * per_block + plane_of(d, self.evens) + w;
            self.planes[pbase] &= !bit;
            self.planes[pbase + WPB] &= !bit;
        }
    }

    /// Set row `r`'s plane bits from its current packed digits (the
    /// per-row body of [`BitSlices::build`]).
    fn set_row_planes(&mut self, r: usize) {
        let width = self.packed.width();
        let per_block = width * 2 * WPB;
        let b = r / ROWS_PER_BLOCK;
        let w = (r / 64) % WPB;
        let bit = 1u64 << (r % 64);
        let rbase = r * self.packed.words_per_row();
        for d in 0..width {
            let care = (self.packed.care[rbase + d / 64] >> (d % 64)) & 1 == 1;
            let val = (self.packed.value[rbase + d / 64] >> (d % 64)) & 1 == 1;
            let pbase = b * per_block + plane_of(d, self.evens) + w;
            if !care || !val {
                self.planes[pbase] |= bit;
            }
            if !care || val {
                self.planes[pbase + WPB] |= bit;
            }
        }
    }

    /// Overwrite row `row` (packed words and plane bits) in place.
    ///
    /// # Panics
    /// Panics on width mismatch or an out-of-range row.
    pub fn write_row(&mut self, row: usize, word: &TernaryWord) {
        self.packed.write_row(row, word);
        self.clear_row_planes(row);
        self.set_row_planes(row);
    }

    /// Append one row, growing a fresh plane block when the last one
    /// is full.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn push_row(&mut self, word: &TernaryWord) {
        let r = self.packed.rows();
        self.packed.push(word);
        if r / ROWS_PER_BLOCK >= self.blocks {
            let per_block = self.packed.width() * 2 * WPB;
            self.blocks += 1;
            self.planes.resize(self.blocks * per_block, 0);
        }
        self.set_row_planes(r);
    }

    /// Remove row `row` by moving the last row into its slot, keeping
    /// planes and packed words in lockstep and dropping a trailing
    /// plane block once it empties.
    ///
    /// # Panics
    /// Panics on an out-of-range row.
    pub fn swap_remove_row(&mut self, row: usize) {
        let rows = self.packed.rows();
        assert!(row < rows, "row {row} out of range");
        let last = rows - 1;
        self.clear_row_planes(last);
        if row != last {
            self.clear_row_planes(row);
        }
        self.packed.swap_remove_row(row);
        if row != last {
            self.set_row_planes(row);
        }
        let need = self.packed.rows().div_ceil(ROWS_PER_BLOCK);
        if need < self.blocks {
            let per_block = self.packed.width() * 2 * WPB;
            self.blocks = need;
            self.planes.truncate(need * per_block);
        }
    }

    /// Early-terminating two-step search, bit-identical to
    /// [`BehavioralTcam::search`] (matches ascending, exact per-step
    /// miss counts). Both steps are AND chains over this block's
    /// planes: step 1 over the even digits, then, in a block where any
    /// row survived it, step 2 over the odd digits.
    ///
    /// # Panics
    /// Panics on query-width mismatch.
    #[must_use]
    pub fn search(&self, q: &PackedQuery) -> SearchOutcome {
        self.search_planned(&ExactPlan::new(q))
    }

    /// [`BitSlices::search`] with the query's plane offsets built once
    /// by the caller, so a search over many blocks of one width plans
    /// once, not once per block.
    ///
    /// # Panics
    /// Panics on query-width mismatch.
    #[must_use]
    pub fn search_planned(&self, plan: &ExactPlan) -> SearchOutcome {
        assert_eq!(plan.sel.len(), self.packed.width(), "query width mismatch");
        let mut out = SearchOutcome::empty();
        let rows = self.packed.rows();
        if self.packed.width() == 0 {
            // Zero-width rows match every query vacuously.
            out.matches.extend(0..rows);
            return out;
        }
        let per_block = self.packed.width() * 2 * WPB;
        let (even, odd) = plan.sel.split_at(plan.evens);
        let mut survivors = 0usize;
        for b in 0..self.blocks {
            let block = &self.planes[b * per_block..(b + 1) * per_block];
            let mut acc = [!0u64; WPB];
            for (i, &s) in even.iter().enumerate() {
                let plane = &block[s..s + WPB];
                for w in 0..WPB {
                    acc[w] &= plane[w];
                }
                // Early termination: check the accumulator every four
                // digits (the measured sweet spot — checking oftener
                // costs more than it saves).
                if (i + 1) & 3 == 0 && dead(&acc) {
                    break;
                }
            }
            if dead(&acc) {
                continue;
            }
            survivors += step2(block, odd, &acc, b * ROWS_PER_BLOCK, &mut out);
        }
        out.step1_misses = rows - survivors;
        out
    }

    /// Every row whose per-cell windows hold the query's levels,
    /// ascending — the FeCAM range match (see [`crate::approx`]) on the
    /// same planes exact search reads. Each cell ANDs one plane
    /// expression ([`RangePlan`]) into the accumulator, and a block
    /// stops once every row in it is dead, as step 1 of
    /// [`BitSlices::search`] does.
    ///
    /// # Panics
    /// Panics on odd query width (range mode pairs digits into cells)
    /// or a query-width mismatch.
    #[must_use]
    pub fn range_search(&self, q: &PackedQuery) -> Vec<usize> {
        self.range_search_planned(&RangePlan::new(q))
    }

    /// [`BitSlices::range_search`] with the plan built once by the
    /// caller for every block of the query's width.
    ///
    /// # Panics
    /// Panics on query-width mismatch.
    #[must_use]
    pub fn range_search_planned(&self, plan: &RangePlan) -> Vec<usize> {
        assert_eq!(plan.width, self.packed.width(), "query width mismatch");
        let rows = self.packed.rows();
        if plan.cells.is_empty() {
            // No cells: every stored row is vacuously in-window. The
            // all-ones accumulator would also admit the tail padding.
            return (0..rows).collect();
        }
        let per_block = self.packed.width() * 2 * WPB;
        let mut hits = Vec::new();
        for b in 0..self.blocks {
            let block = &self.planes[b * per_block..(b + 1) * per_block];
            let mut acc = [!0u64; WPB];
            for (i, &[x, y, z]) in plan.cells.iter().enumerate() {
                let (px, py, pz) = (&block[x..x + WPB], &block[y..y + WPB], &block[z..z + WPB]);
                for w in 0..WPB {
                    acc[w] &= px[w] & (py[w] | pz[w]);
                }
                if (i + 1) & 3 == 0 && dead(&acc) {
                    break;
                }
            }
            for (w, &a) in acc.iter().enumerate() {
                let mut bits = a;
                while bits != 0 {
                    hits.push(b * ROWS_PER_BLOCK + w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
        hits
    }
}

/// Whether no row of a block's accumulator survives.
#[inline]
fn dead(acc: &[u64; WPB]) -> bool {
    acc.iter().fold(0, |any, &a| any | a) == 0
}

/// Step 2 of one block: continue step 1's AND chain over the odd-digit
/// planes `odd`, starting from the step-1 survivors `s1`, with the same
/// every-4-planes dead check. The rows still set at the end are
/// matches (pushed onto `out` as `base + bit`); the rest of `s1` are
/// step-2 misses. Returns the step-1 survivor count.
///
/// Out of line on purpose: with this loop inlined into
/// [`BitSlices::search_planned`], its step-1 loop compiled slower, and
/// all-miss queries (which never reach step 2) paid for it.
#[inline(never)]
fn step2(
    block: &[u64],
    odd: &[usize],
    s1: &[u64; WPB],
    base: usize,
    out: &mut SearchOutcome,
) -> usize {
    let mut acc = *s1;
    for (i, &s) in odd.iter().enumerate() {
        let plane = &block[s..s + WPB];
        for w in 0..WPB {
            acc[w] &= plane[w];
        }
        if (i + 1) & 3 == 0 && dead(&acc) {
            break;
        }
    }
    let (mut survivors, mut matches) = (0, 0);
    for (w, (&a, &s)) in acc.iter().zip(s1).enumerate() {
        survivors += s.count_ones() as usize;
        matches += a.count_ones() as usize;
        let mut bits = a;
        while bits != 0 {
            out.matches
                .push(base + w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
    out.step2_misses += survivors - matches;
    survivors
}

/// Offset of digit `d`'s `m0` plane inside a block (`m1` follows it
/// at `+ WPB`): even digits take the first `evens` slots, odd digits
/// the rest.
#[inline]
fn plane_of(d: usize, evens: usize) -> usize {
    let slot = if d.is_multiple_of(2) {
        d / 2
    } else {
        evens + d / 2
    };
    slot * 2 * WPB
}

/// One exact query's plane offsets, shared by every block of the
/// query's width: for each digit in the block's plane order (the even
/// digits, then the odd ones), the query bit selects its `m0` or `m1`
/// plane. The first `evens` offsets drive step 1, the rest step 2.
#[derive(Debug, Clone)]
pub struct ExactPlan {
    sel: Vec<usize>,
    evens: usize,
}

impl ExactPlan {
    /// Plan `query` for [`BitSlices::search_planned`].
    #[must_use]
    pub fn new(query: &PackedQuery) -> Self {
        let width = query.width();
        let evens = width.div_ceil(2);
        let bit = |d: usize| ((query.word(d / 64) >> (d % 64)) & 1) as usize;
        let sel = (0..width)
            .step_by(2)
            .chain((1..width).step_by(2))
            .map(|d| plane_of(d, evens) + bit(d) * WPB)
            .collect();
        Self { sel, evens }
    }
}

/// One range query's plane expressions, shared by every block of the
/// query's width. Cell `j` is digit `2j` (the level's high bit, `h`)
/// and digit `2j + 1` (the low bit, `l`); its level `L` keeps the rows
/// `x & (y | z)` of three planes:
///
/// | `L` | rows kept |
/// |---|---|
/// | 0 | `m0[h] & m0[l]` |
/// | 1 | `m0[h] & (m1[h] \| m1[l])` |
/// | 2 | `m1[h] & (m0[h] \| m0[l])` |
/// | 3 | `m1[h] & m1[l]` |
///
/// Each is exact for the windows [`crate::approx::word_windows`]
/// derives: an `X` digit sets both of its planes, so it widens its bit
/// of the window to both values.
#[derive(Debug, Clone)]
pub struct RangePlan {
    width: usize,
    cells: Vec<[usize; 3]>,
}

impl RangePlan {
    /// Plan `q` for [`BitSlices::range_search_planned`].
    ///
    /// # Panics
    /// Panics on odd query width (a trailing half-cell has no level).
    #[must_use]
    pub fn new(q: &PackedQuery) -> Self {
        let width = q.width();
        assert!(
            width.is_multiple_of(2),
            "range mode pairs digits into cells; width must be even"
        );
        let evens = width / 2;
        let cells = (0..evens)
            .map(|j| {
                let (h, l) = (plane_of(2 * j, evens), plane_of(2 * j + 1, evens));
                let level = (u8::from(q.bit(2 * j)) << 1) | u8::from(q.bit(2 * j + 1));
                match level {
                    0 => [h, l, l],
                    1 => [h, l + WPB, h + WPB],
                    2 => [h + WPB, l, h],
                    _ => [h + WPB, l + WPB, l + WPB],
                }
            })
            .collect();
        Self { width, cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_bits(width: usize, seed: u64) -> Vec<bool> {
        let mut s = seed;
        (0..width)
            .map(|i| {
                if i % 64 == 0 {
                    s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                }
                (s >> (i % 64)) & 1 == 1
            })
            .collect()
    }

    fn assert_equivalent(tcam: &BehavioralTcam, q: &[bool]) {
        let reference = tcam.search(q);
        let pq = PackedQuery::from_bits(q);
        let packed = PackedRows::from_tcam(tcam);
        assert_eq!(packed.search(&pq), reference, "row-major kernel");
        let sliced = BitSlices::build(packed);
        assert_eq!(sliced.search(&pq), reference, "bit-sliced kernel");
    }

    #[test]
    fn packed_query_roundtrip_and_words() {
        for width in [0usize, 1, 7, 63, 64, 65, 130] {
            let bits = query_bits(width, 0xFEED ^ width as u64);
            let q = PackedQuery::from_bits(&bits);
            assert_eq!(q.width(), width);
            assert_eq!(q.to_bits(), bits);
            for (i, &b) in bits.iter().enumerate() {
                assert_eq!(q.bit(i), b, "width {width} digit {i}");
            }
        }
    }

    #[test]
    fn from_words_masks_tail() {
        let q = PackedQuery::from_words(5, &[!0u64]);
        assert_eq!(q.word(0), 0b11111);
        assert_eq!(q.to_bits(), vec![true; 5]);
        let q = PackedQuery::from_words(70, &[!0, !0]);
        assert_eq!(q.word(1), 0b11_1111);
    }

    #[test]
    fn from_u64_matches_ternary_word_convention() {
        let q = PackedQuery::from_u64(0b1010, 4);
        let w = TernaryWord::from_u64(0b1010, 4);
        let bits = q.to_bits();
        assert!(w.matches_query(&bits));
        assert_eq!(bits, vec![true, false, true, false]);
    }

    #[test]
    fn kernels_match_reference_on_mixed_rows() {
        let mut t = BehavioralTcam::new(4);
        t.store("1010".parse().unwrap());
        t.store("10XX".parse().unwrap());
        t.store("0110".parse().unwrap());
        t.store("XXXX".parse().unwrap());
        assert_equivalent(&t, &[true, false, true, false]);
        assert_equivalent(&t, &[false, true, true, false]);
    }

    #[test]
    fn kernels_match_on_wide_and_odd_widths() {
        for width in [3usize, 63, 64, 65, 100, 129] {
            let mut t = BehavioralTcam::new(width);
            for r in 0..700 {
                let bits = query_bits(width, r as u64);
                let word: TernaryWord = bits
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| {
                        if (i + r) % 7 == 0 {
                            Ternary::X
                        } else if b {
                            Ternary::One
                        } else {
                            Ternary::Zero
                        }
                    })
                    .collect();
                t.store(word);
            }
            for seed in 0..8u64 {
                // Stored patterns (hits) and random patterns (misses).
                let q = if seed % 2 == 0 {
                    query_bits(width, seed * 3)
                } else {
                    query_bits(width, 0xD00D ^ seed)
                };
                assert_equivalent(&t, &q);
            }
        }
    }

    #[test]
    fn all_wildcard_rows_all_match() {
        let mut t = BehavioralTcam::new(65);
        for _ in 0..520 {
            t.store((0..65).map(|_| Ternary::X).collect());
        }
        let q = query_bits(65, 9);
        assert_equivalent(&t, &q);
        let out = BitSlices::from_tcam(&t).search(&PackedQuery::from_bits(&q));
        assert_eq!(out.matches.len(), 520);
        assert_eq!(out.step1_misses, 0);
    }

    #[test]
    fn zero_rows_and_zero_width() {
        let empty = BehavioralTcam::new(16);
        assert_equivalent(&empty, &query_bits(16, 1));
        let mut nil = BehavioralTcam::new(0);
        nil.store(TernaryWord::from_bits(&[]));
        nil.store(TernaryWord::from_bits(&[]));
        assert_equivalent(&nil, &[]);
    }

    #[test]
    fn mutations_match_a_fresh_rebuild() {
        // write_row / push_row / swap_remove_row keep packed words and
        // plane bits identical to rebuilding from the mutated rows,
        // including across the 512-row block boundary (grow + shrink).
        let width = 33;
        let word_at = |seed: u64| -> TernaryWord {
            query_bits(width, seed)
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    if (i as u64 + seed).is_multiple_of(5) {
                        Ternary::X
                    } else if b {
                        Ternary::One
                    } else {
                        Ternary::Zero
                    }
                })
                .collect()
        };
        let mut mirror: Vec<TernaryWord> =
            (0..ROWS_PER_BLOCK - 1).map(|r| word_at(r as u64)).collect();
        let mut t = BehavioralTcam::new(width);
        for w in &mirror {
            t.store(w.clone());
        }
        let mut live = BitSlices::from_tcam(&t);

        let check = |live: &BitSlices, mirror: &[TernaryWord]| {
            let mut fresh = PackedRows::new(width);
            for w in mirror {
                fresh.push(w);
            }
            assert_eq!(live.packed().value, fresh.value, "value planes");
            assert_eq!(live.packed().care, fresh.care, "care planes");
            let rebuilt = BitSlices::build(fresh);
            for seed in 0..6u64 {
                let q = PackedQuery::from_bits(&query_bits(width, seed.wrapping_mul(0x9E37)));
                assert_eq!(live.search(&q), rebuilt.search(&q), "seed {seed}");
            }
        };

        // Overwrite rows at the front, middle and near the boundary.
        for (r, seed) in [(0usize, 900u64), (250, 901), (ROWS_PER_BLOCK - 2, 902)] {
            let w = word_at(seed);
            live.write_row(r, &w);
            mirror[r] = w;
        }
        check(&live, &mirror);
        // Push across the block boundary into a second block.
        for seed in 1000..1003u64 {
            let w = word_at(seed);
            live.push_row(&w);
            mirror.push(w);
        }
        assert_eq!(live.rows(), ROWS_PER_BLOCK + 2);
        check(&live, &mirror);
        // Swap-remove from the middle (moves the last row down) and
        // then shrink back below the boundary, dropping a block.
        for r in [100usize, ROWS_PER_BLOCK, 0] {
            live.swap_remove_row(r);
            mirror.swap_remove(r);
        }
        assert_eq!(live.rows(), ROWS_PER_BLOCK - 1);
        check(&live, &mirror);
    }

    #[test]
    fn survivors_that_die_at_the_last_odd_digit() {
        // Every row survives step 1 and matches every odd digit but the
        // last, which a third of them mismatch: only the final odd plane
        // (the one the every-4-planes dead check never reaches) tells a
        // match from a step-2 miss. 600 rows span two blocks.
        for width in [2usize, 3, 8, 9, 63, 64, 65, 130] {
            let q = query_bits(width, 0x1a57 ^ width as u64);
            let last_odd = (width - 2) | 1;
            let mut t = BehavioralTcam::new(width);
            for r in 0..600 {
                let word: TernaryWord = q
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| {
                        let b = if i == last_odd && r % 3 == 0 { !b } else { b };
                        if i != last_odd && (i + r) % 5 == 0 {
                            Ternary::X
                        } else if b {
                            Ternary::One
                        } else {
                            Ternary::Zero
                        }
                    })
                    .collect();
                t.store(word);
            }
            let out = BitSlices::from_tcam(&t).search(&PackedQuery::from_bits(&q));
            assert_eq!(out.step1_misses, 0, "width {width}");
            assert_eq!(out.step2_misses, 200, "width {width}");
            assert_eq!(out.matches.len(), 400, "width {width}");
            assert_equivalent(&t, &q);
        }
    }

    #[test]
    fn width_one_table_has_no_step_two() {
        // One digit: step 1 decides every row, and no odd plane exists.
        let mut t = BehavioralTcam::new(1);
        for r in 0..(ROWS_PER_BLOCK + 7) {
            t.store(TernaryWord::new(vec![
                [Ternary::Zero, Ternary::One, Ternary::X][r % 3],
            ]));
        }
        for q in [[false], [true]] {
            let out = BitSlices::from_tcam(&t).search(&PackedQuery::from_bits(&q));
            assert_eq!(out.step2_misses, 0);
            assert_eq!(out.step1_misses, t.len() / 3);
            assert_equivalent(&t, &q);
        }
    }

    #[test]
    fn block_boundary_rows() {
        // Rows straddling the 512-row block boundary keep exact ids.
        let width = 32;
        let mut t = BehavioralTcam::new(width);
        for r in 0..(ROWS_PER_BLOCK + 3) {
            t.store(TernaryWord::from_bits(&query_bits(width, r as u64)));
        }
        let q = query_bits(width, ROWS_PER_BLOCK as u64); // row 512's pattern
        let out = BitSlices::from_tcam(&t).search(&PackedQuery::from_bits(&q));
        assert!(out.matches.contains(&ROWS_PER_BLOCK));
        assert_equivalent(&t, &q);
    }
}
