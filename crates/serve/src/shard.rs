//! Sharding a large ternary table across TCAM banks.
//!
//! A serving-scale table does not fit one subarray, so rows are spread
//! over `n` behavioural shards, each standing for a physical bank with
//! its own match lines and priority encoder. Two access patterns are
//! supported, mirroring `ferrotcam_arch::sched::Query::bank`:
//!
//! * **fan-out** — the query searches every shard and the per-shard
//!   match sets merge into one global result (row-partitioned tables,
//!   e.g. LPM);
//! * **partitioned** — a hash routes the query to exactly one shard
//!   (key-partitioned tables, e.g. exact-match filters), so capacity
//!   scales with the shard count.
//!
//! Energy accounting is *energy-true*: with per-row circuit metrics
//! attached (from [`ferrotcam::fom::characterize_search`]), the energy
//! charged to a query is exactly the Table IV early-termination figure
//! — `step-1 misses × E₁ + surviving rows × E₂` — and, because that sum
//! is linear over rows, sharding never changes the total a query would
//! have burned on the unsharded array.
//!
//! # Online writes: the epoch/snapshot layer
//!
//! [`ShardedTcam`] is a build-time builder only: it places rows, routes
//! keys and carries the metric attachments, but is never searched. At
//! service start it is converted into a [`LiveTable`] — one
//! [`EpochCell`] per shard, each holding an `Arc<`[`ShardSnap`]`>` —
//! and every dispatched batch searches a captured [`SnapView`]. The invariant the whole write path hangs on:
//!
//! * a snapshot, once captured, **never mutates** — a write commits by
//!   publishing a *successor* snapshot into the cell and bumping the
//!   shard's epoch, so an in-flight search can never observe a torn
//!   word (half old row, half new row);
//! * snapshots copy-on-write at [`BLOCK_ROWS`]-row granularity: the
//!   successor shares every untouched block's `Arc<`[`BitSlices`]`>`
//!   with its predecessor, so a write clones one block's packed words
//!   and sliced planes, not the shard.
//!
//! Cross-shard atomicity is deliberately *not* promised: a fan-out
//! search sees each shard at its own epoch (the view records them).
//! Per shard, reads are linearizable — a search observes exactly the
//! table as of some committed write batch.

use crate::request::RequestKind;
use crate::sync::{AtomicU64, Mutex, Ordering};
use ferrotcam::fom::SearchMetrics;
use ferrotcam::{
    ApproxHit, BehavioralTcam, BitSlices, ExactPlan, PackedQuery, PackedRows, RangePlan,
    RowWriteMetrics, SearchOutcome, TernaryWord, ThresholdPlan,
};
use rand::split_mix64;
use std::sync::Arc;

/// A ternary table split across `n` behavioural shards, as built
/// before serving. It is never searched: [`LiveTable::from_sharded`]
/// turns it into the served form.
#[derive(Debug, Clone)]
pub struct ShardedTcam {
    width: usize,
    shards: Vec<BehavioralTcam>,
    metrics: Option<SearchMetrics>,
    write_metrics: Option<RowWriteMetrics>,
}

/// Deterministic SplitMix64 hash of a query, used for shard routing:
/// the query's digits fold MSB-first into 64-bit chunks (a partial
/// tail of `n` digits lands right-aligned), which on the LSB-first
/// packed words is one `u64::reverse_bits` per word.
#[must_use]
pub fn hash_packed(q: &PackedQuery) -> u64 {
    let width = q.width();
    let mut state = 0x9E37_79B9_7F4A_7C15 ^ width as u64;
    let full = width / 64;
    for w in 0..full {
        state ^= q.word(w).reverse_bits();
        let _ = split_mix64(&mut state);
    }
    let tail = (width % 64) as u32;
    let acc = if tail == 0 {
        0
    } else {
        q.word(full).reverse_bits() >> (64 - tail)
    };
    state ^= acc ^ u64::from(tail);
    split_mix64(&mut state)
}

/// The shard of `shards` a key-partitioned query belongs to.
pub(crate) fn route_of(query: &PackedQuery, shards: usize) -> usize {
    (hash_packed(query) % shards as u64) as usize
}

impl ShardedTcam {
    /// Empty table of `width`-digit words over `shards` banks.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(width: usize, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        Self {
            width,
            shards: (0..shards).map(|_| BehavioralTcam::new(width)).collect(),
            metrics: None,
            write_metrics: None,
        }
    }

    /// Word width in digits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total stored rows across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(BehavioralTcam::len).sum()
    }

    /// Whether no rows are stored anywhere.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(BehavioralTcam::is_empty)
    }

    /// One shard's contents.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard(&self, shard: usize) -> &BehavioralTcam {
        &self.shards[shard]
    }

    /// Attach the per-row circuit figures of merit that turn search
    /// statistics into Joules.
    pub fn attach_metrics(&mut self, metrics: SearchMetrics) {
        self.metrics = Some(metrics);
    }

    /// The attached circuit metrics, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&SearchMetrics> {
        self.metrics.as_ref()
    }

    /// Attach the calibrated 3-step program figures that price online
    /// writes (from [`ferrotcam::Calibration::write_metrics`]).
    pub fn attach_write_metrics(&mut self, metrics: RowWriteMetrics) {
        self.write_metrics = Some(metrics);
    }

    /// The attached write-pricing metrics, if any.
    #[must_use]
    pub fn write_metrics(&self) -> Option<&RowWriteMetrics> {
        self.write_metrics.as_ref()
    }

    /// Store a word in the least-loaded shard (round-robin for
    /// balanced fills); returns the global slot id.
    ///
    /// # Panics
    /// Panics on word-width mismatch.
    pub fn store(&mut self, word: TernaryWord) -> usize {
        let shard = (0..self.shards.len())
            .min_by_key(|&s| (self.shards[s].len(), s))
            .expect("at least one shard");
        self.store_in(shard, word)
    }

    /// Store a word in a specific shard (key-partitioned tables route
    /// with [`Self::route_packed`]); returns the global slot id.
    ///
    /// # Panics
    /// Panics on width mismatch or `shard` out of range.
    pub fn store_in(&mut self, shard: usize, word: TernaryWord) -> usize {
        let local = self.shards[shard].store(word);
        local * self.shards.len() + shard
    }

    /// The shard a key-partitioned query belongs to.
    #[must_use]
    pub fn route_packed(&self, query: &PackedQuery) -> usize {
        route_of(query, self.shards.len())
    }
}

/// Rows per copy-on-write block of a [`ShardSnap`].
pub const BLOCK_ROWS: usize = 512;

/// An immutable snapshot of one shard's rows, chunked into
/// [`BLOCK_ROWS`]-row blocks behind `Arc`s. A block is one
/// [`BitSlices`]: the bit-sliced match planes exact search (both steps)
/// and range search read, with the row-major packed words behind the
/// popcount Hamming kernels and the reference oracle. Successor
/// snapshots (built by [`EpochCell::update`]) share every untouched
/// block with their predecessor, so cloning a snapshot and patching a
/// few rows is cheap regardless of the shard size.
#[derive(Debug, Clone)]
pub struct ShardSnap {
    width: usize,
    rows: usize,
    blocks: Vec<Arc<BitSlices>>,
}

/// One shard-local mutation inside a committed write batch.
#[derive(Debug, Clone)]
enum LocalOp {
    /// Append a row at the tail.
    Push(TernaryWord),
    /// Overwrite local row `.0`.
    Write(usize, TernaryWord),
    /// Remove local row `.0`, moving the shard's last row into the
    /// freed slot.
    SwapRemove(usize),
}

impl ShardSnap {
    /// Empty snapshot of `width`-digit rows.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            width,
            rows: 0,
            blocks: Vec::new(),
        }
    }

    /// Snapshot one behavioural shard's rows.
    #[must_use]
    pub fn from_tcam(tcam: &BehavioralTcam) -> Self {
        let mut snap = Self::new(tcam.width());
        for row in tcam.rows() {
            snap.push(row);
        }
        snap
    }

    /// Row width in digits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Stored row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether no rows are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The blocks with their base row offsets, in row order.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, &BitSlices)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(b, blk)| (b * BLOCK_ROWS, &**blk))
    }

    /// Reconstruct local row `row`'s stored word.
    ///
    /// # Panics
    /// Panics on an out-of-range row.
    #[must_use]
    pub fn row_word(&self, row: usize) -> TernaryWord {
        assert!(row < self.rows, "row {row} out of range");
        self.blocks[row / BLOCK_ROWS]
            .packed()
            .row_word(row % BLOCK_ROWS)
    }

    /// Exact two-step search over every block's sliced planes — the
    /// serving kernel's exact loop — with shard-local match ids,
    /// ascending. The query is planned once for every block.
    ///
    /// # Panics
    /// Panics on query-width mismatch.
    #[must_use]
    pub fn search(&self, q: &PackedQuery) -> SearchOutcome {
        let plan = ExactPlan::new(q);
        let mut out = SearchOutcome::empty();
        for (base, blk) in self.blocks() {
            let mut o = blk.search_planned(&plan);
            for m in &mut o.matches {
                *m += base;
            }
            out.absorb(o);
        }
        out
    }

    /// Range search over every block's sliced planes — the serving
    /// kernel's range loop — returning the in-window shard-local rows,
    /// ascending. The query is planned once for every block.
    ///
    /// # Panics
    /// Panics on odd query width or a query-width mismatch.
    #[must_use]
    pub fn range_search(&self, q: &PackedQuery) -> Vec<usize> {
        let plan = RangePlan::new(q);
        let mut hits = Vec::new();
        for (base, blk) in self.blocks() {
            hits.extend(blk.range_search_planned(&plan).iter().map(|&l| base + l));
        }
        hits
    }

    /// Threshold search over every block — the serving kernel's
    /// threshold loop — returning the shard-local rows within
    /// masked-Hamming distance `t`, ascending, with their distances.
    /// The query is planned once for every block ([`ThresholdPlan`]
    /// picks the planes or the row-major kernel by `t`).
    ///
    /// # Panics
    /// Panics on query-width mismatch.
    #[must_use]
    pub fn threshold_search(&self, q: &PackedQuery, t: u32) -> Vec<ApproxHit> {
        let plan = ThresholdPlan::new(q, t);
        let mut hits = Vec::new();
        for (base, blk) in self.blocks() {
            hits.extend(
                blk.threshold_search_planned(&plan)
                    .into_iter()
                    .map(|h| ApproxHit {
                        row: base + h.row,
                        distance: h.distance,
                    }),
            );
        }
        hits
    }

    fn block_mut(&mut self, b: usize) -> &mut BitSlices {
        Arc::make_mut(&mut self.blocks[b])
    }

    fn push(&mut self, word: &TernaryWord) {
        assert_eq!(word.len(), self.width, "row width mismatch");
        let b = self.rows / BLOCK_ROWS;
        if b == self.blocks.len() {
            self.blocks
                .push(Arc::new(BitSlices::build(PackedRows::new(self.width))));
        }
        self.block_mut(b).push_row(word);
        self.rows += 1;
    }

    fn write(&mut self, row: usize, word: &TernaryWord) {
        assert!(row < self.rows, "row {row} out of range");
        assert_eq!(word.len(), self.width, "row width mismatch");
        self.block_mut(row / BLOCK_ROWS)
            .write_row(row % BLOCK_ROWS, word);
    }

    fn swap_remove(&mut self, row: usize) {
        assert!(row < self.rows, "row {row} out of range");
        let last = self.rows - 1;
        let (rb, lb) = (row / BLOCK_ROWS, last / BLOCK_ROWS);
        if rb == lb {
            self.block_mut(rb).swap_remove_row(row % BLOCK_ROWS);
        } else {
            // The moved row crosses blocks: pop it off the tail block,
            // write it into the freed slot's block.
            let moved = self.blocks[lb].packed().row_word(last % BLOCK_ROWS);
            self.block_mut(lb).swap_remove_row(last % BLOCK_ROWS);
            self.block_mut(rb).write_row(row % BLOCK_ROWS, &moved);
        }
        if self.blocks.last().is_some_and(|blk| blk.rows() == 0) {
            self.blocks.pop();
        }
        self.rows -= 1;
    }

    /// Apply one shard's slice of a write batch, in order.
    fn apply(&mut self, ops: &[LocalOp]) {
        for op in ops {
            match op {
                LocalOp::Push(word) => self.push(word),
                LocalOp::Write(row, word) => self.write(*row, word),
                LocalOp::SwapRemove(row) => self.swap_remove(*row),
            }
        }
    }
}

/// One shard's atomically-swappable snapshot plus its write epoch.
///
/// Readers ([`EpochCell::load`]) take the cell lock just long enough to
/// clone the `Arc` and read the matching epoch — they never block on a
/// write's snapshot *construction*, only on the pointer swap. Writers
/// ([`EpochCell::update`]) hold the lock across read-build-swap, which
/// serializes concurrent updaters: with work-stealing, any dispatcher
/// may write any shard, and an unserialized read-modify-write would
/// silently drop one side's rows.
///
/// Generic over the payload so the loom model can check the
/// snapshot/epoch consistency protocol on a payload whose invariant is
/// trivially decidable (a pair that must stay internally consistent).
#[derive(Debug)]
pub struct EpochCell<T> {
    snap: Mutex<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> EpochCell<T> {
    /// A cell at epoch 0 holding `value`.
    #[must_use]
    pub fn new(value: T) -> Self {
        Self {
            snap: Mutex::new("serve.shard.snap", Arc::new(value)),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current snapshot and the epoch it was published at; the two
    /// are read under the cell lock, so they always correspond.
    #[must_use]
    pub fn load(&self) -> (Arc<T>, u64) {
        let guard = self.snap.lock();
        let snap = Arc::clone(&guard);
        let epoch = self.epoch.load(Ordering::Acquire); // ordering: epoch-acquire
        (snap, epoch)
    }

    /// The published epoch (bumps once per committed update).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire) // ordering: epoch-acquire
    }

    /// Publish a successor snapshot built from the current one, bumping
    /// the epoch. The cell lock is held across read-build-swap (see the
    /// type docs); loads observe either the full predecessor or the
    /// full successor, never a half-built state.
    pub fn update<R>(&self, f: impl FnOnce(&T) -> (T, R)) -> R {
        let mut guard = self.snap.lock();
        let (next, out) = f(&guard);
        *guard = Arc::new(next);
        self.epoch.fetch_add(1, Ordering::Release); // ordering: epoch-release
        out
    }
}

/// One online mutation of the served table, in global-row coordinates.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Program `word` into a fresh row of the least-loaded shard.
    Insert(TernaryWord),
    /// Re-program global row `row` with `word`.
    Update {
        /// Global row id to overwrite.
        row: usize,
        /// Replacement word.
        word: TernaryWord,
    },
    /// Retire global row `row`. Slot-reuse semantics: the shard's last
    /// local row moves into the freed slot, so that row's *global id
    /// changes* — callers tracking ids must re-resolve after a delete.
    Delete {
        /// Global row id to remove.
        row: usize,
    },
}

impl WriteOp {
    /// The request kind this mutation serves.
    pub(crate) fn kind(&self) -> RequestKind {
        match self {
            Self::Insert(_) => RequestKind::Insert,
            Self::Update { row, .. } => RequestKind::Update { row: *row },
            Self::Delete { row } => RequestKind::Delete { row: *row },
        }
    }
}

/// What one [`WriteOp`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAck {
    /// Insert landed; the new row's global id.
    Inserted {
        /// Assigned global slot id.
        row: usize,
    },
    /// Update/delete applied to its addressed row.
    Applied,
    /// The addressed global row did not exist; nothing changed.
    OutOfRange,
}

/// The served table: one [`EpochCell`] per shard, accepting online
/// writes while searches run against captured [`SnapView`]s.
#[derive(Debug)]
pub struct LiveTable {
    width: usize,
    cells: Vec<EpochCell<ShardSnap>>,
    /// Serializes write *planning* across dispatchers: least-loaded
    /// insert placement and delete's moved-row bookkeeping read shard
    /// lengths that must not race another writer's commits.
    write_order: Mutex<()>,
    metrics: Option<SearchMetrics>,
    write_metrics: Option<RowWriteMetrics>,
}

impl LiveTable {
    /// Empty live table of `width`-digit words over `shards` cells.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(width: usize, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        Self {
            width,
            cells: (0..shards)
                .map(|_| EpochCell::new(ShardSnap::new(width)))
                .collect(),
            write_order: Mutex::new("serve.table.write", ()),
            metrics: None,
            write_metrics: None,
        }
    }

    /// Convert a built table into its served (write-accepting) form,
    /// carrying over both metric attachments.
    #[must_use]
    pub fn from_sharded(table: &ShardedTcam) -> Self {
        Self {
            width: table.width(),
            cells: (0..table.shard_count())
                .map(|s| EpochCell::new(ShardSnap::from_tcam(table.shard(s))))
                .collect(),
            write_order: Mutex::new("serve.table.write", ()),
            metrics: table.metrics().cloned(),
            write_metrics: table.write_metrics().copied(),
        }
    }

    /// Word width in digits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Attach the calibrated 3-step program figures pricing writes.
    pub fn attach_write_metrics(&mut self, metrics: RowWriteMetrics) {
        self.write_metrics = Some(metrics);
    }

    /// The attached write-pricing metrics, if any.
    #[must_use]
    pub fn write_metrics(&self) -> Option<&RowWriteMetrics> {
        self.write_metrics.as_ref()
    }

    /// The shard a key-partitioned packed query belongs to — the same
    /// route as [`ShardedTcam::route_packed`].
    #[must_use]
    pub fn route_packed(&self, query: &PackedQuery) -> usize {
        route_of(query, self.cells.len())
    }

    /// Per-shard write epochs, in shard order.
    #[must_use]
    pub fn epochs(&self) -> Vec<u64> {
        self.cells.iter().map(EpochCell::epoch).collect()
    }

    /// Capture an immutable view of every shard for one batch.
    #[must_use]
    pub fn snapshot(&self) -> SnapView {
        let mut shards = Vec::with_capacity(self.cells.len());
        let mut epochs = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let (snap, epoch) = cell.load();
            shards.push(snap);
            epochs.push(epoch);
        }
        SnapView {
            width: self.width,
            shards,
            epochs,
            metrics: self.metrics.clone(),
        }
    }

    /// Commit one ordered batch of writes. Ops are planned into
    /// per-shard slices under the write-order lock, then each touched
    /// shard publishes exactly one successor snapshot (one epoch bump
    /// per shard per batch, however many ops landed on it).
    ///
    /// Returns one [`WriteAck`] per op, in op order.
    ///
    /// # Panics
    /// Panics on a word-width mismatch (programmer error, consistent
    /// with the core layer).
    pub fn apply(&self, ops: &[WriteOp]) -> Vec<WriteAck> {
        let _order = self.write_order.lock();
        let n = self.cells.len();
        let mut lens: Vec<usize> = self.cells.iter().map(|c| c.load().0.rows()).collect();
        let mut plans: Vec<Vec<LocalOp>> = vec![Vec::new(); n];
        let mut acks = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                WriteOp::Insert(word) => {
                    assert_eq!(word.len(), self.width, "row width mismatch");
                    let s = (0..n)
                        .min_by_key(|&s| (lens[s], s))
                        .expect("at least one shard");
                    let local = lens[s];
                    plans[s].push(LocalOp::Push(word.clone()));
                    lens[s] += 1;
                    acks.push(WriteAck::Inserted { row: local * n + s });
                }
                WriteOp::Update { row, word } => {
                    assert_eq!(word.len(), self.width, "row width mismatch");
                    let (s, l) = (row % n, row / n);
                    if l < lens[s] {
                        plans[s].push(LocalOp::Write(l, word.clone()));
                        acks.push(WriteAck::Applied);
                    } else {
                        acks.push(WriteAck::OutOfRange);
                    }
                }
                WriteOp::Delete { row } => {
                    let (s, l) = (row % n, row / n);
                    if l < lens[s] {
                        plans[s].push(LocalOp::SwapRemove(l));
                        lens[s] -= 1;
                        acks.push(WriteAck::Applied);
                    } else {
                        acks.push(WriteAck::OutOfRange);
                    }
                }
            }
        }
        for (s, plan) in plans.iter().enumerate() {
            if plan.is_empty() {
                continue;
            }
            self.cells[s].update(|snap| {
                let mut next = snap.clone();
                next.apply(plan);
                (next, ())
            });
        }
        acks
    }
}

/// An immutable view of every shard, captured at one instant by
/// [`LiveTable::snapshot`]. A dispatcher executes a whole batch against
/// one view, so a search can never observe a torn word — it sees each
/// shard exactly as of that shard's recorded epoch. Search pricing
/// lives here and only here.
#[derive(Debug, Clone)]
pub struct SnapView {
    width: usize,
    shards: Vec<Arc<ShardSnap>>,
    epochs: Vec<u64>,
    metrics: Option<SearchMetrics>,
}

impl SnapView {
    /// Word width in digits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total stored rows across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.rows()).sum()
    }

    /// Whether no rows are stored anywhere.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// One shard's snapshot.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard(&self, shard: usize) -> &ShardSnap {
        &self.shards[shard]
    }

    /// The per-shard write epochs this view was captured at.
    #[must_use]
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// The attached circuit metrics, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&SearchMetrics> {
        self.metrics.as_ref()
    }

    /// Global slot id of a shard-local row: `local * n + shard`.
    #[must_use]
    pub fn global_row(&self, shard: usize, local: usize) -> usize {
        local * self.shards.len() + shard
    }

    /// Inverse of [`Self::global_row`]: `(shard, local)`.
    #[must_use]
    pub fn locate(&self, global: usize) -> (usize, usize) {
        (global % self.shards.len(), global / self.shards.len())
    }

    /// Energy (J) a search with these statistics burned, per the
    /// paper's early-termination model: every step-1 miss pays the
    /// one-step row energy, every surviving row the full two-step
    /// figure. `None` without attached metrics.
    ///
    /// Equals `rows × SearchMetrics::energy_avg(measured miss rate)`
    /// by construction, and the sum is linear over rows, so sharding
    /// never changes the total.
    #[must_use]
    pub fn energy_of(&self, outcome: &SearchOutcome) -> Option<f64> {
        let m = self.metrics.as_ref()?;
        let e1 = m.energy_1step;
        let e2 = m.energy_2step.unwrap_or(m.energy_1step);
        Some(outcome.step1_misses as f64 * e1 + outcome.survivors() as f64 * e2)
    }

    /// Unloaded per-search silicon latency (s) from the attached
    /// metrics.
    #[must_use]
    pub fn model_latency(&self) -> Option<f64> {
        self.metrics.as_ref().map(SearchMetrics::latency)
    }

    /// Energy (J) of a full-parallel drive over `rows` rows — the
    /// approximate-match figure. Distance and range sensing race every
    /// match line to the sense moment, so no row early-terminates:
    /// each pays the full two-step row energy.
    #[must_use]
    pub fn energy_full_parallel(&self, rows: usize) -> Option<f64> {
        let m = self.metrics.as_ref()?;
        Some(rows as f64 * m.energy_2step.unwrap_or(m.energy_1step))
    }

    /// Energy (J) of one answered request: early-termination
    /// accounting ([`Self::energy_of`]) for exact matches,
    /// full-parallel accounting for the approximate kinds. Write kinds
    /// return `None` — they are priced by the 3-step program figures
    /// ([`LiveTable::write_metrics`]), not by a search model.
    #[must_use]
    pub fn energy_of_kind(&self, kind: RequestKind, outcome: &SearchOutcome) -> Option<f64> {
        match kind {
            RequestKind::Exact => self.energy_of(outcome),
            k if k.is_write() => None,
            _ => self.energy_full_parallel(outcome.rows_examined()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrotcam::{row_in_windows, DesignKind};

    /// The routing hash's specification over an unpacked query: the
    /// oracle [`hash_packed`] is held to.
    fn hash_bits(bits: &[bool]) -> u64 {
        let mut state = 0x9E37_79B9_7F4A_7C15 ^ bits.len() as u64;
        let mut acc = 0u64;
        let mut n = 0u32;
        for &b in bits {
            acc = (acc << 1) | u64::from(b);
            n += 1;
            if n == 64 {
                state ^= acc;
                let _ = split_mix64(&mut state);
                acc = 0;
                n = 0;
            }
        }
        state ^= acc ^ u64::from(n);
        split_mix64(&mut state)
    }

    fn metrics() -> SearchMetrics {
        SearchMetrics {
            design: DesignKind::T15Dg,
            word_len: 8,
            latency_1step: 200e-12,
            latency_2step: Some(450e-12),
            energy_1step: 1e-15,
            energy_2step: Some(2e-15),
        }
    }

    fn words() -> Vec<TernaryWord> {
        (0..12u64)
            .map(|i| TernaryWord::from_u64(i * 7, 8))
            .collect()
    }

    /// The served view of a built table.
    fn view_of(table: &ShardedTcam) -> SnapView {
        LiveTable::from_sharded(table).snapshot()
    }

    /// Fan-out exact search of every shard of `view` with the serving
    /// kernel's loop ([`ShardSnap::search`]), merged into one outcome
    /// with globally ascending match ids.
    fn search_all(view: &SnapView, query: &[bool]) -> SearchOutcome {
        let q = PackedQuery::from_bits(query);
        let mut merged = SearchOutcome::empty();
        for s in 0..view.shard_count() {
            let mut o = view.shard(s).search(&q);
            for m in &mut o.matches {
                *m = view.global_row(s, *m);
            }
            merged.absorb(o);
        }
        merged.matches.sort_unstable();
        merged
    }

    #[test]
    fn fanout_matches_unsharded_reference() {
        let mut reference = BehavioralTcam::new(8);
        let mut sharded = ShardedTcam::new(8, 3);
        for w in words() {
            let global = sharded.store(w.clone());
            let row = reference.store(w);
            assert_eq!(global, row, "round-robin fill keeps insertion ids");
        }
        let view = view_of(&sharded);
        for q in [0u64, 7, 21, 77, 255] {
            let query: Vec<bool> = (0..8).rev().map(|b| (q >> b) & 1 == 1).collect();
            let merged = search_all(&view, &query);
            let flat = reference.search(&query);
            assert_eq!(merged.matches, flat.matches, "query {q}");
            assert_eq!(merged.step1_misses, flat.step1_misses);
            assert_eq!(merged.step2_misses, flat.step2_misses);
        }
    }

    #[test]
    fn energy_is_shard_invariant() {
        let query: Vec<bool> = (0..8).map(|i| i % 3 == 0).collect();
        let mut energies = Vec::new();
        for n in [1usize, 2, 3, 4] {
            let mut t = ShardedTcam::new(8, n);
            for w in words() {
                t.store(w);
            }
            t.attach_metrics(metrics());
            let view = view_of(&t);
            let out = search_all(&view, &query);
            energies.push(view.energy_of(&out).unwrap());
        }
        for e in &energies[1..] {
            assert!((e - energies[0]).abs() < 1e-30, "{energies:?}");
        }
    }

    #[test]
    fn energy_matches_fom_average_formula() {
        let mut t = ShardedTcam::new(8, 2);
        for w in words() {
            t.store(w);
        }
        t.attach_metrics(metrics());
        let view = view_of(&t);
        let query: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        let out = search_all(&view, &query);
        let rows = view.len() as f64;
        let standalone = rows * metrics().energy_avg(out.step1_miss_rate());
        let served = view.energy_of(&out).unwrap();
        assert!(
            (served - standalone).abs() < 1e-9 * standalone.max(1e-30),
            "served {served:.6e} vs fom {standalone:.6e}"
        );
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let t = ShardedTcam::new(16, 4);
        let mut seen = [0usize; 4];
        for i in 0..256u64 {
            let bits: Vec<bool> = (0..16).rev().map(|b| (i >> b) & 1 == 1).collect();
            let q = PackedQuery::from_bits(&bits);
            let s = t.route_packed(&q);
            assert_eq!(s, t.route_packed(&q), "routing must be stable");
            seen[s] += 1;
        }
        assert!(
            seen.iter().all(|&c| c > 20),
            "hash routing badly skewed: {seen:?}"
        );
    }

    #[test]
    fn hash_packed_equals_hash_bits() {
        let mut seed = 0x5eed_5eed_5eed_5eedu64;
        // Widths straddling the 64-bit fold boundary: empty, partial
        // tail, exactly one word, one word + tail, multiple words.
        for width in [0usize, 1, 7, 63, 64, 65, 100, 128, 129, 300] {
            for _ in 0..8 {
                let bits: Vec<bool> = (0..width)
                    .map(|_| split_mix64(&mut seed) & 1 == 1)
                    .collect();
                let packed = PackedQuery::from_bits(&bits);
                assert_eq!(
                    hash_packed(&packed),
                    hash_bits(&bits),
                    "width {width}: packed and boolean hashes must agree"
                );
            }
        }
    }

    #[test]
    fn global_row_roundtrip() {
        let mut t = ShardedTcam::new(4, 3);
        for i in 0..7u64 {
            t.store(TernaryWord::from_u64(i, 4));
        }
        let view = view_of(&t);
        for g in 0..7 {
            let (s, l) = view.locate(g);
            assert_eq!(view.global_row(s, l), g);
            assert!(t.shard(s).row(l).is_some());
        }
    }

    fn rand_word(seed: &mut u64, width: usize) -> TernaryWord {
        use ferrotcam::Ternary;
        let digits = (0..width)
            .map(|_| match split_mix64(seed) % 3 {
                0 => Ternary::Zero,
                1 => Ternary::One,
                _ => Ternary::X,
            })
            .collect();
        TernaryWord::new(digits)
    }

    fn bits(v: u64, width: usize) -> Vec<bool> {
        (0..width).rev().map(|b| (v >> b) & 1 == 1).collect()
    }

    #[test]
    fn live_writes_update_searches_and_old_views_stay_frozen() {
        let mut sharded = ShardedTcam::new(8, 2);
        for w in words() {
            sharded.store(w);
        }
        let live = LiveTable::from_sharded(&sharded);
        let before = live.snapshot();
        assert_eq!(before.len(), 12);
        assert_eq!(before.epochs(), &[0, 0]);

        let probe = PackedQuery::from_bits(&bits(0xAB, 8));
        let miss_everywhere =
            |v: &SnapView| (0..2).all(|s| v.shard(s).search(&probe).matches.is_empty());
        assert!(miss_everywhere(&before), "probe must start absent");

        let acks = live.apply(&[WriteOp::Insert(TernaryWord::from_u64(0xAB, 8))]);
        let [WriteAck::Inserted { row }] = acks[..] else {
            panic!("insert must ack with a slot id, got {acks:?}");
        };
        let after = live.snapshot();
        let (s, l) = after.locate(row);
        assert_eq!(after.shard(s).search(&probe).matches, vec![l]);
        assert!(
            miss_everywhere(&before),
            "the view captured before the write must stay frozen"
        );
        assert_eq!(before.epochs(), &[0, 0]);
        // Only the shard that took the insert bumped its epoch.
        let bumped: Vec<u64> = (0..2).map(|i| after.epochs()[i]).collect();
        assert_eq!(bumped.iter().sum::<u64>(), 1);
        assert_eq!(bumped[s], 1);

        // Update then delete through global ids, re-checking both views.
        live.apply(&[WriteOp::Update {
            row,
            word: TernaryWord::from_u64(0xCD, 8),
        }]);
        let updated = live.snapshot();
        assert!(updated.shard(s).search(&probe).matches.is_empty());
        assert_eq!(
            updated
                .shard(s)
                .search(&PackedQuery::from_bits(&bits(0xCD, 8)))
                .matches,
            vec![l]
        );
        assert_eq!(after.shard(s).search(&probe).matches, vec![l]);
        assert_eq!(updated.epochs()[s], 2);
    }

    #[test]
    fn successor_snapshots_share_untouched_blocks() {
        let live = LiveTable::new(8, 1);
        let rows = BLOCK_ROWS + 100;
        let ops: Vec<WriteOp> = (0..rows)
            .map(|i| WriteOp::Insert(TernaryWord::from_u64(i as u64, 8)))
            .collect();
        live.apply(&ops);
        let before = live.snapshot();
        live.apply(&[WriteOp::Update {
            row: 0,
            word: TernaryWord::from_u64(0xFF, 8),
        }]);
        let after = live.snapshot();
        let old: Vec<_> = before.shard(0).blocks().collect();
        let new: Vec<_> = after.shard(0).blocks().collect();
        assert_eq!(old.len(), 2);
        assert_eq!(new.len(), 2);
        assert!(
            !std::ptr::eq(old[0].1, new[0].1),
            "the written block must be copied"
        );
        assert!(
            std::ptr::eq(old[1].1, new[1].1),
            "the untouched block must be shared with the predecessor"
        );
    }

    #[test]
    fn inserts_fill_the_least_loaded_shard_and_ids_roundtrip() {
        let live = LiveTable::new(4, 3);
        let mut ids = Vec::new();
        for i in 0..9u64 {
            let acks = live.apply(&[WriteOp::Insert(TernaryWord::from_u64(i, 4))]);
            let [WriteAck::Inserted { row }] = acks[..] else {
                panic!("expected an inserted ack");
            };
            ids.push(row);
        }
        // Least-loaded placement with the shard-id tie-break fills
        // round-robin from empty, so ids are dense.
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
        let view = live.snapshot();
        for (i, &g) in ids.iter().enumerate() {
            let (s, l) = view.locate(g);
            assert_eq!(view.global_row(s, l), g);
            assert_eq!(
                view.shard(s).row_word(l),
                TernaryWord::from_u64(i as u64, 4)
            );
        }
    }

    #[test]
    fn delete_moves_the_last_local_row_into_the_freed_slot() {
        let live = LiveTable::new(8, 1);
        // Span two blocks so the moved row crosses a block boundary.
        let rows = BLOCK_ROWS + 3;
        let ops: Vec<WriteOp> = (0..rows)
            .map(|i| WriteOp::Insert(TernaryWord::from_u64(i as u64, 8)))
            .collect();
        live.apply(&ops);
        let acks = live.apply(&[WriteOp::Delete { row: 1 }]);
        assert_eq!(acks, vec![WriteAck::Applied]);
        let view = live.snapshot();
        assert_eq!(view.len(), rows - 1);
        // The last row (first block 1 tail) moved into slot 1.
        assert_eq!(
            view.shard(0).row_word(1),
            TernaryWord::from_u64((rows - 1) as u64, 8)
        );
        // Deleting down past the block boundary drops the empty block.
        let drops: Vec<WriteOp> = (0..3).map(|_| WriteOp::Delete { row: 0 }).collect();
        live.apply(&drops);
        let trimmed = live.snapshot();
        assert_eq!(trimmed.len(), BLOCK_ROWS - 1);
        assert_eq!(trimmed.shard(0).blocks().count(), 1);
    }

    #[test]
    fn out_of_range_writes_are_acknowledged_not_applied() {
        let live = LiveTable::new(4, 2);
        live.apply(&[
            WriteOp::Insert(TernaryWord::from_u64(1, 4)),
            WriteOp::Insert(TernaryWord::from_u64(2, 4)),
        ]);
        let before = live.snapshot();
        let acks = live.apply(&[
            WriteOp::Update {
                row: 99,
                word: TernaryWord::from_u64(3, 4),
            },
            WriteOp::Delete { row: 42 },
        ]);
        assert_eq!(acks, vec![WriteAck::OutOfRange, WriteAck::OutOfRange]);
        let after = live.snapshot();
        assert_eq!(after.epochs(), before.epochs(), "no shard may bump");
        assert_eq!(after.len(), 2);
    }

    #[test]
    fn random_write_batches_match_a_scalar_mirror() {
        let width = 10;
        let shards = 3;
        let live = LiveTable::new(width, shards);
        let mut mirror: Vec<Vec<TernaryWord>> = vec![Vec::new(); shards];
        let mut seed = 0x5eed_dac2_2023u64;
        for round in 0..40 {
            let mut batch = Vec::new();
            for _ in 0..split_mix64(&mut seed) % 6 + 1 {
                let total: usize = mirror.iter().map(Vec::len).sum();
                match split_mix64(&mut seed) % 4 {
                    0 | 1 => batch.push(WriteOp::Insert(rand_word(&mut seed, width))),
                    2 if total > 0 => {
                        let row = (split_mix64(&mut seed) % (2 * total as u64)) as usize;
                        batch.push(WriteOp::Update {
                            row,
                            word: rand_word(&mut seed, width),
                        });
                    }
                    _ if total > 0 => {
                        let row = (split_mix64(&mut seed) % (2 * total as u64)) as usize;
                        batch.push(WriteOp::Delete { row });
                    }
                    _ => batch.push(WriteOp::Insert(rand_word(&mut seed, width))),
                }
            }
            // Mirror the batch with the documented semantics.
            for op in &batch {
                match op {
                    WriteOp::Insert(word) => {
                        let s = (0..shards)
                            .min_by_key(|&s| (mirror[s].len(), s))
                            .expect("shards > 0");
                        mirror[s].push(word.clone());
                    }
                    WriteOp::Update { row, word } => {
                        let (s, l) = (row % shards, row / shards);
                        if l < mirror[s].len() {
                            mirror[s][l] = word.clone();
                        }
                    }
                    WriteOp::Delete { row } => {
                        let (s, l) = (row % shards, row / shards);
                        if l < mirror[s].len() {
                            mirror[s].swap_remove(l);
                        }
                    }
                }
            }
            live.apply(&batch);
            let view = live.snapshot();
            for (s, rows) in mirror.iter().enumerate() {
                let snap = view.shard(s);
                assert_eq!(snap.rows(), rows.len(), "round {round} shard {s}");
                let mut reference = BehavioralTcam::new(width);
                for (l, w) in rows.iter().enumerate() {
                    assert_eq!(&snap.row_word(l), w, "round {round} shard {s} row {l}");
                    reference.store(w.clone());
                }
                let q = bits(split_mix64(&mut seed), width);
                let got = snap.search(&PackedQuery::from_bits(&q));
                let want = reference.search(&q);
                assert_eq!(got.matches, want.matches, "round {round} shard {s}");
                assert_eq!(got.step1_misses, want.step1_misses);
                assert_eq!(got.step2_misses, want.step2_misses);
                // Range search on the written planes matches the
                // digit-case oracle over the row-major words (even width).
                let probe = PackedQuery::from_bits(&q);
                let want: Vec<usize> = snap
                    .blocks()
                    .flat_map(|(base, blk)| {
                        (0..blk.rows())
                            .filter(|&l| row_in_windows(blk.packed(), l, &probe))
                            .map(move |l| base + l)
                    })
                    .collect();
                assert_eq!(snap.range_search(&probe), want, "round {round} shard {s}");
            }
        }
    }

    #[test]
    fn epoch_cell_pairs_load_consistently() {
        let cell = EpochCell::new((0u64, 0u64));
        for i in 1..=10u64 {
            let prev = cell.epoch();
            let echoed = cell.update(|&(a, _)| ((a + 1, a + 1), a + 1));
            assert_eq!(echoed, i);
            let (snap, epoch) = cell.load();
            assert_eq!(*snap, (i, i), "payload halves must agree");
            assert_eq!(epoch, prev + 1, "every update bumps exactly once");
        }
    }

    #[test]
    fn from_sharded_carries_rows_and_metric_attachments() {
        let mut sharded = ShardedTcam::new(8, 2);
        for w in words() {
            sharded.store(w);
        }
        sharded.attach_metrics(metrics());
        let wm = RowWriteMetrics {
            design: DesignKind::T15Dg,
            word_len: 8,
            energy_per_cell: 0.3816e-15,
            energy: 8.0 * 0.3816e-15,
            latency: 1.15e-9,
        };
        sharded.attach_write_metrics(wm);
        let live = LiveTable::from_sharded(&sharded);
        assert_eq!(live.width(), 8);
        assert_eq!(live.shard_count(), 2);
        assert_eq!(live.write_metrics(), Some(&wm));
        let view = live.snapshot();
        assert_eq!(view.len(), sharded.len());
        for g in 0..sharded.len() {
            let (s, l) = view.locate(g);
            assert_eq!(
                Some(&view.shard(s).row_word(l)),
                sharded.shard(s).row(l),
                "row {g}"
            );
        }
        assert_eq!(view.metrics(), sharded.metrics());
        // The view prices searches with the attached metrics.
        let outcome = search_all(&view, &bits(0x15, 8));
        let m = metrics();
        let want = outcome.step1_misses as f64 * m.energy_1step
            + outcome.survivors() as f64 * m.energy_2step.unwrap();
        assert_eq!(view.energy_of(&outcome), Some(want));
        assert_eq!(
            view.energy_of_kind(RequestKind::Insert, &outcome),
            None,
            "writes are priced by the program model, not the search model"
        );
    }
}
