//! The associative-search service: submission, dispatch, writes, drain.
//!
//! ```text
//!  clients ──submit──▶ [admission] ──▶ [queue 0] ──▶ dispatcher 0 ─┐
//!                          │shed       [queue 1] ──▶ dispatcher 1 ─┤ work-
//!                          ▼              ⋮               ⋮        │ stealing
//!                      Overloaded      [queue n] ──▶ dispatcher n ─┘
//!                                                         │
//!                                 writes → LiveTable::apply (epoch bump)
//!                                                         │
//!                                     capture SnapView ───┤
//!                                                         │
//!                            deadline shed ◀──────────────┤
//!                                                         │
//!                          BehaviouralBackend kernel over the view
//!                                                         │
//!                            merge + energy/latency attribution
//!                                                         │
//!                            sampled audit replay (same view) ◀─┤
//!                                                         │
//!                                              tickets resolve ◀┘
//! ```
//!
//! Dispatch is **per-shard**: one bounded queue and one dispatcher
//! thread per shard. Pinned (key-routed) queries and row-addressed
//! writes land on their shard's queue; fan-out queries round-robin.
//! An idle dispatcher **steals** from its peers' queues before
//! sleeping, so a hot shard's backlog spreads over the whole pool. A
//! dispatcher pulls up to `max_batch` requests, applies the batch's
//! writes through [`crate::shard::LiveTable`] (publishing one fresh
//! epoch per touched shard), then captures a [`crate::shard::SnapView`]
//! and executes every search of the batch against that immutable view
//! — a search can observe the table before or after any write, never a
//! torn word. Writes are priced by the calibrated 3-step program
//! ([`ferrotcam::RowWriteMetrics`]); searches charge their modelled
//! bank wait (from `arch::sched`) and silicon energy (from the
//! attached `core::fom` metrics).
//!
//! With a [`ServiceConfig::deadline`] configured, queries whose
//! submit-to-dispatch wait already exceeds it are **shed at dispatch**
//! instead of executed: their tickets resolve to `None` and the drop is
//! counted per kind in [`ServiceMetrics::shed_deadline`]. Writes are
//! never deadline-shed — an accepted mutation must land.
//!
//! Answered queries pass through a **sampled audit lane**: a
//! deterministic 1-in-`audit_period` subset (SplitMix64 over a
//! per-dispatcher accept counter, so the sample is reproducible and
//! ungameable by arrival order) is replayed through the scalar oracle
//! ([`crate::reference`]) *against the same captured view* the kernel
//! answered from — exact under concurrent writes by construction.
//! Match sets must be bit-identical and energies must agree within
//! `audit_tolerance`; divergences are counted in [`ServiceMetrics`] and
//! emitted as typed `spice::trace` audit events.
//!
//! Shutdown is a *drain*: new submissions are refused with
//! [`Overloaded::ShuttingDown`] while every request already accepted
//! is still executed and answered. The accept counter and the drain
//! flag share one atomic word, so a request is either atomically
//! accepted before the drain (and will be answered) or refused — no
//! request can fall between.

use crate::admission::{Admission, Overloaded, RatePolicy, TenantId};
use crate::backend::{BackendKind, BatchSpec, BehaviouralBackend, ExecBackend, ExecResult};
use crate::drain::DrainGate;
use crate::metrics::{MetricsCollector, ResponseSample, ServiceMetrics};
use crate::queue::BoundedQueue;
use crate::reference::{audit_compare, reference_walk};
use crate::request::{AdmissionClass, RequestKind};
use crate::shard::{hash_packed, LiveTable, ShardedTcam, SnapView, WriteAck, WriteOp};
use crate::sync::{self, AtomicUsize, Ordering};
use ferrotcam::{
    levels_to_query, program_duration, ApproxHit, PackedQuery, SearchOutcome, SenseModel,
    TernaryWord,
};
use ferrotcam_spice::parallel::default_jobs;
use ferrotcam_spice::trace::{self, TraceLevel};
use rand::split_mix64;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Total bounded submission capacity (the backpressure horizon),
    /// split evenly across the per-shard rings — so the aggregate
    /// buffering, and with it the worst-case queue wait, does not grow
    /// with the shard count. Each ring gets at least 2 slots.
    pub queue_capacity: usize,
    /// Most queries the dispatcher coalesces into one batch; 0 means
    /// 1024, large enough that the kernel's per-query cost, not
    /// dispatch overhead, sets the rate.
    pub max_batch: usize,
    /// Worker threads for the per-bank batch execution; 0 means the
    /// `spice::parallel` default (`FERROTCAM_JOBS` or the core count).
    pub jobs: usize,
    /// Rate policy for tenants without an explicit one (exact traffic).
    pub default_policy: RatePolicy,
    /// Rate policy for a tenant's *approximate* traffic (threshold /
    /// top-k / range) when no explicit class policy was installed.
    /// Approximate queries drive every row fully in parallel — no
    /// early termination — so they budget separately by default.
    pub approx_policy: RatePolicy,
    /// Rate policy for a tenant's *write* traffic (insert / delete /
    /// update) when no explicit class policy was installed, so a
    /// bulk-load cannot starve the search path.
    pub write_policy: RatePolicy,
    /// Queries whose submit-to-dispatch wait already exceeds this are
    /// shed at dispatch (their SLO has expired; answering late helps
    /// nobody and steals bank time from queries that can still make
    /// it). `None` disables shedding; writes are never deadline-shed.
    pub deadline: Option<Duration>,
    /// Override for the modelled per-bank busy time (s); defaults to
    /// the attached metrics' two-step latency, else 1 ns.
    pub t_bank: Option<f64>,
    /// The execution backend. Single-valued ([`BackendKind`] has one
    /// variant); kept only for callers that set it explicitly.
    pub backend: BackendKind,
    /// Audit lane sampling period: on average one in `audit_period`
    /// answered queries is replayed through the reference oracle
    /// ([`crate::reference`]). 0 disables the lane.
    pub audit_period: u64,
    /// Relative energy-agreement bound the audit lane enforces.
    pub audit_tolerance: f64,
    /// Seed of the deterministic audit sampler.
    pub audit_seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_batch: 64,
            jobs: 0,
            default_policy: RatePolicy::unlimited(),
            approx_policy: RatePolicy::unlimited(),
            write_policy: RatePolicy::unlimited(),
            deadline: None,
            t_bank: None,
            backend: BackendKind::Behavioural,
            audit_period: 10_000,
            audit_tolerance: 1e-9,
            audit_seed: 0xfe77_0ca3_a0d1_7001,
        }
    }
}

/// The batch size `max_batch: 0` selects.
const DEFAULT_MAX_BATCH: usize = 1024;

/// A resolved request. For write kinds, `matches` carries the affected
/// global row (the assigned slot for an insert, the addressed row for
/// an applied update/delete) and is empty when the addressed row was
/// out of range; the search counters are zero.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// What this response answers.
    pub kind: RequestKind,
    /// Matching rows as global slot ids, ascending.
    pub matches: Vec<usize>,
    /// Ranked `(distance, row)` hits for threshold and top-k requests,
    /// best-first with ties toward the lowest row; empty otherwise.
    pub hits: Vec<ApproxHit>,
    /// Rows early-terminated after step 1.
    pub step1_misses: usize,
    /// Rows that survived step 1 but missed in step 2.
    pub step2_misses: usize,
    /// Rows scanned to answer this query.
    pub rows_searched: usize,
    /// Silicon energy this query burned (J); `None` without metrics.
    pub energy_j: Option<f64>,
    /// Modelled silicon latency: bank wait + bank busy time (s).
    pub model_latency_s: f64,
    /// Wall-clock submit→response latency (ns).
    pub wall_latency_ns: u64,
}

/// Handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<SearchResponse>,
}

impl Ticket {
    /// Block until the request resolves. `None` means the query was
    /// deadline-shed at dispatch ([`ServiceConfig::deadline`]) — the
    /// request was accepted and accounted, but its SLO expired before a
    /// dispatcher reached it, so no answer was computed. Every accepted
    /// request resolves one way or the other, even across a drain.
    #[must_use]
    pub fn wait(self) -> Option<SearchResponse> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll.
    #[must_use]
    pub fn try_wait(&self) -> Option<SearchResponse> {
        self.rx.try_recv().ok()
    }
}

/// One accepted request travelling through the queue. `tx: None` is a
/// fire-and-forget submission: the search still runs and is accounted,
/// but no response object is built or delivered (open-loop load).
#[derive(Debug)]
struct Job {
    query: PackedQuery,
    kind: RequestKind,
    /// Write kinds carry their row payload here (insert/update word);
    /// searches carry `None`.
    word: Option<TernaryWord>,
    shard: Option<usize>,
    enqueued: Instant,
    tx: Option<mpsc::Sender<SearchResponse>>,
}

/// Shared state between clients and the dispatchers.
#[derive(Debug)]
struct Inner {
    table: LiveTable,
    /// One bounded queue per shard: pinned queries and row-addressed
    /// writes land on their shard's queue, fan-out queries round-robin.
    /// Any dispatcher may drain any queue (work stealing), which the
    /// MPMC queue is built for.
    queues: Vec<BoundedQueue<Job>>,
    /// Round-robin cursor spreading fan-out queries over the queues.
    /// Pure load-balancing state — no ordering is derived from it.
    route_counter: AtomicUsize,
    admission: Admission,
    metrics: MetricsCollector,
    /// Drain flag + accepted/completed request accounting, global
    /// across every queue and dispatcher.
    gate: DrainGate,
    max_batch: usize,
    jobs: usize,
    t_bank: f64,
    /// Queries older than this at dispatch are shed unanswered.
    deadline: Option<Duration>,
    /// Circuit-grounded sense-time model (from the attached metrics'
    /// one-step latency): feeds the batch planner's per-kind cost and
    /// the audit lane's sense-classified threshold reference.
    sense: Option<SenseModel>,
    audit_period: u64,
    audit_tolerance: f64,
    audit_seed: u64,
}

impl Inner {
    /// Total backlog across every per-shard queue.
    fn queue_depth(&self) -> usize {
        self.queues.iter().map(BoundedQueue::len).sum()
    }
}

/// Cloneable client handle: submit requests, read metrics.
#[derive(Debug, Clone)]
pub struct ServiceClient {
    inner: Arc<Inner>,
}

impl ServiceClient {
    /// Submit a query. `shard: None` fans out over every bank and
    /// merges; `Some(s)` pins the query to bank `s` (key-partitioned
    /// tables — see [`ServiceClient::submit_routed`]).
    ///
    /// # Errors
    /// Typed [`Overloaded`] sheds: draining, tenant throttled, or the
    /// bounded queue is full. Sheds are counted in the metrics.
    ///
    /// # Panics
    /// Panics on query-width mismatch or out-of-range shard
    /// (programmer errors, consistent with the core layer).
    pub fn submit(
        &self,
        tenant: TenantId,
        query: Vec<bool>,
        shard: Option<usize>,
    ) -> Result<Ticket, Overloaded> {
        self.submit_packed(tenant, PackedQuery::from_bits(&query), shard)
    }

    /// [`Self::submit`] over an already bit-packed query — the
    /// allocation-light hot path (no `Vec<bool>` unpacking anywhere).
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit`].
    ///
    /// # Panics
    /// Panics on query-width mismatch or out-of-range shard.
    pub fn submit_packed(
        &self,
        tenant: TenantId,
        query: PackedQuery,
        shard: Option<usize>,
    ) -> Result<Ticket, Overloaded> {
        self.submit_kind(tenant, query, RequestKind::Exact, shard)
    }

    /// Submit any request kind over a packed query: exact match,
    /// Hamming [`RequestKind::Threshold`] / [`RequestKind::TopK`]
    /// search, or multi-bit [`RequestKind::Range`] match (the query
    /// then carries one 2-digit level per cell — see
    /// [`ServiceClient::submit_range`]).
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit`]; approximate kinds are
    /// admitted against the tenant's *approx* token bucket.
    ///
    /// # Panics
    /// Panics on query-width mismatch, out-of-range shard, or a range
    /// request against an odd-width table.
    pub fn submit_kind(
        &self,
        tenant: TenantId,
        query: PackedQuery,
        kind: RequestKind,
        shard: Option<usize>,
    ) -> Result<Ticket, Overloaded> {
        let (tx, rx) = mpsc::channel();
        self.enqueue(tenant, query, kind, None, shard, Some(tx))?;
        Ok(Ticket { rx })
    }

    /// Program `word` into a fresh row of the least-loaded shard. The
    /// response's `matches` carries the assigned global slot id.
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit`]; writes are admitted
    /// against the tenant's *write* token bucket.
    ///
    /// # Panics
    /// Panics on a word-width mismatch.
    pub fn submit_insert(&self, tenant: TenantId, word: TernaryWord) -> Result<Ticket, Overloaded> {
        self.submit_write(tenant, RequestKind::Insert, word, None)
    }

    /// Re-program global row `row` with `word`. The response's
    /// `matches` echoes the row when applied and is empty when the row
    /// was out of range.
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit_insert`].
    ///
    /// # Panics
    /// Panics on a word-width mismatch.
    pub fn submit_update(
        &self,
        tenant: TenantId,
        row: usize,
        word: TernaryWord,
    ) -> Result<Ticket, Overloaded> {
        self.submit_write(tenant, RequestKind::Update { row }, word, Some(row))
    }

    /// Retire global row `row` (slot-reuse delete: the shard's last
    /// local row moves into the freed slot, so *that* row's global id
    /// changes). The response's `matches` echoes the row when applied
    /// and is empty when it was out of range.
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit_insert`].
    pub fn submit_delete(&self, tenant: TenantId, row: usize) -> Result<Ticket, Overloaded> {
        let (tx, rx) = mpsc::channel();
        self.enqueue_write(
            tenant,
            RequestKind::Delete { row },
            None,
            Some(row),
            Some(tx),
        )?;
        Ok(Ticket { rx })
    }

    fn submit_write(
        &self,
        tenant: TenantId,
        kind: RequestKind,
        word: TernaryWord,
        row: Option<usize>,
    ) -> Result<Ticket, Overloaded> {
        let (tx, rx) = mpsc::channel();
        self.enqueue_write(tenant, kind, Some(word), row, Some(tx))?;
        Ok(Ticket { rx })
    }

    /// Fire-and-forget insert (open-loop write load).
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit_insert`].
    pub fn submit_insert_noreply(
        &self,
        tenant: TenantId,
        word: TernaryWord,
    ) -> Result<(), Overloaded> {
        self.enqueue_write(tenant, RequestKind::Insert, Some(word), None, None)
    }

    /// Fire-and-forget update (open-loop write load).
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit_insert`].
    pub fn submit_update_noreply(
        &self,
        tenant: TenantId,
        row: usize,
        word: TernaryWord,
    ) -> Result<(), Overloaded> {
        self.enqueue_write(
            tenant,
            RequestKind::Update { row },
            Some(word),
            Some(row),
            None,
        )
    }

    /// Fire-and-forget delete (open-loop write load).
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit_insert`].
    pub fn submit_delete_noreply(&self, tenant: TenantId, row: usize) -> Result<(), Overloaded> {
        self.enqueue_write(tenant, RequestKind::Delete { row }, None, Some(row), None)
    }

    /// Shared write-submission path: row-addressed writes queue on
    /// their row's shard (dispatch affinity — any dispatcher may still
    /// steal them), inserts round-robin like fan-out queries.
    fn enqueue_write(
        &self,
        tenant: TenantId,
        kind: RequestKind,
        word: Option<TernaryWord>,
        row: Option<usize>,
        tx: Option<mpsc::Sender<SearchResponse>>,
    ) -> Result<(), Overloaded> {
        let shard = row.map(|r| r % self.inner.table.shard_count());
        self.enqueue(tenant, PackedQuery::from_bits(&[]), kind, word, shard, tx)
    }

    /// All rows within Hamming distance `t` of `query` (wildcarded
    /// cells never mismatch), with per-row distances in the response's
    /// `hits`.
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit_kind`].
    pub fn submit_threshold(
        &self,
        tenant: TenantId,
        query: PackedQuery,
        t: u32,
        shard: Option<usize>,
    ) -> Result<Ticket, Overloaded> {
        self.submit_kind(tenant, query, RequestKind::Threshold { t }, shard)
    }

    /// The `k` nearest rows to `query` by masked Hamming distance,
    /// ties broken toward the lowest row id.
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit_kind`].
    pub fn submit_top_k(
        &self,
        tenant: TenantId,
        query: PackedQuery,
        k: usize,
        shard: Option<usize>,
    ) -> Result<Ticket, Overloaded> {
        self.submit_kind(tenant, query, RequestKind::TopK { k }, shard)
    }

    /// FeCAM-style range match: every row whose per-cell `[lo, hi]`
    /// windows all contain the corresponding query level (one 4-ary
    /// level per 2-digit cell).
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit_kind`].
    ///
    /// # Panics
    /// Panics if a level exceeds 3 or `levels` does not cover the
    /// table width (one level per two digits).
    pub fn submit_range(
        &self,
        tenant: TenantId,
        levels: &[u8],
        shard: Option<usize>,
    ) -> Result<Ticket, Overloaded> {
        self.submit_kind(tenant, levels_to_query(levels), RequestKind::Range, shard)
    }

    /// Fire-and-forget submission: the query runs, is fully accounted
    /// in metrics and the audit lane, but no response is delivered.
    /// This is the open-loop load-generation path — it skips the
    /// per-request channel entirely.
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit`].
    ///
    /// # Panics
    /// Panics on query-width mismatch or out-of-range shard.
    pub fn submit_noreply(
        &self,
        tenant: TenantId,
        query: PackedQuery,
        shard: Option<usize>,
    ) -> Result<(), Overloaded> {
        self.enqueue(tenant, query, RequestKind::Exact, None, shard, None)
    }

    /// [`Self::submit_noreply`] for any request kind (open-loop
    /// approximate load).
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit_kind`].
    pub fn submit_noreply_kind(
        &self,
        tenant: TenantId,
        query: PackedQuery,
        kind: RequestKind,
        shard: Option<usize>,
    ) -> Result<(), Overloaded> {
        self.enqueue(tenant, query, kind, None, shard, None)
    }

    fn enqueue(
        &self,
        tenant: TenantId,
        query: PackedQuery,
        kind: RequestKind,
        word: Option<TernaryWord>,
        shard: Option<usize>,
        tx: Option<mpsc::Sender<SearchResponse>>,
    ) -> Result<(), Overloaded> {
        let inner = &*self.inner;
        if kind.is_write() {
            if let Some(w) = &word {
                assert_eq!(w.len(), inner.table.width(), "word width mismatch");
            }
        } else {
            assert_eq!(query.width(), inner.table.width(), "query width mismatch");
        }
        if let Some(s) = shard {
            assert!(s < inner.table.shard_count(), "shard {s} out of range");
        }
        if kind == RequestKind::Range {
            assert!(
                inner.table.width().is_multiple_of(2),
                "range queries need an even word width"
            );
        }
        let now = Instant::now();
        if let Err(e) = inner.admission.admit(tenant, kind.class(), now) {
            inner.metrics.on_shed(e, kind);
            return Err(e);
        }
        // Accept atomically against the drain flag: either this bumps
        // the accepted count before the drain begins (a dispatcher
        // will then wait for it) or the service is already draining.
        if !inner.gate.try_accept() {
            inner.metrics.on_shed(Overloaded::ShuttingDown, kind);
            return Err(Overloaded::ShuttingDown);
        }
        // Pinned work queues on its shard's dispatcher; fan-out work
        // round-robins so no single dispatcher owns the merge load.
        let qi = shard.unwrap_or_else(|| {
            inner.route_counter.fetch_add(1, Ordering::Relaxed) // ordering: route-relaxed
                % inner.queues.len()
        });
        let job = Job {
            query,
            kind,
            word,
            shard,
            enqueued: now,
            tx,
        };
        if inner.queues[qi].push(job).is_err() {
            // Give the acceptance back before reporting the shed.
            inner.gate.retract();
            inner.metrics.on_shed(Overloaded::QueueFull, kind);
            return Err(Overloaded::QueueFull);
        }
        inner.metrics.on_submit(inner.queues[qi].len());
        Ok(())
    }

    /// Submit a key-partitioned query: the shard is chosen by the
    /// table's deterministic hash route.
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit`].
    pub fn submit_routed(&self, tenant: TenantId, query: Vec<bool>) -> Result<Ticket, Overloaded> {
        self.submit_packed_routed(tenant, PackedQuery::from_bits(&query))
    }

    /// [`Self::submit_routed`] over a packed query: routed by
    /// [`ShardedTcam::route_packed`], which hashes the packed words
    /// directly (identical route to the boolean path).
    ///
    /// # Errors
    /// Same sheds as [`ServiceClient::submit`].
    pub fn submit_packed_routed(
        &self,
        tenant: TenantId,
        query: PackedQuery,
    ) -> Result<Ticket, Overloaded> {
        let shard = self.inner.table.route_packed(&query);
        self.submit_packed(tenant, query, Some(shard))
    }

    /// The shard a key-partitioned packed query routes to.
    #[must_use]
    pub fn route_packed(&self, query: &PackedQuery) -> usize {
        self.inner.table.route_packed(query)
    }

    /// Served word width in digits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.inner.table.width()
    }

    /// Number of shards (and dispatchers).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.table.shard_count()
    }

    /// Install a per-tenant rate policy for *exact* traffic.
    pub fn set_policy(&self, tenant: TenantId, policy: RatePolicy) {
        self.inner.admission.set_policy(tenant, policy);
    }

    /// Install a per-tenant rate policy for one admission class
    /// (exact vs approximate traffic budget independently).
    pub fn set_class_policy(&self, tenant: TenantId, class: AdmissionClass, policy: RatePolicy) {
        self.inner.admission.set_class_policy(tenant, class, policy);
    }

    /// Snapshot the service metrics.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        self.inner.metrics.snapshot(self.inner.queue_depth())
    }

    /// A consistent point-in-time view of the served table (shape,
    /// rows, attached metrics, per-shard epochs). The view is immutable
    /// — later writes publish new snapshots and never touch it.
    #[must_use]
    pub fn table(&self) -> SnapView {
        self.inner.table.snapshot()
    }
}

/// The running service: owns one dispatcher thread per shard.
#[derive(Debug)]
pub struct TcamService {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl TcamService {
    /// Start serving `table` under `config`; converts the table into
    /// its live (write-accepting) form and spawns one dispatcher per
    /// shard. Attach [`ferrotcam::RowWriteMetrics`] to the table first
    /// (via [`ShardedTcam::attach_write_metrics`]) to have writes
    /// priced by the calibrated 3-step program.
    ///
    /// # Panics
    /// Panics if a dispatcher thread cannot be spawned.
    #[must_use]
    pub fn start(table: ShardedTcam, config: &ServiceConfig) -> Self {
        let table = LiveTable::from_sharded(&table);
        let (t_bank, sense) = {
            let view = table.snapshot();
            (
                config
                    .t_bank
                    .or_else(|| view.model_latency())
                    .unwrap_or(1e-9),
                view.metrics()
                    .map(|m| SenseModel::analytic(m.latency_1step)),
            )
        };
        let jobs = if config.jobs == 0 {
            default_jobs()
        } else {
            config.jobs
        };
        let max_batch = if config.max_batch == 0 {
            DEFAULT_MAX_BATCH
        } else {
            config.max_batch
        };
        let shards = table.shard_count();
        let inner = Arc::new(Inner {
            table,
            queues: (0..shards)
                .map(|_| BoundedQueue::new((config.queue_capacity / shards).max(2)))
                .collect(),
            route_counter: AtomicUsize::new(0),
            admission: Admission::new(
                config.default_policy,
                config.approx_policy,
                config.write_policy,
            ),
            metrics: MetricsCollector::new(),
            gate: DrainGate::new(),
            max_batch: max_batch.max(1),
            jobs,
            t_bank,
            deadline: config.deadline,
            sense,
            audit_period: config.audit_period,
            audit_tolerance: config.audit_tolerance,
            audit_seed: config.audit_seed,
        });
        let workers = (0..shards)
            .map(|me| {
                let worker_inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ferrotcam-serve-{me}"))
                    .spawn(move || dispatch_loop(&worker_inner, me))
                    .expect("spawn dispatcher")
            })
            .collect();
        Self { inner, workers }
    }

    /// A cloneable client handle.
    #[must_use]
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Snapshot the service metrics.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        self.inner.metrics.snapshot(self.inner.queue_depth())
    }

    /// Graceful shutdown: refuse new work, answer everything already
    /// accepted, stop every dispatcher, and return the final metrics.
    #[must_use]
    pub fn drain(mut self) -> ServiceMetrics {
        self.begin_drain_and_join();
        self.inner.metrics.snapshot(self.inner.queue_depth())
    }

    fn begin_drain_and_join(&mut self) {
        self.inner.gate.begin_drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for TcamService {
    fn drop(&mut self) {
        self.begin_drain_and_join();
    }
}

/// Dispatcher `me`'s main loop: drain the own queue first; when it is
/// empty, steal a batch from a peer's queue (cyclic scan starting at
/// the next shard, so thieves spread instead of convoying); execute;
/// exit only when draining and every accepted request has resolved.
fn dispatch_loop(inner: &Inner, me: usize) {
    // The audit sampler's per-dispatcher monotone counter: advancing it
    // per answered search makes the 1-in-`period` sample deterministic
    // for a given seed, independent of batching and of which queue the
    // job was stolen from.
    let mut audit_counter: u64 = 0;
    // One batch buffer for the dispatcher's lifetime: `execute_batch`
    // drains it in place, so the hot loop allocates nothing per
    // iteration (the analyzer's hot-path-alloc rule keeps it that way).
    let mut batch: Vec<Job> = Vec::with_capacity(inner.max_batch);
    let n = inner.queues.len();
    loop {
        inner.queues[me].drain_into(&mut batch, inner.max_batch);
        if batch.is_empty() {
            // Work stealing: take a whole batch from the first
            // non-empty peer. The queue is MPMC, so concurrent thieves
            // are safe; at worst two dispatchers split one backlog.
            for off in 1..n {
                inner.queues[(me + off) % n].drain_into(&mut batch, inner.max_batch);
                if !batch.is_empty() {
                    break;
                }
            }
        }
        if batch.is_empty() {
            if inner.gate.quiescent() && inner.queues.iter().all(BoundedQueue::is_empty) {
                break;
            }
            sync::idle_wait();
            continue;
        }
        execute_batch(inner, me, &mut batch, &mut audit_counter);
    }
}

/// Per-kind bank-occupancy multiplier for the batch planner. With a
/// sense-time model attached, a threshold query's bank time is its
/// sense time (high thresholds sense late, low ones early) and a range
/// query senses at the one-mismatch discharge point; exact and top-k
/// queries keep the two-step unit cost. Clamped so a degenerate model
/// can never starve or flood the schedule.
fn kind_cost(kind: RequestKind, sense: Option<&SenseModel>, t_bank: f64) -> f64 {
    let Some(model) = sense else {
        return 1.0;
    };
    if t_bank <= 0.0 {
        return 1.0;
    }
    match kind {
        RequestKind::Exact | RequestKind::TopK { .. } => 1.0,
        RequestKind::Threshold { t } => (model.sense_time(t) / t_bank).clamp(0.05, 4.0),
        RequestKind::Range => (model.discharge_time(1) / t_bank).clamp(0.05, 4.0),
        // Writes never enter the search batch plan.
        _ => 1.0,
    }
}

/// Run one batch: apply its writes first (one epoch bump per touched
/// shard), capture a snapshot view, deadline-shed expired queries, plan
/// and execute the remaining searches on the kernel against that view,
/// model the bank schedule, attribute energy, audit a sample, resolve
/// tickets. Drains `jobs` in place so the dispatcher's
/// batch buffer is reused across iterations.
///
/// Ordering: writes-before-searches within one batch is a valid
/// linearization — every job in the batch was accepted before any of
/// them executed, and searches then observe all of the batch's writes.
fn execute_batch(inner: &Inner, me: usize, jobs: &mut Vec<Job>, audit_counter: &mut u64) {
    let tracing = trace::level() != TraceLevel::Off;
    let _span = tracing.then(|| trace::span("serve.batch"));
    // Queue wait is enqueue → batch start; one clock read per batch,
    // and only when tracing.
    let batch_start = tracing.then(Instant::now);

    // Writes first, in batch order.
    let mut writes: Vec<Job> = Vec::new();
    let mut searches: Vec<Job> = Vec::new();
    for job in jobs.drain(..) {
        if let Some(start) = batch_start {
            trace::sample("serve.queue_wait_ns", nanos_since(job.enqueued, start));
        }
        if job.kind.is_write() {
            writes.push(job);
        } else {
            searches.push(job);
        }
    }
    if !writes.is_empty() {
        apply_writes(inner, writes);
    }

    // Capture the view every search of this batch answers from. Taken
    // *after* the writes so the batch's own mutations are visible; an
    // in-flight search on another dispatcher keeps its own older view.
    let view = inner.table.snapshot();

    // Deadline shedding: a query whose SLO already expired in the
    // queue is dropped here, before it can occupy a bank.
    if let Some(deadline) = inner.deadline {
        let now = Instant::now();
        searches.retain(|job| {
            if now.saturating_duration_since(job.enqueued) <= deadline {
                return true;
            }
            inner.metrics.on_deadline_shed(job.kind);
            // Dropping `tx` unanswered resolves the ticket to `None`.
            inner.gate.complete();
            false
        });
    }
    if searches.is_empty() {
        return;
    }

    // Split the Sync part (queries/kinds/targets) from the send side
    // (tickets) so the worker pool only ever sees the former.
    let targets: Vec<Option<usize>> = searches.iter().map(|j| j.shard).collect();
    let queries: Vec<PackedQuery> = searches.iter().map(|j| j.query.clone()).collect();
    let kinds: Vec<RequestKind> = searches.iter().map(|j| j.kind).collect();
    let costs: Vec<f64> = kinds
        .iter()
        .map(|&k| kind_cost(k, inner.sense.as_ref(), inner.t_bank))
        .collect();
    let spec = BatchSpec {
        queries: &queries,
        kinds: &kinds,
        targets: &targets,
        costs: &costs,
    };

    let ExecResult {
        mut outcomes,
        hits: mut all_hits,
        per_job_latency_s,
        sched,
    } = BehaviouralBackend.execute(&view, &spec, inner.jobs, inner.t_bank);
    inner.metrics.on_batch(searches.len(), &sched);

    // One clock read for the whole batch: per-job wall latency is pure
    // arithmetic against it.
    let now = Instant::now();
    let mut samples: Vec<ResponseSample> = Vec::with_capacity(searches.len());
    for (j, job) in searches.drain(..).enumerate() {
        let outcome = std::mem::replace(&mut outcomes[j], SearchOutcome::empty());
        let hits = std::mem::take(&mut all_hits[j]);
        let rows_searched = match job.shard {
            Some(s) => view.shard(s).rows(),
            None => view.len(),
        };
        let energy_j = view.energy_of_kind(job.kind, &outcome);
        let wall_latency_ns = nanos_since(job.enqueued, now);
        if inner.audit_period > 0 {
            // Deterministic 1-in-`period` sample over the per-
            // dispatcher accept counter (SplitMix64-whitened so the
            // sample is spread, not periodic in arrival order; the
            // shard id folds in so dispatchers sample independently).
            let mut state = inner.audit_seed ^ ((me as u64) << 48) ^ *audit_counter;
            *audit_counter += 1;
            if split_mix64(&mut state).is_multiple_of(inner.audit_period) {
                audit_replay(inner, &view, &job, &outcome, &hits, energy_j);
            }
        }
        samples.push(ResponseSample {
            kind: job.kind,
            wall_ns: wall_latency_ns,
            model_latency_s: Some(per_job_latency_s[j]),
            rows: rows_searched,
            step1_misses: outcome.step1_misses,
            step2_misses: outcome.step2_misses,
            matches: outcome.matches.len(),
            energy_j,
        });
        if let Some(tx) = job.tx {
            // A dropped ticket is fine — the work was still done and
            // accounted; only the delivery is skipped.
            let _ = tx.send(SearchResponse {
                kind: job.kind,
                matches: outcome.matches,
                hits,
                step1_misses: outcome.step1_misses,
                step2_misses: outcome.step2_misses,
                rows_searched,
                energy_j,
                model_latency_s: per_job_latency_s[j],
                wall_latency_ns,
            });
        }
        inner.gate.complete();
    }
    inner.metrics.on_responses(&samples);
}

/// Commit one batch's writes through the live table and resolve their
/// tickets. Each write is priced by the calibrated 3-step program
/// (energy = per-cell write energy × width, latency = the program's
/// three phase windows) when [`ferrotcam::RowWriteMetrics`] are
/// attached; without metrics the latency falls back to the design's
/// nominal program duration and the energy is `None`, mirroring how
/// searches degrade without attached search metrics.
fn apply_writes(inner: &Inner, mut writes: Vec<Job>) {
    let ops: Vec<WriteOp> = writes
        .iter()
        .map(|job| match job.kind {
            RequestKind::Insert => {
                WriteOp::Insert(job.word.clone().expect("insert jobs carry their word"))
            }
            RequestKind::Update { row } => WriteOp::Update {
                row,
                word: job.word.clone().expect("update jobs carry their word"),
            },
            RequestKind::Delete { row } => WriteOp::Delete { row },
            _ => unreachable!("search kinds never reach the write path"),
        })
        .collect();
    let acks = inner.table.apply(&ops);
    let (energy_j, model_latency_s) = match inner.table.write_metrics() {
        Some(m) => (Some(m.energy), m.latency),
        None => (None, program_duration()),
    };
    let now = Instant::now();
    let mut samples: Vec<ResponseSample> = Vec::with_capacity(writes.len());
    for (job, ack) in writes.drain(..).zip(acks) {
        let matches = match ack {
            WriteAck::Inserted { row } => vec![row],
            WriteAck::Applied => match job.kind {
                RequestKind::Update { row } | RequestKind::Delete { row } => vec![row],
                _ => Vec::new(),
            },
            WriteAck::OutOfRange => Vec::new(),
        };
        let wall_latency_ns = nanos_since(job.enqueued, now);
        samples.push(ResponseSample {
            kind: job.kind,
            wall_ns: wall_latency_ns,
            model_latency_s: Some(model_latency_s),
            rows: 0,
            step1_misses: 0,
            step2_misses: 0,
            matches: matches.len(),
            energy_j,
        });
        if let Some(tx) = job.tx {
            let _ = tx.send(SearchResponse {
                kind: job.kind,
                matches,
                hits: Vec::new(),
                step1_misses: 0,
                step2_misses: 0,
                rows_searched: 0,
                energy_j,
                model_latency_s,
                wall_latency_ns,
            });
        }
        inner.gate.complete();
    }
    inner.metrics.on_responses(&samples);
}

/// Whole nanoseconds from `from` to `to` (0 if `to` is earlier).
fn nanos_since(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Replay one sampled kernel answer through the reference oracle and
/// record the verdict. Threshold requests replay with the sense-time
/// classifier when a model is attached, grounding the audit in the
/// circuit's analog decision. Every replay runs against the same
/// captured view the kernel answered from.
fn audit_replay(
    inner: &Inner,
    view: &SnapView,
    job: &Job,
    fast: &SearchOutcome,
    fast_hits: &[ApproxHit],
    fast_energy: Option<f64>,
) {
    let (reference, ref_hits) =
        reference_walk(view, job.kind, &job.query, job.shard, inner.sense.as_ref());
    let ref_energy = view.energy_of_kind(job.kind, &reference);
    let verdict = audit_compare(
        fast,
        fast_hits,
        fast_energy,
        &reference,
        &ref_hits,
        ref_energy,
        inner.audit_tolerance,
    );
    inner.metrics.on_audit(&verdict, job.kind);
    if !verdict.clean() {
        let lane = if verdict.match_divergence {
            "match"
        } else {
            "energy"
        };
        trace::audit_divergence(
            lane,
            hash_packed(&job.query),
            verdict.energy_rel,
            verdict.detail.clone().unwrap_or_default(),
        );
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use ferrotcam::TernaryWord;

    fn table(rows: u64, shards: usize) -> ShardedTcam {
        let mut t = ShardedTcam::new(8, shards);
        for i in 0..rows {
            t.store(TernaryWord::from_u64(i * 3, 8));
        }
        t
    }

    fn bits(v: u64) -> Vec<bool> {
        (0..8).rev().map(|b| (v >> b) & 1 == 1).collect()
    }

    /// `Ticket::wait` for tests without a deadline configured: every
    /// accepted request is answered.
    fn answered(t: Ticket) -> SearchResponse {
        t.wait()
            .expect("no deadline configured; every ticket answers")
    }

    #[test]
    fn single_query_roundtrip() {
        let svc = TcamService::start(table(16, 2), &ServiceConfig::default());
        let client = svc.client();
        let resp = answered(client.submit(0, bits(9), None).unwrap());
        // 9 = 3*3 is stored; fan-out scans all 16 rows.
        assert!(!resp.matches.is_empty());
        assert_eq!(resp.rows_searched, 16);
        assert!(resp.model_latency_s > 0.0);
        let m = svc.drain();
        assert_eq!(m.completed, 1);
        assert_eq!(m.submitted, 1);
    }

    #[test]
    fn fanout_equals_unsharded_search() {
        let t = table(32, 4);
        let reference = {
            let mut r = ferrotcam::BehavioralTcam::new(8);
            for i in 0..32u64 {
                r.store(TernaryWord::from_u64(i * 3, 8));
            }
            r
        };
        let svc = TcamService::start(t, &ServiceConfig::default());
        let client = svc.client();
        for v in [0u64, 3, 30, 93, 200] {
            let resp = answered(client.submit(0, bits(v), None).unwrap());
            assert_eq!(resp.matches, reference.search_naive(&bits(v)), "v={v}");
        }
        drop(svc);
    }

    #[test]
    fn audit_lane_samples_and_stays_clean() {
        // Period 1 audits *every* query; any kernel bug would surface
        // as a divergence here.
        let config = ServiceConfig {
            audit_period: 1,
            ..ServiceConfig::default()
        };
        let svc = TcamService::start(table(48, 3), &config);
        let client = svc.client();
        for v in 0..64u64 {
            let _ = answered(client.submit(0, bits(v * 5), None).unwrap());
        }
        let m = svc.drain();
        assert_eq!(m.completed, 64);
        assert_eq!(m.audit_sampled, 64, "period-1 lane replays everything");
        assert_eq!(m.audit_match_divergences, 0);
        assert_eq!(m.audit_energy_divergences, 0);
        assert!(m.audit_worst_energy_rel <= 1e-9);
    }

    #[test]
    fn noreply_submissions_are_counted_not_answered() {
        let config = ServiceConfig {
            audit_period: 0,
            ..ServiceConfig::default()
        };
        let svc = TcamService::start(table(16, 2), &config);
        let client = svc.client();
        for v in 0..32u64 {
            client
                .submit_noreply(0, PackedQuery::from_bits(&bits(v * 7)), None)
                .unwrap();
        }
        let m = svc.drain();
        assert_eq!(m.completed, 32);
        assert_eq!(m.audit_sampled, 0, "audit lane disabled at period 0");
        assert_eq!(m.rows_searched, 32 * 16);
    }

    #[test]
    fn drain_answers_everything_accepted() {
        let svc = TcamService::start(table(8, 2), &ServiceConfig::default());
        let client = svc.client();
        let tickets: Vec<Ticket> = (0..50)
            .map(|i| client.submit(0, bits(i % 256), None).unwrap())
            .collect();
        let m = svc.drain();
        assert_eq!(m.completed, 50);
        for t in tickets {
            let _ = t.wait().expect("drain answers"); // must not hang or panic
        }
        // After drain, new submissions shed as ShuttingDown.
        assert_eq!(
            client.submit(0, bits(1), None).unwrap_err(),
            Overloaded::ShuttingDown
        );
        assert_eq!(client.metrics().shed_shutting_down, 1);
    }

    #[test]
    fn rate_limited_tenant_sheds_but_others_proceed() {
        let svc = TcamService::start(table(8, 1), &ServiceConfig::default());
        let client = svc.client();
        client.set_policy(1, RatePolicy::per_second(0.0, 1.0));
        assert!(client.submit(1, bits(0), None).is_ok());
        assert_eq!(
            client.submit(1, bits(0), None).unwrap_err(),
            Overloaded::RateLimited { tenant: 1 }
        );
        assert!(client.submit(2, bits(0), None).is_ok());
        let m = svc.drain();
        assert_eq!(m.shed_rate_limited, 1);
        assert_eq!(m.completed, 2);
    }

    #[test]
    fn partitioned_submit_scans_one_shard() {
        let mut t = ShardedTcam::new(8, 4);
        // Key-partitioned fill: every word lives on its hash shard.
        for i in 0..64u64 {
            let word = TernaryWord::from_u64(i, 8);
            let shard = t.route(&bits(i));
            t.store_in(shard, word);
        }
        let svc = TcamService::start(t, &ServiceConfig::default());
        let client = svc.client();
        for i in [0u64, 17, 42, 63] {
            let resp = answered(client.submit_routed(0, bits(i)).unwrap());
            assert_eq!(resp.matches.len(), 1, "key {i} found on its shard");
            assert!(resp.rows_searched < 64, "scans one shard, not the table");
        }
        drop(svc);
    }

    #[test]
    fn packed_routed_equals_boolean_routed() {
        let mut t = ShardedTcam::new(8, 4);
        for i in 0..64u64 {
            let shard = t.route(&bits(i));
            t.store_in(shard, TernaryWord::from_u64(i, 8));
        }
        let svc = TcamService::start(t, &ServiceConfig::default());
        let client = svc.client();
        for i in [0u64, 17, 42, 63] {
            let a = answered(client.submit_routed(0, bits(i)).unwrap());
            let b = answered(
                client
                    .submit_packed_routed(0, PackedQuery::from_bits(&bits(i)))
                    .unwrap(),
            );
            assert_eq!(a.matches, b.matches, "key {i}");
            assert_eq!(a.rows_searched, b.rows_searched, "same shard routed");
        }
        drop(svc);
    }
}
