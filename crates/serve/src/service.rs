//! The associative-search service: submission, dispatch, writes, drain.
//!
//! ```text
//!  clients ──submit/send──▶ [validate] ──▶ [admission] ──▶ [queue 0] ──▶ dispatcher 0 ─┐
//!                               │             │shed  │    [queue 1] ──▶ dispatcher 1 ─┤ work-
//!                               ▼             ▼      │       ⋮               ⋮        │ stealing
//!                            Invalid      Overloaded │    [queue n] ──▶ dispatcher n ─┤
//!                                                    │                                │
//!   submit, every ring it waits on empty: caller-run └──▶ submitting thread ─────────┤
//!                                                                            │
//!                                                    writes → LiveTable::apply (epoch bump)
//!                                                                            │
//!                                                        capture SnapView ───┤
//!                                                                            │
//!                                               deadline shed ◀──────────────┤
//!                                                                            │
//!                                             BehaviouralBackend kernel over the view
//!                                                                            │
//!                                               merge + energy/latency attribution
//!                                                                            │
//!                                               sampled audit replay (same view) ◀─┤
//!                                                                            │
//!                                                                 tickets resolve ◀┘
//! ```
//!
//! Every submission is one [`Request`] through [`ServiceClient::submit`]
//! (answered through a [`Ticket`]) or [`ServiceClient::send`]
//! (fire-and-forget); a malformed one is [`Rejected::Invalid`] before
//! admission, a shed one [`Rejected::Overloaded`].
//!
//! A **caller-run** skips the hop to a dispatcher: a search submitted
//! through [`ServiceClient::submit`] that finds empty every ring it
//! would wait behind — its own shard's when pinned ([`Route::Home`] or
//! [`Route::Shard`]), every ring when it fans out ([`Route::FanOut`]) —
//! is answered on the submitting thread, through the same batch
//! execution a dispatcher runs (a batch of one, its shards in shard
//! order on that thread with one worker), and its ticket is resolved
//! when `submit` returns. Below saturation a batch holds about one
//! request, so queueing such a read buys no batching, only the hop.
//! Everything else queues: writes, fire-and-forget `send`s, and reads
//! that find work queued on a ring they check, so a read never
//! overtakes the queue it would have joined. A panic inside a caller-run
//! stays on that request: its ticket resolves `None` and
//! [`ServiceMetrics::caller_run_panics`] counts it. A caller-run
//! completes at the drain gate off the dispatchers; during a drain that
//! completion may be what a parked dispatcher waits for, so it then
//! rings every bell ([`Doorbells::ring_all_if_draining`], whose module
//! docs argue the fence it pairs with `begin_drain`).
//!
//! Dispatch is **per-shard**: one bounded queue and one dispatcher
//! thread per shard. Pinned (key-routed) queries and row-addressed
//! writes land on their shard's queue; fan-out queries round-robin.
//! A dispatcher whose own queue is empty **steals** from its peers'
//! queues, so a hot shard's backlog spreads over the whole pool. With
//! every queue empty it parks on its [`crate::doorbell`] bell: it
//! publishes `sleeping`, fences, re-checks every queue and the drain
//! gate, and parks only if they are still idle. A submitter fences
//! after its push and unparks the owner only if that flag is set, or,
//! while the owner is busy, the first sleeping peer, which steals the
//! job. While no dispatcher sleeps a push costs no wake syscall. For
//! 500 µs after its last batch an idle dispatcher first tries to be
//! the service's one spinner: it polls every queue, yielding its CPU
//! between polls, and while its heartbeat is fresh a push skips the
//! unpark altogether; a spin that loses its CPU for long backs off to
//! parking for a while. For a short window after its last batch a
//! parked dispatcher also re-polls on a timeout, so a ring whose thread
//! the scheduler is slow to run does not hold the job up; past that
//! window it parks until rung, and an idle service burns no CPU. A
//! dispatcher pulls up to `max_batch` requests, applies the batch's
//! writes through [`crate::shard::LiveTable`] (publishing one fresh
//! epoch per touched shard), then captures a [`crate::shard::SnapView`] and executes
//! every search of the batch against that immutable view — a search
//! can observe the table before or after any write, never a
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
//! per-lane accept counter, one lane per dispatcher plus one shared by
//! caller-runs, so the sample is reproducible and ungameable by arrival
//! order) is replayed through the scalar oracle ([`crate::reference`])
//! *against the same captured view* the kernel answered from — exact
//! under concurrent writes by construction.
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
use crate::doorbell::{Doorbells, SpinEnd, SPIN_BACKOFF_NS};
use crate::drain::DrainGate;
use crate::metrics::{MetricsCollector, ResponseSample, ServiceMetrics};
use crate::queue::BoundedQueue;
use crate::reference::{audit_compare, reference_walk};
use crate::reply;
use crate::request::{AdmissionClass, Body, Rejected, Request, RequestKind, Route, Search};
use crate::shard::{hash_packed, LiveTable, ShardedTcam, SnapView, WriteAck, WriteOp};
use crate::sync::{AtomicU64, AtomicUsize, Ordering};
use ferrotcam::{program_duration, ApproxHit, PackedQuery, SearchOutcome, SenseModel, TernaryWord};
use ferrotcam_spice::parallel::default_jobs;
use ferrotcam_spice::trace::{self, TraceLevel};
use rand::split_mix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
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
    /// Worker threads for a dispatcher's per-bank batch execution; 0
    /// means the `spice::parallel` default (`FERROTCAM_JOBS` or the
    /// core count). A caller-run always uses one: the submitting thread.
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
    rx: reply::Receiver<SearchResponse>,
}

impl Ticket {
    /// Block until the request resolves. `None` means the query was
    /// deadline-shed at dispatch ([`ServiceConfig::deadline`]) — the
    /// request was accepted and accounted, but its SLO expired before a
    /// dispatcher reached it, so no answer was computed. Every accepted
    /// request resolves one way or the other, even across a drain.
    #[must_use]
    pub fn wait(self) -> Option<SearchResponse> {
        self.rx.wait()
    }

    /// Non-blocking poll: the response the first time it is there,
    /// `None` while the request is pending and after the response was
    /// taken. A later [`Self::wait`] then returns `None` too.
    #[must_use]
    pub fn try_wait(&self) -> Option<SearchResponse> {
        self.rx.try_wait()
    }
}

/// One accepted request travelling through the queue. `tx: None` is a
/// fire-and-forget submission: the request still runs and is
/// accounted, but no response object is built or delivered (open-loop
/// load). The queue holds a [`Body`]; a dispatcher splits its batch
/// into search jobs and write jobs by that body.
#[derive(Debug)]
struct Job<B = Body> {
    body: B,
    /// The shard pin: the queue the job landed on and, for a search,
    /// the one shard it scans (`None` fans out).
    shard: Option<usize>,
    enqueued: Instant,
    tx: Option<reply::Sender<SearchResponse>>,
}

/// [`ServiceClient::submit`]'s result with [`Rejected::Invalid`] turned
/// into a panic, for the `Overloaded`-only entry points.
fn overloaded<T>(res: Result<T, Rejected>) -> Result<T, Overloaded> {
    res.map_err(|e| match e {
        Rejected::Overloaded(e) => e,
        Rejected::Invalid(e) => panic!("invalid request: {e}"),
    })
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
    /// across every queue, dispatcher and caller-run.
    gate: DrainGate,
    /// The caller lane's audit-sampler counter: every caller-run draws
    /// the next value, as a dispatcher draws from its own counter.
    caller_audit: AtomicU64,
    /// One doorbell per dispatcher: how a parked dispatcher is woken.
    bells: Doorbells,
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

/// Cloneable client handle: submit [`Request`]s, read metrics.
#[derive(Debug, Clone)]
pub struct ServiceClient {
    inner: Arc<Inner>,
}

impl ServiceClient {
    /// Submit `req` for `tenant` and return the ticket its answer
    /// resolves. Searches admit against the tenant's exact or approx
    /// token bucket, writes against its write bucket.
    ///
    /// # Errors
    /// [`Rejected::Invalid`] when the request is malformed for the
    /// served table (checked first; nothing is admitted or counted),
    /// else a typed [`Rejected::Overloaded`] shed — draining, tenant
    /// throttled, or the bounded queue is full — counted in the
    /// metrics.
    pub fn submit(&self, tenant: TenantId, req: Request) -> Result<Ticket, Rejected> {
        let (tx, rx) = reply::slot();
        self.enqueue(tenant, req, Some(tx))?;
        Ok(Ticket { rx })
    }

    /// Fire-and-forget [`Self::submit`]: the request runs and is fully
    /// accounted in metrics and the audit lane, but no response is
    /// built or delivered. This is the open-loop load-generation path —
    /// it skips the per-request reply slot entirely.
    ///
    /// # Errors
    /// Same as [`Self::submit`].
    pub fn send(&self, tenant: TenantId, req: Request) -> Result<(), Rejected> {
        self.enqueue(tenant, req, None)
    }

    /// [`Self::submit`] of a search pinned to `shard` (`None` fans
    /// out). This and the four shims below exist only because the
    /// `perfbench/` harness calls them; new code calls `submit`.
    ///
    /// # Errors
    /// The [`Overloaded`] sheds of [`Self::submit`].
    ///
    /// # Panics
    /// On a request `submit` refuses as [`Rejected::Invalid`].
    pub fn submit_kind(
        &self,
        tenant: TenantId,
        query: PackedQuery,
        kind: RequestKind,
        shard: Option<usize>,
    ) -> Result<Ticket, Overloaded> {
        let route = shard.map_or(Route::FanOut, Route::Shard);
        overloaded(self.submit(tenant, Request::search(kind, query, route)))
    }

    /// `perfbench/` shim: an exact search on its [`Route::Home`] shard.
    ///
    /// # Panics
    /// As [`Self::submit_kind`], whose [`Overloaded`] errors it shares.
    pub fn submit_packed_routed(
        &self,
        tenant: TenantId,
        query: PackedQuery,
    ) -> Result<Ticket, Overloaded> {
        let req = Request::search(RequestKind::Exact, query, Route::Home);
        overloaded(self.submit(tenant, req))
    }

    /// `perfbench/` shim: [`Request::insert`].
    ///
    /// # Panics
    /// As [`Self::submit_kind`], whose [`Overloaded`] errors it shares.
    pub fn submit_insert(&self, tenant: TenantId, word: TernaryWord) -> Result<Ticket, Overloaded> {
        overloaded(self.submit(tenant, Request::insert(word)))
    }

    /// `perfbench/` shim: [`Request::update`].
    ///
    /// # Panics
    /// As [`Self::submit_kind`], whose [`Overloaded`] errors it shares.
    pub fn submit_update(
        &self,
        tenant: TenantId,
        row: usize,
        word: TernaryWord,
    ) -> Result<Ticket, Overloaded> {
        overloaded(self.submit(tenant, Request::update(row, word)))
    }

    /// `perfbench/` shim: [`Request::delete`].
    ///
    /// # Panics
    /// Never: a delete is never invalid. Errors as [`Self::submit_kind`].
    pub fn submit_delete(&self, tenant: TenantId, row: usize) -> Result<Ticket, Overloaded> {
        overloaded(self.submit(tenant, Request::delete(row)))
    }

    /// The one admission path [`Self::submit`] and [`Self::send`]
    /// funnel into: validate, admit, accept against the drain gate,
    /// then run a submitted search on this thread ([`caller_run`]) when
    /// its shard's ring is empty (pinned) or every ring is (fan-out),
    /// else queue.
    fn enqueue(
        &self,
        tenant: TenantId,
        req: Request,
        tx: Option<reply::Sender<SearchResponse>>,
    ) -> Result<(), Rejected> {
        let inner = &*self.inner;
        // A malformed request is refused before it touches admission,
        // the drain gate or the metrics.
        let kind = req.kind();
        let (body, shard) = req.resolve(inner.table.width(), inner.table.shard_count())?;
        let now = Instant::now();
        if let Err(e) = inner.admission.admit(tenant, kind.class(), now) {
            inner.metrics.on_shed(e, kind);
            return Err(e.into());
        }
        // Accept atomically against the drain flag: either this bumps
        // the accepted count before the drain begins (a dispatcher
        // will then wait for it) or the service is already draining.
        if !inner.gate.try_accept() {
            inner.metrics.on_shed(Overloaded::ShuttingDown, kind);
            return Err(Overloaded::ShuttingDown.into());
        }
        let job = Job {
            body,
            shard,
            enqueued: now,
            tx,
        };
        // A search that awaits an answer and finds every ring it would
        // wait behind empty (its shard's, or all of them for a fan-out)
        // would wait for a dispatcher to do what this thread can do at
        // once: answer it here.
        if let (Body::Search(_), Some(_)) = (&job.body, &job.tx) {
            let idle = match shard {
                Some(s) => inner.queues[s].is_empty(),
                None => inner.queues.iter().all(BoundedQueue::is_empty),
            };
            if idle {
                caller_run(inner, job);
                return Ok(());
            }
        }
        // Pinned work queues on its shard's dispatcher; the rest
        // round-robins so no single dispatcher owns the merge load.
        let qi = shard.unwrap_or_else(|| {
            inner.route_counter.fetch_add(1, Ordering::Relaxed) // ordering: route-relaxed
                % inner.queues.len()
        });
        if inner.queues[qi].push(job).is_err() {
            // Give the acceptance back before reporting the shed. During
            // a drain that can complete quiescence, which a parked
            // dispatcher waits for.
            inner.gate.retract();
            inner.metrics.on_wakeups(inner.bells.ring_all());
            inner.metrics.on_shed(Overloaded::QueueFull, kind);
            return Err(Overloaded::QueueFull.into());
        }
        if inner.bells.ring(qi) {
            inner.metrics.on_wakeups(1);
        }
        inner.metrics.on_submit(inner.queues[qi].len());
        Ok(())
    }

    /// The shard a key-partitioned packed query routes to.
    #[must_use]
    pub fn route_packed(&self, query: &PackedQuery) -> usize {
        self.inner.table.route_packed(query)
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
            caller_audit: AtomicU64::new(0),
            bells: Doorbells::new(shards),
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
                let worker = std::thread::Builder::new()
                    .name(format!("ferrotcam-serve-{me}"))
                    .spawn(move || dispatch_loop(&worker_inner, me))
                    .expect("spawn dispatcher");
                // Before any client exists: no ring can miss the handle.
                // (Under loom the bells take model threads; the service's
                // OS threads are never run there.)
                #[cfg(not(loom))]
                inner.bells.register(me, worker.thread().clone());
                worker
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

    /// Graceful shutdown: refuse new work, answer everything already
    /// accepted, stop every dispatcher, and return the final metrics.
    #[must_use]
    pub fn drain(mut self) -> ServiceMetrics {
        self.begin_drain_and_join();
        self.inner.metrics.snapshot(self.inner.queue_depth())
    }

    fn begin_drain_and_join(&mut self) {
        self.inner.gate.begin_drain();
        self.inner.metrics.on_wakeups(self.inner.bells.ring_all());
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

/// How long after its last batch an idle dispatcher keeps re-polling
/// on its own, besides waiting for a ring. A ring wakes one dispatcher,
/// and when the scheduler leaves that one waiting for a core (behind
/// the submitter or the busy peer, or on a preempted vCPU), a peer
/// that re-polls steals the job instead. Past the window an idle
/// dispatcher parks until rung, so an idle service uses no CPU.
const POLL_WINDOW: Duration = Duration::from_millis(2);

/// The timeout of each park inside [`POLL_WINDOW`].
const POLL_PERIOD: Duration = Duration::from_micros(50);

/// Dispatcher `me`'s main loop: drain the own queue first; when it is
/// empty, steal a batch from a peer's queue (cyclic scan starting at
/// the next shard, so thieves spread instead of convoying); execute.
/// With every queue empty, first try to be the service's one spinner
/// ([`Doorbells::spin`], for [`crate::doorbell::SPIN_WINDOW_NS`] after
/// the last batch), then park on bell `me` through [`Doorbells::wait`],
/// whose publish, fence and re-check pair with the fence in
/// [`Doorbells::ring`] after every push. A contended spin parks instead of spinning for
/// [`SPIN_BACKOFF_NS`]. Exit only when draining and every accepted
/// request has resolved, and wake the parked peers on the way out so
/// they see it too.
///
/// For [`POLL_WINDOW`] after its last batch, a dispatcher parks for at
/// most [`POLL_PERIOD`] at a time; after that, until rung.
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
    let now = || inner.bells.now_ns();
    let mut last_batch = now();
    let mut backoff_until = 0;
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
        if !batch.is_empty() {
            let resolved = batch.len();
            execute_batch(inner, me, inner.jobs, &mut batch, &mut audit_counter);
            for _ in 0..resolved {
                inner.gate.complete();
            }
            last_batch = now();
            continue;
        }
        if inner.gate.quiescent() && inner.queues.iter().all(BoundedQueue::is_empty) {
            break;
        }
        match inner
            .bells
            .spin(&inner.queues, &inner.gate, last_batch, backoff_until, now)
        {
            SpinEnd::Work => {
                inner.metrics.on_spin_pickup();
                continue;
            }
            SpinEnd::Contended => {
                inner.metrics.on_spin_backoff();
                backoff_until = now().saturating_add(SPIN_BACKOFF_NS);
            }
            SpinEnd::Park => {}
        }
        let parked_at = (trace::level() != TraceLevel::Off).then(Instant::now);
        let idle = Duration::from_nanos(now().saturating_sub(last_batch));
        let timeout = (idle < POLL_WINDOW).then_some(POLL_PERIOD);
        if inner.bells.wait(me, &inner.queues, &inner.gate, timeout) {
            inner.metrics.on_park();
            if let Some(t0) = parked_at {
                trace::sample("serve.park_ns", nanos_since(t0, Instant::now()));
            }
        }
    }
    inner.metrics.on_wakeups(inner.bells.ring_all());
}

/// Answer one accepted search, pinned or fanned out, on the submitting
/// thread, as a batch of one through [`execute_batch`], so deadline
/// shedding, energy and latency attribution, the `serve.batch` span and
/// the metrics are a dispatcher's. Its shards run in shard order on
/// this thread with one worker, whatever [`ServiceConfig::jobs`] says:
/// more would make `par_map` spawn scoped threads for every search,
/// which on perfbench `serve-approx` at the default `jobs` measured
/// 40–60× the one-worker p50 (DESIGN, caller-runs). The job's ticket
/// is resolved before this returns. Its audit lane is the shard count
/// (dispatchers are `0..shards`), with one counter shared by every
/// submitting thread.
///
/// A panic inside the batch is contained here: the unwind drops the
/// job's reply sender unsent, so its ticket resolves `None`, and
/// [`ServiceMetrics::caller_run_panics`] counts it. Answered, shed or
/// unwound, the job then completes at the gate exactly once, and if the
/// service is draining, that completion may be what a parked dispatcher
/// waits for, so every bell rings ([`Doorbells::ring_all_if_draining`]).
fn caller_run(inner: &Inner, job: Job) {
    inner.metrics.on_caller_run();
    // ordering: caller-audit-relaxed
    let mut audit_counter = inner.caller_audit.fetch_add(1, Ordering::Relaxed);
    let run = catch_unwind(AssertUnwindSafe(|| {
        execute_batch(
            inner,
            inner.queues.len(),
            1,
            &mut vec![job],
            &mut audit_counter,
        );
    }));
    if run.is_err() {
        inner.metrics.on_caller_run_panic();
    }
    inner.gate.complete();
    let woken = inner.bells.ring_all_if_draining(&inner.gate);
    if woken > 0 {
        inner.metrics.on_wakeups(woken);
    }
}

/// Per-kind bank-occupancy multiplier for the batch planner. With a
/// sense-time model attached, a threshold query's bank time is its
/// sense time (high thresholds sense early, low ones late) and a range
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
/// and execute the remaining searches on the kernel against that view
/// with up to `workers` scoped workers, model the bank schedule,
/// attribute energy, audit a sample, resolve tickets. Drains `jobs` in
/// place so the dispatcher's batch buffer is reused across iterations.
/// `lane` names the audit sampler: dispatcher `me`, or the shard count
/// for a caller-run. Every job is resolved (applied, shed or answered)
/// but none is completed at the drain gate: the caller completes the
/// whole batch once this returns, so a batch that unwinds part-way is
/// never completed twice.
///
/// Ordering: writes-before-searches within one batch is a valid
/// linearization — every job in the batch was accepted before any of
/// them executed, and searches then observe all of the batch's writes.
fn execute_batch(
    inner: &Inner,
    lane: usize,
    workers: usize,
    jobs: &mut Vec<Job>,
    audit_counter: &mut u64,
) {
    let tracing = trace::level() != TraceLevel::Off;
    let _span = tracing.then(|| trace::span("serve.batch"));
    // Queue wait is enqueue → batch start; one clock read per batch,
    // and only when tracing.
    let batch_start = tracing.then(Instant::now);

    // Writes first, in batch order.
    let mut writes: Vec<Job<WriteOp>> = Vec::new();
    let mut searches: Vec<Job<Search>> = Vec::new();
    for Job {
        body,
        shard,
        enqueued,
        tx,
    } in jobs.drain(..)
    {
        if let Some(start) = batch_start {
            trace::sample("serve.queue_wait_ns", nanos_since(enqueued, start));
        }
        match body {
            Body::Write(op) => writes.push(Job {
                body: op,
                shard,
                enqueued,
                tx,
            }),
            Body::Search(search) => searches.push(Job {
                body: search,
                shard,
                enqueued,
                tx,
            }),
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
            inner.metrics.on_deadline_shed(job.body.kind);
            // Dropping `tx` unanswered resolves the ticket to `None`.
            false
        });
    }
    if searches.is_empty() {
        return;
    }

    // Split the Sync part (queries/kinds/targets) from the send side
    // (tickets) so the worker pool only ever sees the former.
    let targets: Vec<Option<usize>> = searches.iter().map(|j| j.shard).collect();
    let queries: Vec<PackedQuery> = searches.iter().map(|j| j.body.query.clone()).collect();
    let kinds: Vec<RequestKind> = searches.iter().map(|j| j.body.kind).collect();
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
    } = BehaviouralBackend.execute(&view, &spec, workers, inner.t_bank);
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
        let kind = job.body.kind;
        let energy_j = view.energy_of_kind(kind, &outcome);
        let wall_latency_ns = nanos_since(job.enqueued, now);
        if inner.audit_period > 0 {
            // Deterministic 1-in-`period` sample over the lane's
            // accept counter (SplitMix64-whitened so the sample is
            // spread, not periodic in arrival order; the lane id folds
            // in so dispatchers and the caller lane sample
            // independently).
            let mut state = inner.audit_seed ^ ((lane as u64) << 48) ^ *audit_counter;
            *audit_counter += 1;
            if split_mix64(&mut state).is_multiple_of(inner.audit_period) {
                audit_replay(inner, &view, &job, &outcome, &hits, energy_j);
            }
        }
        samples.push(ResponseSample {
            kind,
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
            // accounted; the answer is dropped with its slot.
            tx.send(SearchResponse {
                kind,
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
fn apply_writes(inner: &Inner, mut writes: Vec<Job<WriteOp>>) {
    let ops: Vec<WriteOp> = writes.iter().map(|job| job.body.clone()).collect();
    let acks = inner.table.apply(&ops);
    let (energy_j, model_latency_s) = match inner.table.write_metrics() {
        Some(m) => (Some(m.energy), m.latency),
        None => (None, program_duration()),
    };
    let now = Instant::now();
    let mut samples: Vec<ResponseSample> = Vec::with_capacity(writes.len());
    for (job, ack) in writes.drain(..).zip(acks) {
        // The affected global row: the assigned slot of an insert, the
        // addressed row of an applied update or delete.
        let row = match (ack, &job.body) {
            (WriteAck::Inserted { row }, _) => Some(row),
            (WriteAck::Applied, WriteOp::Update { row, .. } | WriteOp::Delete { row }) => {
                Some(*row)
            }
            _ => None,
        };
        let kind = job.body.kind();
        let wall_latency_ns = nanos_since(job.enqueued, now);
        samples.push(ResponseSample {
            kind,
            wall_ns: wall_latency_ns,
            model_latency_s: Some(model_latency_s),
            rows: 0,
            step1_misses: 0,
            step2_misses: 0,
            matches: usize::from(row.is_some()),
            energy_j,
        });
        if let Some(tx) = job.tx {
            tx.send(SearchResponse {
                kind,
                // hot-ok: a reply owns its match list; fire-and-forget writes build none
                matches: row.into_iter().collect(),
                // hot-ok: an empty Vec does not allocate
                hits: Vec::new(),
                step1_misses: 0,
                step2_misses: 0,
                rows_searched: 0,
                energy_j,
                model_latency_s,
                wall_latency_ns,
            });
        }
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
    job: &Job<Search>,
    fast: &SearchOutcome,
    fast_hits: &[ApproxHit],
    fast_energy: Option<f64>,
) {
    let Search { kind, query } = &job.body;
    let (reference, ref_hits) = reference_walk(view, *kind, query, job.shard, inner.sense.as_ref());
    let ref_energy = view.energy_of_kind(*kind, &reference);
    let verdict = audit_compare(
        fast,
        fast_hits,
        fast_energy,
        &reference,
        &ref_hits,
        ref_energy,
        inner.audit_tolerance,
    );
    inner.metrics.on_audit(&verdict, *kind);
    if !verdict.clean() {
        let lane = if verdict.match_divergence {
            "match"
        } else {
            "energy"
        };
        trace::audit_divergence(
            lane,
            hash_packed(query),
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

    fn exact(v: u64, route: Route) -> Request {
        Request::search(RequestKind::Exact, PackedQuery::from_bits(&bits(v)), route)
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
        let resp = answered(client.submit(0, exact(9, Route::FanOut)).unwrap());
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
            let resp = answered(client.submit(0, exact(v, Route::FanOut)).unwrap());
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
            let _ = answered(client.submit(0, exact(v * 5, Route::FanOut)).unwrap());
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
            client.send(0, exact(v * 7, Route::FanOut)).unwrap();
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
            .map(|i| client.submit(0, exact(i % 256, Route::FanOut)).unwrap())
            .collect();
        let m = svc.drain();
        assert_eq!(m.completed, 50);
        for t in tickets {
            let _ = t.wait().expect("drain answers"); // must not hang or panic
        }
        // After drain, new submissions shed as ShuttingDown.
        assert_eq!(
            client.submit(0, exact(1, Route::FanOut)).unwrap_err(),
            Rejected::Overloaded(Overloaded::ShuttingDown)
        );
        assert_eq!(client.metrics().shed_shutting_down, 1);
    }

    #[test]
    fn rate_limited_tenant_sheds_but_others_proceed() {
        let svc = TcamService::start(table(8, 1), &ServiceConfig::default());
        let client = svc.client();
        client.set_class_policy(1, AdmissionClass::Exact, RatePolicy::per_second(0.0, 1.0));
        assert!(client.submit(1, exact(0, Route::FanOut)).is_ok());
        assert_eq!(
            client.submit(1, exact(0, Route::FanOut)).unwrap_err(),
            Rejected::Overloaded(Overloaded::RateLimited { tenant: 1 })
        );
        assert!(client.submit(2, exact(0, Route::FanOut)).is_ok());
        let m = svc.drain();
        assert_eq!(m.shed_rate_limited, 1);
        assert_eq!(m.completed, 2);
    }

    /// An idle fan-out runs every shard on the submitting thread, one
    /// worker whatever `jobs` says.
    #[test]
    fn a_fan_out_caller_run_scans_every_shard_on_the_caller() {
        let config = ServiceConfig {
            jobs: 8,
            ..ServiceConfig::default()
        };
        let svc = TcamService::start(table(48, 3), &config);
        let client = svc.client();
        let before = crate::backend::kernel_calls();
        let resp = client.submit(0, exact(9, Route::FanOut)).unwrap();
        assert_eq!(
            crate::backend::kernel_calls() - before,
            3,
            "one kernel call per shard, all on this thread"
        );
        let resp = resp.try_wait().expect("answered before submit returned");
        assert_eq!(resp.matches, vec![3], "9 = 3 * 3 is row 3");
        assert_eq!(resp.rows_searched, 48);
        drop(svc);
    }

    /// A caller-run whose kernel panics is contained on the submitting
    /// thread, pinned or fanned out: `submit` returns its ticket, which
    /// resolves `None`, the panic is counted, the next request is
    /// answered, and `drain()` returns with every other response
    /// delivered. A job the unwind left uncompleted at the gate hangs
    /// the drain (or the service's `Drop` while a panic unwinds), so
    /// the body runs on its own thread and a hang fails the test.
    #[test]
    fn a_panicking_caller_run_resolves_none_and_the_drain_returns() {
        let body = std::thread::spawn(|| {
            let svc = TcamService::start(table(16, 2), &ServiceConfig::default());
            let client = svc.client();
            for (i, route) in [Route::Shard(1), Route::FanOut].into_iter().enumerate() {
                crate::backend::panic_in_next_kernel_call();
                let ticket = client.submit(0, exact(9, route)).unwrap();
                assert_eq!(client.metrics().caller_runs, i as u64 + 1, "{route:?}");
                assert!(ticket.try_wait().is_none(), "{route:?}");
                assert!(
                    ticket.wait().is_none(),
                    "an unwound caller-run has no answer"
                );
            }
            let resp = answered(client.submit(0, exact(9, Route::FanOut)).unwrap());
            assert!(!resp.matches.is_empty(), "the service keeps answering");
            svc.drain()
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while !body.is_finished() {
            assert!(Instant::now() < deadline, "the service hangs after a panic");
            std::thread::sleep(Duration::from_millis(1));
        }
        let m = body
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        assert_eq!(m.caller_run_panics, 2);
        assert_eq!(m.caller_runs, 3);
        assert_eq!(m.submitted, 3);
        assert_eq!(
            m.completed,
            m.submitted - m.caller_run_panics,
            "every request but the unwound ones delivered its response"
        );
    }

    /// Home-routed searches scan only their key's shard and find it
    /// there, and the `submit_packed_routed` shim routes identically.
    #[test]
    fn home_route_scans_one_shard() {
        let mut t = ShardedTcam::new(8, 4);
        // Key-partitioned fill: every word lives on its hash shard.
        for i in 0..64u64 {
            let shard = t.route_packed(&PackedQuery::from_bits(&bits(i)));
            t.store_in(shard, TernaryWord::from_u64(i, 8));
        }
        let svc = TcamService::start(t, &ServiceConfig::default());
        let client = svc.client();
        for i in [0u64, 17, 42, 63] {
            let home = answered(client.submit(0, exact(i, Route::Home)).unwrap());
            assert_eq!(home.matches.len(), 1, "key {i} found on its shard");
            assert!(home.rows_searched < 64, "scans one shard, not the table");
            let query = PackedQuery::from_bits(&bits(i));
            let shim = answered(client.submit_packed_routed(0, query).unwrap());
            assert_eq!(shim.matches, home.matches, "key {i}");
            assert_eq!(shim.rows_searched, home.rows_searched, "same shard");
        }
        drop(svc);
    }
}
