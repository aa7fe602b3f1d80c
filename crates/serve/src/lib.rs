//! # ferrotcam-serve
//!
//! The serving layer of the ferroTCAM workspace: a multi-tenant,
//! sharded, batched associative-search service over the behavioural
//! TCAM, with SPICE-calibrated energy and latency attribution on every
//! response.
//!
//! Where the rest of the workspace *simulates* the paper's TCAM, this
//! crate *serves* it: queries and online writes arrive concurrently
//! from many clients, pass per-tenant admission control
//! ([`admission`]), queue in per-shard bounded lock-free rings
//! ([`queue`]), get coalesced into per-bank batches ([`batch`]) by
//! per-shard work-stealing dispatchers (which park on per-shard
//! [`doorbell`]s when idle), execute on copy-on-write shard
//! snapshots ([`shard`]) through one bit-parallel serving kernel
//! ([`backend`]) over the `spice::parallel` worker pool — with a
//! sampled audit lane replaying answers through the scalar reference
//! oracle ([`reference`](mod@reference)) — and come back with the exact
//! Table IV early-termination energy the search would have burned in
//! silicon. Writes (insert / delete / update) publish fresh per-shard
//! snapshots behind an epoch counter, so an in-flight search can never
//! observe a torn word, and are priced by the calibrated 3-step
//! program. Load beyond capacity is shed with typed [`Overloaded`]
//! errors instead of growing queues without bound (and, with a
//! configured deadline, queries whose SLO already expired are shed at
//! dispatch), and a [`ServiceMetrics`] snapshot (latency percentiles,
//! queue depth, batch sizes, shed counts, step-1 early-termination
//! rate) exports as JSON at any time.
//!
//! Every submission is one [`Request`] (a kind, its payload and a
//! [`Route`]) through [`ServiceClient::submit`] or, fire-and-forget,
//! [`ServiceClient::send`]; a malformed one is [`Rejected::Invalid`].
//!
//! ```
//! use ferrotcam_serve::{
//!     Invalid, Rejected, Request, RequestKind, Route, ServiceConfig, ShardedTcam, TcamService,
//! };
//! use ferrotcam::{PackedQuery, TernaryWord};
//!
//! let mut table = ShardedTcam::new(8, 2);
//! for i in 0..16u64 {
//!     table.store(TernaryWord::from_u64(i, 8));
//! }
//! let service = TcamService::start(table, &ServiceConfig::default());
//! let client = service.client();
//! let exact = |v: u64| {
//!     let bits: Vec<bool> = (0..8).rev().map(|b| (v >> b) & 1 == 1).collect();
//!     Request::search(RequestKind::Exact, PackedQuery::from_bits(&bits), Route::FanOut)
//! };
//! let response = client.submit(0, exact(5))?.wait().expect("answered");
//! assert_eq!(response.matches, vec![5]);
//! // Online write: program a new word, then find it.
//! let ack = client.submit(0, Request::insert(TernaryWord::from_u64(0xAB, 8)))?;
//! let slot = ack.wait().expect("answered").matches[0];
//! let hit = client.submit(0, exact(0xAB))?.wait().expect("answered");
//! assert_eq!(hit.matches, vec![slot]);
//! // A malformed request is refused, not admitted.
//! let short = Request::search(RequestKind::Exact, PackedQuery::from_bits(&[true]), Route::FanOut);
//! assert_eq!(
//!     client.submit(0, short).unwrap_err(),
//!     Rejected::Invalid(Invalid::Width { expected: 8, got: 1 })
//! );
//! let metrics = service.drain();
//! assert_eq!(metrics.completed, 3);
//! # Ok::<(), Rejected>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod backend;
pub mod batch;
pub mod doorbell;
pub mod drain;
pub mod metrics;
pub mod queue;
pub mod reference;
pub mod reply;
pub mod request;
pub mod service;
pub mod shard;
pub(crate) mod sync;

pub use admission::{Admission, Overloaded, RatePolicy, TenantId, TokenBucket};
pub use backend::{BackendKind, BatchSpec, BehaviouralBackend, ExecBackend, ExecResult};
pub use doorbell::{Doorbells, SpinEnd};
pub use drain::DrainGate;
pub use metrics::{
    Histogram, KindBreakdown, LatencySummary, MetricsCollector, ResponseSample, ServiceMetrics,
};
pub use queue::BoundedQueue;
pub use reference::{audit_compare, reference_search, reference_walk, AuditVerdict};
pub use request::{AdmissionClass, Invalid, Rejected, Request, RequestKind, Route, KIND_COUNT};
pub use service::{SearchResponse, ServiceClient, ServiceConfig, TcamService, Ticket};
pub use shard::{
    hash_packed, EpochCell, LiveTable, ShardSnap, ShardedTcam, SnapView, WriteAck, WriteOp,
    BLOCK_ROWS,
};
